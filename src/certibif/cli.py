"""Command-line front end.

Subcommands mirror the result groups of the study: `simulate` and
`rotation`/`farey` for the dynamics, `diagram` for the non-rigorous
bifurcation diagram, `branch` for validated continuation, and
`validate-ns` / `validate-sn` / `transcritical` for the certified
bifurcation points.  Outputs are CSV (plot data) and JSON (certificates);
rigorous numbers are serialized as full-precision decimal strings.

Exit codes: 0 success, 1 validation/certification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import continuation as cont
from . import dynamics
from .bifurcation import (NsSystem, SnSystem, certify_ns, certify_sn,
                          transcritical_analysis)
from .errors import CertificationFailed, ValidationFailed
from .model import CoralMap, CoralParams, FixedPointReduction


def _load_params(args) -> CoralParams:
    if getattr(args, "config", None):
        return CoralParams.from_config(args.config)
    return CoralParams()


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"output directory not writable: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    params = _load_params(args)
    coral = CoralMap(params)
    out = _outdir(args)
    lam = args.R / coral.cf.ba if args.R is not None else args.lam
    if lam is None:
        print("need --R or --lam", file=sys.stderr)
        return 2
    if args.x0.startswith("density:"):
        x0 = dynamics.density_matched_state(coral, float(args.x0.split(":", 1)[1]))
    elif args.x0 == "fixed":
        system, t0, u0 = cont.branch_start(coral, lam * coral.cf.ba, precondition=False)
        x0 = system.to_raw(t0, u0)[1]
    elif args.x0 == "random":
        rng = np.random.default_rng(args.seed)
        x0 = rng.uniform(0.0, 1.0, coral.d) * dynamics.density_matched_state(coral, 1500.0)
    else:
        x0 = np.loadtxt(args.x0, delimiter=",")
    x0 = args.x0_scale * x0
    orb = dynamics.iterate(coral, lam, x0, n=args.years, skip=args.skip)
    P = dynamics.polyp_density_series(coral, orb)
    path = out / "simulate.csv"
    rows = ([i + 1 + args.skip] + list(orb.points[i]) + [P[i]]
            for i in range(args.years))
    _write_csv(path, ["year"] + [f"x{k+1}" for k in range(coral.d)] + ["P"], rows)
    print(f"wrote {path} ({args.years} years at R = {lam * coral.cf.ba:.6g})")
    return 0


def cmd_diagram(args) -> int:
    params = _load_params(args)
    coral = CoralMap(params)
    out = _outdir(args)
    red = FixedPointReduction(coral)
    rows = []
    x1_hi = args.P_max / red.cP
    for x1 in np.linspace(x1_hi, 1e-6, args.points):
        R = red.branch_R(float(x1))
        if R > args.R_max:
            continue
        lam = R / coral.cf.ba
        x = red.full_point(float(x1))
        rows.append([R, red.cP * x1, cont.classify_stability(coral.jac_x(lam, x)),
                     "nontrivial"])
    for R in np.linspace(max(args.R_min, 1e-3), args.R_max, args.points):
        lam = R / coral.cf.ba
        rows.append([R, 0.0, cont.classify_stability(coral.jac_x(lam, np.zeros(coral.d))),
                     "trivial"])
    path = out / "diagram.csv"
    _write_csv(path, ["R", "P", "stability", "branch"], rows)
    print(f"wrote {path} ({len(rows)} points)")
    return 0


def emit_branch_csv(path: Path, system: cont.CoralBranchSystem,
                    result: cont.BranchResult) -> None:
    coral = system.coral
    rows = []
    for b in result.boxes:
        lam, x = system.to_raw(b.t, b.u)
        P = float(coral.cf.q @ x)
        rows.append([system.R_of_t(b.t), lam] + list(x)
                    + [P, b.delta_alpha, b.delta_u, b.delta_min, b.stability])
    _write_csv(path, ["R", "lambda"] + [f"x{k+1}" for k in range(coral.d)]
               + ["P", "delta_alpha", "delta_u", "delta_min", "stability"], rows)


def emit_bifurcation_diagram(path: Path, system: cont.CoralBranchSystem,
                             result: cont.BranchResult,
                             trivial_points: int = 400) -> None:
    """Diagram rows (R, P, stability, delta_u) combining the validated
    nontrivial branch with the analytically known trivial branch P = 0."""
    coral = system.coral
    rows = []
    Rs = []
    for b in result.boxes:
        lam, x = system.to_raw(b.t, b.u)
        R = system.R_of_t(b.t)
        Rs.append(R)
        rows.append([R, float(coral.cf.q @ x), b.stability, b.delta_u,
                     "nontrivial"])
    lo = min(Rs) if Rs else 1.0
    hi = max(Rs) if Rs else 300.0
    for R in np.linspace(max(lo - 5.0, 1e-3), hi, trivial_points):
        lam = R / coral.cf.ba
        rows.append([float(R), 0.0,
                     cont.classify_stability(coral.jac_x(lam, np.zeros(coral.d))),
                     "", "trivial"])
    _write_csv(path, ["R", "P", "stability", "delta_u", "branch"], rows)


def cmd_branch(args) -> int:
    params = _load_params(args)
    coral = CoralMap(params)
    out = _outdir(args)
    cfg = cont.ContinuationConfig(from_R=args.from_R, to_R=args.to_R,
                                  max_steps=args.max_steps,
                                  alpha_frac=args.alpha_frac)
    system, t0, u0 = cont.branch_start(coral, args.from_R,
                                       precondition=args.precondition == "auto")
    res = cont.continue_branch(system, t0, u0, cfg)
    emit_branch_csv(out / "branch.csv", system, res)
    emit_bifurcation_diagram(out / "bifurcation_diagram.csv", system, res)
    chain = {
        "stop_reason": res.stop_reason,
        "steps": len(res.boxes),
        "all_linked": res.all_linked(),
        "fold_index": res.fold_index,
        "delta_min_max": repr(max((b.delta_min for b in res.boxes), default=0.0)),
        "boxes": [{
            "index": b.index,
            "R": repr(system.R_of_t(b.t)),
            "delta_alpha": repr(b.delta_alpha),
            "delta_u": repr(b.delta_u),
            "delta_min": repr(b.delta_min),
            "K": repr(b.hyp.K),
            "rho": repr(b.hyp.rho),
            "L1": repr(b.bounds.L1),
            "halvings": b.halvings,
            "linked": b.linked_to_previous,
        } for b in res.boxes],
    }
    (out / "branch_certificates.json").write_text(json.dumps(chain, indent=1))
    print(f"{len(res.boxes)} validated boxes, stop: {res.stop_reason}, "
          f"linked: {res.all_linked()}")
    ok = res.stop_reason in ("target", "max-steps") or res.stop_reason.startswith("degenerate")
    return 0 if (res.boxes and ok) else 1


def cmd_validate_ns(args) -> int:
    params = _load_params(args)
    coral = CoralMap(params)
    out = _outdir(args)
    anchor = _load_anchor(args.anchor, NsSystem(coral)) if args.anchor else None
    try:
        cert = certify_ns(coral, anchor=anchor, ell=args.ell)
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    path = out / "ns_certificate.json"
    path.write_text(cert.dumps())
    s = cert.summary
    print(f"Neimark-Sacker certified: R = {s['R']:.6g}, lambda = {s['lambda']:.6g}, "
          f"x1 = {s['x1']:.6g}, P = {s['P']:.6g}")
    print(f"  delta_accuracy = {cert.delta_accuracy:.4g}, "
          f"delta_uniqueness = {cert.delta_uniqueness:.4g}, "
          f"eigenvalues inside disk: {cert.spectrum_inside}")
    for name, (lo, hi) in cert.conditions.items():
        print(f"  {name}: [{lo:.6g}, {hi:.6g}]")
    print(f"wrote {path}")
    return 0


def cmd_validate_sn(args) -> int:
    params = _load_params(args)
    coral = CoralMap(params)
    out = _outdir(args)
    anchor = _load_anchor(args.anchor, SnSystem(coral)) if args.anchor else None
    try:
        cert = certify_sn(coral, anchor=anchor, ell=args.ell)
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    path = out / "sn_certificate.json"
    path.write_text(cert.dumps())
    s = cert.summary
    print(f"saddle-node certified: R = {s['R']:.6g}, lambda = {s['lambda']:.6g}, "
          f"x1 = {s['x1']:.6g}, P = {s['P']:.6g}")
    print(f"  delta_accuracy = {cert.delta_accuracy:.4g}, "
          f"delta_uniqueness = {cert.delta_uniqueness:.4g}")
    for name, (lo, hi) in cert.conditions.items():
        print(f"  {name}: [{lo:.6g}, {hi:.6g}]")
    print(f"wrote {path}")
    return 0


def _load_anchor(path: str, system) -> np.ndarray:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data["anchor"]
    if len(data) != system.dim:
        raise ValueError(f"anchor in {path} has {len(data)} entries; the "
                         f"{system.name} system needs {system.dim}")
    return np.array([float(v) for v in data])


def cmd_transcritical(args) -> int:
    params = _load_params(args)
    out = _outdir(args)
    res = transcritical_analysis(params)
    path = out / "transcritical.json"
    path.write_text(res.dumps())
    print(f"transcritical point: R* in [{res.R_star.lo!r}, {res.R_star.hi!r}]")
    print(f"  lambda* in [{res.lambda_star.lo!r}, {res.lambda_star.hi!r}]")
    print(f"  nd1 in [{res.nd1.lo:.6g}, {res.nd1.hi:.6g}] (excludes 0: "
          f"{not res.nd1.contains_zero()})")
    print(f"  nd2 in [{res.nd2.lo:.6g}, {res.nd2.hi:.6g}] (excludes 0: "
          f"{not res.nd2.contains_zero()})")
    print(f"  eigenvector residual: {res.eigvec_residual:.3g}")
    print(f"wrote {path}")
    return 0 if not res.nd1.contains_zero() and not res.nd2.contains_zero() else 1


def cmd_rotation(args) -> int:
    coral = CoralMap(_load_params(args))
    out = _outdir(args)
    lo, hi, n = args.R_range.split(":")
    Rs = np.linspace(float(lo), float(hi), int(n))
    center = tuple(float(v) for v in args.center.split(","))
    y = dynamics.density_matched_state(coral, 1500.0)
    # one batched recurrence for the whole sweep, keeping the (x1, x2)
    # projection that the rotation numbers use
    orb = dynamics.iterate(coral, Rs / coral.cf.ba, args.x0_factor * y,
                           n=args.iterates, skip=args.skip, keep=2)
    rot_rows, prof_rows = [], []
    for j, R in enumerate(Rs):
        xy = orb.points[:, j]
        r = dynamics.rotation_number(xy, center=center)
        prof = dynamics.angle_profile(xy, center=center, bins=args.bins)
        rot_rows.append([R, r.rho, r.convergence_gap, r.iterates_used])
        prof_rows.extend([R, c, m] for c, m in zip(prof.bin_centers, prof.mean_increment))
    _write_csv(out / "rotation.csv", ["R", "rho", "convergence_gap", "iterates"], rot_rows)
    _write_csv(out / "angle_profile.csv", ["R", "angle", "mean_increment"], prof_rows)
    print(f"wrote {out/'rotation.csv'} and {out/'angle_profile.csv'} "
          f"({len(Rs)} parameter values)")
    return 0


def cmd_farey(args) -> int:
    p, q = dynamics.farey_min_denominator(args.lo, args.hi)
    print(f"{p}/{q}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="certibif",
        description="Validated continuation and bifurcation certificates "
                    "for the red-coral population map.")
    ap.add_argument("--config", help="parameter config file (key = value)")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized initial data")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="iterate the map and emit a time series")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--x0", default="density:1500",
                   help="density:<P> | fixed | random | CSV file")
    p.add_argument("--x0-scale", type=float, default=1.0)
    p.add_argument("--years", type=int, default=100)
    p.add_argument("--skip", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("diagram", help="non-rigorous bifurcation diagram CSV")
    p.add_argument("--R-min", dest="R_min", type=float, default=5.0)
    p.add_argument("--R-max", dest="R_max", type=float, default=300.0)
    p.add_argument("--P-max", dest="P_max", type=float, default=3500.0)
    p.add_argument("--points", type=int, default=800)
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("branch", help="validated pseudo-arclength continuation")
    p.add_argument("--from-R", dest="from_R", type=float, default=300.0)
    p.add_argument("--to-R", dest="to_R", type=float, default=72.0)
    p.add_argument("--max-steps", dest="max_steps", type=int,
                   default=cont.ContinuationConfig.max_steps)
    p.add_argument("--alpha-frac", dest="alpha_frac", type=float,
                   default=cont.ContinuationConfig.alpha_frac)
    p.add_argument("--precondition", choices=["auto", "off"], default="auto")
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("validate-ns", help="certify the Neimark-Sacker point")
    p.add_argument("--anchor", help="JSON file with a 42-dim anchor")
    p.add_argument("--ell", type=float, default=1e-6)
    p.set_defaults(fn=cmd_validate_ns)

    p = sub.add_parser("validate-sn", help="certify the saddle-node point")
    p.add_argument("--anchor", help="JSON file with a 27-dim anchor")
    p.add_argument("--ell", type=float, default=1e-6)
    p.set_defaults(fn=cmd_validate_sn)

    p = sub.add_parser("transcritical", help="closed-form extinction-branch point")
    p.set_defaults(fn=cmd_transcritical)

    p = sub.add_parser("rotation", help="weighted-Birkhoff rotation numbers")
    p.add_argument("--R-range", dest="R_range", default="160:200:10",
                   help="lo:hi:count")
    p.add_argument("--center", default="2500,2500")
    p.add_argument("--iterates", type=int, default=100_000)
    p.add_argument("--skip", type=int, default=10_000)
    p.add_argument("--x0-factor", dest="x0_factor", type=float, default=1.5)
    p.add_argument("--bins", type=int, default=64)
    p.set_defaults(fn=cmd_rotation)

    p = sub.add_parser("farey", help="smallest denominator in [lo, hi]")
    p.add_argument("lo")
    p.add_argument("hi")
    p.set_defaults(fn=cmd_farey)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:          # usage-grade aborts from helpers
        return int(exc.code or 0)
    except (ValidationFailed, CertificationFailed) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
