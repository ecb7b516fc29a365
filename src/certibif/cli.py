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
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import continuation as cont
from . import dynamics
from .bifurcation import (NsSystem, SnSystem, certify_ns, certify_sn,
                          transcritical_analysis)
from .cift import certificate_json
from .errors import CertificationFailed, OrbitDiverged, RotationUndefined, ValidationFailed
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


def _write_lines(path: Path, header: list[str], lines) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_csv(path: Path, header: list[str], rows) -> None:
    _write_lines(path, header, (",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                                         else str(v) for v in row) for row in rows))


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
        x0 = cont.nontrivial_fixed_point(coral, lam * coral.cf.ba)
    elif args.x0 == "random":
        rng = np.random.default_rng(args.seed)
        x0 = rng.uniform(0.0, 1.0, coral.d) * dynamics.density_matched_state(coral, 1500.0)
    else:
        x0 = _checked(np.loadtxt(args.x0, delimiter=","), f"initial state in {args.x0}",
                      coral.d, f"the map has d = {coral.d} age classes")
    with np.errstate(over="ignore"):      # iterate reports a non-finite state
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
    points = [(red.branch_R(float(x1)), x1)
              for x1 in np.linspace(args.P_max / red.cP, 1e-6, args.points)]
    points = [(R, x1) for R, x1 in points if not R > args.R_max]
    Rs = np.linspace(max(args.R_min, 1e-3), args.R_max, args.points)
    zero = np.zeros(coral.d)
    # one stacked call labels each branch
    labels = lambda Js: cont.classify_stability(np.stack(Js)) if Js else []
    nontrivial = labels([coral.jac_x(R / coral.cf.ba, red.full_point(float(x1)))
                         for R, x1 in points])
    trivial = labels([coral.jac_x(R / coral.cf.ba, zero) for R in Rs])
    rows = ([[R, red.cP * x1, label, "nontrivial"] for (R, x1), label in zip(points, nontrivial)]
            + [[R, 0.0, label, "trivial"] for R, label in zip(Rs, trivial)])
    path = out / "diagram.csv"
    _write_csv(path, ["R", "P", "stability", "branch"], rows)
    print(f"wrote {path} ({len(rows)} points)")
    return 0


@dataclass
class BranchPoints:
    """R, lambda and the raw state x of every box, and the repr strings of
    its R, P = q.x, delta_alpha, delta_u and delta_min, each formatted once
    for all three emitters; P is one dot product per box, so it rounds as
    q.x of that one state does."""

    R: list[float]
    lam: list[float]
    x: np.ndarray
    text: list[tuple[str, str, str, str, str]]

    @staticmethod
    def of(system: cont.CoralBranchSystem, result: cont.BranchResult) -> "BranchPoints":
        t = np.array([b.t for b in result.boxes])
        X = system.s * np.array([b.u for b in result.boxes]).reshape(len(t), system.d)
        q, R = system.coral.cf.q, system.R_of_t(t).tolist()
        text = [(repr(Rb), repr(float(q @ x)), repr(b.delta_alpha), repr(b.delta_u),
                 repr(b.delta_min)) for b, Rb, x in zip(result.boxes, R, X)]
        return BranchPoints(R, system.lam_of_t(t).tolist(), X, text)


def emit_branch_csv(path: Path, system: cont.CoralBranchSystem,
                    result: cont.BranchResult, pts: BranchPoints) -> None:
    lines = (",".join([R, repr(lam), *map(repr, x.tolist()), P, da, du, dmin, b.stability])
             for b, (R, P, da, du, dmin), lam, x in zip(result.boxes, pts.text, pts.lam, pts.x))
    _write_lines(path, ["R", "lambda"] + [f"x{k+1}" for k in range(system.d)]
                 + ["P", "delta_alpha", "delta_u", "delta_min", "stability"], lines)


# R values sampled on the trivial branch P = 0
_TRIVIAL_POINTS = 400


def emit_bifurcation_diagram(path: Path, system: cont.CoralBranchSystem,
                             result: cont.BranchResult, pts: BranchPoints) -> None:
    """Diagram rows (R, P, stability, delta_u) combining the validated
    nontrivial branch with the analytically known trivial branch P = 0,
    whose stability labels come from one stacked eigenvalue call."""
    coral = system.coral
    lo = min(pts.R) if pts.R else 1.0
    hi = max(pts.R) if pts.R else 300.0
    Rs = np.linspace(max(lo - 5.0, 1e-3), hi, _TRIVIAL_POINTS)
    zero = np.zeros(coral.d)
    labels = cont.classify_stability(np.stack([coral.jac_x(lam, zero)
                                               for lam in Rs / coral.cf.ba]))
    lines = itertools.chain(
        (f"{R},{P},{b.stability},{du},nontrivial"
         for b, (R, P, _, du, _) in zip(result.boxes, pts.text)),
        (f"{R!r},0.0,{label},,trivial" for R, label in zip(Rs.tolist(), labels)))
    _write_lines(path, ["R", "P", "stability", "delta_u", "branch"], lines)


# one box record of the chain, as `json.dumps` writes it: the floats are
# repr strings, which need no escaping, and bound_by is dumped on its own
_CHAIN_RECORD = ('{"index": %d, "R": "%s", "delta_alpha": "%s", "delta_u": "%s", '
                 '"delta_min": "%s", "bound_by": %s, "d": "%r", "K": "%r", "rho": "%r", '
                 '"xi": "%r", "M1": "%r", "M2": "%r", "M3": "%r", "M4": "%r", "L1": "%r", '
                 '"L2": "%r", "L4": "%r", "halvings": %d, "linked": %s}')


def emit_certificate_chain(path: Path, res: cont.BranchResult, pts: BranchPoints) -> None:
    """The certificate chain as compact JSON, written box by box: the
    header of `json.dumps` on the whole chain, then each box record as it
    is formatted, so no record list or whole-file string is held."""
    head = json.dumps({
        "stop_reason": res.stop_reason,
        "steps": len(res.boxes),
        "all_linked": res.all_linked(),
        "fold_index": res.fold_index,
        "delta_min_max": repr(max((b.delta_min for b in res.boxes), default=0.0)),
        "waves": res.waves,
        "replans": res.replans,
        "boxes_discarded": res.boxes_discarded,
    })
    with path.open("w") as fh:
        fh.write(head[:-1] + ', "boxes": [')
        for i, (b, (R, _, da, du, dmin)) in enumerate(zip(res.boxes, pts.text)):
            if i:
                fh.write(", ")
            c = b.bounds
            fh.write(_CHAIN_RECORD % (
                b.index, R, da, du, dmin, json.dumps(b.bound_by), c.ell_x, c.K, c.rho,
                c.L3, *b.M, c.L1, c.L2, c.L4, b.halvings,
                "true" if b.linked_to_previous else "false"))
        fh.write("]}")


def cmd_branch(args) -> int:
    params = _load_params(args)
    coral = CoralMap(params)
    out = _outdir(args)
    R_star = transcritical_analysis(coral).R_star
    if not args.to_R < R_star.lo:
        # K grows without bound as the branch nears x = 0 at R*
        print(f"--to-R {args.to_R!r} is not below the transcritical point R* = c2/c1 "
              f"in [{R_star.lo!r}, {R_star.hi!r}], where the branch meets the "
              f"trivial branch x = 0: no linked chain reaches it", file=sys.stderr)
        return 1
    system, t0, u0 = cont.branch_start(coral, args.from_R)
    res = cont.continue_branch(system, t0, u0, args.to_R, args.max_steps)
    pts = BranchPoints.of(system, res)
    emit_branch_csv(out / "branch.csv", system, res, pts)
    emit_bifurcation_diagram(out / "bifurcation_diagram.csv", system, res, pts)
    emit_certificate_chain(out / "branch_certificates.json", res, pts)
    print(f"{len(res.boxes)} validated boxes, stop: {res.stop_reason}, "
          f"linked: {res.all_linked()}")
    ok = res.stop_reason in ("target", "max-steps") or res.stop_reason.startswith("degenerate")
    return 0 if (res.boxes and ok) else 1


def _validate(args, system, certify, stem: str, title: str) -> int:
    """The body of validate-sn and validate-ns: certify the point of
    `system`'s class, write `<stem>_certificate.json` and summarize it."""
    coral = system.coral
    out = _outdir(args)
    anchor = _load_anchor(args.anchor, system) if args.anchor else None
    try:
        cert = certify(coral, anchor=anchor, ell=args.ell)
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    path = out / f"{stem}_certificate.json"
    path.write_text(certificate_json(cert))
    s = cert.summary
    print(f"{title} certified: R = {s['R']:.6g}, lambda = {s['lambda']:.6g}, "
          f"x1 = {s['x1']:.6g}, P = {s['P']:.6g}")
    spectrum = (f", eigenvalues inside disk: {cert.spectrum_inside}"
                if isinstance(system, NsSystem) else "")
    print(f"  delta_accuracy = {cert.delta_accuracy:.4g}, "
          f"delta_uniqueness = {cert.delta_uniqueness:.4g}{spectrum}")
    for name, (lo, hi) in cert.conditions.items():
        print(f"  {name}: [{lo:.6g}, {hi:.6g}]")
    print(f"wrote {path}")
    return 0


def cmd_validate_ns(args) -> int:
    return _validate(args, NsSystem(CoralMap(_load_params(args))), certify_ns, "ns",
                     "Neimark-Sacker")


def cmd_validate_sn(args) -> int:
    return _validate(args, SnSystem(CoralMap(_load_params(args))), certify_sn, "sn",
                     "saddle-node")


def _load_anchor(path: str, system) -> np.ndarray:
    try:
        data = json.loads(Path(path).read_text())
        if isinstance(data, dict):
            data = data.get("anchor")
        anchor = np.array([float(v) for v in data])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"anchor file {path} holds neither a list of numbers nor an "
                         f"object with one under \"anchor\" ({exc})") from exc
    return _checked(anchor, f"anchor in {path}", system.dim,
                    f"the {system.name} system needs {system.dim}")


def _checked(v: np.ndarray, what: str, n: int, need: str) -> np.ndarray:
    """v when it is one row of n finite numbers; otherwise a ValueError
    naming `what`, with the first entry that is not finite or else v's
    entry count and `need`."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{what}: entry {int(bad[0])} is {float(v.flat[bad[0]])!r}, "
                         f"not a finite number")
    if v.shape != (n,):
        raise ValueError(f"{what} has {v.size} entries; {need}")
    return v


def cmd_transcritical(args) -> int:
    coral = CoralMap(_load_params(args))
    out = _outdir(args)
    res = transcritical_analysis(coral)
    path = out / "transcritical.json"
    path.write_text(certificate_json(res))
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
    Rs = args.R_range
    y = dynamics.density_matched_state(coral, 1500.0)
    # one batched recurrence for the whole sweep, keeping the (x1, x2)
    # projection that the rotation numbers use
    try:
        with np.errstate(over="ignore"):  # iterate reports a non-finite state
            orb = dynamics.iterate(coral, Rs / coral.cf.ba, args.x0_factor * y,
                                   n=args.iterates, skip=args.skip, keep=2)
    except OrbitDiverged as exc:
        raise OrbitDiverged(f"at R = {float(Rs[exc.orbit])!r}: {exc}") from exc
    try:
        pairs = dynamics.rotation_and_profile(orb.points, center=args.center, bins=args.bins)
    except RotationUndefined as exc:
        raise RotationUndefined(f"at R = {float(Rs[exc.orbit])!r}: {exc}") from exc
    rot_rows, prof_rows = [], []
    for R, (r, prof) in zip(Rs, pairs):
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


# option types: a bad value is a usage error that names its option


def _R_grid(text: str) -> np.ndarray:
    """lo:hi:count as the grid of count >= 1 values from lo to hi."""
    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), _count(n))


def _center(text: str) -> tuple[float, float]:
    x, y = map(float, text.split(","))
    if not np.isfinite([x, y]).all():
        raise argparse.ArgumentTypeError(f"need two finite numbers x,y, got {text!r}")
    return x, y


def _count(text: str, least: int = 1) -> int:
    if int(text) < least:
        raise argparse.ArgumentTypeError(f"need a count of at least {least}, got {text}")
    return int(text)


def _length(text: str) -> int:
    """A count that may be 0."""
    return _count(text, least=0)


def _radius(text: str) -> float:
    r = float(text)
    if not (np.isfinite(r) and r > 0.0):
        raise argparse.ArgumentTypeError(f"need a positive finite number, got {text}")
    return r


def _iterates(text: str) -> int:
    """At least 3 points, so that rho_N and rho_(0.8 N) each rest on an
    angle increment."""
    return _count(text, least=3)


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
    p.add_argument("--years", type=_length, default=100)
    p.add_argument("--skip", type=_length, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("diagram", help="non-rigorous bifurcation diagram CSV")
    p.add_argument("--R-min", dest="R_min", type=float, default=5.0)
    p.add_argument("--R-max", dest="R_max", type=float, default=300.0)
    p.add_argument("--P-max", dest="P_max", type=float, default=3500.0)
    p.add_argument("--points", type=_length, default=800)
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("branch", help="validated pseudo-arclength continuation")
    p.add_argument("--from-R", dest="from_R", type=float, default=300.0)
    p.add_argument("--to-R", dest="to_R", type=float, default=72.0)
    p.add_argument("--max-steps", dest="max_steps", type=_count, default=8000)
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("validate-ns", help="certify the Neimark-Sacker point")
    p.add_argument("--anchor", help="JSON file with a 42-dim anchor")
    p.add_argument("--ell", type=_radius, default=1e-6)
    p.set_defaults(fn=cmd_validate_ns)

    p = sub.add_parser("validate-sn", help="certify the saddle-node point")
    p.add_argument("--anchor", help="JSON file with a 27-dim anchor")
    p.add_argument("--ell", type=_radius, default=1e-6)
    p.set_defaults(fn=cmd_validate_sn)

    p = sub.add_parser("transcritical", help="closed-form extinction-branch point")
    p.set_defaults(fn=cmd_transcritical)

    p = sub.add_parser("rotation", help="weighted-Birkhoff rotation numbers")
    p.add_argument("--R-range", dest="R_range", type=_R_grid, default="160:200:10",
                   help="lo:hi:count")
    p.add_argument("--center", type=_center, default="2500,2500")
    p.add_argument("--iterates", type=_iterates, default=100_000)
    p.add_argument("--skip", type=_length, default=10_000)
    p.add_argument("--x0-factor", dest="x0_factor", type=float, default=1.5)
    p.add_argument("--bins", type=_count, default=64)
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
    except (OrbitDiverged, RotationUndefined) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
