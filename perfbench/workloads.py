"""Seeded inputs for each workload and the checks on the program's outputs.

A workload repeats one round of CLI calls: `branch` one validated branch,
`certify` one `validate-sn` and one `validate-ns` call, `rotation` one
rotation sweep.  Seed 0 is the paper's inputs exactly (default parameters,
default CLI arguments).  Other seeds draw the CLI arguments and a `--config`
file; the program sees only those.  The parameter values below are the
paper's constants, written out here so that the inputs do not depend on the
code under test.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

C2 = 1.3e7          # recruitment constant c2 of the paper
BETA = 3.4e-3       # recruitment constant beta of the paper

# The branch's box count, and so its run time, depends sharply on the inputs:
# c2 x 1.001 gives 5,659 boxes instead of the paper's 5,755, runs starting at
# R = 295 had 5,068 and 5,278, c2 x 0.998 breaks the delta <= 1e-10 gate and
# c2 x 0.99 stops with "link-failed".  Branch seeds therefore move the inputs
# only slightly.
BRANCH_PARAM_SPREAD = 2e-4
BRANCH_FROM_R = (299.0, 300.0)
# Both certificates pass at the +-1% corners of (c2, beta), but at that
# spread the work per certificate pair varied by about 15% from seed to seed.
CERTIFY_PARAM_SPREAD = 1e-3

WORKLOADS = ("branch", "certify", "rotation")

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass
class Inputs:
    round: list[list[str]]     # CLI arguments (after the global flags) of one round
    config: str | None         # text of the --config file, if any


def _config(rng: random.Random, spread: float) -> str:
    c2 = C2 * rng.uniform(1.0 - spread, 1.0 + spread)
    beta = BETA * rng.uniform(1.0 - spread, 1.0 + spread)
    return f"c2 = {c2!r}\nbeta = {beta!r}\n"


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(seed)
    if workload == "branch":
        argv = ["branch", "--from-R", "300", "--to-R", "72", "--max-steps", "8000"]
        if seed == 0:
            return Inputs([argv], None)
        argv[2] = repr(rng.uniform(*BRANCH_FROM_R))
        return Inputs([argv], _config(rng, BRANCH_PARAM_SPREAD))
    if workload == "certify":
        return Inputs([["validate-sn"], ["validate-ns"]],
                      None if seed == 0 else _config(rng, CERTIFY_PARAM_SPREAD))
    if workload == "rotation":
        argv = ["rotation", "--R-range", "160:200:10"]
        if seed != 0:
            argv += ["--x0-factor", repr(rng.uniform(1.4, 1.6))]
        return Inputs([argv], None)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks, one per CLI verb: (failure messages, work done)
# ---------------------------------------------------------------------------


def _excludes_zero(lo: float, hi: float) -> bool:
    return lo > 0.0 or hi < 0.0


def check_branch(out: Path, seed: int) -> tuple[list[str], dict]:
    chain = json.loads((out / "branch_certificates.json").read_text())
    Rs = [float(b["R"]) for b in chain["boxes"]]
    with (out / "branch.csv").open() as fh:
        rows = sum(1 for _ in fh) - 1
    errors = []
    if chain["stop_reason"] != "target":
        errors.append(f"stop reason {chain['stop_reason']!r}, expected 'target'")
    if not chain["all_linked"]:
        errors.append("not all boxes linked")
    if chain["steps"] < 1000:
        errors.append(f"only {chain['steps']} boxes")
    if rows != chain["steps"] or len(Rs) != chain["steps"]:
        errors.append(f"branch.csv has {rows} rows for {chain['steps']} boxes")
    if chain["fold_index"] is None or min(Rs) > 12.33:
        errors.append(f"branch does not pass the fold (min R = {min(Rs)})")
    if float(chain["delta_min_max"]) > 1e-10:
        errors.append(f"delta_min_max = {chain['delta_min_max']} > 1e-10")
    work = {"boxes": chain["steps"], "fold_index": chain["fold_index"],
            "delta_min_max": float(chain["delta_min_max"]), "min_R": min(Rs)}
    return errors, work


# seed-0 values from the acceptance suite: key -> (expected, tolerance)
SN_PAPER = {"R": (12.28, 0.05), "lambda": (0.4213, 0.002), "x1": (569.5, 1.0),
            "P": (853.4, 1.0)}
NS_PAPER = {"R": (154.1, 0.5), "lambda": (5.286, 0.02), "x1": (1794.0, 5.0),
            "P": (2689.0, 5.0)}


def _check_certificate(cert: dict, kind: str, paper: dict,
                       seed: int) -> tuple[list[str], dict]:
    errors = []
    if cert["kind"] != kind:
        errors.append(f"certificate kind {cert['kind']!r}")
    for name, (lo, hi) in cert["conditions"].items():
        if not _excludes_zero(float(lo), float(hi)):
            errors.append(f"condition {name} = [{lo}, {hi}] contains 0")
    summary = {k: float(v) for k, v in cert["summary"].items()}
    if seed == 0:
        for key, (expect, tol) in paper.items():
            if abs(summary[key] - expect) > tol:
                errors.append(f"{key} = {summary[key]}, paper {expect} +- {tol}")
    work = {"R": summary["R"], "delta_accuracy": float(cert["delta_accuracy"]),
            "delta_uniqueness": float(cert["delta_uniqueness"])}
    return errors, work


def check_sn(out: Path, seed: int) -> tuple[list[str], dict]:
    cert = json.loads((out / "sn_certificate.json").read_text())
    errors, work = _check_certificate(cert, "saddle_node", SN_PAPER, seed)
    if seed == 0 and work["delta_accuracy"] > 1e-10:
        errors.append(f"delta_accuracy = {work['delta_accuracy']} > 1e-10")
    return errors, work


def check_ns(out: Path, seed: int) -> tuple[list[str], dict]:
    cert = json.loads((out / "ns_certificate.json").read_text())
    errors, work = _check_certificate(cert, "neimark_sacker", NS_PAPER, seed)
    if seed == 0:
        lo, hi = (float(v) for v in cert["conditions"]["d_theta0_deg"])
        if abs(0.5 * (lo + hi) - 46.85) > 0.5:
            errors.append(f"theta0 = {0.5 * (lo + hi)} deg, paper 46.85 +- 0.5")
        if cert["spectrum_inside"] != 11:
            errors.append(f"{cert['spectrum_inside']} eigenvalues inside, expected 11")
        if not float(cert["conditions"]["e_normal_form"][1]) < 0.0:
            errors.append("normal-form coefficient not negative")
    return errors, work


def check_rotation(out: Path, seed: int) -> tuple[list[str], dict]:
    with (out / "rotation.csv").open() as fh:
        got = [(float(r["R"]), float(r["rho"])) for r in csv.DictReader(fh)]
    expect = [(float(R), float(rho)) for R, rho in REFERENCE["rotation_rho"]]
    if len(got) != len(expect):
        return [f"{len(got)} rotation rows, expected {len(expect)}"], {}
    errors = []
    for (R, rho), (R_ref, rho_ref) in zip(got, expect):
        if abs(R - R_ref) > 1e-9 or abs(rho - rho_ref) > 1e-9:
            errors.append(f"rho({R}) = {rho!r}, reference rho({R_ref}) = {rho_ref!r}")
    if not (out / "angle_profile.csv").exists():
        errors.append("angle_profile.csv missing")
    return errors, {"parameter_values": len(got)}


CHECKS = {"branch": check_branch, "validate-sn": check_sn, "validate-ns": check_ns,
          "rotation": check_rotation}
