"""certibif benchmark: one workload per run, as a closed loop with one client.

    python3 perfbench/run.py --workload branch --seed 0 --seconds 25 --trace 0

Every CLI call goes through `certibif.cli.main(argv)` in this process, with
`--out` pointing at a temporary directory; the next call starts when the
previous one returns, until `--seconds` have passed (at least one round).
Each call's outputs are checked.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics` -- the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from speed import SpeedSampler
from tracing import Tracer
from workloads import CHECKS, WORKLOADS, Inputs, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_out"
SETUP_PROBES = 7

# how the report names each CLI verb's wall time, and its scale from seconds
CALL_NAMES = {"branch": ("branch_wall_s", 1.0), "validate-sn": ("certify_sn_ms", 1e3),
              "validate-ns": ("certify_ns_ms", 1e3), "rotation": ("rotation_wall_s", 1.0)}

# set-up as a user pays it: a fresh interpreter imports the CLI and builds the map
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import certibif.cli
from certibif.model import CoralMap, CoralParams
CoralMap(CoralParams.from_config(sys.argv[2]) if sys.argv[2] else CoralParams())
print(repr(time.time()))
"""


@dataclass
class Call:
    verb: str
    wall_s: float
    errors: list[str] = field(default_factory=list)
    work: dict = field(default_factory=dict)
    out_bytes: int = 0


# ---------------------------------------------------------------------------
# driving the CLI
# ---------------------------------------------------------------------------


def _cli_argv(args: list[str], out: Path, config: Path | None) -> list[str]:
    flags = ["--out", str(out)]
    if config is not None:
        flags += ["--config", str(config)]
    return flags + args


def _call(cli, argv: list[str], speed: SpeedSampler) -> tuple[int, float, str]:
    """Exit code, wall seconds without the speed samples taken meanwhile,
    and the captured output of one CLI call."""
    log = io.StringIO()
    spent = speed.spent
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except SystemExit as exc:            # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:                    # a crash fails this call, not the run
        code = -1
        log.write(traceback.format_exc())
    wall = time.perf_counter() - t0 - (speed.spent - spent)
    return code, wall, log.getvalue()


def _clear(out: Path) -> None:
    for path in out.iterdir():
        path.unlink()


def run_loop(cli, seed: int, inputs: Inputs, out: Path, config: Path | None,
             seconds: float, speed: SpeedSampler,
             tracer: Tracer | None = None) -> list[Call]:
    """Whole rounds of calls until `seconds` have passed (at least one)."""
    calls: list[Call] = []
    deadline = time.perf_counter() + seconds
    while True:
        for args in inputs.round:
            _clear(out)
            if tracer is not None:
                tracer.call_id = len(calls)
            code, wall, log = _call(cli, _cli_argv(args, out, config), speed)
            call = Call(args[0], wall)
            if code != 0:
                call.errors.append(f"exit code {code}: {log.strip()[-500:]}")
            else:
                try:
                    call.errors, call.work = CHECKS[call.verb](out, seed)
                except (OSError, KeyError, ValueError) as exc:
                    call.errors.append(f"unreadable output: {exc!r}")
            call.out_bytes = sum(p.stat().st_size for p in out.iterdir())
            calls.append(call)
        if time.perf_counter() >= deadline:
            return calls


def measure_setup(config: Path | None) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config or "")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# statistics and records
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it
    (nearest rank), or None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def _blas_threads() -> int | None:
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "certibif").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CERTIBIF_THREADS": os.environ.get("CERTIBIF_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def op_ms_mean(calls: list[Call], rounds: int) -> float:
    return 1e3 * sum(c.wall_s for c in calls) / rounds


def end_to_end(calls: list[Call], rounds: int, speed: SpeedSampler,
               setup: list[float]) -> dict[str, float]:
    return {
        "op_ms_scaled": op_ms_mean(calls, rounds) * speed.scale(),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# per-layer metric -> (span name, summary field); times and counts per round
SPAN_METRICS = {
    "cli.branch_start_s": ("cli._branch_start", "total_s"),
    "continuation.validate_calls": ("continuation.validate_segment", "calls"),
    "continuation.jacs_iv_calls": ("continuation.CoralBranchSystem.jacs_iv", "calls"),
    "cift.solve_deltas_s": ("cift.solve_deltas", "total_s"),
    "cift.inverse_bound_s": ("cift.inverse_bound", "total_s"),
    "cift.validate_zero_s": ("cift.validate_zero", "total_s"),
    "cift.lipschitz_from_tensor_s": ("cift.lipschitz_from_tensor", "total_s"),
    "bifurcation.verified_spectrum_inside_disk_s":
        ("bifurcation.verified_spectrum_inside_disk", "total_s"),
    "dynamics.iterate_s": ("dynamics.iterate", "total_s"),
    "dynamics.rotation_number_s": ("dynamics.rotation_number", "total_s"),
    "dynamics.angle_profile_s": ("dynamics.angle_profile", "total_s"),
}
for _stage in ("validate_segment", "tangent_estimate", "newton_correct", "check_link",
               "classify_stability", "CoralBranchSystem.F_iv",
               "CoralBranchSystem.jacs_iv", "CoralBranchSystem.lipschitz_M"):
    SPAN_METRICS[f"continuation.{_stage.split('.')[-1]}_self_s"] = (
        f"continuation.{_stage}", "self_s")
for _fn in ("float_matmat", "float_matvec", "norm_inf", "IMatrix.matvec"):
    SPAN_METRICS[f"interval.{_fn}_calls"] = (f"interval.{_fn}", "calls")
    SPAN_METRICS[f"interval.{_fn}_s"] = (f"interval.{_fn}", "total_s")
for _fn in ("row1_gradient", "row1_bounds", "step_scalars", "jac_x_iv"):
    SPAN_METRICS[f"model.{_fn}_s"] = (f"model.CoralMap.{_fn}", "total_s")
for _fn in ("find_sn_anchor", "find_ns_anchor", "SnSystem.jac_iv", "NsSystem.jac_iv",
            "SnSystem.hessian_sup", "NsSystem.hessian_sup", "sn_conditions",
            "ns_condition_c_pair", "ns_condition_d", "ns_condition_e"):
    SPAN_METRICS[f"bifurcation.{_fn}_s"] = (f"bifurcation.{_fn}", "total_s")

COMMANDS = {"cli.cmd_branch", "cli.cmd_validate_sn", "cli.cmd_validate_ns",
            "cli.cmd_rotation"}
COMPUTE = {"continuation.continue_branch", "bifurcation.certify_sn",
           "bifurcation.certify_ns", "cli._rotation_worker"}


def _last_work(calls: list[Call], verb: str) -> dict:
    done = [c.work for c in calls if c.verb == verb and c.work]
    return done[-1] if done else {}


def per_layer(tracer: Tracer, traced: list[Call], traced_rounds: int,
              plain: list[Call], plain_rounds: int) -> dict[str, float]:
    n = traced_rounds
    summary = tracer.summary()

    def span(name: str, fld: str) -> float:
        return summary.get(name, {}).get(fld, 0) / n

    m = {metric: span(name, fld) for metric, (name, fld) in SPAN_METRICS.items()}
    command_s = sum(span(name, "total_s") for name in COMMANDS)
    branch = _last_work(traced, "branch")
    sn, ns = _last_work(traced, "validate-sn"), _last_work(traced, "validate-ns")
    boxes = branch.get("boxes", 0)
    plain_op = op_ms_mean(plain, plain_rounds) / 1e3
    traced_op = op_ms_mean(traced, traced_rounds) / 1e3
    m.update({
        "cli.emit_s": tracer.children_end(COMMANDS, COMPUTE) / n,
        "cli.out_bytes": sum(c.out_bytes for c in traced) / n,
        "continuation.boxes": boxes,
        "continuation.box_yield": boxes / m["continuation.validate_calls"] if boxes else 0.0,
        "continuation.ms_per_box": 1e3 * plain_op / boxes if boxes else 0.0,
        "continuation.fold_index": branch.get("fold_index") or 0,
        "continuation.delta_min_max": branch.get("delta_min_max", 0.0),
        "cift.solve_deltas_share": 100.0 * m["cift.solve_deltas_s"] / command_s,
        "cift.pair_feasible_calls": tracer.counts["cift._pair_feasible"] / n,
        "cift.sn_delta_accuracy": sn.get("delta_accuracy", 0.0),
        "cift.sn_delta_uniqueness": sn.get("delta_uniqueness", 0.0),
        "cift.ns_delta_accuracy": ns.get("delta_accuracy", 0.0),
        "cift.ns_delta_uniqueness": ns.get("delta_uniqueness", 0.0),
        "dynamics.orbit_steps": tracer.counts["dynamics.orbit_steps"] / n,
        "trace.spans": len(tracer.spans) / n,
        "trace.overhead_s": traced_op - plain_op,
    })
    iterate_s = m["dynamics.iterate_s"]
    m["dynamics.steps_per_s"] = m["dynamics.orbit_steps"] / iterate_s if iterate_s else 0.0
    return m


# ---------------------------------------------------------------------------


def _write_record(name: str, record: dict, indent: int | None = 1) -> Path:
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=indent))
    return path


def _verb_report(calls: list[Call]) -> dict:
    """Per CLI verb: median and tail wall time with sample counts, and the
    work its last call did."""
    report = {}
    for verb, (name, scale) in CALL_NAMES.items():
        walls = [scale * c.wall_s for c in calls if c.verb == verb]
        if not walls:
            continue
        tail = tail_percentile(walls)
        report[name] = {
            "samples": len(walls),
            "p50": statistics.median(walls),
            "mean": statistics.mean(walls),
            "tail": {"percentile": tail[0], "value": tail[1]} if tail
                    else "fewer than ten samples beyond p90",
            "work": _last_work(calls, verb),
        }
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "certibif" / "__init__.py").is_file():
        print(f"certibif sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    os.environ.pop("CERTIBIF_THREADS", None)     # one process: no rotation pool
    sys.path.insert(0, str(SRC))
    import certibif.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "certibif":
        print(f"imported certibif from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    per_round = len(inputs.round)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    tracer = None
    setup: list[float] = []
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f"{tag}-") as tmp:
        tmp = Path(tmp)
        config = None
        if inputs.config is not None:
            config = tmp / "params.cfg"
            config.write_text(inputs.config)
        out = tmp / "out"
        out.mkdir()
        if args.trace:
            # untraced then traced, half the time each: the per-layer numbers
            # come from the traced half, the tracing overhead from both
            with SpeedSampler() as speed:
                plain = run_loop(cli, args.seed, inputs, out, config,
                                 args.seconds / 2, speed)
                with Tracer() as tracer:
                    traced = run_loop(cli, args.seed, inputs, out, config,
                                      args.seconds / 2, speed, tracer)
            calls = plain + traced
            metrics = per_layer(tracer, traced, len(traced) // per_round,
                                plain, len(plain) // per_round)
            wanted = spec["per_layer"]
        else:
            setup = measure_setup(config)
            with SpeedSampler() as speed:
                plain = calls = run_loop(cli, args.seed, inputs, out, config,
                                         args.seconds, speed)
            metrics = end_to_end(calls, len(calls) // per_round, speed, setup)
            wanted = spec["end_to_end"]

    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    failed = sum(1 for c in calls if c.errors)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": asdict(inputs), "environment": environment(),
        "calls": _verb_report(plain),
        "op_ms_mean": op_ms_mean(plain, len(plain) // per_round),
        "reference_loop_ms": speed.loop_ms(),
        "setup_s_probes": setup,
        "errors": [e for c in calls for e in c.errors][:20],
        "result": result,
        "call_wall_s": [[c.verb, c.wall_s] for c in calls],
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["spans_not_found"] = tracer.missing
        _write_record(f"{tag}-spans.json", tracer.dump(), indent=None)
    path = _write_record(f"{tag}.json", report)

    for key in ("workload", "seed", "inputs", "environment", "calls", "op_ms_mean",
                "reference_loop_ms", "setup_s_probes",
                "errors", "spans_not_found"):
        if key not in report:
            continue
        print(f"{key}: {json.dumps(report[key])}")
    for m in wanted:
        print(f"{m['name']}: {metrics[m['name']]!r} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
