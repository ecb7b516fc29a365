"""Span tracing for the benchmark's traced runs.

The tracer wraps chosen functions of each certibif module from outside the
package: one span per call (name, start, end, parent span, CLI call id), kept
in memory and summarised when the run ends.  A function imported by name into
another module is patched there too, so callers that look it up in their own
namespace are traced as well.  Scalar interval arithmetic and the map's
per-iterate helpers are not wrapped: they run millions of times per workload
and a span on each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "certibif"

# layer -> functions (module attribute or Class.method) that get one span per call
SPANNED = {
    "cli": ["cmd_branch", "cmd_validate_sn", "cmd_validate_ns", "cmd_rotation",
            "_branch_start", "emit_branch_csv", "emit_bifurcation_diagram",
            "_rotation_worker"],
    "continuation": ["continue_branch", "validate_segment", "tangent_estimate",
                     "newton_correct", "check_link", "classify_stability",
                     "CoralBranchSystem.F_iv", "CoralBranchSystem.jacs_iv",
                     "CoralBranchSystem.lipschitz_M"],
    "cift": ["validate_zero", "residual_bound", "inverse_bound",
             "lipschitz_from_tensor", "lipschitz_L1", "solve_deltas"],
    "interval": ["float_matmat", "float_matvec", "norm_inf", "IMatrix.matvec"],
    "model": ["CoralMap.row1_gradient", "CoralMap.row1_bounds",
              "CoralMap.step_scalars", "CoralMap.jac_x_iv"],
    "bifurcation": ["certify_sn", "certify_ns", "find_sn_anchor", "find_ns_anchor",
                    "SnSystem.jac_iv", "NsSystem.jac_iv", "SnSystem.hessian_sup",
                    "NsSystem.hessian_sup", "verified_spectrum_inside_disk",
                    "sn_conditions", "ns_condition_c_pair", "ns_condition_d",
                    "ns_condition_e"],
    "dynamics": ["iterate", "rotation_number", "angle_profile"],
}

# functions too hot for a span: only their calls are counted
COUNTED = {"cift": ["_pair_feasible"]}

# work counted from a traced function's result
RESULT_COUNTS = {
    "dynamics.iterate": ("dynamics.orbit_steps",
                         lambda orb: len(orb.points) + orb.transient_skipped),
}


def _resolve(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Patches the SPANNED and COUNTED functions while active.

    Use as a context manager; `call_id` tags the spans of one CLI call.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, names in SPANNED.items():
            for qualname in names:
                self._patch(layer, qualname, self._span_wrapper)
        for layer, names in COUNTED.items():
            for qualname in names:
                self._patch(layer, qualname, self._count_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, layer: str, qualname: str, make_wrapper) -> None:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        try:
            owner, attr = _resolve(module, qualname)
            original = getattr(owner, attr)
        except AttributeError:
            # renamed or removed by a later change: its metrics read 0
            self.missing.append(f"{layer}.{qualname}")
            return
        wrapper = make_wrapper(f"{layer}.{qualname}", original)
        self._set(owner, attr, wrapper)
        if owner is not module:
            return                       # methods are looked up on the class
        prefix = PACKAGE + "."
        for name, mod in list(sys.modules.items()):
            if mod is module or not name.startswith(prefix):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.call_id)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return dict(out)

    def children_end(self, parent_names: set[str], child_names: set[str]) -> float:
        """Summed time from the last `child_names` span inside each
        `parent_names` span to the end of that parent span."""
        last_end: dict[int, float] = {}
        for name, _, t1, parent, _ in self.spans:
            if name in child_names and parent >= 0:
                last_end[parent] = max(last_end.get(parent, t1), t1)
        total = 0.0
        for idx, end in last_end.items():
            span = self.spans[idx]
            if span[0] in parent_names:
                total += span[2] - end
        return total

    def dump(self) -> dict:
        """Spans in column form, for writing to a file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "call_id"],
            "spans": [[index[n], t0, t1, p, c] for n, t0, t1, p, c in self.spans],
            "counts": dict(self.counts),
        }
