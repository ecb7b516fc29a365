"""Constructive implicit function theorem: hypothesis verification,
delta-inequality checks, and accuracy/uniqueness certificates.

A *zero problem* is any object with

    dim            -- ambient dimension m
    value(z)       -- float residual, shape (m,)
    jac(z)         -- float Jacobian, shape (m, m)
    value_iv(ziv)  -- interval residual (1-D IArray in and out)
    jac_iv(ziv)    -- interval Jacobian (2-D IArray)
    hessian_sup(box) -- array T of shape (m, m, m) with
                        T[i, k, j] >= sup_box |d2 H_i / dz_k dz_j|
    name           -- short identifier for certificates

Hypotheses are verified for the left-preconditioned map B*H where B is the
floating-point inverse of the Jacobian at the anchor; the Neumann-series
inverse bound then gives K close to 1 and simultaneously proves that B is
invertible, so B*H and H have identical zero sets.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import NotInvertibleEvidence, ValidationFailed
from .interval import IArray, Interval, float_matmat, norm_inf, up_dot, up_mul, up_sum


@dataclass(frozen=True)
class CiftBounds:
    """Rigorous upper bounds for the theorem hypotheses (H1)-(H4).

    For parameter-free systems L2 = L3 = L4 = 0.  `ell_x`/`ell_alpha` are
    the box radii over which the Lipschitz constants were certified.  The
    fields may be arrays, one entry per segment of a stack.
    """

    rho: float
    K: float
    L1: float
    L2: float = 0.0
    L3: float = 0.0
    L4: float = 0.0
    ell_x: float = 0.0
    ell_alpha: float = 0.0

    def __post_init__(self):
        for name in ("rho", "K", "L1", "L2", "L3", "L4", "ell_x", "ell_alpha"):
            v = getattr(self, name)
            if np.any(v < 0.0) if isinstance(v, np.ndarray) else v < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class DeltaPair:
    """A feasible radius pair plus the accuracy radius 2*K*rho (arrays
    for a stack)."""

    delta_alpha: float
    delta_x: float
    delta_min: float


@dataclass(frozen=True)
class Certificate:
    """Existence/uniqueness certificate for an isolated zero.

    A unique true zero lies within `delta_accuracy` of `anchor` (max
    norm), and it is the only zero within `delta_uniqueness`.  The
    parameter constants L2..L4 are zero for parameter-free systems.
    """

    system: str
    anchor: tuple[float, ...]
    ell: float
    rho: float
    K: float
    L1: float
    delta_accuracy: float
    delta_uniqueness: float
    preconditioner_sha256: str
    L2: float = 0.0
    L3: float = 0.0
    L4: float = 0.0


def certificate_json(cert) -> str:
    """The JSON text of a certificate dataclass, keys sorted: each float
    (numpy floats too) as its repr string, each Interval as [lo, hi], and
    nested certificates as objects."""
    def plain(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, Interval):
            return [repr(v.lo), repr(v.hi)]
        if is_dataclass(v):
            v = {f.name: getattr(v, f.name) for f in fields(v)}
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        return v

    return json.dumps(plain(cert), indent=2, sort_keys=True)


def preconditioner_hash(B: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(B, dtype=float).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# hypothesis bounds
# ---------------------------------------------------------------------------


def residual_bound(problem, z0: np.ndarray, B: np.ndarray) -> float:
    """Upper bound of |B H(z0)|_inf."""
    r = problem.value_iv(IArray.point(np.asarray(z0, dtype=float)))
    return norm_inf(float_matmat(B, r)).hi


def neumann_rho(A: IArray, B: np.ndarray):
    """Upper bound rho1 of |I - B A| for every A in the enclosure, verified
    < 1 in interval arithmetic (so A and B are invertible); otherwise
    raises NotInvertibleEvidence.  The bound is the largest row sum of
    |BA - I|, whose diagonal shift rounds as TwoSum does, so entries whose
    difference is exact stay exact.  Stacked A and B give one bound per
    matrix."""
    rho1 = up_sum(float_matmat(B, A).shifted(1.0).mag, axis=-1).max(axis=-1)
    bad = np.flatnonzero(~(np.ravel(rho1) < 1.0))
    if bad.size:
        i = int(bad[0])
        stacked = np.ndim(rho1) > 0
        where = f" (matrix {i} of the stack)" if stacked else ""
        raise NotInvertibleEvidence(f"|I - BA| bound {np.ravel(rho1)[i]} >= 1{where}",
                                    index=i if stacked else None)
    return rho1


def inverse_bound(A: IArray, B: np.ndarray):
    """Neumann-series bounds: K >= |A^{-1}| and err >= |B - A^{-1}|,
    given |I - B A| <= rho1 < 1 from neumann_rho, as arrays with one entry
    per matrix of the stack (0-d for a single matrix)."""
    B = np.asarray(B, dtype=float)
    rho1 = neumann_rho(A, B)
    rho2 = up_sum(np.abs(B), axis=-1).max(axis=-1)
    I = IArray.point
    gap = I(1.0) - I(rho1)
    K = (I(rho2) / gap).hi
    err = ((I(rho1) * I(rho2)) / gap).hi
    return K, err


def lipschitz_from_tensor(T: np.ndarray, absB: np.ndarray) -> float:
    """Mean-value Lipschitz constant for B DH over a box.

    T[i, k, j] bounds sup |d2 H_i / dz_k dz_j|; the result is
    max_i sum_j (m * max_k T'[i, k, j]) where T' is T contracted with |B|.
    """
    m = T.shape[0]
    M = up_dot(absB, T)
    inner = M.max(axis=1)             # over k
    rows = up_sum(inner, axis=1)      # over j
    return float(np.max(up_mul(float(m), rows)))


def lipschitz_L1(problem, z0: np.ndarray, ell: float, absB: np.ndarray) -> float:
    """Lipschitz bound for B DH over z0 +- ell, given |B|."""
    box = IArray.around(np.asarray(z0, dtype=float), ell)
    return lipschitz_from_tensor(problem.hessian_sup(box), absB)


def _accuracy(K: IArray, rho: IArray, L1: IArray) -> tuple[IArray, IArray, IArray]:
    """Enclosures of 4 K^2 rho L1, of 2K and of the accuracy radius 2K rho,
    from point enclosures of K, rho and L1 (arrays for stacks)."""
    K2 = IArray.point(2.0) * K
    return IArray.point(4.0) * K * K * rho * L1, K2, K2 * rho


def accuracy_gates(K: float, rho: float, L1: float, ell: float,
                   ell_name: str = "ell") -> tuple[float, str | None]:
    """The accuracy radius 2 K rho and, when (K, rho, L1) fail an accuracy
    gate over a box of radius ell, that gate's inequality as a message
    (None when both 4 K^2 rho L1 < 1 and 2 K rho < ell hold)."""
    I = IArray.point
    gate, _, dmin = _accuracy(I(K), I(rho), I(L1))
    gate, dmin = gate.hi, dmin.hi
    if not gate < 1.0:
        return float(dmin), f"4 K^2 rho L1 = {float(gate)} >= 1"
    if not dmin < ell:
        return float(dmin), f"2 K rho = {float(dmin)} >= {ell_name} = {ell}"
    return float(dmin), None


# ---------------------------------------------------------------------------
# delta inequalities
#
# Every helper takes one segment (floats) or a stack (arrays, one entry per
# segment) through the same IArray arithmetic, so a stacked check equals
# the checks of its segments one by one bit for bit.
# ---------------------------------------------------------------------------

# The fraction of the coupling budget dir_norm*delta_alpha + delta_x <=
# coupled_cap withheld from delta_alpha, so that the uniqueness tube never
# degenerates (linking needs room in it).
_DU_RESERVE = 0.1


@dataclass(frozen=True)
class _Probe:
    """Bounds b at delta_alpha values da under the coupling dir_norm*da +
    dx <= cap, with the enclosures of 2K L1 and of the da terms built once
    and shared by the accuracy gates, the floor, the ceiling and every
    pair check."""

    b: CiftBounds
    da: np.ndarray
    dir_norm: np.ndarray
    cap: np.ndarray
    L1: IArray              # 2K L1
    L2da: IArray            # 2K L2 da
    drift: IArray           # dir_norm da
    floor: np.ndarray       # upper bound of 2K(rho + L3 da + L4 da^2), the least delta_x
    gate: np.ndarray        # upper bound of 4 K^2 rho L1
    delta_min: np.ndarray   # upper bound of 2K rho, the accuracy radius

    @staticmethod
    def of(b: CiftBounds, da, dir_norm, cap) -> "_Probe":
        I = IArray.point
        L1, a = I(b.L1), I(da)
        gate, K2, K2rho = _accuracy(I(b.K), I(b.rho), L1)
        floor = (K2rho + K2 * I(b.L3) * a + K2 * I(b.L4) * a * a).hi
        return _Probe(b, da, dir_norm, cap, K2 * L1, K2 * I(b.L2) * a,
                      I(dir_norm) * a, floor, gate.hi, K2rho.hi)


def _pair_feasible(p: _Probe, dx):
    """Rigorous check of the two theorem inequalities plus box constraints."""
    dx_iv = IArray.point(dx)
    return ((0.0 < p.da) & (p.da <= p.b.ell_alpha) & (0.0 < dx) & (dx <= p.b.ell_x)
            & ((p.L1 * dx_iv + p.L2da).hi <= 1.0) & (p.floor <= dx)
            & ((p.drift + dx_iv).hi <= p.cap))


def _dx_ceiling(p: _Probe):
    """Lower bound of the largest admissible delta_x at the probe's delta_alpha."""
    I = IArray.point
    num = I(1.0) - p.L2da
    with_l1 = np.asarray(p.b.L1) > 0.0
    cap = np.minimum(p.b.ell_x, np.where(with_l1, (num / p.L1).lo, math.inf))
    cap = np.minimum(cap, (I(p.cap) - p.drift).lo)
    return np.where(with_l1 & (num.lo <= 0.0), 0.0, cap)


def _alpha_feasible(p: _Probe, ceiling=None):
    """Rigorous: some delta_x completes the probe's delta_alpha to a
    feasible pair, and dir_norm*da stays within the cap less its reserve.
    Monotone in da: the floor rises with it and every ceiling falls.
    `ceiling` is _dx_ceiling(p) when the caller has it."""
    ceiling = _dx_ceiling(p) if ceiling is None else ceiling
    return ((np.multiply(p.dir_norm, p.da) <= np.multiply(p.cap, 1.0 - _DU_RESERVE))
            & (p.floor <= ceiling) & _pair_feasible(p, np.maximum(p.floor, 1e-300)))


def _largest_dx(p: _Probe, ceiling):
    """The largest delta_x the pair check certifies at a feasible da, and
    where it certifies one, from the ceiling _dx_ceiling(p).  The ceiling
    and the pair check round 2K(L1 dx + L2 da) <= 1 apart, so the ceiling
    may fail by an ulp: step back, but never below the floor, which
    _alpha_feasible certified."""
    fl = np.maximum(p.floor, 1e-300)
    dx = ceiling
    for _ in range(64):
        ok = _pair_feasible(p, dx)
        todo = ~ok & (dx > fl)
        if not np.any(todo):
            return dx, ok
        dx = np.where(todo, np.maximum(np.nextafter(dx * (1.0 - 2.0 ** -50), 0.0), fl), dx)
    return dx, _pair_feasible(p, dx)


def _smallest_root(a, b, c):
    """Smallest nonnegative root of a*x^2 + b*x + c (a, b >= 0, c <= 0),
    in float, entrywise; inf where the left side never reaches zero."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        den = b + np.sqrt(b * b - 4.0 * a * c)
        root = np.where(den > 0.0, -2.0 * c / den, math.inf)
    return np.where(c >= 0.0, 0.0, root)


_ROOT_NAMES = np.array(["ell-x", "L1-coupling", "coupled-cap", "search-cap"], dtype=object)


def delta_alpha_root(K, rho, L1, L2, L3, L4, ell_x, dir_norm, coupled_cap):
    """Float estimate of the largest delta_alpha that `check_deltas`
    accepts on bounds with these fields and the same coupling, ell_alpha
    aside, and the constraint that sets it: the smallest float root of
    floor(da) = each ceiling, floor = a*da^2 + bl*da + c0, the first
    constraint of `_ROOT_NAMES` on a tie: arrays of roots and of names,
    one entry per segment."""
    K2 = 2.0 * K
    a, bl, c0, s = K2 * L4, K2 * L3, K2 * rho, K2 * L1    # s: 2K(L1 floor + L2 da) <= 1
    # the search cap dir_norm*da = coupled_cap*(1 - _DU_RESERVE) bounds every root
    roots = np.stack(np.broadcast_arrays(
        _smallest_root(a, bl, c0 - ell_x),
        _smallest_root(s * a, s * bl + K2 * L2, s * c0 - 1.0),
        _smallest_root(a, bl + dir_norm, c0 - coupled_cap),
        coupled_cap * (1.0 - _DU_RESERVE) / dir_norm))
    k = roots.argmin(axis=0)
    root = np.take_along_axis(roots, k[None], axis=0)[0]
    return root, _ROOT_NAMES[k]


def check_deltas(b: CiftBounds, dir_norm, coupled_cap,
                 delta_alpha) -> tuple[np.ndarray, DeltaPair]:
    """The delta_alpha check of the theorem for a stack of segments: b
    holds one entry per segment, and the result says which segments pass
    the accuracy gates and the delta inequalities at their delta_alpha > 0,
    with the largest certified delta_x and the accuracy radius of each.

    dir_norm*delta_alpha + delta_x <= coupled_cap couples the radii, and a
    _DU_RESERVE fraction of that budget is withheld from delta_alpha.
    Every constraint on delta_alpha is a quadratic whose left side grows
    with it, so feasibility is monotone: a value a margin below the float
    root of `delta_alpha_root` (and below ell_alpha) passes unless the
    root misjudges the rounding of the rigorous check."""
    p = _Probe.of(b, np.asarray(delta_alpha, dtype=float), dir_norm, coupled_cap)
    ceiling = _dx_ceiling(p)
    ok = (p.gate < 1.0) & (p.delta_min < b.ell_x) & _alpha_feasible(p, ceiling)
    dx, pair_ok = _largest_dx(p, ceiling)
    return ok & pair_ok, DeltaPair(delta_alpha=p.da, delta_x=dx, delta_min=p.delta_min)


# ---------------------------------------------------------------------------
# full validation
# ---------------------------------------------------------------------------


def validate_zero(problem, z0: np.ndarray, ell: float = 1e-6) -> Certificate:
    """Certify a unique zero of `problem` near the anchor z0 (through B*H,
    as described in the module docstring).

    On success: a true zero exists within delta_accuracy = 2*K*rho of z0
    in max norm, and it is the only zero within delta_uniqueness.
    Raises ValidationFailed with the violated hypothesis otherwise.
    """
    z0 = np.asarray(z0, dtype=float)
    try:
        B = np.linalg.inv(problem.jac(z0))
    except np.linalg.LinAlgError as exc:
        raise ValidationFailed(f"anchor Jacobian not invertible: {exc}") from exc

    L1 = lipschitz_L1(problem, z0, ell, np.abs(B))
    rho = residual_bound(problem, z0, B)
    J = problem.jac_iv(IArray.point(z0))
    bad = int(np.count_nonzero(~(np.isfinite(J.lo) & np.isfinite(J.hi))))
    if bad:
        raise ValidationFailed(f"(H2) failed: anchor Jacobian enclosure has {bad} "
                               f"non-finite entries")
    try:
        K = float(inverse_bound(float_matmat(B, J), np.eye(problem.dim))[0])
    except NotInvertibleEvidence as exc:
        raise ValidationFailed(f"(H2) failed: {exc}") from exc

    d1, refusal = accuracy_gates(K, rho, L1, ell)
    if refusal:
        raise ValidationFailed(refusal)
    if L1 > 0.0:
        d2 = min(ell, (Interval(1.0) / (Interval(2.0) * Interval(K) * Interval(L1))).lo)
    else:
        d2 = ell
    return Certificate(
        system=getattr(problem, "name", type(problem).__name__),
        anchor=tuple(float(v) for v in z0),
        ell=float(ell),
        rho=rho,
        K=K,
        L1=L1,
        delta_accuracy=d1,
        delta_uniqueness=d2,
        preconditioner_sha256=preconditioner_hash(B),
    )
