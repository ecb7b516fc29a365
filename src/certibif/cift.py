"""Constructive implicit function theorem: hypothesis verification,
delta-inequality checks, and accuracy/uniqueness certificates.

A *zero problem* is any object with

    dim            -- ambient dimension m
    value(z)       -- float residual, shape (m,)
    jac(z)         -- float Jacobian, shape (m, m)
    value_iv(ziv)  -- interval residual (a list of m Intervals in and out)
    jac_iv(z, J)   -- interval Jacobian at the float point z, given J =
                      jac(z), as the endpoint arrays (lo, hi), each of
                      shape (m, m)
    hessian_sup(box) -- nonnegative float array T of shape (m, m, m), +inf
                        allowed, T[i, k, j] >= sup_box |d2 H_i / dz_k dz_j|
    name           -- short identifier for certificates

Hypotheses are verified for the left-preconditioned map B*H where B is the
floating-point inverse of the Jacobian at the anchor.  (H2): a bound rho1
of |I - B J| over an enclosure J of DH(z0), verified < 1, proves B
invertible, so B*H and H have identical zero sets, and K = 1 / (1 - rho1)
>= |(B DH(z0))^{-1}|, close to 1.  (H3): by the mean value theorem,
|B (DH(z) - DH(z'))| <= L1 |z - z'| in max norm over the box, with L1 =
max_i sum_j m max_k (|B| T)[i, k, j] (`lipschitz_from_tensor` bounds it).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import NotInvertibleEvidence, ValidationFailed
from .interval import (_EPS, _TINY, Interval, _aup, _gamma, _sum_bounds, add_hi, around,
                       div_hi, float_matmat, mid_rad, mul_hi, up_mul, up_sum)


@dataclass(frozen=True)
class CiftBounds:
    """Rigorous upper bounds for the theorem hypotheses (H1)-(H4) of a
    segment along a direction (mu, v) of unit max norm, so that the radii
    couple as delta_alpha + delta_x <= ell_x, the box radius over which
    the Lipschitz constants were certified.  The fields are nonnegative
    (`check_deltas` checks) and may be arrays, one entry per segment of a
    stack.
    """

    rho: float
    K: float
    L1: float
    L2: float
    L3: float
    L4: float
    ell_x: float


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
    r = problem.value_iv([Interval(v) for v in np.asarray(z0, dtype=float).tolist()])
    lo, hi = float_matmat(B, [v.lo for v in r], [v.hi for v in r])
    return float(np.maximum(np.abs(lo), np.abs(hi)).max())


def _below_one(rho1):
    """rho1 when every entry is < 1; otherwise raises NotInvertibleEvidence
    naming the first entry that is not (a NaN is not)."""
    bad = np.flatnonzero(~(np.ravel(rho1) < 1.0))
    if bad.size:
        i = int(bad[0])
        stacked = np.ndim(rho1) > 0
        where = f" (matrix {i} of the stack)" if stacked else ""
        raise NotInvertibleEvidence(f"|I - BA| bound {np.ravel(rho1)[i]} >= 1{where}",
                                    index=i if stacked else None)
    return rho1


def neumann_rho_rows(B: np.ndarray, m: np.ndarray, R_rows: np.ndarray):
    """Upper bound rho1 of |I - B A| for every A in an enclosure, verified
    < 1 (so A and B are invertible); otherwise raises
    NotInvertibleEvidence.  The enclosure is in midpoint-radius form: m
    (k, k) the midpoints and R_rows (k,) upper bounds of the row sums of a
    radius R >= gamma_k |m| + r (`interval.mid_rad`).  Leading axes stack
    independent enclosures and preconditioners, one bound each, so that a
    row of A that is the same for every matrix of the stack costs one
    precomputed number.

    Row-sum error model.  B A lies in c +- (|B| R + underflow) with c =
    fl(B m), as in `float_matmat`, so a row sum of |I - B A| is at most
    sum_j |c - I|_ij plus sum_j (|B| R)_ij = (|B| rowsum R)_i.  The second
    is one product per row, bounded as `float_matmat` bounds an entry:
    up((fl(|B| R_rows) + k (k + 1) 2^-1074) / (1 - gamma_k)), the k
    entries' underflow terms (k + 1) 2^-1074 added up.  The first is |c|
    with the diagonal shifted as TwoSum rounds it, summed by `up_sum`.  A
    non-finite entry gives an infinite or NaN bound, which fails."""
    B = np.asarray(B, dtype=float)
    k = B.shape[-1]
    inv_1mg = _gamma(k)[1]
    i = np.arange(k)
    with np.errstate(invalid="ignore", over="ignore"):
        c = B @ m
        E = np.abs(c)
        d_lo, d_hi = _sum_bounds(c[..., i, i], c[..., i, i], -1.0, -1.0)
        E[..., i, i] = np.maximum(np.abs(d_lo), np.abs(d_hi))
        rad = _aup(_aup((np.abs(B) @ R_rows[..., None])[..., 0] + k * (k + 1) * _TINY)
                   * inv_1mg)
        rho1 = _aup(up_sum(E, axis=-1) + rad).max(axis=-1)
    return _below_one(rho1)


def neumann_K(rho1, B: np.ndarray):
    """Neumann-series bound K >= |A^{-1}| = |B| / (1 - rho1), given a
    verified |I - B A| <= rho1 < 1 from `neumann_rho_rows`, one entry per
    matrix of the stack (0-d for a single matrix), rounded up over 1 -
    rho1 rounded down."""
    rho2 = up_sum(np.abs(B), axis=-1).max(axis=-1)
    return div_hi(rho2, 0.0 - add_hi(-1.0, rho1))


def lipschitz_from_tensor(T: np.ndarray, absB: np.ndarray) -> float:
    """Mean-value Lipschitz constant max_i sum_j m max_k (|B| T)[i, k, j]
    of B DH, T[l, k, j] >= sup |d2 H_l / dz_k dz_j| over the box.

    Bit for bit the bound `up_dot(absB, T).max(axis=1)` with the max over
    k taken before the rounding factor and underflow term: rounding is
    monotone; a zero column (k, j) of T gives an exact 0, which the term
    m 2^-1074 of any live k exceeds, so (i, j) is live when row i of |B|
    and any column (k, j) are; a NaN (0 * inf) reaches `up_mul`, which
    saturates it to +inf."""
    m = T.shape[0]
    live = np.multiply.outer(absB.max(axis=-1) > 0.0, T.max(axis=(0, 1)) > 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        inner = np.tensordot(absB, T, axes=(1, 0)).max(axis=1)
        inner = inner * (1.0 + 4.0 * (m + 1) * _EPS) + m * _TINY * live
        return float(np.max(up_mul(float(m), up_sum(inner, axis=1))))


def lipschitz_L1(problem, z0: np.ndarray, ell: float, absB: np.ndarray) -> float:
    """Lipschitz bound for B DH over z0 +- ell, given |B|."""
    return lipschitz_from_tensor(problem.hessian_sup(around(z0, ell)), absB)


def _accuracy(K, rho, L1):
    """Upper bounds of 4 K^2 rho L1, of 2K and of the accuracy radius 2K rho
    (floats, or arrays for stacks), each product stepped up."""
    K2 = mul_hi(2.0, K)
    return mul_hi(mul_hi(mul_hi(mul_hi(4.0, K), K), rho), L1), K2, mul_hi(K2, rho)


def accuracy_gates(K: float, rho: float, L1: float, ell: float,
                   ell_name: str = "ell") -> tuple[float, str | None]:
    """The accuracy radius 2 K rho and, when (K, rho, L1) fail an accuracy
    gate over a box of radius ell, that gate's inequality as a message
    (None when both 4 K^2 rho L1 < 1 and 2 K rho < ell hold)."""
    gate, _, dmin = _accuracy(K, rho, L1)
    if not gate < 1.0:
        return float(dmin), f"4 K^2 rho L1 = {float(gate)} >= 1"
    if not dmin < ell:
        return float(dmin), f"2 K rho = {float(dmin)} >= {ell_name} = {ell}"
    return float(dmin), None


# ---------------------------------------------------------------------------
# delta inequalities
#
# Every helper takes one segment (floats) or a stack (arrays, one entry per
# segment) through the same endpoint helpers (`interval.add_hi`, `mul_hi`,
# `div_hi`), which round entry by entry, so a stacked check equals the
# checks of its segments one by one bit for bit.
# ---------------------------------------------------------------------------

# The fraction of the coupling budget delta_alpha + delta_x <= ell_x
# withheld from delta_alpha, so that the uniqueness tube never degenerates
# (linking needs room in it).
_DU_RESERVE = 0.1
# A planned delta_alpha sits this fraction below the float root of the
# bounds, so that the check, which rounds them apart from the root,
# accepts it; the step gives up 1e-8 of its length for that.
_PLAN_MARGIN = 1e-8


@dataclass(frozen=True)
class _Probe:
    """Bounds b at delta_alpha values da, with the bounds of 2K L1 and of
    the da terms rounded once and shared by the accuracy gates, the floor,
    the ceiling and every pair check."""

    b: CiftBounds
    da: np.ndarray
    L1: np.ndarray          # upper bound of 2K L1
    L2da: np.ndarray        # upper bound of 2K L2 da
    floor: np.ndarray       # upper bound of 2K(rho + L3 da + L4 da^2), the least delta_x
    gate: np.ndarray        # upper bound of 4 K^2 rho L1
    delta_min: np.ndarray   # upper bound of 2K rho, the accuracy radius

    @staticmethod
    def of(b: CiftBounds, da) -> "_Probe":
        gate, K2, dmin = _accuracy(b.K, b.rho, b.L1)
        floor = add_hi(add_hi(dmin, mul_hi(mul_hi(K2, b.L3), da)),
                       mul_hi(mul_hi(mul_hi(K2, b.L4), da), da))
        return _Probe(b, da, mul_hi(K2, b.L1), mul_hi(mul_hi(K2, b.L2), da), floor, gate, dmin)


def _pair_feasible(p: _Probe, dx):
    """Rigorous check of the two theorem inequalities and the coupling
    da + dx <= ell_x, which bounds each radius by the box radius."""
    return ((0.0 < p.da) & (0.0 < dx)
            & (add_hi(mul_hi(p.L1, dx), p.L2da) <= 1.0) & (p.floor <= dx)
            & (add_hi(p.da, dx) <= p.b.ell_x))


def _dx_ceiling(p: _Probe):
    """Lower bound of the largest admissible delta_x at the probe's delta_alpha,
    min((1 - 2K L2 da) / 2K L1, ell_x - da); -inf where 2K L1 may be 0."""
    neg_num = add_hi(-1.0, p.L2da)      # minus the lower end of 1 - 2K L2 da
    neg_den = mul_hi(mul_hi(-2.0, p.b.K), p.b.L1)       # minus the lower end of 2K L1
    with_l1 = np.asarray(p.b.L1) > 0.0
    quot = np.where(neg_den < 0.0, 0.0 - div_hi(neg_num, p.L1), -math.inf)
    cap = np.minimum(np.where(with_l1, quot, math.inf), 0.0 - add_hi(-p.b.ell_x, p.da))
    return np.where(with_l1 & (neg_num >= 0.0), 0.0, cap)


def _alpha_feasible(p: _Probe, ceiling):
    """Rigorous: some delta_x completes the probe's delta_alpha to a
    feasible pair, and da stays within ell_x less its reserve, given the
    ceiling _dx_ceiling(p).  Monotone in da: the floor rises with it and
    every ceiling falls."""
    return ((p.da <= p.b.ell_x * (1.0 - _DU_RESERVE))
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


_ROOT_NAMES = np.array(["L1-coupling", "coupled-cap", "search-cap"], dtype=object)


def delta_alpha_root(b: CiftBounds):
    """The planned delta_alpha of bounds b, _PLAN_MARGIN below a float
    estimate of the largest one `check_deltas` accepts, and the constraint
    that sets it: the smallest float root of floor(da) = each ceiling,
    floor = a*da^2 + bl*da + c0, the first constraint of `_ROOT_NAMES` on
    a tie: arrays of planned values and of names, one entry per segment."""
    with np.errstate(invalid="ignore", over="ignore"):      # rho = inf where F overflowed
        K2 = 2.0 * b.K
        a, bl, c0, s = K2 * b.L4, K2 * b.L3, K2 * b.rho, K2 * b.L1  # s: 2K(L1 floor + L2 da) <= 1
        # the search cap da = ell_x (1 - _DU_RESERVE) bounds every root
        roots = np.stack(np.broadcast_arrays(
            _smallest_root(s * a, s * bl + K2 * b.L2, s * c0 - 1.0),
            _smallest_root(a, bl + 1.0, c0 - b.ell_x),
            b.ell_x * (1.0 - _DU_RESERVE)))
    k = roots.argmin(axis=0)
    root = np.take_along_axis(roots, k[None], axis=0)[0]
    return root * (1.0 - _PLAN_MARGIN), _ROOT_NAMES[k]


def check_deltas(b: CiftBounds, delta_alpha) -> tuple[np.ndarray, DeltaPair]:
    """The delta_alpha check of the theorem for a stack of segments: b
    holds one entry per segment, and the result says which segments pass
    the accuracy gates and the delta inequalities at their delta_alpha > 0,
    with the largest certified delta_x and the accuracy radius of each.

    delta_alpha + delta_x <= ell_x couples the radii, and a _DU_RESERVE
    fraction of that budget is withheld from delta_alpha.  Every
    constraint on delta_alpha is a quadratic whose left side grows with
    it, so feasibility is monotone: the value `delta_alpha_root` plans
    passes unless the root misjudges the rounding of the rigorous check.
    Raises ValueError when a field of b has a negative entry."""
    for f in fields(b):
        if np.any(np.asarray(getattr(b, f.name)) < 0.0):
            raise ValueError(f"{f.name} must be nonnegative")
    p = _Probe.of(b, np.asarray(delta_alpha, dtype=float))
    ceiling = _dx_ceiling(p)
    ok = (p.gate < 1.0) & _alpha_feasible(p, ceiling)
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
    J = problem.jac(z0)
    try:
        B = np.linalg.inv(J)
    except np.linalg.LinAlgError as exc:
        raise ValidationFailed(f"anchor Jacobian not invertible: {exc}") from exc

    L1 = lipschitz_L1(problem, z0, ell, np.abs(B))
    rho = residual_bound(problem, z0, B)
    lo, hi = problem.jac_iv(z0, J)
    bad = int(np.count_nonzero(~(np.isfinite(lo) & np.isfinite(hi))))
    if bad:
        raise ValidationFailed(f"(H2) failed: anchor Jacobian enclosure has {bad} "
                               f"non-finite entries")
    m, R = mid_rad(lo, hi, _gamma(problem.dim)[0])
    try:
        K = float(neumann_K(neumann_rho_rows(B, m, up_sum(R, axis=-1)), np.eye(problem.dim)))
    except NotInvertibleEvidence as exc:
        raise ValidationFailed(f"(H2) failed: {exc}") from exc

    d1, refusal = accuracy_gates(K, rho, L1, ell)
    if refusal:
        raise ValidationFailed(refusal)
    if L1 > 0.0:
        d2 = min(ell, float(0.0 - div_hi(-1.0, mul_hi(mul_hi(2.0, K), L1))))
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
