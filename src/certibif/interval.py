"""Outward-rounded interval arithmetic on scalars and arrays.

`Interval` is an inf-sup pair of floats.  `IArray` is one array type for
vectors, matrices and stacks of either: a pair of numpy endpoint arrays
whose shape says which, rounded entry by entry as `Interval` rounds, so
that the linear algebra used by the validation machinery (residuals,
preconditioned Jacobians, Neumann bounds) stays cheap in dimensions up to
~50.

Rounding model: IEEE basic operations (+, -, *, /, sqrt) are correctly
rounded to nearest, with gradual underflow, so one ``nextafter`` step past
the computed endpoint is a rigorous outward bound.  Transcendentals (exp,
pow) are evaluated at endpoints and guarded by two ulps.  No rounding-mode
switching is used, so every routine here is safe under concurrent
execution.  Float-times-interval matrix products (`float_matmat`) use the
midpoint-radius form with an a-priori error bound instead of per-operation
steps (Rump, "Fast interval matrix multiplication", Numer. Algorithms
2012): a sum of k products computed in any order, with or without FMA, is
within gamma_k = k u / (1 - k u) (u = 2^-53) of the exact sum relative to
the sum of the absolute products, plus half a subnormal ulp per product
for underflow.

Infinities may appear as endpoints only through overflow; operations then
saturate (NaN candidates are replaced by the conservative infinite bound).
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Union

import numpy as np

from .errors import DomainError

_INF = math.inf
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1074         # smallest subnormal: bounds the underflow error
_MAX = 2.0 ** 1023 * (2.0 - _EPS)    # largest finite float
_EXP_OVERFLOW = 709.7827128933841    # least float x with exp(x) > _MAX
_EXP_FINITE = math.nextafter(_EXP_OVERFLOW, 0.0)


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _dn2(x: float) -> float:
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


def _up2(x: float) -> float:
    return math.nextafter(math.nextafter(x, _INF), _INF)


# From this many entries on, a finite array is stepped by integer
# arithmetic on its bit patterns: the same bits as np.nextafter, which
# steps entry by entry, at a fraction of its cost.
_BIT_STEP_MIN = 1024


def _bit_step_up(x: np.ndarray) -> np.ndarray:
    """np.nextafter(x, inf) of a finite float array: the bit pattern one
    up where x >= 0 (-0.0 counting as +0.0), one down where x < 0."""
    i = (x + 0.0).view(np.int64)
    return (i + ((i >> 63) | 1)).view(np.float64)


def _adn(x: np.ndarray) -> np.ndarray:
    if isinstance(x, np.ndarray) and x.size >= _BIT_STEP_MIN and np.isfinite(x).all():
        return -_bit_step_up(-x)
    return np.nextafter(x, -_INF)


def _aup(x: np.ndarray) -> np.ndarray:
    if isinstance(x, np.ndarray) and x.size >= _BIT_STEP_MIN and np.isfinite(x).all():
        return _bit_step_up(x)
    return np.nextafter(x, _INF)


def _sum_dn(a: float, b: float) -> float:
    """Largest float <= a + b (TwoSum keeps exact sums exact)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err >= 0.0:  # NaN err (inf inputs) falls through to the safe branch
        return s
    return math.nextafter(s, -_INF)


def _sum_up(a: float, b: float) -> float:
    """Smallest float >= a + b."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err <= 0.0:
        return s
    return math.nextafter(s, _INF)


def _exp_dn(x: float) -> float:
    """Lower bound of exp(x): libm's exp guarded by two ulps."""
    if x == 0.0:
        return 1.0
    if x >= _EXP_OVERFLOW:
        return _MAX
    return max(0.0, _dn2(math.exp(x)))


def _exp_up(x: float) -> float:
    """Upper bound of exp(x): libm's exp guarded by two ulps."""
    if x == 0.0:
        return 1.0
    if x >= _EXP_OVERFLOW:
        return _INF
    return _up2(math.exp(x))


ScalarLike = Union["Interval", float, int]


class Interval:
    """Closed interval [lo, hi]; every operation returns an enclosure of
    the exact image of its point inputs."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("NaN endpoint")
        if lo > hi:
            raise DomainError(f"inverted endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    # -- basic queries -------------------------------------------------

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> float:
        """Upper bound of |x| over the interval (exact float op)."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """Lower bound of |x| over the interval."""
        if self.contains_zero():
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x: ScalarLike) -> "Interval | None":
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float, np.floating, np.integer)):
            return Interval(float(x), float(x))
        return None

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: ScalarLike) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_sum_dn(self.lo, o.lo), _sum_up(self.hi, o.hi))

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_sum_dn(self.lo, -o.hi), _sum_up(self.hi, -o.lo))

    def __rsub__(self, other: ScalarLike) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: ScalarLike) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        lo = hi = None
        for c in cands:
            if math.isnan(c):  # 0 * inf overflow pathology: saturate
                return Interval(-_INF, _INF)
            lo = c if lo is None or c < lo else lo
            hi = c if hi is None or c > hi else hi
        return Interval(_dn(lo), _up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise DomainError(f"division by interval containing zero: {o}")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_dn(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other: ScalarLike) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- elementary functions -------------------------------------------

    def exp(self) -> "Interval":
        return Interval(_exp_dn(self.lo), _exp_up(self.hi))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(f"sqrt of interval with negative part: {self}")
        return Interval(max(0.0, _dn(math.sqrt(self.lo))), _up(math.sqrt(self.hi)))

    def pow(self, r: float) -> "Interval":
        """x**r for real r; requires lo >= 0 unless r is a nonnegative
        integer (only nonnegative bases occur in the coral coefficients)."""
        if r == 0:
            return Interval(1.0, 1.0)
        if self.lo < 0.0:
            raise DomainError(f"pow of interval with negative part: {self}")
        if r > 0:
            lo, hi = self.lo, self.hi
        else:
            if self.lo == 0.0:
                raise DomainError("negative power of interval touching zero")
            lo, hi = self.hi, self.lo
        return Interval(max(0.0, _dn2(math.pow(lo, r))), _up2(math.pow(hi, r)))

    def sqr(self) -> "Interval":
        m = self.mig
        return Interval(max(0.0, _dn(m * m)), _up(self.mag * self.mag))


# ---------------------------------------------------------------------------
# numpy-backed interval arrays
# ---------------------------------------------------------------------------


def _mul_bounds(alo, ahi, blo, bhi):
    """Endpoint bounds of the elementwise interval product (broadcasting);
    an overflowing product saturates, as in `Interval.__mul__`."""
    with np.errstate(invalid="ignore", over="ignore"):
        if blo is bhi:           # a point factor: two candidates, as four would give
            p1, p3 = alo * blo, ahi * blo
            lo, hi = np.minimum(p1, p3), np.maximum(p1, p3)
        else:
            p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
            lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
            hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    bad = np.isnan(lo)  # 0 * inf overflow pathology (NaN propagates): saturate
    if bad.any():
        lo = np.where(bad, -_INF, lo)
        hi = np.where(bad, _INF, hi)
    return _adn(lo), _aup(hi)


def _sum_bounds(alo, ahi, blo, bhi):
    """Endpoint bounds of the elementwise interval sum, rounded as
    `Interval.__add__` rounds (TwoSum: exact sums stay exact); an
    overflowing sum saturates as it does there."""
    with np.errstate(invalid="ignore", over="ignore"):
        s, t = alo + blo, ahi + bhi
        bs, bt = s - alo, t - ahi
        err_lo = (alo - (s - bs)) + (blo - bs)
        err_hi = (ahi - (t - bt)) + (bhi - bt)
    # a NaN error (infinite inputs) takes the outward step, as in _sum_dn
    return np.where(err_lo >= 0.0, s, _adn(s)), np.where(err_hi <= 0.0, t, _aup(t))


def _div_bounds(alo, ahi, blo, bhi):
    """Endpoint bounds of the elementwise interval quotient (broadcasting),
    rounded as `Interval.__truediv__` rounds; a divisor containing 0 gives
    [-inf, inf] where `Interval` raises."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p1, p2, p3, p4 = alo / blo, alo / bhi, ahi / blo, ahi / bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    bad = (blo <= 0.0) & (bhi >= 0.0)
    if np.any(bad):
        lo, hi = np.where(bad, -_INF, lo), np.where(bad, _INF, hi)
    return _adn(lo), _aup(hi)


def dot_seq(alo, ahi, blo, bhi, start=None):
    """Interval dot product over the last axis of two endpoint arrays: the
    products as one elementwise call, then summed in index order after
    `start` (the first product when None), exactly as the scalar loop
    `start + a[0]*b[0] + a[1]*b[1] + ...` rounds.  One pair of vectors
    gives an `Interval`; stacked vectors give an `IArray` of their dot
    products, summed column by column in the same order."""
    plo, phi_ = _mul_bounds(alo, ahi, blo, bhi)
    if plo.ndim > 1:
        # both endpoints as one array, the upper ones negated: rounding
        # -a + -b down is rounding a + b up, negated, so one TwoSum per
        # column serves both as _sum_bounds rounds them
        p = np.stack([plo, -phi_])
        if start is None:
            acc, first = p[..., 0], 1
        else:
            acc = np.stack(np.broadcast_arrays(start.lo, -start.hi, plo[..., 0])[:2])
            first = 0
        with np.errstate(invalid="ignore", over="ignore"):
            for j in range(first, p.shape[-1]):
                b = p[..., j]
                s = acc + b
                bs = s - acc
                err = (acc - (s - bs)) + (b - bs)
                acc = np.where(err >= 0.0, s, _adn(s))
        # 0.0 - x keeps a zero upper endpoint +0.0, as x + (-x) rounds it
        return IArray._of(acc[0], 0.0 - acc[1])
    if start is None:
        lo, hi, plo, phi_ = float(plo[0]), float(phi_[0]), plo[1:], phi_[1:]
    else:
        lo, hi = start.lo, start.hi
    for pl, ph in zip(plo.tolist(), phi_.tolist()):
        lo, hi = _sum_dn(lo, pl), _sum_up(hi, ph)
    return Interval(lo, hi)


class IArray:
    """An array of intervals as a pair of endpoint arrays; the shape
    carries the meaning.  The last axis is a vector, the last two a matrix,
    and leading axes stack independent vectors or matrices.  Entry i of
    every elementwise result equals the scalar `Interval` operation on
    entry i bit for bit (TwoSum sums, outward-stepped products and
    quotients, libm exp per endpoint with the two-ulp guard), so one
    generic formula serves a single point (`Interval`) and a stack.
    The constructor rejects NaN and inverted endpoints; results of the
    arithmetic are valid by construction and skip that check.  NaN
    candidates saturate to [-inf, inf]."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None       # numpy operands defer to the reflected operators

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            raise DomainError("endpoint shape mismatch")
        if not (lo <= hi).all():         # also False at NaN endpoints
            raise DomainError("invalid endpoints")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def _of(lo, hi) -> "IArray":
        """The IArray of endpoints that are valid by construction."""
        x = object.__new__(IArray)
        x.lo = np.asarray(lo, dtype=float)
        x.hi = np.asarray(hi, dtype=float)
        return x

    @staticmethod
    def point(x) -> "IArray":
        """x as a point array; lo and hi are one array, so copy it before
        writing endpoints in place."""
        x = np.asarray(x, dtype=float)
        return IArray(x, x)

    @staticmethod
    def around(x, rad) -> "IArray":
        x = np.asarray(x, dtype=float)
        return IArray(_adn(x - rad), _aup(x + rad))

    @staticmethod
    def from_scalars(vals: Iterable[Interval]) -> "IArray":
        vals = list(vals)
        return IArray._of([v.lo for v in vals], [v.hi for v in vals])

    def to_scalars(self) -> list[Interval]:
        return [Interval(l, h) for l, h in zip(self.lo.tolist(), self.hi.tolist())]

    @staticmethod
    def _ends(x):
        if isinstance(x, (IArray, Interval)):
            return x.lo, x.hi
        return x, x

    def __getitem__(self, idx) -> "Interval | IArray":
        """numpy indexing; a single entry is an `Interval`."""
        lo, hi = self.lo[idx], self.hi[idx]
        if np.ndim(lo) == 0:
            return Interval(lo, hi)
        return IArray._of(lo, hi)

    def __repr__(self) -> str:
        return f"IArray(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.lo.shape

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> np.ndarray:
        """Entrywise upper bound of |x| (exact)."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    @property
    def T(self) -> "IArray":
        """The last two axes swapped."""
        return IArray._of(np.swapaxes(self.lo, -1, -2), np.swapaxes(self.hi, -1, -2))

    def __neg__(self) -> "IArray":
        return IArray._of(-self.hi, -self.lo)

    def __add__(self, other) -> "IArray":
        blo, bhi = self._ends(other)
        return IArray._of(*_sum_bounds(self.lo, self.hi, blo, bhi))

    __radd__ = __add__

    def __sub__(self, other) -> "IArray":
        blo, bhi = self._ends(other)
        return IArray._of(*_sum_bounds(self.lo, self.hi, np.negative(bhi), np.negative(blo)))

    def __mul__(self, other) -> "IArray":
        blo, bhi = self._ends(other)
        return IArray._of(*_mul_bounds(self.lo, self.hi, blo, bhi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IArray":
        blo, bhi = self._ends(other)
        return IArray._of(*_div_bounds(self.lo, self.hi, blo, bhi))

    def exp(self) -> "IArray":
        """libm's exp of each endpoint with the two-ulp guard of
        `_exp_dn`/`_exp_up`, the guard applied to the whole array."""
        x = np.stack([self.lo, self.hi])
        # math.exp overflows from _EXP_OVERFLOW on, where the guard saturates
        e = np.array([math.exp(v) for v in np.minimum(x, _EXP_FINITE).ravel().tolist()])
        elo, ehi = e.reshape(x.shape)
        lo = np.where(x[0] >= _EXP_OVERFLOW, _MAX, np.maximum(0.0, _adn(_adn(elo))))
        hi = np.where(x[1] >= _EXP_OVERFLOW, _INF, _aup(_aup(ehi)))
        return IArray._of(np.where(x[0] == 0.0, 1.0, lo), np.where(x[1] == 0.0, 1.0, hi))

    def shifted(self, s: ScalarLike) -> "IArray":
        """self - s I on the last two axes, the diagonal rounded as
        `Interval.__sub__` rounds, so diagonal entries that stay exact stay
        points."""
        slo, shi = self._ends(s)
        lo, hi = self.lo.copy(), self.hi.copy()
        i = np.arange(self.shape[-1])
        lo[..., i, i], hi[..., i, i] = _sum_bounds(lo[..., i, i], hi[..., i, i], -shi, -slo)
        return IArray._of(lo, hi)

    def widened(self, rad) -> "IArray":
        return IArray(_adn(self.lo - rad), _aup(self.hi + rad))


@functools.lru_cache(maxsize=64)
def _gamma(k: int) -> tuple[float, float]:
    """Upper bounds of gamma_k = k u / (1 - k u), u = 2^-53, and of
    1 / (1 - gamma_k)."""
    ku = Interval(k * 2.0 ** -53)
    g = (ku / (Interval(1.0) - ku)).hi
    return g, (Interval(1.0) / (Interval(1.0) - Interval(g))).hi


def float_matmat(B: np.ndarray, A: IArray) -> IArray:
    """Rigorous product of a float matrix with the interval matrix in A's
    last two axes; a 1-D A is one column and gives a 1-D result, as in
    `np.matmul`.  A @ B for interval A and float B is
    float_matmat(B.T, A.T).T.

    Midpoint-radius form: A lies in m +- r, so B A lies in B m +- |B| r.
    The centre C = fl(B m) and the radius product fl(|B| R) are single
    round-to-nearest BLAS products; each sums k products in some order, so
    its error is at most gamma_k times the absolute sum plus k half-ulps
    of underflow (times 1 + gamma_k), with or without FMA.  With
    R >= gamma_k |m| + r the radius up((fl(|B| R) + (k+1) 2^-1074) /
    (1 - gamma_k)) covers both errors and |B| r.  Entries whose centre
    overflows or whose radius is infinite or NaN (0 * inf) saturate to
    [-inf, inf].  Leading axes of B and A stack independent products (one
    batched BLAS call); the bound holds for each slice."""
    vec = A.lo.ndim == 1
    alo, ahi = (A.lo[:, None], A.hi[:, None]) if vec else (A.lo, A.hi)
    B = np.asarray(B, dtype=float)
    k = B.shape[-1]
    if k != alo.shape[-2]:
        raise DomainError("shape mismatch")
    gamma, inv_1mg = _gamma(k)
    with np.errstate(invalid="ignore", over="ignore"):
        m = 0.5 * alo + 0.5 * ahi
        r = np.maximum(m - alo, ahi - m)
        finite = np.isfinite(r)               # False for infinite endpoints
        m = np.where(finite, m, 0.0)
        # fl(a - b) = 0 only for a = b (gradual underflow): a zero
        # difference is a point entry, which needs no radius
        r = np.where(finite, np.where(r > 0.0, _aup(r), 0.0), _INF)
        c = B @ m
        # R >= gamma |m| + r holds with R = 0 at exact zeros, where a
        # subnormal R would slow the product |B| R down
        R = np.where((m == 0.0) & (r == 0.0), 0.0, _aup(_aup(gamma * np.abs(m)) + r))
        rad = _aup(_aup(np.abs(B) @ R + (k + 1) * _TINY) * inv_1mg)
        top = c + rad
        lo, hi = _adn(c - rad), _aup(top)
    bad = ~np.isfinite(top)    # an infinite radius saturates anyway
    if bad.any():
        lo, hi = np.where(bad, -_INF, lo), np.where(bad, _INF, hi)
    if vec:
        return IArray._of(lo[:, 0], hi[:, 0])
    return IArray._of(lo, hi)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_inf(x: IArray) -> "Interval | IArray":
    """Max norm over the last axis: an `Interval` for one vector, the
    `IArray` of the norms for a stack.  The upper endpoint dominates the
    norm of every point of the enclosure; the lower is a lower bound."""
    lo = np.where((x.lo <= 0.0) & (x.hi >= 0.0), 0.0,
                  np.minimum(np.abs(x.lo), np.abs(x.hi))).max(axis=-1)
    hi = x.mag.max(axis=-1)
    if x.lo.ndim > 1:
        return IArray._of(lo, hi)
    return Interval(float(lo), float(hi))


# ---------------------------------------------------------------------------
# directed float helpers for nonnegative bound arithmetic
#
# These operate on plain float arrays that are already rigorous upper
# bounds of nonnegative quantities; results are inflated to cover the
# accumulated round-to-nearest error, which keeps hot paths vectorized.
# A product that underflows loses up to half a subnormal ulp that no
# relative factor restores, so product bounds add one _TINY per product
# of nonzero factors; sums landing in the subnormal range are exact and
# need no such term.
# ---------------------------------------------------------------------------


def up_sum(arr: np.ndarray, axis=None) -> np.ndarray | float:
    """Upper bound of the exact sum of nonnegative entries."""
    arr = np.asarray(arr, dtype=float)
    n = arr.size if axis is None else arr.shape[axis]
    s = arr.sum(axis=axis)
    return s * (1.0 + 2.0 * (n + 1) * _EPS)


def up_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Upper bound of A @ B for nonnegative arrays (contraction on the
    last axis of A and first of B)."""
    n = A.shape[-1]
    # a zero row of A or zero column of B gives exact zeros: no underflow term
    live = np.multiply.outer(A.max(axis=-1) > 0.0, B.max(axis=0) > 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        out = (np.tensordot(A, B, axes=([A.ndim - 1], [0])) * (1.0 + 4.0 * (n + 1) * _EPS)
               + n * _TINY * live)
    return _saturate(out)


def up_mul(a, b):
    """Upper bound of the product of nonnegative floats/arrays."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.multiply(a, b) * (1.0 + 4.0 * _EPS) + _TINY * np.logical_and(a, b)
    return _saturate(out)


def _saturate(bound):
    """An upper bound with each NaN, which only 0 * inf makes from
    nonnegative factors, replaced by +inf (an infinite factor bounds
    nothing)."""
    return np.where(np.isnan(bound), _INF, bound) if np.isnan(bound).any() else bound

