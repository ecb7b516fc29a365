"""Outward-rounded interval arithmetic on scalars, vectors and matrices.

Scalars are inf-sup pairs of floats.  Vectors and matrices are backed by
numpy endpoint arrays so that the linear algebra used by the validation
machinery (residuals, preconditioned Jacobians, Neumann bounds) stays
cheap in dimensions up to ~50.

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
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DomainError

_INF = math.inf
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1074         # smallest subnormal: bounds the underflow error
_MAX = 2.0 ** 1023 * (2.0 - _EPS)    # largest finite float
_EXP_OVERFLOW = 709.7827128933841    # least float x with exp(x) > _MAX


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _dn2(x: float) -> float:
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


def _up2(x: float) -> float:
    return math.nextafter(math.nextafter(x, _INF), _INF)


def _adn(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, -_INF)


def _aup(x: np.ndarray) -> np.ndarray:
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

    @staticmethod
    def around(x: float, rad: float) -> "Interval":
        return Interval(_dn(x - rad), _up(x + rad))

    # -- basic queries -------------------------------------------------

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

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
        def dn(x: float) -> float:
            if x == 0.0:
                return 1.0
            if x >= _EXP_OVERFLOW:
                return _MAX
            return max(0.0, _dn2(math.exp(x)))

        def up(x: float) -> float:
            if x == 0.0:
                return 1.0
            if x >= _EXP_OVERFLOW:
                return _INF
            return _up2(math.exp(x))

        return Interval(dn(self.lo), up(self.hi))

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

    def abs(self) -> "Interval":
        return Interval(self.mig, self.mag)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widened(self, rad: float) -> "Interval":
        return Interval(_dn(self.lo - rad), _up(self.hi + rad))


# ---------------------------------------------------------------------------
# numpy-backed interval vectors and matrices
# ---------------------------------------------------------------------------


class IVector:
    """Vector of intervals as a pair of endpoint arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("endpoint shape mismatch")
        if not np.all(lo <= hi):         # also False at NaN endpoints
            raise DomainError("invalid endpoints")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(x: Sequence[float] | np.ndarray) -> "IVector":
        x = np.asarray(x, dtype=float)
        return IVector(x.copy(), x.copy())

    @staticmethod
    def around(x: np.ndarray, rad: float | np.ndarray) -> "IVector":
        x = np.asarray(x, dtype=float)
        return IVector(_adn(x - rad), _aup(x + rad))

    @staticmethod
    def from_scalars(vals: Iterable[Interval]) -> "IVector":
        vals = list(vals)
        return IVector(np.array([v.lo for v in vals]), np.array([v.hi for v in vals]))

    def to_scalars(self) -> list[Interval]:
        return [Interval(float(l), float(h)) for l, h in zip(self.lo, self.hi)]

    def __len__(self) -> int:
        return self.lo.shape[0]

    def __getitem__(self, i: int | slice) -> "Interval | IVector":
        if isinstance(i, slice):
            return IVector(self.lo[i], self.hi[i])
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __repr__(self) -> str:
        return f"IVector(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> np.ndarray:
        """Componentwise upper bound of |x| (exact)."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def __neg__(self) -> "IVector":
        return IVector(-self.hi, -self.lo)

    def __add__(self, other: "IVector | np.ndarray") -> "IVector":
        if isinstance(other, IVector):
            return IVector(_adn(self.lo + other.lo), _aup(self.hi + other.hi))
        o = np.asarray(other, dtype=float)
        return IVector(_adn(self.lo + o), _aup(self.hi + o))

    __radd__ = __add__

    def __sub__(self, other: "IVector | np.ndarray") -> "IVector":
        if isinstance(other, IVector):
            return IVector(_adn(self.lo - other.hi), _aup(self.hi - other.lo))
        o = np.asarray(other, dtype=float)
        return IVector(_adn(self.lo - o), _aup(self.hi - o))

    def __rsub__(self, other: np.ndarray) -> "IVector":
        return IVector.point(np.asarray(other, dtype=float)) - self

    def scale(self, c: ScalarLike) -> "IVector":
        c = Interval._coerce(c)
        if c is None:
            raise TypeError("scale expects an Interval or a real number")
        lo, hi = _mul_bounds(self.lo, self.hi, c.lo, c.hi)
        return IVector(lo, hi)

    def contains_point(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def widened(self, rad: float | np.ndarray) -> "IVector":
        return IVector(_adn(self.lo - rad), _aup(self.hi + rad))


class IMatrix:
    """Matrix of intervals as a pair of endpoint arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise DomainError("endpoint shape mismatch")
        if not np.all(lo <= hi):         # also False at NaN endpoints
            raise DomainError("invalid endpoints")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(m: np.ndarray) -> "IMatrix":
        m = np.asarray(m, dtype=float)
        return IMatrix(m.copy(), m.copy())

    @staticmethod
    def identity(n: int) -> "IMatrix":
        e = np.eye(n)
        return IMatrix(e.copy(), e.copy())

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    @property
    def T(self) -> "IMatrix":
        return IMatrix(self.lo.T, self.hi.T)

    def __neg__(self) -> "IMatrix":
        return IMatrix(-self.hi, -self.lo)

    def __add__(self, other: "IMatrix | np.ndarray") -> "IMatrix":
        if isinstance(other, IMatrix):
            return IMatrix(_adn(self.lo + other.lo), _aup(self.hi + other.hi))
        o = np.asarray(other, dtype=float)
        return IMatrix(_adn(self.lo + o), _aup(self.hi + o))

    __radd__ = __add__

    def __sub__(self, other: "IMatrix | np.ndarray") -> "IMatrix":
        if isinstance(other, IMatrix):
            return IMatrix(_adn(self.lo - other.hi), _aup(self.hi - other.lo))
        o = np.asarray(other, dtype=float)
        return IMatrix(_adn(self.lo - o), _aup(self.hi - o))

    def __rsub__(self, other: np.ndarray) -> "IMatrix":
        return IMatrix.point(np.asarray(other, dtype=float)) - self

    def shifted(self, s: ScalarLike) -> "IMatrix":
        """self - s I, the diagonal rounded as `Interval.__sub__` rounds, so
        diagonal entries that stay exact stay points."""
        s = Interval._coerce(s)
        lo, hi = self.lo.copy(), self.hi.copy()
        i = np.arange(self.shape[0])
        lo[i, i], hi[i, i] = _sum_bounds(lo[i, i], hi[i, i], -s.hi, -s.lo)
        return IMatrix(lo, hi)

    def entry(self, i: int, j: int) -> Interval:
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))


def _mul_bounds(alo, ahi, blo, bhi):
    """Endpoint bounds of the elementwise interval product (broadcasting)."""
    with np.errstate(invalid="ignore"):
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
    `Interval.__add__` rounds (TwoSum: exact sums stay exact)."""
    with np.errstate(invalid="ignore"):
        s, t = alo + blo, ahi + bhi
        bs, bt = s - alo, t - ahi
        err_lo = (alo - (s - bs)) + (blo - bs)
        err_hi = (ahi - (t - bt)) + (bhi - bt)
    # a NaN error (infinite inputs) takes the outward step, as in _sum_dn
    return np.where(err_lo >= 0.0, s, _adn(s)), np.where(err_hi <= 0.0, t, _aup(t))


def dot_seq(alo, ahi, blo, bhi, start: "Interval | None" = None) -> "Interval":
    """Interval dot product of two endpoint-array vectors: the products
    as one elementwise call, then summed in index order after `start`
    (the first product when None), exactly as the scalar loop
    `start + a[0]*b[0] + a[1]*b[1] + ...` rounds."""
    plo, phi_ = _mul_bounds(alo, ahi, blo, bhi)
    if start is None:
        lo, hi, plo, phi_ = float(plo[0]), float(phi_[0]), plo[1:], phi_[1:]
    else:
        lo, hi = start.lo, start.hi
    for pl, ph in zip(plo.tolist(), phi_.tolist()):
        lo, hi = _sum_dn(lo, pl), _sum_up(hi, ph)
    return Interval(lo, hi)


@functools.lru_cache(maxsize=64)
def _gamma(k: int) -> tuple[float, float]:
    """Upper bounds of gamma_k = k u / (1 - k u), u = 2^-53, and of
    1 / (1 - gamma_k)."""
    ku = Interval(k * 2.0 ** -53)
    g = (ku / (Interval(1.0) - ku)).hi
    return g, (Interval(1.0) / (Interval(1.0) - Interval(g))).hi


def float_matmat(B: np.ndarray, A: "IMatrix | IVector") -> "IMatrix | IVector":
    """Rigorous product of a float matrix with an interval matrix, or with
    an interval vector taken as one column.  A @ B for interval A and float
    B is float_matmat(B.T, A.T).T.

    Midpoint-radius form: A lies in m +- r, so B A lies in B m +- |B| r.
    The centre C = fl(B m) and the radius product fl(|B| R) are single
    round-to-nearest BLAS products; each sums k products in some order, so
    its error is at most gamma_k times the absolute sum plus k half-ulps
    of underflow (times 1 + gamma_k), with or without FMA.  With
    R >= gamma_k |m| + r the radius up((fl(|B| R) + (k+1) 2^-1074) /
    (1 - gamma_k)) covers both errors and |B| r.  Entries whose centre
    overflows or whose radius is infinite or NaN (0 * inf) saturate to
    [-inf, inf]."""
    vec = isinstance(A, IVector)
    alo, ahi = (A.lo[:, None], A.hi[:, None]) if vec else (A.lo, A.hi)
    B = np.asarray(B, dtype=float)
    k = B.shape[1]
    if k != alo.shape[0]:
        raise DomainError("shape mismatch")
    gamma, inv_1mg = _gamma(k)
    with np.errstate(invalid="ignore", over="ignore"):
        m = 0.5 * alo + 0.5 * ahi
        r = _aup(np.maximum(m - alo, ahi - m))
        finite = np.isfinite(r)               # False for infinite endpoints
        m = np.where(finite, m, 0.0)
        r = np.where(finite, r, _INF)
        c = B @ m
        R = _aup(_aup(gamma * np.abs(m)) + r)
        rad = _aup(_aup(np.abs(B) @ R + (k + 1) * _TINY) * inv_1mg)
        top = c + rad
        lo, hi = _adn(c - rad), _aup(top)
    bad = ~np.isfinite(top)    # an infinite radius saturates anyway
    if bad.any():
        lo, hi = np.where(bad, -_INF, lo), np.where(bad, _INF, hi)
    if vec:
        return IVector(lo[:, 0], hi[:, 0])
    return IMatrix(lo, hi)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_inf(x: "IVector | IMatrix") -> Interval:
    """Max norm for vectors, induced max-row-sum norm for matrices.

    The upper endpoint dominates the norm of every point element of the
    enclosure; the lower endpoint is a valid lower bound for it.
    """
    if not isinstance(x, (IVector, IMatrix)):
        raise TypeError(f"norm_inf undefined for {type(x)!r}")
    mags_hi = x.mag
    mags_lo = np.where((x.lo <= 0.0) & (x.hi >= 0.0), 0.0,
                       np.minimum(np.abs(x.lo), np.abs(x.hi)))
    if isinstance(x, IVector):
        return Interval(float(mags_lo.max()), float(mags_hi.max()))
    hi = float(np.max(up_sum(mags_hi, axis=1)))
    lo = float(np.max(dn_sum(mags_lo, axis=1)))
    return Interval(min(lo, hi), hi)


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


def dn_sum(arr: np.ndarray, axis=None) -> np.ndarray | float:
    """Lower bound of the exact sum of nonnegative entries."""
    arr = np.asarray(arr, dtype=float)
    n = arr.size if axis is None else arr.shape[axis]
    s = arr.sum(axis=axis)
    return s * (1.0 - 2.0 * (n + 1) * _EPS)


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

