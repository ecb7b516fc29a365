"""Outward-rounded interval arithmetic on scalars, vectors and matrices.

Scalars are inf-sup pairs of floats.  Vectors and matrices are backed by
numpy endpoint arrays so that the linear algebra used by the validation
machinery (residuals, preconditioned Jacobians, Neumann bounds) stays
cheap in dimensions up to ~50.

Rounding model: IEEE basic operations (+, -, *, /, sqrt) are correctly
rounded, so one ``nextafter`` step past the computed endpoint is a rigorous
outward bound.  Transcendentals (exp, pow) are evaluated at endpoints and
guarded by two ulps.  No rounding-mode switching is used, so every routine
here is safe under concurrent execution.

Infinities may appear as endpoints only through overflow; operations then
saturate (NaN candidates are replaced by the conservative infinite bound).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DomainError

_INF = math.inf
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1074         # smallest subnormal: bounds the underflow error


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
            return max(0.0, _dn2(math.exp(x)))

        def up(x: float) -> float:
            if x == 0.0:
                return 1.0
            if x > 709.7827128933841:
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
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
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

    def __getitem__(self, i: int) -> Interval:
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
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
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

    def entry(self, i: int, j: int) -> Interval:
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))

    def matvec(self, v: "IVector") -> "IVector":
        n, m = self.shape
        plo, phi_ = _mul_bounds(self.lo, self.hi, v.lo[None, :], v.hi[None, :])
        acc_lo = np.zeros(n)
        acc_hi = np.zeros(n)
        for k in range(m):
            acc_lo = _adn(acc_lo + plo[:, k])
            acc_hi = _aup(acc_hi + phi_[:, k])
        return IVector(acc_lo, acc_hi)

def _mul_bounds(alo, ahi, blo, bhi):
    """Endpoint bounds of the elementwise interval product (broadcasting)."""
    with np.errstate(invalid="ignore"):
        stack = np.stack(np.broadcast_arrays(alo * blo, alo * bhi, ahi * blo, ahi * bhi))
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    bad = np.isnan(lo) | np.isnan(hi)  # 0 * inf overflow pathology: saturate
    if bad.any():
        lo = np.where(bad, -_INF, lo)
        hi = np.where(bad, _INF, hi)
    return _adn(lo), _aup(hi)


def float_matmat(B: np.ndarray, A: "IMatrix | IVector") -> "IMatrix | IVector":
    """Rigorous product of a float matrix with an interval matrix, or with
    an interval vector taken as one column.  A @ B for interval A and float
    B is float_matmat(B.T, A.T).T: the same products, summed in the same
    order."""
    vec = isinstance(A, IVector)
    alo, ahi = (A.lo[:, None], A.hi[:, None]) if vec else (A.lo, A.hi)
    n, m = B.shape
    m2, r = alo.shape
    if m != m2:
        raise DomainError("shape mismatch")
    acc_lo = np.zeros((n, r))
    acc_hi = np.zeros((n, r))
    for k in range(m):
        col = B[:, k : k + 1]
        c1 = col * alo[k : k + 1, :]
        c2 = col * ahi[k : k + 1, :]
        acc_lo = _adn(acc_lo + _adn(np.minimum(c1, c2)))
        acc_hi = _aup(acc_hi + _aup(np.maximum(c1, c2)))
    if vec:
        return IVector(acc_lo[:, 0], acc_hi[:, 0])
    return IMatrix(acc_lo, acc_hi)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_inf(x: "IVector | IMatrix") -> Interval:
    """Max norm for vectors, induced max-row-sum norm for matrices.

    The upper endpoint dominates the norm of every point element of the
    enclosure; the lower endpoint is a valid lower bound for it.
    """
    if isinstance(x, IVector):
        mags_hi = x.mag
        mags_lo = np.where((x.lo <= 0.0) & (x.hi >= 0.0), 0.0,
                           np.minimum(np.abs(x.lo), np.abs(x.hi)))
        return Interval(float(mags_lo.max()), float(mags_hi.max()))
    if isinstance(x, IMatrix):
        mags_hi = x.mag
        mags_lo = np.where((x.lo <= 0.0) & (x.hi >= 0.0), 0.0,
                           np.minimum(np.abs(x.lo), np.abs(x.hi)))
        hi = float(np.max(up_sum(mags_hi, axis=1)))
        lo = float(np.max(dn_sum(mags_lo, axis=1)))
        return Interval(min(lo, hi), hi)
    raise TypeError(f"norm_inf undefined for {type(x)!r}")


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
    return (np.tensordot(A, B, axes=([A.ndim - 1], [0])) * (1.0 + 4.0 * (n + 1) * _EPS)
            + n * _TINY * live)


def up_mul(a, b):
    """Upper bound of the product of nonnegative floats/arrays."""
    return np.multiply(a, b) * (1.0 + 4.0 * _EPS) + _TINY * np.logical_and(a, b)

