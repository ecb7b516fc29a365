"""Outward-rounded interval arithmetic: scalars and midpoint-radius stacks.

Two types: `Interval`, an inf-sup pair of floats, for one point or box (a
vector is a list of them, as `around` gives it), and `MidRad`, a stack in
midpoint-radius form, for whole formulas run on many rows at once (the
branch's row-1 jet, through to its bounds).  Matrices of endpoints are
plain numpy arrays: `float_matmat(B, lo, hi)` takes the enclosure lo <= A
<= hi and returns the endpoint arrays of B A.

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
for underflow.  Where only the row sums of |I - B A| are wanted (the
Neumann bound), the radius enters through them alone: sum_j (|B| R)_ij =
(|B| rowsum R)_i, one product bounded as one entry is, with the row's
underflow terms added up (`cift.neumann_rho_rows`).

A monotone formula of operands of known sign (nonnegative bounds summed,
multiplied, divided by positive ones) takes the upper end of its interval
evaluation from its operands' upper ends, one rounding step per operation
(`add_hi`, `mul_hi`, `div_hi`, bit for bit as `Interval`).  By the
symmetry of rounding a lower end is 0.0 - add_hi(-a, -b) or 0.0 -
mul_hi(-a, b), +0.0 at zero as in every `Interval` sum.

`MidRad` takes the same model operation by operation (Rump, "Fast and
parallel interval arithmetic", BIT 39, 1999): the midpoint is rounded to
nearest, and the radius adds to the exact operation's radius one a-priori
bound of the midpoint's error, u |m~| for + and - and u |m~| + 2^-1075
for * and /.  A radius is itself evaluated to nearest from nonnegative
terms and inflated by (1 + 4(k + 2) u) for its k roundings, plus one
underflow term `_MU` (`_rad`).  A sum over a row (`MidRad.dot`) bounds
its midpoint's error by gamma_n times the sum of the absolute products;
exp takes libm's exp at the midpoint with the two-ulp guard and a Taylor
bound of the radius.

Infinities may appear as endpoints only through overflow; operations then
saturate (NaN candidates are replaced by the conservative infinite bound).
"""

from __future__ import annotations

import functools
import math
from typing import Union

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
    """Largest float <= a + b, bit for bit 0.0 - _sum_up(-a, -b) (TwoSum)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err >= 0.0:  # NaN err (inf inputs) falls through to the safe branch
        return s + 0.0          # an exact zero is +0.0
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

    # -- elementary functions -------------------------------------------

    def exp(self) -> "Interval":
        return Interval(_exp_dn(self.lo), _exp_up(self.hi))

    def pow(self, r: float) -> "Interval":
        """x**r for real r >= 0; requires lo >= 0 unless r = 0 (only
        nonnegative bases and exponents occur in the coral coefficients)."""
        if r == 0:
            return Interval(1.0, 1.0)
        if r < 0:
            raise DomainError(f"negative exponent {r}")
        if self.lo < 0.0:
            raise DomainError(f"pow of interval with negative part: {self}")
        return Interval(max(0.0, _dn2(math.pow(self.lo, r))), _up2(math.pow(self.hi, r)))

    def sqr(self) -> "Interval":
        m = self.mig
        return Interval(max(0.0, _dn(m * m)), _up(self.mag * self.mag))


def around(x, rad: float) -> list[Interval]:
    """The box x +- rad about a float vector x, one Interval an entry,
    each end one step outside its rounding."""
    return [Interval(_dn(v - rad), _up(v + rad)) for v in np.asarray(x, dtype=float).tolist()]


# ---------------------------------------------------------------------------
# endpoint arrays
# ---------------------------------------------------------------------------


def add_hi(a, b):
    """Upper end of the interval sum of points a + b (floats or arrays):
    fl(a + b), one step up unless TwoSum finds it exact or above (or NaN)."""
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.add(a, b)
        bb = s - a
        err = (a - (s - bb)) + (b - bb)
        return np.where(err <= 0.0, s, _aup(s))


def mul_hi(a, b):
    """Upper end of the interval product of points a * b: one step up from
    fl(a b); 0 * inf saturates to +inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _saturate(_aup(np.multiply(a, b)))


def div_hi(a, b):
    """Upper end of the interval quotient of points a / b for b > 0: one
    step up from fl(a / b); b <= 0 or NaN, and inf / inf, give +inf."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _saturate(np.where(b > 0.0, _aup(np.divide(a, b)), _INF))


def _sum_bounds(alo, ahi, blo, bhi):
    """Endpoint bounds of the elementwise interval sum, two `add_hi` calls
    rounded as `Interval.__add__` rounds."""
    return 0.0 - add_hi(np.negative(alo), np.negative(blo)), add_hi(ahi, bhi)


@functools.lru_cache(maxsize=64)
def _gamma(k: int) -> tuple[float, float]:
    """Upper bounds of gamma_k = k u / (1 - k u), u = 2^-53, and of
    1 / (1 - gamma_k)."""
    ku = Interval(k * 2.0 ** -53)
    g = (ku / (Interval(1.0) - ku)).hi
    return g, (Interval(1.0) / (Interval(1.0) - Interval(g))).hi


def _split(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A midpoint m of the endpoints lo, hi and an upper bound r of the
    radius about it, entrywise.  A point entry (zero difference, which
    under gradual underflow means lo = hi) has r = 0; an entry with an
    infinite endpoint gets m = 0 and r = inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        m = 0.5 * lo + 0.5 * hi
        r = np.maximum(m - lo, hi - m)
        finite = np.isfinite(r)               # False for infinite endpoints
        m = np.where(finite, m, 0.0)
        r = np.where(finite, np.where(r > 0.0, _aup(r), 0.0), _INF)
    return m, r


def mid_rad(lo: np.ndarray, hi: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The split of `float_matmat`: `_split`'s midpoint m and `gamma_rad`."""
    m, r = _split(lo, hi)
    return m, gamma_rad(m, r, gamma)


def gamma_rad(m: np.ndarray, r, gamma: float) -> np.ndarray:
    """R >= gamma |m| + r entrywise, as a product of m +- r with a float
    matrix needs; an exact zero has R = 0, where a subnormal R would slow
    the product down, and a NaN or infinite m or r stays non-finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where((m == 0.0) & (r == 0.0), 0.0, _aup(_aup(gamma * np.abs(m)) + r))


def float_matmat(B: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigorous product of a float matrix with the interval matrix lo <= A
    <= hi in the endpoints' last two axes, as endpoint arrays; 1-D
    endpoints are one column and give 1-D results, as in `np.matmul`.

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
    B = np.asarray(B, dtype=float)
    k = B.shape[-1]
    gamma, inv_1mg = _gamma(k)
    m, R = mid_rad(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), gamma)
    with np.errstate(invalid="ignore", over="ignore"):
        c = B @ m
        rad = _aup(_aup(np.abs(B) @ R + (k + 1) * _TINY) * inv_1mg)
        top = c + rad
        lo, hi = _adn(c - rad), _aup(top)
    bad = ~np.isfinite(top)    # an infinite radius saturates anyway
    if bad.any():
        lo, hi = np.where(bad, -_INF, lo), np.where(bad, _INF, hi)
    return lo, hi


# ---------------------------------------------------------------------------
# midpoint-radius stacks
# ---------------------------------------------------------------------------

_U = 2.0 ** -53
# The underflow term of every `MidRad` radius.  Half a subnormal ulp per
# product or quotient would do; 2^-600 covers any count of them below
# 2^470 and is a normal number, so that the radii of exact zeros stay
# normal: one subnormal column makes numpy's elementwise arithmetic on a
# (256, 13) stack three times slower.
_MU = 2.0 ** -600


def _rad(r, k: int):
    """An upper bound of the exact value E of a nonnegative radius from its
    float evaluation r: sums of nonnegative floats and of their products
    and quotients, each product or quotient taken of inputs or sums of
    inputs (so no underflow loss is multiplied up), with at most k
    roundings on any path from an input to r.  Then r >= (1 - u)^k E - p
    2^-1075 for p products and quotients, and fl(fl(r (1 + 4(k + 2) u)) +
    _MU) >= E covers the two roundings of the bound itself."""
    return r * (1.0 + 4 * (k + 2) * _U) + _MU


class MidRad:
    """A stack of intervals m +- r as a midpoint array and a radius array
    of one shape (Rump, "Fast and parallel interval arithmetic", BIT 39,
    1999).  Each operation rounds its midpoint to nearest and bounds every
    error of it in the radius, in the error model of `_rad`: u |m~| for a
    sum or difference (which is exact below 2^-1021, where u |m~| would
    underflow), u |m~| + 2^-1075 for a product or quotient, the radius terms
    of the exact operation on m +- r, and `_MU`.  The other operand may be
    a `MidRad` or a float (array), a point.  Operands broadcast, and no
    entry depends on another but through `dot`'s sum over the last axis,
    in that entry's own row.  NaN or infinite midpoints and NaN radii
    (overflow) saturate to +inf in `mag`; a reader of m and r directly
    (`gamma_rad`) must let them fail.  The constructor takes m and r as
    given: r >= 0, of m's shape, is the caller's to keep."""

    __slots__ = ("m", "r")
    __array_ufunc__ = None       # numpy operands defer to the reflected operators

    def __init__(self, m, r):
        self.m, self.r = m, r

    @staticmethod
    def of(x: "Interval | tuple") -> "MidRad":
        """The enclosure of an Interval or of a pair of endpoint arrays
        (`_split`)."""
        lo, hi = (x.lo, x.hi) if isinstance(x, Interval) else x
        return MidRad(*_split(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))

    @property
    def mag(self) -> np.ndarray:
        """Entrywise upper bound of |x|: |m| + r, one outward step past its
        rounding (NaN saturates to +inf)."""
        with np.errstate(invalid="ignore", over="ignore"):
            return _saturate(_aup(np.abs(self.m) + self.r))

    def __getitem__(self, idx) -> "MidRad":
        return MidRad(self.m[idx], self.r[idx])

    def __neg__(self) -> "MidRad":
        return MidRad(-self.m, self.r)

    def __add__(self, other) -> "MidRad":
        with np.errstate(invalid="ignore", over="ignore"):
            if isinstance(other, MidRad):
                m = self.m + other.m
                return MidRad(m, _rad(self.r + other.r + _U * np.abs(m), 2))
            m = self.m + other
            return MidRad(m, _rad(self.r + _U * np.abs(m), 2))

    __radd__ = __add__

    def __sub__(self, other) -> "MidRad":
        return self + (-other)          # a + (-b) rounds as a - b

    def __mul__(self, other) -> "MidRad":
        """(ma +- ra)(mb +- rb) lies in ma mb +- (|ma| rb + ra (|mb| + rb))."""
        with np.errstate(invalid="ignore", over="ignore"):
            if isinstance(other, MidRad):
                m = self.m * other.m
                return MidRad(m, _rad(np.abs(self.m) * other.r
                                      + self.r * (np.abs(other.m) + other.r)
                                      + _U * np.abs(m), 4))
            m = self.m * other
            return MidRad(m, _rad(self.r * np.abs(other) + _U * np.abs(m), 2))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MidRad":
        """For a divisor with 2 rb < |mb|, so d = |mb| - rb >= rb: x / y
        - q~ for q~ = fl(ma / mb) and q = ma / mb is (x - q y) / y + (q -
        q~), at most (ra + |q| rb) / d + |q - q~| <= ra / d + |q~| (rb / d)
        + 2u |q~| + 2^-1074, with fl(|mb| - rb) >= d (1 - u) taken as one
        more rounding.  Other divisors give [-inf, inf]."""
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            if isinstance(other, MidRad):
                amb = np.abs(other.m)
                d = amb - other.r
                m = self.m / other.m
                am = np.abs(m)
                r = _rad(self.r / d + am * _rad(other.r / d, 2) + _EPS * am, 4)
                ok = 2.0 * other.r < amb         # False at NaN
                return MidRad(m, r if ok.all() else np.where(ok, r, _INF))
            m = self.m / other
            return MidRad(m, _rad(self.r / np.abs(other) + _U * np.abs(m), 2))

    def exp(self) -> "MidRad":
        """libm's exp at each midpoint, e~, within two ulps (2 eps e~ +
        2^-1073 near underflow) of exp(m) under the model; then exp(m +- r)
        lies in e~ +- (exp(m) (e^r - 1) + |exp(m) - e~|) <= (1 + 2 eps) e~
        (r (1 + r) + 2 eps) + 3 2^-1073, the Taylor remainder e^r - 1 - r <=
        r^2 for r <= 1 (a product r (1 + r) that underflows loses far less
        than the 2 eps beside it).  Where r > 1 or m >= _EXP_OVERFLOW, the
        radius is the guarded upper bound of exp(m + r) itself."""
        m, r = self.m, self.r
        # math.exp overflows from _EXP_OVERFLOW on, where the radius saturates
        e = np.reshape([math.exp(v) for v in np.minimum(m, _EXP_FINITE).ravel().tolist()],
                       np.shape(m))
        with np.errstate(invalid="ignore", over="ignore"):
            # four roundings on a path, and 1 + 2 eps <= (1 - u)^-4 four more
            rad = _rad(e * (r * (1.0 + r) + 2.0 * _EPS), 8)
            wide = (r > 1.0) | (m >= _EXP_OVERFLOW)
            if wide.any():
                top = np.where(wide, m + r, 0.0).ravel().tolist()
                rad = np.where(wide, np.reshape([_exp_up(_up(v)) for v in top], np.shape(m)),
                               rad)
        return MidRad(e, rad)

    def dot(self, other: "MidRad") -> "MidRad":
        """Sums over the last axis of the elementwise product, one per row,
        as `CoralBranchSystem.evaluate` sums q.x (row sums, not a matrix
        product, so that a row does not depend on the rows stacked with
        it).  The midpoint is fl(sum_j ma_j mb_j), within gamma_n sum_j
        |ma_j mb_j| of the exact sum in any summation order (plus half a
        subnormal ulp a product), and the exact products have radius |ma|
        rb + ra (|mb| + rb), so r = sum_j |ma_j| (rb_j + gamma_n |mb_j|) +
        ra_j (|mb_j| + rb_j), with n + 1 roundings on a path."""
        n = np.shape(self.m)[-1]
        gamma = _gamma(n)[0]
        with np.errstate(invalid="ignore", over="ignore"):
            amb = np.abs(other.m)
            wa, wb = _rad(other.r + gamma * amb, 2), _rad(amb + other.r, 1)
            return MidRad((self.m * other.m).sum(axis=-1),
                          _rad((np.abs(self.m) * wa + self.r * wb).sum(axis=-1), n + 1))


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
    with np.errstate(over="ignore"):
        return arr.sum(axis=axis) * (1.0 + 2.0 * (n + 1) * _EPS)


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

