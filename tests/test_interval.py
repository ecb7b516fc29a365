import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certibif.errors import DomainError
from certibif.cift import neumann_rho_rows
from certibif.interval import (_EXP_OVERFLOW, Interval, MidRad, _gamma, add_hi, around,
                               div_hi, float_matmat, mid_rad, mul_hi, up_dot, up_mul, up_sum)

from helpers import contains

ULP = 2.0 ** -52


def test_add_exact_endpoints():
    r = Interval(1, 2) + Interval(3, 4)
    assert (r.lo, r.hi) == (4.0, 6.0)


def test_sub_contains_and_tight():
    r = Interval(1, 2) - Interval(3, 4)
    assert (r.lo, r.hi) == (-3.0, -1.0)


def test_mul_symmetric_unit():
    r = Interval(-1, 1) * Interval(-1, 1)
    assert r.lo <= -1.0 <= r.hi and r.hi >= 1.0
    assert abs(r.lo + 1.0) <= 4 * ULP and abs(r.hi - 1.0) <= 4 * ULP


def test_div_by_zero_interval_raises():
    with pytest.raises(DomainError):
        Interval(1, 1) / Interval(0, 1)


def test_div_contains():
    r = Interval(1, 2) / Interval(2, 4)
    assert r.lo <= 0.25 and r.hi >= 1.0


def test_exp_at_zero_is_exact():
    r = Interval(0.0).exp()
    assert 1.0 in r and r.lo == r.hi


def test_exp_at_one_contains_e():
    assert math.e in Interval(1.0).exp()


def test_exp_monotone_guard():
    r = Interval(-0.5, 1.25).exp()
    assert math.exp(-0.5) in r and math.exp(1.25) in r


def test_exp_overflow_saturates():
    r = Interval(0.0, 1e4).exp()
    assert r.hi == math.inf and r.lo >= 0.0


def test_exp_overflow_lower_endpoint_is_largest_float():
    # exp of an argument beyond log(max float) has no finite enclosure
    # above, and the largest float is a valid lower bound
    big = 709.7827128933841
    x = math.nextafter(big, 0.0)
    with mp.workdps(40):
        assert mp.exp(mp.mpf(big)) > sys.float_info.max
        below = Interval(x).exp()
        assert below.lo <= mp.exp(mp.mpf(x)) <= below.hi < math.inf
    for iv in (Interval(big), Interval(1e4), Interval(big, 1e300)):
        r = iv.exp()
        assert r.lo == sys.float_info.max and r.hi == math.inf


def test_pow_contains_high_precision_value():
    # mpmath oracle: mp.power(2, mp.mpf(2.324)) at 40 digits
    oracle = 5.007185834615976961131869402330871643495
    r = Interval(2.0).pow(2.324)
    assert r.lo <= oracle <= r.hi
    assert (r.hi - r.lo) <= 8 * ULP * oracle


def test_pow_negative_base_fractional_raises():
    with pytest.raises(DomainError):
        Interval(-1.0, 1.0).pow(2.324)


def test_pow_zero_exponent():
    assert Interval(2.0, 3.0).pow(0).lo == 1.0


def test_pow_negative_exponent_raises():
    with pytest.raises(DomainError):
        Interval(2.0, 3.0).pow(-1.5)


def test_sqrt_and_sqr():
    r = Interval(2.0).sqrt()
    assert r.lo <= math.sqrt(2) <= r.hi
    s = Interval(-2.0, 3.0).sqr()
    assert s.lo == 0.0 and s.hi >= 9.0


def test_neumann_rho_rowsum():
    # I - BA is the all-ones matrix times 0.25: row sum 0.5
    A = np.eye(2) - 0.25 * np.ones((2, 2))
    m, R = mid_rad(A, A, _gamma(2)[0])
    rho = neumann_rho_rows(np.eye(2), m, up_sum(R, axis=-1))
    assert 0.5 <= rho <= 0.5 * (1 + 1e-14)


def test_interval_rejects_nan_and_inverted_endpoints():
    Interval(0.0, 1.0)
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (2.0, 1.0)):
        with pytest.raises(DomainError):
            Interval(lo, hi)
    with pytest.raises(DomainError):
        Interval(math.nan)


def test_overflow_saturation_mul():
    big = Interval(0.0, 1.7e308)
    r = big * Interval(0.0, 1e10)
    assert r.hi == math.inf and 0.0 in r


# ---------------------------------------------------------------------------
# containment properties
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _mk(lo, w):
    return Interval(lo, lo + abs(w))


@given(finite, st.floats(0, 10), finite, st.floats(0, 10),
       st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_containment_arith(a, wa, b, wb, sa, sb):
    ia, ib = _mk(a, wa), _mk(b, wb)
    x = ia.lo + sa * (ia.hi - ia.lo)
    y = ib.lo + sb * (ib.hi - ib.lo)
    assert x + y in ia + ib
    assert x - y in ia - ib
    assert x * y in ia * ib
    if not ib.contains_zero():
        assert x / y in ia / ib


@given(finite, st.floats(0, 10), finite, st.floats(0, 10),
       st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_inclusion_monotonicity(a, wa, b, wb, shrink_a, shrink_b):
    A2 = _mk(a, wa)
    B2 = _mk(b, wb)
    span_a, span_b = A2.hi - A2.lo, B2.hi - B2.lo
    A1 = Interval(A2.lo + shrink_a * 0.4 * span_a, A2.hi - shrink_a * 0.4 * span_a)
    B1 = Interval(B2.lo + shrink_b * 0.4 * span_b, B2.hi - shrink_b * 0.4 * span_b)
    for outer, inner in ((A2 + B2, A1 + B1), (A2 - B2, A1 - B1), (A2 * B2, A1 * B1)):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


@given(st.floats(-700, 700), st.floats(0, 5), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_containment_exp(a, w, s):
    ia = _mk(a, w)
    x = ia.lo + s * (ia.hi - ia.lo)
    assert math.exp(x) in ia.exp()


def test_twosum_keeps_representable_sums_exact():
    r = Interval(0.25, 0.5) + Interval(0.125, 0.125)
    assert (r.lo, r.hi) == (0.375, 0.625)


def test_add_outward_when_inexact():
    r = Interval(0.1) + Interval(0.2)
    exact = Fraction(0.1) + Fraction(0.2)
    assert Fraction(r.lo) <= exact <= Fraction(r.hi)


# ---------------------------------------------------------------------------
# interval arrays against the scalar type
# ---------------------------------------------------------------------------

def _bits(iv) -> tuple[str, str]:
    return float(iv.lo).hex(), float(iv.hi).hex()


def _assert_helpers_entrywise(x: np.ndarray, y: np.ndarray) -> None:
    """On points x and y, the endpoint helpers give the ends of the scalar
    Interval sum, difference, product and quotient entry by entry, bit for
    bit: the upper end directly, the lower end as 0.0 minus the helper on
    negated operands.  A quotient by y <= 0, where Interval raises or
    divides by a negative, is +inf."""
    ends = {"+": (add_hi(x, y), 0.0 - add_hi(-x, -y)),
            "-": (add_hi(x, -y), 0.0 - add_hi(-x, y)),
            "*": (mul_hi(x, y), 0.0 - mul_hi(-x, y)),
            "/": (div_hi(x, y), 0.0 - div_hi(-x, y))}
    for idx in np.ndindex(*np.shape(x)):
        ix, iy = Interval(x[idx]), Interval(y[idx])
        want = {"+": lambda: ix + iy, "-": lambda: ix - iy, "*": lambda: ix * iy,
                "/": lambda: ix / iy}
        for op, (hi, lo) in ends.items():
            got = (float(lo[idx]).hex(), float(hi[idx]).hex())
            if op == "/" and not y[idx] > 0.0:
                assert hi[idx] == math.inf and lo[idx] == -math.inf, (op, idx)
            else:
                assert got == _bits(want[op]()), (op, idx)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_endpoint_helpers_equal_scalar_interval_entrywise(data):
    """On random endpoint arrays, the helpers give the scalar Interval
    ends entry by entry (`_assert_helpers_entrywise`), and for nonnegative
    operands the upper end of each interval operation is the helper on
    upper ends (on the divisor's lower end for a quotient).  Multiples of
    1/8 below 2^18 have float sums, which stay points."""
    shape = data.draw(st.sampled_from([(4,), (3, 3), (2, 3, 3)]))
    exact = data.draw(st.booleans())
    if exact:
        elem = st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 8.0)
        width = st.just(0.0)
    else:
        elem, width = finite, st.floats(0, 10)
    n = math.prod(shape)

    def draw_ends() -> tuple[np.ndarray, np.ndarray]:
        lo = np.array(data.draw(st.lists(elem, min_size=n, max_size=n))).reshape(shape)
        w = np.array(data.draw(st.lists(width, min_size=n, max_size=n))).reshape(shape)
        return lo, lo + w

    (alo, ahi), (blo, bhi) = draw_ends(), draw_ends()
    _assert_helpers_entrywise(alo, blo)
    _assert_helpers_entrywise(ahi, bhi)
    for i in np.ndindex(*shape):
        ja, jb = (Interval(abs(lo[i]), abs(lo[i]) + (hi[i] - lo[i]))
                  for lo, hi in ((alo, ahi), (blo, bhi)))
        assert float(add_hi(ja.hi, jb.hi)).hex() == (ja + jb).hi.hex()
        assert float(mul_hi(ja.hi, jb.hi)).hex() == (ja * jb).hi.hex()
        if jb.lo > 0.0:
            assert float(div_hi(ja.hi, jb.lo)).hex() == (ja / jb).hi.hex()
    if exact:
        assert np.array_equal(add_hi(alo, blo), 0.0 - add_hi(-alo, -blo))
        assert np.array_equal(add_hi(alo, -blo), 0.0 - add_hi(-alo, blo))


def test_outward_steps_of_large_arrays_equal_nextafter():
    """From _BIT_STEP_MIN entries on, one outward step is taken on the bit
    patterns; it gives np.nextafter's bits, signed zeros, subnormals and
    the step from the largest float to inf included, and arrays with an
    infinite entry keep np.nextafter."""
    from certibif.interval import _BIT_STEP_MIN, _adn, _aup
    rng = np.random.default_rng(3)
    x = rng.normal(size=3 * _BIT_STEP_MIN) * 10.0 ** rng.uniform(-320, 308, 3 * _BIT_STEP_MIN)
    x[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
             -sys.float_info.max, 1.0]
    with np.errstate(over="ignore"):
        for arr in (x, x.reshape(3, -1, 4), np.append(x, [math.inf, -math.inf])):
            for step, to in ((_aup, math.inf), (_adn, -math.inf)):
                got, want = step(arr), np.nextafter(arr, to)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# vector / matrix kernels
# ---------------------------------------------------------------------------


def _fixed(x: float) -> int:
    """x * 2^1074 as an exact integer: every finite double is a multiple
    of 2^-1074."""
    num, den = float(x).as_integer_ratio()
    return num * ((1 << 1074) // den)


def _exact_hull_contained(B: np.ndarray, alo: np.ndarray, ahi: np.ndarray,
                          clo: np.ndarray, chi: np.ndarray) -> bool:
    """Whether [clo, chi] contains the exact hull of B @ [alo, ahi]
    (entry (i, j) ranges over sum_k B_ik a_kj for a_kj in [alo, ahi]),
    in integer arithmetic.  A zero B_ik contributes 0 whatever a_kj is;
    an infinite endpoint met by a nonzero B_ik makes that bound infinite."""
    n, k = B.shape
    fix = lambda M: [[None if math.isinf(x) else _fixed(x) for x in row] for row in M.T]
    Bf, Alo, Ahi = [[_fixed(b) for b in row] for row in B], fix(alo), fix(ahi)
    for j in range(alo.shape[1]):
        for i in range(n):
            lo = hi = 0
            lo_inf = hi_inf = False
            for kk in range(k):
                b = Bf[i][kk]
                if b == 0:
                    continue
                low, high = (Alo[j][kk], Ahi[j][kk]) if b > 0 else (Ahi[j][kk], Alo[j][kk])
                if low is None:
                    lo_inf = True
                else:
                    lo += b * low
                if high is None:
                    hi_inf = True
                else:
                    hi += b * high
            if clo[i, j] != -np.inf and not (not lo_inf and _fixed(clo[i, j]) << 1074 <= lo):
                return False
            if chi[i, j] != np.inf and not (not hi_inf and hi <= _fixed(chi[i, j]) << 1074):
                return False
    return True


@pytest.mark.parametrize("n", [5, 14, 27, 42])
def test_float_matmat_contains_exact_hull(n):
    """The midpoint-radius product encloses the exact product of a float
    matrix with every matrix (and vector) in an interval enclosure:
    normal, subnormal-product and wide-range magnitudes, point and wide
    entries, +-inf endpoints, 0 * inf without NaN, and the sparse pattern
    of the branch's (P2) matrix with entries one ulp wide."""
    rng = np.random.default_rng(n)
    mag = lambda lo, hi, shape: rng.normal(size=shape) * 10.0 ** rng.uniform(lo, hi, shape)
    r = 12                       # columns of the interval factor
    cases = {
        "normal": (rng.normal(size=(n, n)), mag(-1, 1, (n, r))),
        # products of order 1e-310..1e-320 land in the subnormal range
        "subnormal": (mag(-300, -299, (n, n)), mag(-20, -10, (n, r))),
        "wide-range": (mag(-300, 290, (n, n)), mag(-8, 8, (n, r))),
    }
    for name, (B, M) in cases.items():
        for rel in (0.0, 1e-15, 1e-6):
            rad = rel * np.abs(M) * rng.uniform(0.0, 1.0, M.shape)
            alo, ahi = M - rad, M + rad
            assert _exact_hull_contained(B, alo, ahi, *float_matmat(B, alo, ahi)), (name, rel)
            vlo, vhi = float_matmat(B, alo[:, 0], ahi[:, 0])
            assert _exact_hull_contained(B, alo[:, :1], ahi[:, :1],
                                         vlo[:, None], vhi[:, None]), (name, rel)
    # infinite endpoints, some met by exact zeros of B (0 * inf)
    B, M = rng.normal(size=(n, n)), rng.normal(size=(n, r))
    lo, hi = M - 1e-9, M + 1e-9
    lo[1, 0] = -np.inf
    hi[2, 1] = np.inf
    lo[3 % n, 2], hi[3 % n, 2] = -np.inf, np.inf
    B[0, [1, 2, 3 % n]] = 0.0
    B[n - 1, :] = 0.0
    clo, chi = float_matmat(B, lo, hi)
    assert not np.isnan(clo).any() and not np.isnan(chi).any()
    assert _exact_hull_contained(B, lo, hi, clo, chi)
    # the (P2) matrix's pattern: rows 0 and 1, the subdiagonal and the
    # diagonal, mostly exact zeros, with entries one ulp wide.  Columns 2
    # and 3 hold one entry each, [-2^-1074, 0] and [0, 2^-1074], whose
    # midpoints round to 0: times a large B each is wider than every other
    # radius term of its column, so the product loses it unless that
    # entry keeps its radius.
    M = np.zeros((n, n))
    i = np.arange(1, n)
    M[0, ::3], M[1, 1::2] = rng.normal(size=len(M[0, ::3])), rng.normal(size=len(M[1, 1::2]))
    M[i, i - 1], M[i, i] = rng.normal(size=n - 1), -1.0
    lo, hi = M.copy(), M.copy()
    wide = rng.uniform(size=M.shape) < 0.3
    hi[wide] = np.nextafter(M[wide], np.inf)
    for j, ends in ((2, (-2.0 ** -1074, 0.0)), (3, (0.0, 2.0 ** -1074))):
        lo[:, j] = hi[:, j] = 0.0
        lo[j + 1, j], hi[j + 1, j] = ends
    B = rng.normal(size=(n, n)) * 1e12
    assert np.mean(lo == hi) > 0.5 and np.count_nonzero(lo == 0.0) > n * n / 2
    assert _exact_hull_contained(B, lo, hi, *float_matmat(B, lo, hi))


def test_matmat_contains_float_product():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 6))
    exact = A @ B
    # interval times float is the transpose of float times interval
    for lo, hi in (float_matmat(A, B, B), (e.T for e in float_matmat(B.T, A.T, A.T))):
        assert np.all(lo <= exact + 1e-12) and np.all(hi >= exact - 1e-12)
        # rigorous containment of the exact real product via Fractions on a few entries
        for i in (0, 3):
            for j in (1, 5):
                s = sum(Fraction(A[i, k]) * Fraction(B[k, j]) for k in range(6))
                assert Fraction(lo[i, j]) <= s <= Fraction(hi[i, j])


def test_float_matvec_and_matmat_contain_exact():
    rng = np.random.default_rng(9)
    B = rng.normal(size=(5, 5))
    A = rng.normal(size=(5, 5))
    x = rng.normal(size=5)
    vlo, vhi = float_matmat(B, x, x)
    mlo, mhi = float_matmat(B, A, A)
    # a vector is one column
    clo, chi = float_matmat(B, x[:, None], x[:, None])
    assert vlo.shape == vhi.shape == (5,)
    assert np.array_equal(vlo, clo[:, 0]) and np.array_equal(vhi, chi[:, 0])
    for i in range(5):
        sv = sum(Fraction(B[i, k]) * Fraction(x[k]) for k in range(5))
        assert Fraction(vlo[i]) <= sv <= Fraction(vhi[i])
        sm = sum(Fraction(B[i, k]) * Fraction(A[k, 2]) for k in range(5))
        assert Fraction(mlo[i, 2]) <= sm <= Fraction(mhi[i, 2])


_MAXF = sys.float_info.max
# zeros, subnormals, the least normal, ordinary values and huge ones
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 3e-310, 2.0 ** -1022, 0.1, 1.0, 3.0, -7.5, 1e300,
         1.7e308, -1.7e308, _MAXF]


def _float_floor_ceil(q: Fraction) -> tuple[float, float]:
    """The largest float <= q and the smallest float >= q (+-inf past the
    largest float)."""
    if q > _MAXF:
        return _MAXF, math.inf
    if q < -_MAXF:
        return -math.inf, -_MAXF
    f = float(q)          # correctly rounded
    return (f if Fraction(f) <= q else math.nextafter(f, -math.inf),
            f if Fraction(f) >= q else math.nextafter(f, math.inf))


def test_endpoint_helpers_against_the_exact_hull():
    """Each helper against the exact value in Fractions and against the
    scalar Interval operation, at zeros of both signs, subnormals, huge and
    infinite operands, on scalars and on arrays of 1,024 entries and more
    (which take the bit-pattern step).  A sum's
    ends are the floats next to the exact sum (TwoSum: an exact sum is a
    point); a product's and a quotient's are one step outside the
    rounded value, so the exact value lies strictly inside, within two
    ulps.  0 * inf gives [-inf, inf], and a divisor <= 0 +inf."""
    x, y = (np.tile(np.repeat(_EDGE, len(_EDGE)), 6), np.tile(np.tile(_EDGE, len(_EDGE)), 6))
    assert x.size >= 1024
    _assert_helpers_entrywise(x[:len(_EDGE) ** 2], y[:len(_EDGE) ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = {"+": (0.0 - add_hi(-x, -y), add_hi(x, y)),
                "*": (0.0 - mul_hi(-x, y), mul_hi(x, y)),
                "/": (0.0 - div_hi(-x, y), div_hi(x, y))}
    for k in range(len(_EDGE) ** 2):
        a, b = float(x[k]), float(y[k])
        for op, (lo, hi) in ends.items():
            got = (float(lo[k]), float(hi[k]))
            scalar = {"+": (0.0 - add_hi(-a, -b), add_hi(a, b)),
                      "*": (0.0 - mul_hi(-a, b), mul_hi(a, b)),
                      "/": (0.0 - div_hi(-a, b), div_hi(a, b))}[op]
            assert tuple(map(float, scalar)) == got, (op, a, b)
            assert not (got[0] == 0.0 and math.copysign(1.0, got[0]) < 0.0), (op, a, b)
            if op == "/" and not b > 0.0:
                assert got == (-math.inf, math.inf), (op, a, b)
                continue
            exact = {"+": Fraction(a) + Fraction(b), "*": Fraction(a) * Fraction(b),
                     "/": Fraction(a) / Fraction(b) if b else None}[op]
            floor, ceil = _float_floor_ceil(exact)
            if op == "+":
                assert got == (floor, ceil), (op, a, b)
            else:
                assert got[0] == -math.inf or Fraction(got[0]) < exact, (op, a, b)
                assert got[1] == math.inf or exact < Fraction(got[1]), (op, a, b)
                assert math.nextafter(floor, -math.inf) <= got[0], (op, a, b)
                assert got[1] <= math.nextafter(ceil, math.inf), (op, a, b)
    inf = math.inf
    table = [(add_hi(inf, 1.0), 0.0 - add_hi(-inf, -1.0), inf, _MAXF),
             (mul_hi(0.0, inf), 0.0 - mul_hi(-0.0, inf), inf, -inf),
             (mul_hi(inf, 2.0), 0.0 - mul_hi(-inf, 2.0), inf, _MAXF),
             (div_hi(inf, inf), 0.0 - div_hi(-inf, inf), inf, -inf),
             (div_hi(1.0, inf), 0.0 - div_hi(-1.0, inf), 5e-324, -5e-324),
             (div_hi(inf, 2.0), 0.0 - div_hi(-inf, 2.0), inf, _MAXF),
             (div_hi(1.0, 0.0), 0.0 - div_hi(-1.0, 0.0), inf, -inf),
             (div_hi(-1.0, -0.0), 0.0 - div_hi(1.0, -0.0), inf, -inf),
             (div_hi(1.0, -2.0), 0.0 - div_hi(-1.0, -2.0), inf, -inf),
             (div_hi(1.0, math.nan), 0.0 - div_hi(-1.0, math.nan), inf, -inf)]
    for hi, lo, want_hi, want_lo in table:
        assert (float(hi), float(lo)) == (want_hi, want_lo)


def test_up_helpers_dominate():
    rng = np.random.default_rng(10)
    a = np.abs(rng.normal(size=300))
    assert up_sum(a) >= float(sum(Fraction(v) for v in a))
    M = np.abs(rng.normal(size=(20, 30)))
    T = np.abs(rng.normal(size=(30, 4)))
    got = up_dot(M, T)
    i, j = 7, 2
    exact = sum(Fraction(M[i, k]) * Fraction(T[k, j]) for k in range(30))
    assert Fraction(got[i, j]) >= exact


def test_up_helpers_dominate_under_underflow():
    # positive products that round to zero must still get a positive bound
    for a, b in ((5e-324, 0.4), (1e-200, 1e-200), (3e-310, 0.7)):
        assert Fraction(float(up_mul(a, b))) >= Fraction(a) * Fraction(b) > 0
    M = np.full((2, 3), 1e-170)
    T = np.full((3, 2), 1e-160)
    exact = 3 * Fraction(1e-170) * Fraction(1e-160)
    assert all(Fraction(float(g)) >= exact for g in up_dot(M, T).ravel())
    # the vector-matrix contraction of the Hessian bounds (sum_j v_j G_jk)
    v = np.array([1e-200, 2e-200])
    G = np.full((2, 3), 1e-150)
    exact = (Fraction(1e-200) + Fraction(2e-200)) * Fraction(1e-150)
    assert all(Fraction(float(g)) >= exact for g in up_dot(v, G))


def test_up_helpers_saturate_infinite_bounds_silently():
    """0 * inf, an unbounded factor against an exact zero, bounds nothing:
    the helpers give +inf without a numpy warning, from the package or
    from numpy's own modules (finite bounds whose sum would overflow)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert up_mul(np.inf, 0.0) == np.inf
        assert up_mul(0.0, np.inf) == np.inf
        got = up_mul(np.array([np.inf, 2.0, 0.0]), np.array([0.0, 3.0, 0.0]))
        assert got[0] == np.inf and 6.0 <= got[1] < np.inf and got[2] == 0.0
        assert up_mul(1e300, 1e300) == np.inf
        assert np.all(up_mul(np.array([1e308, 1e308]), 1.0) >= 1e308)
        assert up_dot(np.array([[np.inf]]), np.array([[0.0]]))[0, 0] == np.inf
        got = up_dot(np.array([[np.inf, 1.0], [1.0, 1.0]]), np.array([[0.0], [2.0]]))
        assert got[0, 0] == np.inf and 2.0 <= got[1, 0] < np.inf


def test_up_sum_overflow_gives_inf_silently():
    """A sum of finite bounds that overflows is +inf, with no numpy
    "overflow encountered in reduce" warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert up_sum(np.array([1.5e308, 1.5e308])) == math.inf
        got = up_sum(np.array([[1.7e308, 1e308], [1.0, 2.0]]), axis=-1)
        assert got[0] == math.inf and 3.0 <= got[1] < math.inf


# ---------------------------------------------------------------------------
# midpoint-radius stacks against the exact hull of each operation
# ---------------------------------------------------------------------------

_TINY = 2.0 ** -1074


def _mr_cases(rng, n):
    """Midpoints and radii that reach every branch of the error model:
    exact zeros, zero radii, subnormal, normal and huge midpoints, radii
    from zero to wider than the midpoint."""
    scale = rng.choice([0.0, _TINY, 1e-310, 1e-200, 1e-8, 1.0, 1e6, 1e150, 1e300], n)
    m = rng.choice([-1.0, 1.0], n) * scale * rng.uniform(1.0, 7.0, n)
    m = np.where(scale == _TINY, rng.integers(-5, 6, n) * _TINY, m)
    rel = rng.choice([0.0, 0.0, 1e-17, 1e-9, 0.3, 2.0], n)
    r = np.abs(m) * rel
    r = np.where(rng.random(n) < 0.1, rng.choice([_TINY, 1e-300, 1e-5], n), r)
    return m, r


def _assert_encloses(got: MidRad, lo: list, hi: list) -> None:
    """got's real set m +- r contains each exact hull [lo_i, hi_i]
    (Fractions); a non-finite entry must saturate in `mag`."""
    mag = got.mag
    for i, (l, h) in enumerate(zip(lo, hi)):
        m, r = float(got.m[i]), float(got.r[i])
        if math.isfinite(m) and math.isfinite(r):
            assert Fraction(m) - Fraction(r) <= l and h <= Fraction(m) + Fraction(r), i
        else:
            assert math.isnan(m) or math.isnan(r) or math.isinf(r), i
            assert mag[i] == math.inf, i


def _corners(op, a, b):
    vals = [op(x, y) for x in a for y in b]
    return min(vals), max(vals)


@pytest.mark.parametrize("seed", range(4))
def test_midrad_ops_contain_the_exact_hull(seed):
    """+, -, * and / of `MidRad` stacks, and with a float point operand,
    contain the exact range of the operation over m +- r (Fractions):
    points whose sums, products and quotients round or underflow, huge
    midpoints that overflow to a saturated entry, and wide operands.  A
    divisor with 2 rb >= |mb| gives [-inf, inf].  No numpy warning."""
    rng = np.random.default_rng(seed)
    n = 400
    (ma, ra), (mb, rb) = _mr_cases(rng, n), _mr_cases(rng, n)
    a, b, c = MidRad(ma, ra), MidRad(mb, rb), mb
    F = Fraction
    A = [(F(x) - F(w), F(x) + F(w)) for x, w in zip(ma.tolist(), ra.tolist())]
    B = [(F(x) - F(w), F(x) + F(w)) for x, w in zip(mb.tolist(), rb.tolist())]
    C = [(F(x), F(x)) for x in c.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got, hulls in [
                (a + b, [_corners(lambda x, y: x + y, p, q) for p, q in zip(A, B)]),
                (a - b, [_corners(lambda x, y: x - y, p, q) for p, q in zip(A, B)]),
                (a * b, [_corners(lambda x, y: x * y, p, q) for p, q in zip(A, B)]),
                (a + c, [_corners(lambda x, y: x + y, p, q) for p, q in zip(A, C)]),
                (a - c, [_corners(lambda x, y: x - y, p, q) for p, q in zip(A, C)]),
                (c * a, [_corners(lambda x, y: x * y, p, q) for p, q in zip(A, C)]),
                (-a, [(-h, -l) for l, h in A])]:
            _assert_encloses(got, *zip(*hulls))
        q = a / b
        ok = (2.0 * rb < np.abs(mb)).tolist()
        div = [_corners(lambda x, y: x / y, p, r) if good else (0, 0)
               for p, r, good in zip(A, B, ok)]
        _assert_encloses(q[np.array(ok)], *zip(*[h for h, good in zip(div, ok) if good]))
        assert np.all(q.r[~np.array(ok)] == math.inf)
        nz = np.abs(c) > 0.0
        div = [_corners(lambda x, y: x / y, p, r) for p, r, good in zip(A, C, nz) if good]
        _assert_encloses((a / c)[nz], *zip(*div))


def test_midrad_point_operations_are_not_exact():
    """Point operands whose exact sum, product and quotient are not floats,
    or underflow to zero: the radius covers the midpoint's rounding."""
    a, b = MidRad(np.array([0.1, 1e-200, 3.0]), np.zeros(3)), MidRad(
        np.array([0.2, 1e-200, 7.0]), np.zeros(3))
    F = Fraction
    for got, want in ((a + b, [F(0.1) + F(0.2), F(2e-200), F(10.0)]),
                      (a * b, [F(0.1) * F(0.2), F(1e-200) ** 2, F(21.0)]),
                      (a / b, [F(0.1) / F(0.2), F(1), F(3) / F(7)])):
        _assert_encloses(got, want, want)
        assert np.all(got.r > 0.0)


def test_midrad_exp_contains_the_exact_hull():
    """exp of m +- r contains [exp(m - r), exp(m + r)] (2200-bit mpmath,
    exact on every double): points, narrow and wide radii (r > 1 takes the
    guarded bound of exp(m + r)), exact zeros, underflowing results and
    midpoints at and past _EXP_OVERFLOW, which saturate."""
    m = np.array([0.0, 0.0, 1.0, -0.5, 1e-300, -745.0, -800.0, 700.0, 709.0,
                  _EXP_OVERFLOW - 1e-9, _EXP_OVERFLOW, 710.0, 3.0, -20.0, 5.0, 700.0, 12.5])
    r = np.array([0.0, 1e-300, 0.0, 1e-16, 5e-324, 1e-3, 0.0, 0.5, 0.7,
                  0.0, 0.0, 1e-3, 1.0, 2.5, 30.0, 20.0, 1e-6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = MidRad(m, r).exp()
    with mp.workprec(2200):
        for i, (mi, ri) in enumerate(zip(m.tolist(), r.tolist())):
            lo, hi = mp.exp(mp.mpf(mi) - mp.mpf(ri)), mp.exp(mp.mpf(mi) + mp.mpf(ri))
            if math.isinf(got.r[i]):
                assert got.mag[i] == math.inf and mi + ri > 709.0, i
                continue
            c, w = mp.mpf(float(got.m[i])), mp.mpf(float(got.r[i]))
            assert c - w <= lo and hi <= c + w, i
    assert got.r[0] > 0.0 and got.r[0] < 1e-15      # exp(0 +- 1e-300): a few ulps
    assert math.isinf(got.r[list(m).index(_EXP_OVERFLOW)])


@pytest.mark.parametrize("seed", range(3))
def test_midrad_dot_contains_the_exact_hull(seed):
    """Row sums of products over the last axis contain the exact range of
    sum_j x_j y_j over the boxes (whose terms range independently, so
    the hull is the sum of the terms' hulls): point rows whose rounding
    the gamma_n term alone covers, wide rows, subnormal products and
    overflowing sums; each row equals its one-row call bit for bit."""
    rng = np.random.default_rng(seed)
    rows, n = 60, 13
    mx, rx = (v.reshape(rows, n) for v in _mr_cases(rng, rows * n))
    mx[:10] = rng.uniform(0.1, 1.0, (10, n)) * 10.0 ** rng.integers(-3, 4, (10, n))
    rx[:10] = 0.0
    mx[10:12] = 1e-170
    my, ry = rng.uniform(-3.0, 3.0, n), np.abs(rng.normal(size=n)) * 1e-12
    my[0], ry[0] = 0.0, 0.0
    y = MidRad(my, ry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = MidRad(mx, rx).dot(y)
        ones = [MidRad(mx[i:i + 1], rx[i:i + 1]).dot(y) for i in range(rows)]
    F = Fraction
    lo, hi = [], []
    for i in range(rows):
        terms = [_corners(lambda a, b: a * b, (F(m) - F(r), F(m) + F(r)), (F(p) - F(w), F(p) + F(w)))
                 for m, r, p, w in zip(mx[i].tolist(), rx[i].tolist(), my.tolist(), ry.tolist())]
        lo.append(sum(t[0] for t in terms))
        hi.append(sum(t[1] for t in terms))
        assert (got.m[i], got.r[i]) == (ones[i].m[0], ones[i].r[0]), i
    _assert_encloses(got, lo, hi)


def test_midrad_split_and_endpoints():
    """`MidRad.of` encloses a pair of endpoint arrays (an infinite endpoint
    gives m = 0, r = inf) and an Interval, and `mag` bounds |m +- r|,
    saturating NaN."""
    lo, hi = np.array([1.0, 0.1, -3.0, -np.inf, 5e-324]), np.array([1.0, 0.3, 1e300, 2.0, 5e-324])
    mr = MidRad.of((lo, hi))
    F = Fraction
    for i in range(4):
        if math.isinf(mr.r[i]):
            assert mr.m[i] == 0.0 and np.isinf(lo[i])
            continue
        assert F(mr.m[i]) - F(mr.r[i]) <= F(lo[i]) and F(hi[i]) <= F(mr.m[i]) + F(mr.r[i])
    assert mr.r[0] == 0.0
    one = MidRad.of(Interval(0.1, 0.3))
    assert (float(one.m), float(one.r)) == (float(mr.m[1]), float(mr.r[1]))
    a = MidRad(np.array([0.1, np.nan, np.inf, 2.0]), np.array([0.3, 0.0, np.inf, np.nan]))
    mag = a.mag
    assert F(mag[0]) >= F(0.1) + F(0.3)
    assert np.all(mag[1:] == np.inf)


def test_scale_and_widened():
    v = [x * Interval(2.0, 3.0) for x in around([1.0, -1.0], 0.0)]
    assert contains(v, np.array([2.5, -2.5]))
    w = around([0.0, 1.0], 0.5)
    assert w[0].lo <= -0.5 and w[0].hi >= 0.5
    assert (w[1].lo, w[1].hi) == (math.nextafter(0.5, 0.0), math.nextafter(1.5, 2.0))


def test_containment_under_concurrent_use():
    """The rounding mechanism is nextafter-based and stateless, so parallel
    threads must never observe a containment violation."""
    import concurrent.futures
    import threading

    failures = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(4000):
            a, b = rng.uniform(-50, 50, 2)
            wa, wb = rng.uniform(0, 5, 2)
            ia, ib = Interval(a, a + wa), Interval(b, b + wb)
            x = a + rng.uniform(0, 1) * wa
            y = b + rng.uniform(0, 1) * wb
            if x + y not in ia + ib or x * y not in ia * ib:
                failures.append((a, b))
            if math.exp(min(x, 200.0)) not in Interval(min(x, 200.0)).exp():
                failures.append(("exp", x))

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(worker, range(8)))
    assert not failures
