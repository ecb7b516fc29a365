import math
from fractions import Fraction

import numpy as np
import pytest

from certibif.cift import (CiftBounds, accuracy_gates, certificate_json, check_deltas,
                           delta_alpha_root, lipschitz_from_tensor, lipschitz_L1,
                           neumann_K, neumann_rho_rows, preconditioner_hash, residual_bound,
                           validate_zero)
from certibif.errors import NotInvertibleEvidence, ValidationFailed
from certibif.interval import Interval, _gamma, float_matmat, mid_rad, up_sum

from helpers import (assert_json_lossless, dx_ceiling_reference, lipschitz_reference,
                     neumann_K_reference, probe_reference, special_stack)


class ScalarSquare:
    """H(x) = x^2 - c as a one-dimensional zero problem."""

    name = "square"
    dim = 1

    def __init__(self, c: float):
        self.c = c

    def value(self, z):
        return np.array([z[0] ** 2 - self.c])

    def jac(self, z):
        return np.array([[2.0 * z[0]]])

    def value_iv(self, z: list) -> list:
        x = z[0]
        return [x * x - self.c]

    def jac_iv(self, z, J) -> tuple:
        two_x = 2.0 * Interval(z[0])
        return np.array([[two_x.lo]]), np.array([[two_x.hi]])

    def hessian_sup(self, box: list) -> np.ndarray:
        return np.full((1, 1, 1), 2.0)


class AffineMap:
    """H(z) = A z - b: zero Lipschitz constant, exact residuals."""

    name = "affine"

    def __init__(self, A, b):
        self.A = np.asarray(A, float)
        self.b = np.asarray(b, float)
        self.dim = len(b)

    def value(self, z):
        return self.A @ z - self.b

    def jac(self, z):
        return self.A.copy()

    def value_iv(self, z: list) -> list:
        lo, hi = float_matmat(self.A, [v.lo for v in z], [v.hi for v in z])
        return [Interval(l, h) - bk for l, h, bk in zip(lo.tolist(), hi.tolist(), self.b.tolist())]

    def jac_iv(self, z, J) -> tuple:
        return self.A, self.A

    def hessian_sup(self, box):
        return np.zeros((self.dim,) * 3)


# ---------------------------------------------------------------------------
# residual and inverse bounds
# ---------------------------------------------------------------------------


def test_residual_bound_exact_zero_of_linear_map():
    m = AffineMap(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert residual_bound(m, np.array([1.0, 2.0, 3.0]), np.eye(3)) <= 1e-14


def test_residual_bound_scalar():
    p = ScalarSquare(2.0)
    rho = residual_bound(p, np.array([1.41421356]), np.eye(1))
    assert abs(rho - abs(1.41421356 ** 2 - 2.0)) < 1e-15


def _rho1(lo, hi, B):
    """rho1 >= |I - B A| for every A in lo <= A <= hi, on the row path
    that `validate_zero` takes."""
    m, R = mid_rad(lo, hi, _gamma(np.shape(lo)[-1])[0])
    return neumann_rho_rows(B, m, up_sum(R, axis=-1))


def _neumann_K(lo, hi, B):
    """K >= |A^{-1}| for every A in the enclosure, from a preconditioner B."""
    return neumann_K(_rho1(lo, hi, B), B)


def test_neumann_K_identity():
    K = _neumann_K(np.eye(4), np.eye(4), np.eye(4))
    assert 1.0 <= K <= 1.0 + 1e-12


def test_neumann_K_diagonal():
    A = np.diag([2.0, 4.0])
    K = _neumann_K(A, A, np.diag([0.5, 0.25]))
    assert abs(K - 0.5) <= 1e-12


def test_neumann_K_random_within_five_percent():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(42, 42)) + 42 * np.eye(42)   # well conditioned
    B = np.linalg.inv(A)
    K = _neumann_K(A, A, B)
    true_norm = np.linalg.norm(np.linalg.inv(A), np.inf)
    assert true_norm <= K <= 1.05 * true_norm


def test_neumann_K_detects_singularity():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotInvertibleEvidence):
        _neumann_K(A, A, np.eye(2))


def _exact_max_rowsum(B: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Fraction:
    """The exact largest row sum of the entrywise hull of |I - B A| over lo
    <= A <= hi.  Entry (i, j) of B A ranges over [sum_k min(B_ik lo_kj,
    B_ik hi_kj), sum_k max(...)], its terms independent, so |I - B A|_ij
    is at most the larger distance of those ends from I_ij.  Integers
    scaled by 2^2148 hold every product of two doubles exactly."""
    S = 2 ** 1074
    scaled = lambda M: [[int(Fraction(x) * S) for x in row] for row in M.tolist()]
    Bs, L, H = scaled(B), scaled(lo.T), scaled(hi.T)
    best = 0
    for i, Bi in enumerate(Bs):
        total = 0
        for j in range(len(Bs)):
            elo = ehi = 0
            for b, l, h in zip(Bi, L[j], H[j]):
                p, q = sorted((b * l, b * h))
                elo, ehi = elo + p, ehi + q
            one = S * S if i == j else 0
            total += max(abs(one - elo), abs(one - ehi))
        best = max(best, total)
    return Fraction(best, S * S)


@pytest.mark.parametrize("kind", ["sn", "ns"])
def test_neumann_rho_rows_dominates_the_exact_rowsum_at_the_certificates(
        coral, sn_cert, ns_cert, kind):
    """At the seed-0 SN (27x27) and NS (42x42) anchors, with the point
    Jacobian enclosure widened by a relative radius, rho1 from the row path
    of `validate_zero` is at least the exact largest row sum of the hull of
    |I - B A| (Fractions), and within 5% of it."""
    from certibif.bifurcation import NsSystem, SnSystem
    system, cert = (SnSystem(coral), sn_cert) if kind == "sn" else (NsSystem(coral), ns_cert)
    z0 = np.array(cert.anchor)
    J = system.jac(z0)
    B = np.linalg.inv(J)
    lo, hi = system.jac_iv(z0, J)
    for rel in (1e-13, 1e-10):
        rad = rel * (np.maximum(np.abs(lo), np.abs(hi)) + 1e-3)
        wlo, whi = lo - rad, hi + rad
        rho1, exact = Fraction(float(_rho1(wlo, whi, B))), _exact_max_rowsum(B, wlo, whi)
        assert exact <= rho1 <= Fraction(105, 100) * exact, rel


def test_neumann_K_equals_scalar_interval_rows():
    """A stack of 1x1 preconditioners whose row-sum bounds hold zeros,
    subnormals, huge values and infinities, against rho1 in [0, 1) with 0,
    subnormals and floats next to 1: each K equals the upper end of the
    scalar Interval quotient rho2 / (1 - rho1) bit for bit."""
    rng = np.random.default_rng(53)
    n = 600
    B = (rng.choice([-1.0, 1.0], n) * special_stack(rng, n))[:, None, None]
    rho1 = rng.uniform(0.0, 1.0, n)
    rho1[:6] = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52]
    K = neumann_K(rho1, B)
    rho2 = up_sum(np.abs(B), axis=-1).max(axis=-1)
    assert [k.hex() for k in K.tolist()] == \
        [neumann_K_reference(float(r1), float(r2)).hex() for r1, r2 in zip(rho1, rho2)]
    assert np.isinf(K).any() and (K == 5e-324).any()


# ---------------------------------------------------------------------------
# Lipschitz bounds
# ---------------------------------------------------------------------------


def test_lipschitz_affine_is_zero():
    m = AffineMap(np.eye(2), np.zeros(2))
    assert lipschitz_L1(m, np.zeros(2), 0.5, np.eye(2)) == 0.0


def test_lipschitz_scalar_square():
    # H(x) = x^2 on [1 +- 0.1]: sup|H''| = 2, ambient dimension 1
    p = ScalarSquare(0.0)
    L1 = lipschitz_L1(p, np.array([1.0]), 0.1, np.eye(1))
    assert 2.0 <= L1 <= 2.0 * (1 + 1e-10)


def test_lipschitz_tensor_preconditioned_contraction():
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = 4.0
    T[1, 1, 1] = 6.0
    absB = np.array([[0.5, 0.0], [1.0, 1.0]])
    L1 = lipschitz_from_tensor(T, absB)
    # row 0: m * max_k sum_j .5*T0 = 2*2 ; row 1: 2 * (4 + 6) = 20
    assert 20.0 <= L1 <= 20.0 * (1 + 1e-12)


def _bits(x):
    return np.float64(x).view(np.int64)


def _magnitudes(rng, shape, regime):
    """Nonnegative entries of one scale regime, with exact zeros among them."""
    if regime == "normal":
        x = 10.0 ** rng.uniform(-3.0, 3.0, shape)
    elif regime == "subnormal":          # products underflow to 0 or subnormals
        x = rng.uniform(0.0, 1.0, shape) * 2.0 ** rng.choice([-1074, -1060, -540, -530], shape)
    elif regime == "overflow":           # products and factors overflow
        x = 10.0 ** rng.uniform(150.0, 308.0, shape)
    else:                                # a few infinities among normal entries
        x = np.where(rng.random(shape) < 0.05, np.inf, 10.0 ** rng.uniform(-3.0, 3.0, shape))
    return np.where(rng.random(shape) < 0.3, 0.0, x)


def test_lipschitz_from_tensor_equals_the_entrywise_bound():
    """On 2,400 random (T, |B|) with m <= 8 -- exact zeros, zero rows of |B|
    and zero (k, j) columns of T, subnormal, near-overflow and infinite
    entries -- the bound equals the reference bit for bit.  The rounding
    factor and the underflow term on the live (i, j) are each needed for
    that, and a NaN from 0 * inf ends as +inf in both."""
    rng = np.random.default_rng(32)
    regimes = ("normal", "subnormal", "overflow", "inf")
    for case in range(2400):
        m = int(rng.integers(1, 9))
        absB = _magnitudes(rng, (m, m), regimes[int(rng.integers(4))])
        T = _magnitudes(rng, (m, m, m), regimes[int(rng.integers(4))])
        absB[rng.random(m) < 0.2] = 0.0
        T[:, rng.random((m, m)) < 0.3] = 0.0
        with np.errstate(over="ignore"):      # row sums of near-overflow entries
            got, ref = lipschitz_from_tensor(T, absB), lipschitz_reference(T, absB)
        assert _bits(got) == _bits(ref), (case, got, ref)


def test_lipschitz_monotone_in_box_radius(coral):
    from certibif.bifurcation import NsSystem, find_ns_anchor
    ns = NsSystem(coral)
    z0 = find_ns_anchor(coral)
    vals = [lipschitz_L1(ns, z0, ell, np.eye(ns.dim)) for ell in (1e-8, 1e-6, 1e-3)]
    assert vals[0] <= vals[1] <= vals[2]


# ---------------------------------------------------------------------------
# delta inequalities
# ---------------------------------------------------------------------------


def _bounds(rho, K, L1, ell_x, L2=0.0, L3=0.0, L4=0.0):
    """CiftBounds with the parameter terms L2..L4 zero unless given."""
    return CiftBounds(rho=rho, K=K, L1=L1, L2=L2, L3=L3, L4=L4, ell_x=ell_x)


def _check_at_root(b):
    """check_deltas at the delta_alpha `delta_alpha_root` plans from
    certified bounds.  Returns (accepted, pair, the constraint that set
    the root)."""
    da, name = delta_alpha_root(b)
    ok, pair = check_deltas(b, da)
    return bool(ok), pair, name


def _bisect_delta_alpha(b):
    """Reference: the largest delta_alpha in [0, ell_x] that
    _alpha_feasible accepts, found by 80 bisection steps on the whole stack
    at once; 0 where no positive value passes."""
    from certibif.cift import _alpha_feasible, _dx_ceiling, _Probe

    def feasible(da):
        p = _Probe.of(b, da)
        return _alpha_feasible(p, _dx_ceiling(p))

    top = np.asarray(b.ell_x, dtype=float)
    lo, hi = np.zeros_like(top), top
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(feasible(top), top, lo)


def test_check_deltas_saddle_node_table_values():
    # fold-certificate scale: K = 1, rho = 1.653e-12, L1 = 1.245e6, and no
    # parameter terms, so delta_x reaches 1/(2 K L1) at any small delta_alpha
    b = _bounds(rho=1.653e-12, K=1.0, L1=1.245e6, ell_x=1e-6)
    ok, pair, _ = _check_at_root(b)
    assert ok
    assert abs(pair.delta_min - 3.306e-12) <= 1e-15
    assert pair.delta_alpha + pair.delta_x <= b.ell_x
    ok, pair = check_deltas(b, 1e-12)
    assert ok
    assert abs(pair.delta_x - 4.0160642570281125e-07) <= 1e-12


def test_check_deltas_infeasible_gate():
    b = _bounds(rho=1.0, K=1.0, L1=1.0, ell_x=1.0)
    for da in (1e-12, 1e-6, 1e-3):
        ok, _ = check_deltas(b, da)     # 4 K^2 rho L1 = 4 >= 1
        assert not ok


def test_check_deltas_with_parameter_terms():
    b = _bounds(rho=1e-10, K=2.0, L1=10.0, L2=5.0, L3=1e-8, L4=3.0, ell_x=1e-2)
    ok, pair, _ = _check_at_root(b)
    assert ok and pair.delta_alpha > 0.0
    # rigorous feasibility of the returned pair
    K2 = 2 * b.K
    assert K2 * b.L1 * pair.delta_x + K2 * b.L2 * pair.delta_alpha <= 1.0 + 1e-12
    assert (K2 * b.rho + K2 * b.L3 * pair.delta_alpha
            + K2 * b.L4 * pair.delta_alpha ** 2) <= pair.delta_x * (1 + 1e-12)


def test_check_deltas_coupled_cap():
    b = _bounds(rho=1e-12, K=1.0, L1=1.0, ell_x=1e-3)
    ok, pair, name = _check_at_root(b)
    assert ok and name == "search-cap"
    assert pair.delta_alpha + pair.delta_x <= 1e-3 * (1 + 1e-12)
    assert pair.delta_alpha >= 0.4e-3


def test_check_deltas_shrinks_with_larger_rho():
    small = _check_at_root(_bounds(rho=1e-12, K=1.0, L1=1e3, ell_x=1e-3))
    large = _check_at_root(_bounds(rho=1e-8, K=1.0, L1=1e3, ell_x=1e-3))
    assert small[0] and large[0]
    assert small[1].delta_min < large[1].delta_min


def test_check_deltas_steps_dx_back_no_further_than_the_floor():
    """A box of the seed-0 branch where the L1 coupling binds: at the
    largest feasible delta_alpha the dx ceiling sits an ulp above the floor
    and fails the pair check, which rounds 2K(L1 dx + L2 da) <= 1 apart from
    it.  The step back stops at the floor, which the alpha check has
    already certified, instead of stepping past it and giving up."""
    from certibif.cift import _dx_ceiling, _pair_feasible, _Probe
    b = _bounds(rho=5.995204332975845e-15, K=6.739970907978892,
                L1=58.32574483346063, L2=34.601015575504604,
                L3=4.0291271289160886e-14, L4=20.355909077067825, ell_x=0.0256)
    da = float(_bisect_delta_alpha(b))
    ok, pair = check_deltas(b, da)
    p = _Probe.of(b, da)
    assert ok and pair.delta_alpha == da
    assert not _pair_feasible(p, _dx_ceiling(p))
    assert _pair_feasible(p, pair.delta_x)
    assert pair.delta_x == p.floor
    assert delta_alpha_root(b)[1] == "L1-coupling"


def test_probe_and_dx_ceiling_equal_scalar_interval_rows():
    """The probe's gate, floor, delta_min, 2K L1 and 2K L2 da and the dx
    ceiling of 1,000 segments whose bounds hold zeros, subnormals, huge
    values and infinities (delta_alpha and ell_x finite) equal the scalar
    Interval evaluation row by row, bit for bit."""
    from certibif.cift import _dx_ceiling, _Probe
    rng = np.random.default_rng(59)
    n = 1000
    K, rho, L1, L2, L3, L4 = (special_stack(rng, n) for _ in range(6))
    da, ell_x = special_stack(rng, n, inf=False), special_stack(rng, n, inf=False)
    ell_x[:50] = da[:50]                  # ell_x - da exactly 0
    p = _Probe.of(_bounds(rho=rho, K=K, L1=L1, ell_x=ell_x, L2=L2, L3=L3, L4=L4), da)
    ceiling = _dx_ceiling(p)
    got = np.column_stack([p.gate, p.floor, p.delta_min, p.L1, p.L2da, ceiling])
    for k in range(n):
        row = (K[k], rho[k], L1[k], L2[k], L3[k], L4[k], da[k])
        want = probe_reference(*row) + (
            dx_ceiling_reference(K[k], L1[k], L2[k], da[k], ell_x[k]),)
        assert [g.hex() for g in got[k].tolist()] == [w.hex() for w in want], k
    assert (ceiling == -math.inf).any() and (ceiling == 0.0).any() and (ceiling > 0.0).any()


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def test_check_deltas_at_the_planned_root_accepts_exactly_the_feasible_bounds():
    """On 4,000 random bounds (L1 = 0 among them), the stacked check at the
    planned delta_alpha accepts exactly the bounds for which the reference
    bisection finds a feasible delta_alpha > 0, gives a pair that passes
    the rigorous pair check, and loses at most 2e-8 of the reference.
    Every bound whose accuracy radius 2K rho reaches ell_x also fails
    _alpha_feasible at the planned delta_alpha and at 0.5 and 1e-3 times
    it, so check_deltas needs no gate of its own on it."""
    from certibif.cift import _alpha_feasible, _dx_ceiling, _pair_feasible, _Probe
    rng = np.random.default_rng(17)
    n = 4000
    with_l1 = rng.random(n) < 0.9
    b = CiftBounds(rho=_log_uniform(rng, 1e-16, 1e-8, n), K=rng.uniform(1.0, 50.0, n),
                   L1=np.where(with_l1, _log_uniform(rng, 1e-2, 1e7, n), 0.0),
                   L2=_log_uniform(rng, 1e-6, 1e3, n), L3=_log_uniform(rng, 1e-16, 1e2, n),
                   L4=_log_uniform(rng, 1e-6, 1e3, n), ell_x=_log_uniform(rng, 1e-8, 1e-2, n))
    da, _ = delta_alpha_root(b)
    ok, pair = check_deltas(b, da)
    ref = _bisect_delta_alpha(b)
    assert 0 < ok.sum() < n and (ok & ~with_l1).any()
    np.testing.assert_array_equal(ok, ref > 0.0)
    assert _pair_feasible(_Probe.of(b, da), pair.delta_x)[ok].all()
    assert (pair.delta_min <= pair.delta_x)[ok].all()
    assert (da >= (1.0 - 2e-8) * ref)[ok].all()
    wide = ~(_Probe.of(b, da).delta_min < b.ell_x)
    assert wide.sum() > 50
    for scale in (1.0, 0.5, 1e-3):
        p = _Probe.of(b, scale * da)
        assert not _alpha_feasible(p, _dx_ceiling(p))[wide].any(), scale


def test_bounds_reject_negative():
    """`check_deltas`, which every certified box's bounds pass, refuses a
    negative field: of one segment, and at one entry of a stacked field,
    whose stack passes once that entry is 0."""
    with pytest.raises(ValueError, match="^rho must be nonnegative$"):
        check_deltas(_bounds(rho=-1.0, K=1.0, L1=0.0, ell_x=1.0), 0.5)
    one = np.ones(3)
    stack = lambda L3: _bounds(rho=1e-12 * one, K=one, L1=one, L3=L3, ell_x=1e-3 * one)
    with pytest.raises(ValueError, match="^L3 must be nonnegative$"):
        check_deltas(stack(np.array([1e-8, -5e-324, 0.0])), 1e-5 * one)
    ok, _ = check_deltas(stack(np.array([1e-8, 0.0, 0.0])), 1e-5 * one)
    assert ok.all()


# ---------------------------------------------------------------------------
# full validation
# ---------------------------------------------------------------------------


def test_validate_sqrt2():
    p = ScalarSquare(2.0)
    cert = validate_zero(p, np.array([1.41421356]), ell=1e-3)
    assert cert.delta_accuracy <= 1e-7
    assert abs(1.41421356 - math.sqrt(2.0)) <= cert.delta_accuracy


def test_validate_double_root_fails():
    p = ScalarSquare(0.0)
    with pytest.raises(ValidationFailed):
        validate_zero(p, np.array([0.0]), ell=1e-3)


def test_validate_affine_preconditioned_K_is_one():
    # B = inv(diag(2, 0.5)) is exact, so B*DH encloses I and K is 1
    m = AffineMap(np.diag([2.0, 0.5]), np.array([2.0, 1.0]))
    cert = validate_zero(m, np.array([1.0, 2.0]), ell=1.0)
    assert cert.rho <= 1e-14 and cert.delta_accuracy <= 1e-13
    assert 1.0 <= cert.K <= 1.0 + 1e-10
    assert cert.L1 == 0.0 and cert.delta_uniqueness == 1.0


def test_validate_K_is_the_neumann_bound_of_BJ_itself():
    """K bounds |(B J)^{-1}| from rho1 >= |I - B J| alone: 1 / (1 - rho1)
    rounded up (with the row sum of |I| bounded as `up_sum` bounds it), and
    here below K from B J preconditioned a second time by I."""
    A = np.array([[3.0, 1.0, 0.2], [1.0, 4.0, 1.0], [0.1, 1.0, 5.0]])
    m = AffineMap(A, A @ np.array([1.0, 2.0, 3.0]))
    z0 = np.array([1.0, 2.0, 3.0])
    cert = validate_zero(m, z0, ell=1e-3)
    B, I = np.linalg.inv(A), np.eye(3)
    rho1 = float(_rho1(A, A, B))
    assert rho1 > 0.0
    assert cert.K == (Interval(up_sum(I[0])) / (Interval(1.0) - Interval(rho1))).hi
    assert 1 / (1 - Fraction(rho1)) <= Fraction(cert.K) <= (1 + Fraction(2) ** -46) / (1 - Fraction(rho1))
    assert cert.K < float(_neumann_K(*float_matmat(B, A, A), I))


def test_accuracy_gates_equal_the_stacked_probe():
    """accuracy_gates on scalar Intervals gives the stacked probe's accuracy
    radius bit for bit, and refuses exactly where the probe's gates fail."""
    from certibif.cift import _Probe
    rng = np.random.default_rng(5)
    n = 500
    b = _bounds(rho=_log_uniform(rng, 1e-16, 1e-2, n), K=rng.uniform(1.0, 50.0, n),
                L1=_log_uniform(rng, 1e-2, 1e9, n), ell_x=1e-6)
    ell = _log_uniform(rng, 1e-12, 1e-4, n)
    p = _Probe.of(b, np.full(n, 1e-9))
    fails = 0
    for i in range(n):
        d, refusal = accuracy_gates(b.K[i], b.rho[i], b.L1[i], float(ell[i]))
        assert _bits(d) == _bits(p.delta_min[i])
        if not p.gate[i] < 1.0:
            assert refusal == f"4 K^2 rho L1 = {float(p.gate[i])} >= 1"
        elif not p.delta_min[i] < ell[i]:
            assert refusal == f"2 K rho = {float(p.delta_min[i])} >= ell = {float(ell[i])}"
        else:
            assert refusal is None
        fails += refusal is not None
    assert 0 < fails < n


def test_validate_names_non_finite_anchor_jacobian():
    # an enclosure with unbounded entries proves nothing, and the failure
    # says how many there are instead of reporting |I - BA| = inf
    class Unbounded(AffineMap):
        def jac_iv(self, z, J):
            lo, hi = J.copy(), J.copy()
            lo[0, 1], hi[0, :] = -np.inf, np.inf
            return lo, hi

    m = Unbounded(np.eye(3), np.ones(3))
    with pytest.raises(ValidationFailed, match=r"^\(H2\) failed: anchor Jacobian "
                                               r"enclosure has 3 non-finite entries$"):
        validate_zero(m, np.ones(3))


def test_preconditioning_soundness_same_zero():
    # the certificate for B*H encloses the zero of H itself, and it
    # records B = inv(DH(z0)), not the identity
    p = ScalarSquare(2.0)
    z0 = np.array([1.4142136])
    cert = validate_zero(p, z0, ell=1e-3)
    assert abs(z0[0] - math.sqrt(2.0)) <= cert.delta_accuracy
    B = np.linalg.inv(p.jac(z0))
    assert cert.preconditioner_sha256 == preconditioner_hash(B)
    assert cert.preconditioner_sha256 != preconditioner_hash(np.eye(1))
    # rho, K and L1 are the helpers' bounds for B*H
    assert cert.rho == residual_bound(p, z0, B)
    assert cert.L1 == lipschitz_L1(p, z0, 1e-3, np.abs(B))


def test_certificate_json_roundtrip():
    p = ScalarSquare(2.0)
    cert = validate_zero(p, np.array([1.41421356]), ell=1e-3)
    blob = certificate_json(cert)
    assert_json_lossless(cert, blob)
    assert certificate_json(validate_zero(p, np.array([1.41421356]), ell=1e-3)) == blob


class ScalarCubic:
    """H(x) = (x - 1)(x - 2)(x - 3): three known roots a unit apart."""

    name = "cubic"
    dim = 1

    def value(self, z):
        x = z[0]
        return np.array([((x - 6.0) * x + 11.0) * x - 6.0])

    def jac(self, z):
        x = z[0]
        return np.array([[(3.0 * x - 12.0) * x + 11.0]])

    def value_iv(self, z):
        x = z[0]
        return [((x - 6.0) * x + 11.0) * x - 6.0]

    def jac_iv(self, z, J):
        x = Interval(z[0])
        e = (3.0 * x - 12.0) * x + 11.0
        return np.array([[e.lo]]), np.array([[e.hi]])

    def hessian_sup(self, box):
        # |H''(x)| = |6x - 12| <= 6 * max(|lo - 2|, |hi - 2|)
        m = 6.0 * max(abs(box[0].lo - 2.0), abs(box[0].hi - 2.0)) * (1 + 1e-12)
        return np.full((1, 1, 1), m)


def test_validate_cubic_known_roots_and_isolation():
    p = ScalarCubic()
    for root, anchor in ((1.0, 1.0000003), (2.0, 1.9999997), (3.0, 3.0000004)):
        cert = validate_zero(p, np.array([anchor]), ell=0.3)
        assert abs(anchor - root) <= cert.delta_accuracy
        # the uniqueness ball must not reach the neighboring roots
        others = [r for r in (1.0, 2.0, 3.0) if r != root]
        assert all(abs(anchor - r) > cert.delta_uniqueness for r in others)


def test_sn_certificate_200_digit_refinement(coral, sn_cert):
    import mpmath as mp
    from certibif.bifurcation import SnSystem
    from helpers import mp_coeffs, mp_system_refine
    sn = SnSystem(coral)
    with mp.workdps(200):
        z_ref = mp_system_refine(sn, mp_coeffs(coral), np.array(sn_cert.anchor),
                                 dps=200)
    err = max(abs(float(z_ref[i]) - sn_cert.anchor[i]) for i in range(sn.dim))
    assert err <= sn_cert.delta_accuracy
