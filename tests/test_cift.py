import math

import numpy as np
import pytest

from certibif.cift import (CiftBounds, certificate_json, check_deltas,
                           delta_alpha_root, inverse_bound, lipschitz_from_tensor,
                           lipschitz_L1, preconditioner_hash, residual_bound,
                           validate_zero)
from certibif.continuation import _planned
from certibif.errors import NotInvertibleEvidence, ValidationFailed
from certibif.interval import IArray

from helpers import assert_json_lossless


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

    def value_iv(self, z: IArray) -> IArray:
        x = z[0]
        return IArray.from_scalars([x * x - self.c])

    def jac_iv(self, z: IArray) -> IArray:
        x = z[0]
        two_x = 2.0 * x
        return IArray(np.array([[two_x.lo]]), np.array([[two_x.hi]]))

    def hessian_sup(self, box: IArray) -> np.ndarray:
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

    def value_iv(self, z: IArray) -> IArray:
        from certibif.interval import float_matmat
        return float_matmat(self.A, z) - self.b

    def jac_iv(self, z: IArray) -> IArray:
        return IArray.point(self.A)

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


def test_inverse_bound_identity():
    K, err = inverse_bound(IArray.point(np.eye(4)), np.eye(4))
    assert 1.0 <= K <= 1.0 + 1e-12 and err <= 1e-12


def test_inverse_bound_diagonal():
    A = IArray.point(np.diag([2.0, 4.0]))
    K, err = inverse_bound(A, np.diag([0.5, 0.25]))
    assert abs(K - 0.5) <= 1e-12 and err <= 1e-12


def test_inverse_bound_random_within_five_percent():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(42, 42)) + 42 * np.eye(42)   # well conditioned
    B = np.linalg.inv(A)
    K, err = inverse_bound(IArray.point(A), B)
    true_norm = np.linalg.norm(np.linalg.inv(A), np.inf)
    assert true_norm <= K <= 1.05 * true_norm
    assert err <= 1e-10


def test_inverse_bound_detects_singularity():
    A = IArray.point(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotInvertibleEvidence):
        inverse_bound(A, np.eye(2))


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


def test_lipschitz_monotone_in_box_radius(coral):
    from certibif.bifurcation import NsSystem, find_ns_anchor
    ns = NsSystem(coral)
    z0 = find_ns_anchor(coral)
    vals = [lipschitz_L1(ns, z0, ell, np.eye(ns.dim)) for ell in (1e-8, 1e-6, 1e-3)]
    assert vals[0] <= vals[1] <= vals[2]


# ---------------------------------------------------------------------------
# delta inequalities
# ---------------------------------------------------------------------------


def _check_at_root(b, dir_norm, cap):
    """check_deltas at the delta_alpha a replan plans from certified
    bounds: the float root clamped to ell_alpha, less the plan margin.
    Returns (accepted, pair, the constraint that set the root)."""
    root, name = delta_alpha_root(b.K, b.rho, b.L1, b.L2, b.L3, b.L4, b.ell_x,
                                  dir_norm, cap)
    ok, pair = check_deltas(b, dir_norm, cap, _planned(min(root, b.ell_alpha)))
    return bool(ok), pair, name


def _bisect_delta_alpha(b, dir_norm, cap):
    """Reference: the largest delta_alpha in [0, ell_alpha] that
    _alpha_feasible accepts, found by 80 bisection steps on the whole stack
    at once; 0 where no positive value passes."""
    from certibif.cift import _alpha_feasible, _Probe
    feasible = lambda da: _alpha_feasible(_Probe.of(b, da, dir_norm, cap))
    top = np.asarray(b.ell_alpha, dtype=float)
    lo, hi = np.zeros_like(top), top
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(feasible(top), top, lo)


def test_solve_deltas_saddle_node_table_values():
    # fold-certificate scale: K = 1, rho = 1.653e-12, L1 = 1.245e6, and no
    # parameter terms, so delta_x reaches 1/(2 K L1) at any small delta_alpha
    b = CiftBounds(rho=1.653e-12, K=1.0, L1=1.245e6, ell_x=1e-6, ell_alpha=1e-12)
    ok, pair, _ = _check_at_root(b, 1.0, 1e-6)
    assert ok
    assert abs(pair.delta_min - 3.306e-12) <= 1e-15
    assert abs(pair.delta_x - 4.0160642570281125e-07) <= 1e-12


def test_solve_deltas_infeasible_gate():
    b = CiftBounds(rho=1.0, K=1.0, L1=1.0, ell_x=1.0, ell_alpha=1.0)
    for da in (1e-12, 1e-6, 1e-3):
        ok, _ = check_deltas(b, 1.0, 1.0, da)     # 4 K^2 rho L1 = 4 >= 1
        assert not ok


def test_solve_deltas_with_parameter_terms():
    b = CiftBounds(rho=1e-10, K=2.0, L1=10.0, L2=5.0, L3=1e-8, L4=3.0,
                   ell_x=1e-2, ell_alpha=1e-2)
    ok, pair, _ = _check_at_root(b, 1.0, 1e-2)
    assert ok and pair.delta_alpha > 0.0
    # rigorous feasibility of the returned pair
    K2 = 2 * b.K
    assert K2 * b.L1 * pair.delta_x + K2 * b.L2 * pair.delta_alpha <= 1.0 + 1e-12
    assert (K2 * b.rho + K2 * b.L3 * pair.delta_alpha
            + K2 * b.L4 * pair.delta_alpha ** 2) <= pair.delta_x * (1 + 1e-12)


def test_solve_deltas_coupled_cap():
    b = CiftBounds(rho=1e-12, K=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0,
                   ell_x=1.0, ell_alpha=1.0)
    ok, pair, name = _check_at_root(b, 1.0, 1e-3)
    assert ok and name == "search-cap"
    assert pair.delta_alpha + pair.delta_x <= 1e-3 * (1 + 1e-12)
    assert pair.delta_alpha >= 0.4e-3


def test_solve_deltas_shrinks_with_larger_rho():
    small = _check_at_root(CiftBounds(rho=1e-12, K=1.0, L1=1e3, ell_x=1e-3,
                                      ell_alpha=1e-3), 1.0, 1e-3)
    large = _check_at_root(CiftBounds(rho=1e-8, K=1.0, L1=1e3, ell_x=1e-3,
                                      ell_alpha=1e-3), 1.0, 1e-3)
    assert small[0] and large[0]
    assert small[1].delta_min < large[1].delta_min


def test_solve_deltas_steps_dx_back_no_further_than_the_floor():
    """A box of the seed-0 branch where the L1 coupling binds: at the
    largest feasible delta_alpha the dx ceiling sits an ulp above the floor
    and fails the pair check, which rounds 2K(L1 dx + L2 da) <= 1 apart from
    it.  The step back stops at the floor, which the alpha check has
    already certified, instead of stepping past it and giving up."""
    from certibif.cift import _dx_ceiling, _pair_feasible, _Probe
    b = CiftBounds(rho=5.995204332975845e-15, K=6.739970907978892,
                   L1=58.32574483346063, L2=34.601015575504604,
                   L3=4.0291271289160886e-14, L4=20.355909077067825,
                   ell_x=0.0256, ell_alpha=0.0256)
    da = float(_bisect_delta_alpha(b, 1.0, 0.0256))
    ok, pair = check_deltas(b, 1.0, 0.0256, da)
    p = _Probe.of(b, da, 1.0, 0.0256)
    assert ok and pair.delta_alpha == da
    assert not _pair_feasible(p, _dx_ceiling(p))
    assert _pair_feasible(p, pair.delta_x)
    assert pair.delta_x == p.floor
    assert delta_alpha_root(b.K, b.rho, b.L1, b.L2, b.L3, b.L4, b.ell_x,
                            1.0, 0.0256)[1] == "L1-coupling"


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def test_check_deltas_at_the_planned_root_accepts_exactly_the_feasible_bounds():
    """On 4,000 random bounds (L1 = 0 among them; the radii, the cap and
    dir_norm drawn independently), the stacked check at the root-planned
    delta_alpha accepts exactly the bounds for which the reference
    bisection finds a feasible delta_alpha > 0, gives a pair that passes
    the rigorous pair check, and loses at most 2e-8 of the reference."""
    from certibif.cift import _pair_feasible, _Probe
    rng = np.random.default_rng(17)
    n = 4000
    with_l1 = rng.random(n) < 0.9
    b = CiftBounds(rho=_log_uniform(rng, 1e-16, 1e-8, n), K=rng.uniform(1.0, 50.0, n),
                   L1=np.where(with_l1, _log_uniform(rng, 1e-2, 1e7, n), 0.0),
                   L2=_log_uniform(rng, 1e-6, 1e3, n), L3=_log_uniform(rng, 1e-16, 1e2, n),
                   L4=_log_uniform(rng, 1e-6, 1e3, n), ell_x=_log_uniform(rng, 1e-8, 1e-2, n),
                   ell_alpha=_log_uniform(rng, 1e-10, 1e-2, n))
    dir_norm = rng.uniform(0.01, 10.0, n)
    cap = _log_uniform(rng, 1e-8, 1e-1, n)
    root, _ = delta_alpha_root(b.K, b.rho, b.L1, b.L2, b.L3, b.L4, b.ell_x, dir_norm, cap)
    da = _planned(np.minimum(root, b.ell_alpha))
    ok, pair = check_deltas(b, dir_norm, cap, da)
    ref = _bisect_delta_alpha(b, dir_norm, cap)
    assert 0 < ok.sum() < n and (ok & ~with_l1).any()
    np.testing.assert_array_equal(ok, ref > 0.0)
    assert _pair_feasible(_Probe.of(b, da, dir_norm, cap), pair.delta_x)[ok].all()
    assert (pair.delta_min <= pair.delta_x)[ok].all()
    assert (da >= (1.0 - 2e-8) * ref)[ok].all()


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


def test_validate_names_non_finite_anchor_jacobian():
    # an enclosure with unbounded entries proves nothing, and the failure
    # says how many there are instead of reporting |I - BA| = inf
    class Unbounded(AffineMap):
        def jac_iv(self, z):
            J = IArray(self.A.copy(), self.A.copy())
            J.lo[0, 1], J.hi[0, :] = -np.inf, np.inf
            return J

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


def test_bounds_reject_negative():
    with pytest.raises(ValueError):
        CiftBounds(rho=-1.0, K=1.0, L1=0.0)


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
        return IArray.from_scalars([((x - 6.0) * x + 11.0) * x - 6.0])

    def jac_iv(self, z):
        x = z[0]
        e = (3.0 * x - 12.0) * x + 11.0
        return IArray(np.array([[e.lo]]), np.array([[e.hi]]))

    def hessian_sup(self, box):
        # |H''(x)| = |6x - 12| <= 6 * max(|lo - 2|, |hi - 2|)
        m = 6.0 * max(abs(box.lo[0] - 2.0), abs(box.hi[0] - 2.0)) * (1 + 1e-12)
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
