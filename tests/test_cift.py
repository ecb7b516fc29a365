import json
import math

import numpy as np
import pytest

from certibif.cift import (Certificate, CiftBounds, inverse_bound,
                           lipschitz_from_tensor, lipschitz_L1, preconditioner_hash,
                           residual_bound, solve_deltas, validate_zero)
from certibif.errors import NotInvertibleEvidence, ValidationFailed
from certibif.interval import IArray


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


def test_solve_deltas_parameter_free_reduction():
    b = CiftBounds(rho=1e-12, K=1.0, L1=1e6, ell_x=1e-6)
    pair = solve_deltas(b)
    assert pair.delta_alpha == 0.0
    assert abs(pair.delta_min - 2e-12) <= 1e-25
    expect = min(1e-6, 1.0 / (2.0 * 1e6))
    assert abs(pair.delta_x - expect) <= 1e-12 * expect


def test_solve_deltas_saddle_node_table_values():
    # fold-certificate scale: K = 1, rho = 1.653e-12, L1 = 1.245e6
    b = CiftBounds(rho=1.653e-12, K=1.0, L1=1.245e6, ell_x=1e-6)
    pair = solve_deltas(b)
    assert abs(pair.delta_min - 3.306e-12) <= 1e-15
    assert abs(pair.delta_x - 4.0160642570281125e-07) <= 1e-12


def test_solve_deltas_infeasible_gate():
    b = CiftBounds(rho=1.0, K=1.0, L1=1.0, ell_x=1.0)
    with pytest.raises(ValidationFailed):
        solve_deltas(b)     # 4 K^2 rho L1 = 4 >= 1


def test_solve_deltas_with_parameter_terms():
    b = CiftBounds(rho=1e-10, K=2.0, L1=10.0, L2=5.0, L3=1e-8, L4=3.0,
                   ell_x=1e-2, ell_alpha=1e-2)
    pair = solve_deltas(b)
    assert pair.delta_alpha > 0.0
    # rigorous feasibility of the returned pair
    K2 = 2 * b.K
    assert K2 * b.L1 * pair.delta_x + K2 * b.L2 * pair.delta_alpha <= 1.0 + 1e-12
    assert (K2 * b.rho + K2 * b.L3 * pair.delta_alpha
            + K2 * b.L4 * pair.delta_alpha ** 2) <= pair.delta_x * (1 + 1e-12)


def test_solve_deltas_coupled_cap():
    b = CiftBounds(rho=1e-12, K=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0,
                   ell_x=1.0, ell_alpha=1.0)
    pair = solve_deltas(b, dir_norm=1.0, coupled_cap=1e-3)
    assert pair.delta_alpha + pair.delta_x <= 1e-3 * (1 + 1e-12)
    assert pair.delta_alpha >= 0.4e-3


def test_solve_deltas_coupled_cap_binds_without_reserve():
    # floor 2e-6 against delta_alpha + delta_x <= 1e-3: delta_alpha stops
    # just short of 1e-3 - 2e-6, the whole budget minus the floor
    b = CiftBounds(rho=1e-6, K=1.0, L1=1.0, ell_x=1.0, ell_alpha=1.0)
    pair = solve_deltas(b, dir_norm=1.0, coupled_cap=1e-3, du_reserve=0.0)
    assert pair.delta_alpha + pair.delta_x <= 1e-3
    assert 1e-3 - 2e-6 - 1e-15 <= pair.delta_alpha <= 1e-3 - 2e-6
    assert pair.delta_x >= pair.delta_min


def test_solve_deltas_shrinks_with_larger_rho():
    small = solve_deltas(CiftBounds(rho=1e-12, K=1.0, L1=1e3, ell_x=1e-3))
    large = solve_deltas(CiftBounds(rho=1e-8, K=1.0, L1=1e3, ell_x=1e-3))
    assert small.delta_min < large.delta_min


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
    blob = cert.dumps()
    again = Certificate.from_json_dict(json.loads(blob))
    assert again == cert
    assert json.loads(again.dumps()) == json.loads(blob)


def test_bounds_reject_negative():
    with pytest.raises(ValueError):
        CiftBounds(rho=-1.0, K=1.0, L1=0.0)


from hypothesis import given, settings
from hypothesis import strategies as st


def _bisect_delta_alpha(feasible, ell_alpha):
    """The 80-step bisection solve_deltas used before its closed-form
    start; returns (delta_alpha, whether it ended on adjacent floats)."""
    lo, hi = 0.0, ell_alpha
    if feasible(hi):
        return hi, True
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, math.nextafter(lo, math.inf) == hi


@given(st.floats(1e-16, 1e-8), st.floats(1.0, 50.0),
       st.one_of(st.just(0.0), st.floats(1e-2, 1e7)),
       st.floats(0.0, 1e3), st.floats(0.0, 1e2), st.floats(0.0, 1e3),
       st.floats(1e-8, 1e-2), st.floats(0.0, 1e-2),
       st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       st.one_of(st.just(math.inf), st.floats(1e-8, 1e-1)),
       st.one_of(st.just(0.1), st.floats(0.0, 0.5)))
@settings(max_examples=300, deadline=None)
def test_solve_deltas_output_always_rigorously_feasible(
        rho, K, L1, L2, L3, L4, ell_x, ell_alpha, dir_norm, coupled_cap,
        du_reserve):
    from certibif.cift import _alpha_feasible, _pair_feasible, _TwoK
    b = CiftBounds(rho=rho, K=K, L1=L1, L2=L2, L3=L3, L4=L4,
                   ell_x=ell_x, ell_alpha=ell_alpha)
    k = _TwoK.of(b)
    search_cap = coupled_cap * (1.0 - du_reserve)
    feasible = lambda da: _alpha_feasible(b, k, da, dir_norm, coupled_cap, search_cap)
    try:
        pair = solve_deltas(b, dir_norm=dir_norm, coupled_cap=coupled_cap,
                            du_reserve=du_reserve)
    except ValidationFailed as exc:
        if "delta_alpha = 0" in str(exc):
            assert not feasible(0.0)
        return
    assert _pair_feasible(b, k, pair.delta_alpha, pair.delta_x, dir_norm, coupled_cap)
    assert pair.delta_min <= pair.delta_x

    # delta_alpha is the largest float that passes the rigorous check
    da = pair.delta_alpha
    assert feasible(da)
    assert da == ell_alpha or not feasible(math.nextafter(da, math.inf))
    ref, converged = _bisect_delta_alpha(feasible, ell_alpha)
    assert da >= ref
    if converged:
        assert da == ref


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


def test_solve_deltas_steps_dx_back_no_further_than_the_floor():
    """A box of the seed-0 branch where the L1 coupling binds: the dx
    ceiling sits an ulp above the floor and fails the pair check, which
    rounds 2K(L1 dx + L2 da) <= 1 apart from it.  The step back stops at
    the floor, which the delta_alpha search has already certified, instead
    of stepping past it and giving up."""
    from certibif.cift import _TwoK, _dx_ceiling, _dx_floor, _pair_feasible
    b = CiftBounds(rho=5.995204332975845e-15, K=6.739970907978892,
                   L1=58.32574483346063, L2=34.601015575504604,
                   L3=4.0291271289160886e-14, L4=20.355909077067825,
                   ell_x=0.0256, ell_alpha=0.0256)
    pair = solve_deltas(b, dir_norm=1.0, coupled_cap=0.0256)
    k = _TwoK.of(b)
    da = pair.delta_alpha
    assert not _pair_feasible(b, k, da, _dx_ceiling(b, k, da, 1.0, 0.0256), 1.0, 0.0256)
    assert _pair_feasible(b, k, da, pair.delta_x, 1.0, 0.0256)
    assert pair.delta_x == _dx_floor(k, da) and pair.bound_by == "L1-coupling"
