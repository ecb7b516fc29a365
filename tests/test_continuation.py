import math

import numpy as np
import pytest

from certibif.cift import CiftBounds
from certibif.continuation import (BranchBox, ContinuationConfig,
                                   _anchor_rounding_gap,
                                   CoralBranchSystem, ExtendedSystem,
                                   SegmentHypotheses, branch_start,
                                   check_link, classify_stability,
                                   continue_branch,
                                   derive_extended_constants, newton_correct,
                                   segment_anchor, tangent_estimate,
                                   validate_segment)
from certibif.errors import CorrectorFailed, TangentUndefined, ValidationFailed
from certibif.interval import Interval, IVector, norm_inf
from certibif.model import FixedPointReduction

from helpers import (mp_branch_F, mp_coeffs, mp_fd_jacobian,
                     mp_refine_branch_point)
import mpmath as mp


class ToyLinear:
    """F(t, u) = u - t (scalar state): exact linear zero set u = t."""

    d = 1
    rscale = 1.0

    def F(self, t, u):
        return np.array([u[0] - t])

    def jacobians(self, t, u):
        return np.array([[-1.0, 1.0]]), None


class ToyFold:
    """F(t, u) = u^2 - t: fold at the origin."""

    d = 1

    def F(self, t, u):
        return np.array([u[0] ** 2 - t])

    def jacobians(self, t, u):
        return np.array([[-1.0, 2.0 * u[0]]]), None


def _tangent(system, t, u, prev=None):
    return tangent_estimate(system.jacobians(t, u)[0], prev=prev)


def test_tangent_of_linear_map():
    mu, v = _tangent(ToyLinear(), 0.0, np.zeros(1))
    assert abs(abs(mu) - abs(v[0])) <= 1e-12          # direction (1, 1)
    assert max(abs(mu), abs(v[0])) == 1.0             # unit max norm


def test_tangent_vertical_at_fold():
    mu, v = _tangent(ToyFold(), 0.0, np.zeros(1))
    assert abs(mu) <= 1e-12 and abs(v[0]) == 1.0


def test_tangent_orientation_follows_previous():
    prev = np.array([-1.0, -1.0])
    mu, v = _tangent(ToyLinear(), 0.0, np.zeros(1), prev=prev)
    assert mu < 0.0


def test_tangent_undefined_on_rank_deficiency():
    class Degenerate:
        d = 2

        def jacobians(self, t, u):
            return np.zeros((2, 3)), None

    with pytest.raises(TangentUndefined):
        _tangent(Degenerate(), 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# extended system and corrector
# ---------------------------------------------------------------------------


def test_extended_G_at_origin_is_residual(preconditioned_system):
    sys_ = preconditioned_system
    t0, u0 = 3.0, np.ones(13)
    ext = ExtendedSystem(sys_, t0, u0, -1.0, np.zeros(13))
    G0 = ext.value(0.0, np.zeros(14))
    assert G0[0] == 0.0
    assert np.allclose(G0[1:], sys_.F(t0, u0))


def test_extended_G_first_row_is_orthogonality(preconditioned_system):
    rng = np.random.default_rng(0)
    mu, v = -0.7, rng.normal(size=13)
    ext = ExtendedSystem(preconditioned_system, 3.0, np.ones(13), mu, v)
    z = rng.normal(size=14)
    assert math.isclose(ext.value(0.0, z)[0], mu * z[0] + v @ z[1:], rel_tol=1e-12)


def test_extended_jacobian_block_structure(preconditioned_system):
    sys_ = preconditioned_system
    mu, v = -0.5, np.full(13, 0.1)
    ext = ExtendedSystem(sys_, 3.0, np.ones(13), mu, v)
    J = ext.jac(0.0, np.zeros(14))
    assert J[0, 0] == mu and np.all(J[0, 1:] == v)
    A, Jx = sys_.jacobians(3.0, np.ones(13))
    assert np.array_equal(J[1:], A)
    # the raw D_x f that the D_u F block rescales
    assert np.array_equal(Jx, sys_.coral.jac_x(*sys_.to_raw(3.0, np.ones(13))))
    # interval enclosure contains the float Jacobian
    _, Ju, Jt = sys_.eval_iv(Interval.point(3.0), IVector.point(np.ones(13)))
    Jiv = ext.jac_iv_at_origin(Ju, Jt)
    assert np.all(Jiv.lo <= J + 1e-12) and np.all(Jiv.hi >= J - 1e-12)


def test_corrector_stays_at_exact_zero():
    sys_ = ToyLinear()
    ext = ExtendedSystem(sys_, 1.0, np.array([1.0]), 1.0, np.array([1.0]))
    sigma, x = newton_correct(ext, 0.0)
    assert abs(sigma) <= 1e-14 and abs(x[0]) <= 1e-14


def test_corrector_linear_single_step():
    sys_ = ToyLinear()
    ext = ExtendedSystem(sys_, 0.0, np.array([0.5]), 1.0, np.array([0.0]))
    sigma, x = newton_correct(ext, 0.0, max_iter=2)
    t, u = 0.0 + sigma, 0.5 + x[0]
    assert abs(u - t) <= 1e-14


def test_corrector_orthogonality(preconditioned_system, coral):
    red = FixedPointReduction(coral)
    x0 = red.full_point(max(red.solve(3.0)))
    t0, u0 = preconditioned_system.from_raw_R(3.0 * coral.cf.ba, x0)
    mu, v = _tangent(preconditioned_system, t0, u0)
    ext = ExtendedSystem(preconditioned_system, t0, u0, mu, v)
    sigma, x = newton_correct(ext, 1e-4)
    dirn = max(abs(mu), np.max(np.abs(v)))
    corr = max(abs(sigma), np.max(np.abs(x)))
    assert abs(mu * sigma + v @ x) <= 1e-12 * dirn * corr + 1e-300


def test_corrector_failure_reported():
    sys_ = ToyFold()
    # orthogonality pins sigma = 0, so the corrector chases u^2 + 1 = 0
    ext = ExtendedSystem(sys_, -1.0, np.array([0.5]), 1.0, np.array([0.0]))
    with pytest.raises(CorrectorFailed):
        newton_correct(ext, 0.0, max_iter=6)


# ---------------------------------------------------------------------------
# derived constants and linking
# ---------------------------------------------------------------------------


def _hyp(**kw):
    base = dict(rho=0.0, xi=0.0, K=1.0, M1=0.0, M2=0.0, M3=0.0, M4=0.0,
                d_u=1.0, d_lambda=1.0)
    base.update(kw)
    return SegmentHypotheses(**base)


def test_derived_constants_autonomous_reduction():
    h = _hyp(M1=2.0)
    v = np.array([0.25, -0.5])
    b = derive_extended_constants(h, 0.3, v)
    assert b.L1 == 2.0
    assert abs(b.L2 - 2.0 * 0.5) <= 1e-15
    assert abs(b.L4 - 2.0 * 0.5 * 0.5) <= 1e-15


def test_derived_constants_unit_v_zero_mu():
    h = _hyp(M1=3.0, M3=4.0)
    b = derive_extended_constants(h, 0.0, np.array([1.0]))
    assert b.L1 == 7.0 and abs(b.L2 - 7.0) <= 1e-14
    assert abs(b.L4 - 3.0) <= 1e-14   # (M1*1 + 0)*1 + (M3*1 + 0)*0


def test_derived_constants_L3_is_xi():
    b = derive_extended_constants(_hyp(xi=0.125), 1.0, np.array([0.0]))
    assert b.L3 == 0.125


def _box(**kw):
    base = dict(index=0, t=0.0, u=np.zeros(1), mu=1.0, v=np.zeros(1),
                delta_alpha=1e-3, delta_u=1e-5, delta_min=1e-12,
                bounds=CiftBounds(rho=0.0, K=1.0, L1=1.0, ell_x=1.0),
                hyp=_hyp())
    base.update(kw)
    return BranchBox(**base)


def test_check_link_accepts_comfortable_margins():
    assert check_link(_box(), 1e-4, (1e-7, np.array([1e-7])), 0.0)


def test_check_link_strict_at_alpha_boundary():
    b = _box()
    assert not check_link(b, b.delta_alpha, (0.0, np.array([0.0])), 0.0)


def test_check_link_norm_margin():
    b = _box()
    assert not check_link(b, 1e-4, (9.99e-6, np.array([0.0])), 1e-7)


# ---------------------------------------------------------------------------
# segment validation and the driver (coral)
# ---------------------------------------------------------------------------


def test_branch_start(coral):
    system, t0, u0 = branch_start(coral, 300.0)
    assert system.R_of_t(t0) == 300.0 and system.rscale == 100.0
    lam, x0 = system.to_raw(t0, u0)
    assert np.max(np.abs(system.F(t0, u0))) <= 1e-10
    # one significant digit of the start point per state component
    e = np.floor(np.log10(x0))
    assert np.all(np.abs(system.s - x0) <= 0.5 * 10.0 ** e)
    assert np.all(system.s / 10.0 ** e == np.round(system.s / 10.0 ** e))
    raw, t_raw, u_raw = branch_start(coral, 300.0, precondition=False)
    assert np.all(raw.s == 1.0) and t_raw == 300.0
    assert np.allclose(u_raw, x0, rtol=1e-15, atol=0.0)
    # below the saddle-node only the trivial fixed point exists
    with pytest.raises(ValidationFailed, match="no nontrivial fixed point"):
        branch_start(coral, 5.0)


def test_validate_segment_coral(coral):
    system, t0, u0 = branch_start(coral, 300.0)
    A = system.jacobians(t0, u0)[0]
    mu, v = tangent_estimate(A)
    if mu > 0:
        mu, v = -mu, -v
    box = validate_segment(segment_anchor(system, t0, u0, mu, v, A), 1e-4, 1e-4)
    assert box.delta_alpha > 0 and box.delta_u > 0
    assert box.delta_min <= 1e-12
    assert box.delta_min < box.delta_u
    # coupled box constraint holds rigorously
    assert box.delta_alpha * box.dir_norm + box.delta_u <= 1e-4 * (1 + 1e-12)


def test_classify_stability_trivial_branch(coral):
    lam_low = 50.0 / coral.cf.ba      # R = 50 < 72.22
    lam_high = 100.0 / coral.cf.ba    # R = 100 > 72.22
    assert classify_stability(coral.jac_x(lam_low, np.zeros(13))) == "stable"
    assert classify_stability(coral.jac_x(lam_high, np.zeros(13))) == "unstable(1)"


def test_classify_stability_past_ns(coral):
    red = FixedPointReduction(coral)
    lam = 200.0 / coral.cf.ba
    x = red.full_point(max(red.solve(lam)))
    assert classify_stability(coral.jac_x(lam, x)).startswith("unstable")


def test_branch_run_links_and_orientation(branch_result):
    res = branch_result
    assert len(res.boxes) > 1000
    assert res.all_linked()
    # no orientation flips: consecutive tangents keep positive inner product
    for a, b in zip(res.boxes[:-1], res.boxes[1:]):
        ta = np.concatenate([[a.mu], a.v])
        tb = np.concatenate([[b.mu], b.v])
        assert float(ta @ tb) > 0.0


def test_branch_link_headroom(branch_result):
    """Each step takes alpha_frac of the certified segment.  The link's
    alpha part, |alpha_k| + delta_min_{k+1}/|dir_k| < delta_alpha_k, keeps
    1 - alpha_frac of the segment for a term 1e4 times smaller, and its
    z part uses a tenth of delta_u at most."""
    boxes = branch_result.boxes
    frac = ContinuationConfig().alpha_frac
    assert all(b.alpha_step == frac * b.delta_alpha for b in boxes[:-1])
    pairs = list(zip(boxes[:-1], boxes[1:]))
    alpha_part = max(n.delta_min / (b.dir_norm * b.delta_alpha) for b, n in pairs)
    assert alpha_part <= 1e-6          # 1e4 times below 1 - alpha_frac
    assert all(b.corr_norm + n.delta_min <= 0.1 * b.delta_u for b, n in pairs)


def test_config_rejects_alpha_frac_outside_unit_interval():
    for frac in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"alpha_frac must lie in \(0, 1\)"):
            ContinuationConfig(alpha_frac=frac)
    assert ContinuationConfig(alpha_frac=0.5).alpha_frac == 0.5


def test_branch_passes_fold_without_reparametrization(branch_result,
                                                      preconditioned_system):
    Rs = [preconditioned_system.R_of_t(b.t) for b in branch_result.boxes]
    assert min(Rs) < 12.3                     # through the saddle-node
    assert branch_result.fold_index is not None
    assert Rs[-1] > 70.0                      # back up toward the trivial branch


def test_branch_uniqueness_shrinks_near_trivial_branch(branch_result):
    du = [b.delta_u for b in branch_result.boxes]
    tail = np.array(du[-200:])
    head = np.array(du[:200])
    assert np.median(tail) < 0.2 * np.median(head)


def test_branch_sound_enclosure_high_precision(branch_result,
                                               preconditioned_system, coral):
    """Spot soundness: solving G(alpha, .) = 0 at high precision lands in
    the certified (sigma, x) tube for random boxes and alphas."""
    rng = np.random.default_rng(5)
    coeffs = mp_coeffs(coral)
    picks = rng.choice(len(branch_result.boxes) - 1, size=20, replace=False)
    for idx in picks:
        box = branch_result.boxes[int(idx)]
        for alpha in rng.uniform(0.0, box.delta_alpha, size=2):
            with mp.workdps(50):
                z = mp_refine_branch_point(preconditioned_system, coeffs,
                                           box, float(alpha))
                corr_norm = max(abs(float(v)) for v in z)
                assert corr_norm <= box.delta_u


def test_lipschitz_M_bounds_jacobian_changes_high_precision(
        branch_result, preconditioned_system, coral):
    """Soundness of the mean-value constants: between two points of a box's
    Lipschitz box, the 50-digit change of D_u F stays within
    M1 |du| + M2 |dt| and that of D_t F within M3 |du| + M4 |dt| (max
    norms, the pairing of derive_extended_constants), at boxes on both
    sides of the fold."""
    system, boxes = preconditioned_system, branch_result.boxes
    fold, d = branch_result.fold_index, system.d
    F = mp_branch_F(system, mp_coeffs(coral))
    Rs = np.array([system.R_of_t(b.t) for b in boxes])
    picks = [int(np.argmin(np.abs(Rs[:fold] - R))) for R in (250.0, 100.0, 20.0)]
    picks += [fold + int(np.argmin(np.abs(Rs[fold:] - R))) for R in (12.5, 30.0, 72.0)]
    rng = np.random.default_rng(11)

    def jac(t, u):      # d x (d+1): [D_t F | D_u F]
        z = mp.matrix([mp.mpf(float(c)) for c in (t, *u)])
        return mp_fd_jacobian(lambda w: mp.matrix(F(w[0], list(w[1:]))), z)

    worst = 0.0         # largest |change of D_u F| / (M1 |du|) over pure-u pairs
    with mp.workdps(50):
        for idx in picks:
            b, h = boxes[idx], boxes[idx].hyp
            ru, rt = h.d_u * (1.0 - 2.0 ** -20), h.d_lambda * (1.0 - 2.0 ** -20)
            pairs = [((b.t - rt, b.u), (b.t + rt, b.u))]
            for w in (np.ones(d), rng.choice([-1.0, 1.0], d)):
                pairs.append(((b.t, b.u - ru * w), (b.t, b.u + ru * w)))
                pairs.append(((b.t - rt, b.u + ru * w), (b.t + rt, b.u - ru * w)))
            for (ta, ua), (tb, ub) in pairs:
                D = jac(tb, ub) - jac(ta, ua)
                dt = abs(mp.mpf(tb) - mp.mpf(ta))
                du = max(abs(mp.mpf(x) - mp.mpf(y)) for x, y in zip(ub, ua))
                dDu = max(sum(abs(D[i, j]) for j in range(1, d + 1)) for i in range(d))
                dDt = max(abs(D[i, 0]) for i in range(d))
                tol = mp.mpf(10) ** -20       # finite-difference noise
                assert dDu <= h.M1 * du + h.M2 * dt + tol, (idx, Rs[idx])
                assert dDt <= h.M3 * du + h.M4 * dt + tol, (idx, Rs[idx])
                if dt == 0:
                    worst = max(worst, float(dDu / (h.M1 * du)))
    # the sampled pairs come close to the bound, so the check has teeth
    assert worst > 0.5


def test_branch_conjugacy_to_raw_map(branch_result, preconditioned_system, coral):
    """Unscaling a certified box anchor gives a raw-map residual below the
    unscaled image of the certified accuracy."""
    for box in branch_result.boxes[:: max(1, len(branch_result.boxes) // 7)]:
        lam, x = preconditioned_system.to_raw(box.t, box.u)
        raw_resid = float(np.max(np.abs(coral.map_F(lam, x))))
        # accuracy delta_min in scaled coordinates; unscale componentwise
        bound = box.delta_min * float(np.max(preconditioned_system.s))
        # residual ~ |DF| * distance; |DF| is O(10) here, keep a margin of 100
        assert raw_resid <= 100.0 * max(bound, 1e-12)


def test_derived_constants_match_direct_cift_on_extended_system(
        preconditioned_system, coral):
    """Brute-force interval differentiation of G over the certified box
    must agree with the formula-derived Lipschitz data within a factor 2
    (plus the enclosure's own width) on test boxes along the branch."""
    red = FixedPointReduction(coral)
    for R in (250.0, 150.0, 60.0, 30.0, 15.0):
        roots = [r for r in red.solve(R / coral.cf.ba) if r > 0]
        x0 = red.full_point(max(roots))
        t0, u0 = preconditioned_system.from_raw_R(R, x0)
        A = preconditioned_system.jacobians(t0, u0)[0]
        mu, v = tangent_estimate(A)
        anchor = segment_anchor(preconditioned_system, t0, u0, mu, v, A)
        box = validate_segment(anchor, 1e-4, 1e-4)
        da, du = box.delta_alpha, box.delta_u
        # hull of every point reachable within the slanted box
        r_t = da * abs(mu) + du
        r_u = da * np.abs(v) + du
        t_iv = Interval.around(t0, r_t)
        u_iv = IVector.around(u0, r_u)
        _, Ju, Jt = preconditioned_system.eval_iv(t_iv, u_iv)
        # (H3) side: two Jacobian values inside the box differ by at most
        # the entrywise enclosure width, which the derived constants bound
        # through L1 |(sigma,x)| + L2 |alpha|
        width_bound = float(np.max(np.sum(Ju.hi - Ju.lo, axis=1)
                                   + (Jt.hi - Jt.lo)))
        formula_h3 = 2.0 * (box.bounds.L1 * (du + da * float(np.max(np.abs(v))))
                            + box.bounds.L2 * da)
        assert width_bound <= 2.0 * formula_h3 + 1e-9
        # (H4) side: D_alpha G = (0, D_t F mu + D_u F v) stays within the
        # affine envelope L3 + L4 * alpha
        val = norm_inf(anchor.ext.drift_iv(Ju, Jt)).hi
        formula_h4 = box.bounds.L3 + box.bounds.L4 * da
        slack = box.bounds.L1 * (du + da) * 2.0   # enclosure-width overhead
        assert val <= 2.0 * formula_h4 + slack
        assert box.bounds.L3 <= val + 1e-12


def test_raw_branch_runs_without_a_corrector_override(raw_branch_result):
    """In raw coordinates the states are of order 1e3, so the corrector
    tolerance is floored at float resolution there; the default 1e-14
    serves the preconditioned branch unchanged."""
    assert raw_branch_result.stop_reason == "max-steps"
    assert len(raw_branch_result.boxes) == 20 and raw_branch_result.all_linked()


def _scalar_rounding_gap(t_prev, u_prev, alpha_k, mu, v, sigma, x_corr, t_next, u_next):
    """The scalar Interval loop the endpoint-array _anchor_rounding_gap
    must reproduce."""
    a = Interval(alpha_k)
    gap = (Interval(t_prev) + a * Interval(mu) + Interval(sigma) - Interval(t_next)).mag
    for j in range(len(v)):
        dj = (Interval(float(u_prev[j])) + a * Interval(float(v[j]))
              + Interval(float(x_corr[j])) - Interval(float(u_next[j])))
        gap = max(gap, dj.mag)
    return gap


def test_anchor_rounding_gap_equals_scalar_interval_loop():
    rng = np.random.default_rng(31)
    for trial in range(300):
        scale = 10.0 ** rng.uniform(-3.0, 4.0)
        t, u = scale * rng.normal(), scale * rng.normal(size=13)
        mu, v = rng.normal(), rng.normal(size=13)
        alpha = 10.0 ** rng.uniform(-8.0, -1.0)
        sigma, x = 1e-12 * rng.normal(), 1e-12 * rng.normal(size=13)
        if trial % 3 == 0:
            # small integers: every sum is exact and TwoSum takes no step
            t, u, mu, v = (np.round(8 * w) for w in (t, u, mu, v))
            alpha, sigma, x = 0.5, 0.0, np.zeros(13)
        t_next, u_next = t + alpha * mu + sigma, u + alpha * v + x
        args = (float(t), u, float(alpha), float(mu), v, float(sigma), x,
                float(t_next), u_next)
        assert _anchor_rounding_gap(*args) == _scalar_rounding_gap(*args)


def test_branch_driver_stops_degenerate_without_start_point(coral):
    # starting far from the branch: the corrector/validation cannot succeed
    system = CoralBranchSystem(coral)
    cfg = ContinuationConfig(max_steps=5)
    res = continue_branch(system, 3.0, 1e6 * np.ones(13), cfg)
    assert res.stop_reason != "target"


class ToyLinearValidated(ToyLinear):
    """ToyLinear with the interval interface, so segments can be certified."""

    def eval_iv(self, t, u):
        from certibif.interval import IMatrix
        F = IVector.from_scalars([u[0] - t])
        Ju = IMatrix(np.array([[1.0]]), np.array([[1.0]]))
        Jt = IVector(np.array([-1.0]), np.array([-1.0]))
        return F, Ju, Jt

    def lipschitz_M(self, t0, u0, d_t, d_u):
        return 0.0, 0.0, 0.0, 0.0


def test_validate_segment_exact_linear_zero_set():
    """On u = t the residual vanishes and the deltas are limited only by
    the box constraints (all Lipschitz constants are zero, K is finite)."""
    sys_ = ToyLinearValidated()
    A = sys_.jacobians(0.3, np.array([0.3]))[0]
    mu, v = tangent_estimate(A)
    anchor = segment_anchor(sys_, 0.3, np.array([0.3]), mu, v, A)
    box = validate_segment(anchor, 1e-2, 1e-2)
    assert box.hyp.rho <= 1e-15 and box.hyp.xi <= 1e-12
    assert box.bounds.L1 <= 1e-300 and box.bounds.L4 <= 1e-300
    # delta_alpha * dir_norm + delta_u saturates the coupling cap
    used = box.delta_alpha * box.dir_norm + box.delta_u
    assert used >= 0.99e-2
    assert box.delta_min <= 1e-14


def test_continue_branch_on_linear_toy():
    sys_ = ToyLinearValidated()
    sys_.rscale = 1.0
    sys_.R_of_t = lambda t: t
    cfg = ContinuationConfig(max_steps=25, to_R=-1e9, d_u0=1e-2, d_lambda0=1e-2)
    res = continue_branch(sys_, 0.5, np.array([0.5]), cfg)
    assert res.stop_reason == "max-steps"
    assert len(res.boxes) == 25 and res.all_linked()
    # the chain walks along u = t
    for b in res.boxes:
        assert abs(b.u[0] - b.t) <= 1e-12
