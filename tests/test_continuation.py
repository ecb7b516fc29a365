import math

import numpy as np
import pytest

from certibif.bifurcation import NsSystem, SnSystem, transcritical_analysis
from certibif.cift import CiftBounds
from certibif.continuation import (ALPHA_FRAC, BranchBox,
                                   _anchor_rounding_gap, _leslie_outside_counts, _rows,
                                   CoralBranchSystem, ExtendedSystem,
                                   branch_start,
                                   check_link, classify_stability,
                                   continue_branch,
                                   derive_extended_constants, newton_correct,
                                   nontrivial_fixed_point, segment_anchor,
                                   tangent_estimate, validate_segment)
from certibif.errors import CorrectorFailed, TangentUndefined, ValidationFailed
from certibif.interval import IArray, Interval, norm_inf
from certibif.model import FixedPointReduction

from helpers import (eigvals_labels, jac_lam, map_F, mp_branch_F, mp_coeffs, mp_fd_jacobian,
                     mp_refine_branch_point, scalar_row1, step)
import mpmath as mp


class ToyLinear:
    """F(t, u) = u - t (scalar state): exact linear zero set u = t.  Like
    every branch system, it evaluates a stack of points."""

    d = 1
    rscale = 1.0

    def evaluate(self, t, u):
        t = np.asarray(t, dtype=float)
        A = np.broadcast_to(np.array([[-1.0, 1.0]]), t.shape + (1, 2)).copy()
        return u[..., :1] - t[..., None], A, None


class ToyFold:
    """F(t, u) = u^2 - t: fold at the origin."""

    d = 1

    def evaluate(self, t, u):
        t = np.asarray(t, dtype=float)
        A = np.stack([-np.ones_like(u[..., 0]), 2.0 * u[..., 0]], axis=-1)[..., None, :]
        return u[..., :1] ** 2 - t[..., None], A, None


def _tangent(system, t, u, prev=None):
    """The tangent (mu, v) at the one point (t, u), as a stack of one."""
    mu, v = tangent_estimate(system.evaluate(np.array([t]), u[None])[1], prev=prev)
    return mu[0], v[0]


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

        def evaluate(self, t, u):
            return np.zeros((1, 2)), np.zeros((1, 2, 3)), None

    with pytest.raises(TangentUndefined):
        _tangent(Degenerate(), 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# extended system and corrector
# ---------------------------------------------------------------------------


def test_extended_G_at_origin_is_residual(preconditioned_system):
    sys_ = preconditioned_system
    t0, u0 = 3.0, np.ones(13)
    ext = ExtendedSystem(sys_, t0, u0, -1.0, np.zeros(13))
    (G0,), _ = ext.value(np.zeros(1), np.zeros((1, 14)))
    assert G0[0] == 0.0
    assert np.allclose(G0[1:], sys_.evaluate(np.array([t0]), u0[None])[0][0])


def test_extended_G_first_row_is_orthogonality(preconditioned_system):
    rng = np.random.default_rng(0)
    mu, v = -0.7, rng.normal(size=13)
    ext = ExtendedSystem(preconditioned_system, 3.0, np.ones(13), mu, v)
    z = rng.normal(size=14)
    assert math.isclose(ext.value(np.zeros(1), z[None])[0][0, 0], mu * z[0] + v @ z[1:],
                        rel_tol=1e-12)


def test_corrector_stays_at_exact_zero():
    sys_ = ToyLinear()
    ext = ExtendedSystem(sys_, 1.0, np.array([1.0]), 1.0, np.array([1.0]))
    sigma, x, _ = newton_correct(ext, np.zeros(1))
    assert abs(sigma[0]) <= 1e-14 and abs(x[0, 0]) <= 1e-14


def test_corrector_linear_single_step():
    sys_ = ToyLinear()
    ext = ExtendedSystem(sys_, 0.0, np.array([0.5]), 1.0, np.array([0.0]))
    sigma, x, _ = newton_correct(ext, np.zeros(1), max_iter=2)
    t, u = 0.0 + sigma[0], 0.5 + x[0, 0]
    assert abs(u - t) <= 1e-14


def test_corrector_orthogonality(preconditioned_system, coral):
    red = FixedPointReduction(coral)
    x0 = red.full_point(max(red.solve(3.0)))
    t0, u0 = preconditioned_system.from_raw_R(3.0 * coral.cf.ba, x0)
    mu, v = _tangent(preconditioned_system, t0, u0)
    ext = ExtendedSystem(preconditioned_system, t0, u0, mu, v)
    sigma, x, _ = newton_correct(ext, np.array([1e-4]))
    sigma, x = sigma[0], x[0]
    dirn = max(abs(mu), np.max(np.abs(v)))
    corr = max(abs(sigma), np.max(np.abs(x)))
    assert abs(mu * sigma + v @ x) <= 1e-12 * dirn * corr + 1e-300


def test_corrector_failure_reported():
    sys_ = ToyFold()
    # orthogonality pins sigma = 0, so the corrector chases u^2 + 1 = 0
    ext = ExtendedSystem(sys_, -1.0, np.array([0.5]), 1.0, np.array([0.0]))
    with pytest.raises(CorrectorFailed):
        newton_correct(ext, np.zeros(1), max_iter=6)


# ---------------------------------------------------------------------------
# derived constants and linking
# ---------------------------------------------------------------------------


def _constants(mu, v, M=(0.0, 0.0, 0.0, 0.0), xi=0.0):
    """derive_extended_constants for a stack of one segment with rho = 0
    and K = 1 over the box of radius 1; the bounds of that segment."""
    one = lambda x: np.array([x])
    b = derive_extended_constants(one(0.0), one(xi), one(1.0), tuple(map(one, M)), one(1.0),
                                  one(mu), v[None])
    return _rows(b)[0]


def test_derived_constants_autonomous_reduction():
    b = _constants(0.3, np.array([0.25, -0.5]), M=(2.0, 0.0, 0.0, 0.0))
    assert b.L1 == 2.0
    assert abs(b.L2 - 2.0 * 0.5) <= 1e-15
    assert abs(b.L4 - 2.0 * 0.5 * 0.5) <= 1e-15


def test_derived_constants_unit_v_zero_mu():
    b = _constants(0.0, np.array([1.0]), M=(3.0, 0.0, 4.0, 0.0))
    assert b.L1 == 7.0 and abs(b.L2 - 7.0) <= 1e-14
    assert abs(b.L4 - 3.0) <= 1e-14   # (M1*1 + 0)*1 + (M3*1 + 0)*0


def test_derived_constants_L3_is_xi():
    assert _constants(1.0, np.array([0.0]), xi=0.125).L3 == 0.125


def _dir_norm(b) -> float:
    """The max norm of a box's direction (mu, v)."""
    return max(abs(b.mu), float(np.abs(b.v).max()))


def _box(**kw):
    base = dict(index=0, t=0.0, u=np.zeros(1), mu=1.0, v=np.zeros(1),
                delta_alpha=1e-3, delta_u=1e-5, delta_min=1e-12,
                bounds=CiftBounds(rho=0.0, K=1.0, L1=1.0, ell_x=1.0), M=(0.0,) * 4)
    base.update(kw)
    return BranchBox(**base)


# check_link takes a stack of links: previous boxes, alphas, corrector
# norms |(sigma, x)| and next accuracy radii; these are stacks of one


def test_check_link_accepts_comfortable_margins():
    assert check_link([_box()], [1e-4], [1e-7], [0.0])[0]


def test_check_link_strict_at_alpha_boundary():
    b = _box()
    assert not check_link([b], [b.delta_alpha], [0.0], [0.0])[0]


def test_check_link_norm_margin():
    b = _box()
    assert not check_link([b], [1e-4], [9.99e-6], [1e-7])[0]


def test_check_link_bounds_the_projection_of_the_next_ball():
    """A point a + alpha dir + e of the next accuracy ball (|e| <= delta_min')
    lies at alpha + <dir, e>/<dir, dir> along the box's direction, up to
    |dir|_1/|dir|_2^2 delta_min' = 2.37 delta_min' past alpha for dir = (1,
    0.211, ..., 0.211).  An exact point of the ball that leaves the box's
    segment is refused, though |alpha| + delta_min'/|dir|_inf < delta_alpha
    holds."""
    from fractions import Fraction
    v = np.full(13, 0.211)
    b = _box(mu=1.0, v=v, delta_alpha=1e-3, delta_u=1e-5)
    dmin = 1e-6
    alpha = b.delta_alpha - 2.0 * dmin
    assert alpha + dmin / _dir_norm(b) < b.delta_alpha
    direction = [Fraction(1.0)] + [Fraction(float(c)) for c in v]
    e = [Fraction(dmin)] * 14                       # a corner of the ball
    shift = sum(c * ec for c, ec in zip(direction, e)) / sum(c * c for c in direction)
    assert Fraction(alpha) + shift > Fraction(b.delta_alpha)
    assert not check_link([b], [alpha], [0.0], [dmin])[0]
    # a ball a tenth as large stays on the segment and links
    assert check_link([b], [alpha], [0.0], [0.1 * dmin])[0]


# ---------------------------------------------------------------------------
# segment validation and the driver (coral)
# ---------------------------------------------------------------------------


def test_branch_start(coral):
    system, t0, u0 = branch_start(coral, 300.0)
    assert system.R_of_t(t0) == 300.0 and system.rscale == 100.0
    lam, x0 = system.lam_of_t(t0), system.s * u0
    assert np.max(np.abs(system.evaluate(np.array([t0]), u0[None])[0])) <= 1e-10
    # one significant digit of the start point per state component
    e = np.floor(np.log10(x0))
    assert np.all(np.abs(system.s - x0) <= 0.5 * 10.0 ** e)
    assert np.all(system.s / 10.0 ** e == np.round(system.s / 10.0 ** e))
    assert np.allclose(nontrivial_fixed_point(coral, 300.0), x0, rtol=1e-15, atol=0.0)
    # below the saddle-node only the trivial fixed point exists
    for start in (branch_start, nontrivial_fixed_point):
        with pytest.raises(ValidationFailed, match="no nontrivial fixed point"):
            start(coral, 5.0)


def _anchor(system, t0, u0, decreasing=False):
    """segment_anchor for the stack of one segment at (t0, u0) along its
    SVD tangent, turned to decreasing t if `decreasing`, with B =
    inv(DG(0))."""
    t, u = np.array([t0]), u0[None]
    A = system.evaluate(t, u)[1]
    mu, v = tangent_estimate(A)
    if decreasing and mu[0] > 0:
        mu, v = -mu, -v
    B = np.linalg.inv(ExtendedSystem(system, t, u, mu, v).jac_from(A))
    return segment_anchor(system, t, u, mu, v, B)


def test_validate_segment_coral(coral):
    system, t0, u0 = branch_start(coral, 300.0)
    box = validate_segment(_anchor(system, t0, u0, decreasing=True), [1e-4])[0]
    assert box.delta_alpha > 0 and box.delta_u > 0
    assert box.delta_min <= 1e-12
    assert box.delta_min < box.delta_u
    # coupled box constraint holds rigorously
    assert box.delta_alpha * _dir_norm(box) + box.delta_u <= 1e-4 * (1 + 1e-12)


@pytest.mark.parametrize("d, refusal", [
    (1e-13, "2 K rho = 1.9671942296805507e-13 >= ell_x = 1e-13"),
    (30.0, "4 K^2 rho L1 = inf >= 1"),
], ids=["ell_x", "L1"])
def test_validate_segment_names_the_refusing_gate(coral, d, refusal):
    """A segment that fails an accuracy gate is refused by that gate's
    inequality, as validate_zero names it, not by the planned
    delta_alpha; the L1 gate overflows to inf without a warning."""
    system, t0, u0 = branch_start(coral, 300.0)
    (got,) = validate_segment(_anchor(system, t0, u0, decreasing=True), [d])
    assert isinstance(got, ValidationFailed)
    assert str(got) == refusal


def test_classify_stability_trivial_branch(coral):
    lam_low = 50.0 / coral.cf.ba      # R = 50 < 72.22
    lam_high = 100.0 / coral.cf.ba    # R = 100 > 72.22
    Js = np.stack([coral.jac_x(lam, np.zeros(13)) for lam in (lam_low, lam_high)])
    assert classify_stability(Js) == ["stable", "unstable(1)"]


def test_classify_stability_past_ns(coral):
    red = FixedPointReduction(coral)
    lam = 200.0 / coral.cf.ba
    x = red.full_point(max(red.solve(lam)))
    assert classify_stability(coral.jac_x(lam, x)[None])[0].startswith("unstable")


def test_schur_cohn_labels_equal_lapack_labels(coral, branch_result, preconditioned_system,
                                               raw_branch_result):
    """The Schur-Cohn counts give LAPACK's labels, with no row left to the
    eigenvalue fallback, on the seed-0 branch, the twenty raw-system boxes,
    400 trivial points on each side of R* and a nontrivial diagram sample."""
    raw = CoralBranchSystem(coral)
    R_star = transcritical_analysis(coral).R_star
    red = FixedPointReduction(coral)
    zero = np.zeros(coral.d)
    stacks = {
        "branch": [coral.jac_x(preconditioned_system.lam_of_t(b.t),
                               preconditioned_system.s * b.u)
                   for b in branch_result.boxes],
        "raw branch": [coral.jac_x(raw.lam_of_t(b.t), raw.s * b.u)
                       for b in raw_branch_result.boxes],
        "trivial below R*": [coral.jac_x(R / coral.cf.ba, zero)
                             for R in np.linspace(1e-3, R_star.lo, 400, endpoint=False)],
        "trivial above R*": [coral.jac_x(R / coral.cf.ba, zero)
                             for R in np.linspace(R_star.hi, 300.0, 401)[1:]],
        "nontrivial": [coral.jac_x(red.branch_lambda(x1), red.full_point(x1))
                       for x1 in np.linspace(3500.0 / red.cP, 1e-6, 400).tolist()],
    }
    seen = set()
    for name, Js in stacks.items():
        Js = np.stack(Js)
        assert not _leslie_outside_counts(Js)[1].any(), name
        labels = classify_stability(Js)
        assert labels == eigvals_labels(Js), name
        seen.update(labels)
    assert {"stable", "unstable(1)", "unstable(2)"} <= seen


def test_labels_at_the_certified_anchors_take_the_lapack_fallback(coral, sn_cert, ns_cert):
    """At the SN and NS anchors an eigenvalue lies within rounding of the
    unit circle: the Schur-Cohn count is ambiguous there, and the label is
    LAPACK's, alone and in a stack."""
    for system, cert in ((SnSystem(coral), sn_cert), (NsSystem(coral), ns_cert)):
        x, lam = system.x_lam(np.array(cert.anchor))
        J = coral.jac_x(lam, x)
        assert np.min(np.abs(np.abs(np.linalg.eigvals(J)) - 1.0)) < 1e-12
        assert _leslie_outside_counts(J[None])[1].tolist() == [True]
        assert classify_stability(J[None]) == [eigvals_labels(J)]
        Js = np.stack([coral.jac_x(lam, np.zeros(coral.d)), J])
        assert _leslie_outside_counts(Js)[1].tolist() == [False, True]
        assert classify_stability(Js) == eigvals_labels(Js)


def test_labels_of_matrices_that_are_not_leslie_come_from_lapack():
    Js = np.random.default_rng(0).normal(size=(20, 13, 13))
    assert _leslie_outside_counts(Js)[1].all()
    assert classify_stability(Js) == eigvals_labels(Js)


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
    """Each step takes at most ALPHA_FRAC of the certified segment.  The
    link's alpha part, |alpha_k| + delta_min_{k+1}/|dir_k| < delta_alpha_k,
    keeps 1 - ALPHA_FRAC of the segment for a term 1e4 times smaller, and
    its z part uses a tenth of delta_u at most."""
    boxes = branch_result.boxes
    assert all(b.alpha_step <= ALPHA_FRAC * b.delta_alpha for b in boxes[:-1])
    pairs = list(zip(boxes[:-1], boxes[1:]))
    alpha_part = max(n.delta_min / (_dir_norm(b) * b.delta_alpha) for b, n in pairs)
    assert alpha_part <= 1e-6          # 1e4 times below 1 - ALPHA_FRAC
    assert all(b.corr_norm + n.delta_min <= 0.1 * b.delta_u for b, n in pairs)


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
            b = boxes[idx]
            M1, M2, M3, M4 = b.M
            ru, rt = b.bounds.ell_x * (1.0 - 2.0 ** -20), b.bounds.ell_alpha * (1.0 - 2.0 ** -20)
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
                assert dDu <= M1 * du + M2 * dt + tol, (idx, Rs[idx])
                assert dDt <= M3 * du + M4 * dt + tol, (idx, Rs[idx])
                if dt == 0:
                    worst = max(worst, float(dDu / (M1 * du)))
    # the sampled pairs come close to the bound, so the check has teeth
    assert worst > 0.5


def test_branch_conjugacy_to_raw_map(branch_result, preconditioned_system, coral):
    """Unscaling a certified box anchor gives a raw-map residual below the
    unscaled image of the certified accuracy."""
    for box in branch_result.boxes[:: max(1, len(branch_result.boxes) // 7)]:
        lam, x = preconditioned_system.lam_of_t(box.t), preconditioned_system.s * box.u
        raw_resid = float(np.max(np.abs(map_F(coral, lam, x))))
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
        anchor = _anchor(preconditioned_system, t0, u0)
        mu, v = anchor.ext.mu[0], anchor.ext.v[0]
        box = validate_segment(anchor, [1e-4])[0]
        da, du = box.delta_alpha, box.delta_u
        # hull of every point reachable within the slanted box
        r_t = da * abs(mu) + du
        r_u = da * np.abs(v) + du
        t_iv = IArray.around([t0], r_t)
        u_iv = IArray.around(u0[None], r_u)
        _, Ju, Jt = preconditioned_system.eval_iv(t_iv, u_iv)
        # (H3) side: two Jacobian values inside the box differ by at most
        # the entrywise enclosure width, which the derived constants bound
        # through L1 |(sigma,x)| + L2 |alpha|
        width_bound = float(np.max(np.sum(Ju.hi - Ju.lo, axis=-1)
                                   + (Jt.hi - Jt.lo)))
        formula_h3 = 2.0 * (box.bounds.L1 * (du + da * float(np.max(np.abs(v))))
                            + box.bounds.L2 * da)
        assert width_bound <= 2.0 * formula_h3 + 1e-9
        # (H4) side: D_alpha G = (0, D_t F mu + D_u F v) stays within the
        # affine envelope L3 + L4 * alpha
        val = norm_inf(anchor.ext.drift_iv(Ju, Jt)).hi[0]
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
    res = continue_branch(system, 3.0, 1e6 * np.ones(13), to_R=72.0, max_steps=5)
    assert res.stop_reason != "target"


class ToyLinearValidated(ToyLinear):
    """ToyLinear with the stacked interval interface, so segments can be
    certified: t is an IArray of shape (n,) and u one of (n, 1)."""

    def eval_iv(self, t, u):
        r = IArray(u.lo[:, 0], u.hi[:, 0]) - t
        F = IArray(r.lo[:, None], r.hi[:, None])
        n = u.lo.shape[0]
        Ju = IArray(np.ones((n, 1, 1)), np.ones((n, 1, 1)))
        Jt = IArray(-np.ones((n, 1)), -np.ones((n, 1)))
        return F, Ju, Jt

    def lipschitz_M(self, t0, u0, d):
        return (np.zeros(len(d)),) * 4


def test_validate_segment_exact_linear_zero_set():
    """On u = t the residual vanishes and the deltas are limited only by
    the box constraints (all Lipschitz constants are zero, K is finite)."""
    sys_ = ToyLinearValidated()
    box = validate_segment(_anchor(sys_, 0.3, np.array([0.3])), [1e-2])[0]
    assert box.bounds.rho <= 1e-15 and box.bounds.L3 <= 1e-12
    assert box.bounds.L1 <= 1e-300 and box.bounds.L4 <= 1e-300
    # delta_alpha * dir_norm + delta_u saturates the coupling cap
    used = box.delta_alpha * _dir_norm(box) + box.delta_u
    assert used >= 0.99e-2
    assert box.delta_min <= 1e-14


def test_continue_branch_on_linear_toy():
    sys_ = ToyLinearValidated()
    sys_.rscale = 1.0
    sys_.R_of_t = lambda t: t
    res = continue_branch(sys_, 0.5, np.array([0.5]), to_R=-1e9, max_steps=25)
    assert res.stop_reason == "max-steps"
    assert len(res.boxes) == 25 and res.all_linked()
    # the chain walks along u = t
    for b in res.boxes:
        assert abs(b.u[0] - b.t) <= 1e-12


# ---------------------------------------------------------------------------
# the stacked validator: every stage of a stack equals its n = 1 calls
# ---------------------------------------------------------------------------


def _recorded(branch_result, system, n=64):
    """n boxes spread over the seed-0 branch, as the stacked anchor data
    the validator took: B = inv(DG(0)) per box from the evaluation
    `continue_branch` had there, a row of a stacked call (a row does not
    depend on the rows stacked with it)."""
    chain = branch_result.boxes
    picks = list(range(0, len(chain), len(chain) // n))[:n]
    boxes = [chain[k] for k in picks]
    t, u = np.array([b.t for b in boxes]), np.stack([b.u for b in boxes])
    mu, v = np.array([b.mu for b in boxes]), np.stack([b.v for b in boxes])
    A = system.evaluate(t, u)[1]
    B = np.linalg.inv(ExtendedSystem(system, t, u, mu, v).jac_from(A))
    return boxes, t, u, mu, v, B


def _same(x, y):
    return np.array_equal(x.lo, y.lo) and np.array_equal(x.hi, y.hi)


def test_stacked_stages_equal_their_single_segment_calls(branch_result,
                                                         preconditioned_system):
    system = preconditioned_system
    boxes, t, u, mu, v, B = _recorded(branch_result, system)
    d = np.array([b.bounds.ell_x for b in boxes])
    anchor = segment_anchor(system, t, u, mu, v, B)
    F, Ju, Jt = system.eval_iv(IArray.point(t), IArray.point(u))
    drift, extJ = anchor.ext.drift_iv(Ju, Jt), anchor.ext.jac_iv_at_origin(Ju, Jt)
    M = system.lipschitz_M(t, u, d)
    stacked = validate_segment(anchor, d)
    for i, box in enumerate(boxes):
        one = slice(i, i + 1)
        a1 = segment_anchor(system, t[one], u[one], mu[one], v[one], B[one])
        F1, Ju1, Jt1 = system.eval_iv(IArray.point(t[one]), IArray.point(u[one]))
        pairs = [(F, F1), (Ju, Ju1), (Jt, Jt1), (drift, a1.ext.drift_iv(Ju1, Jt1)),
                 (extJ, a1.ext.jac_iv_at_origin(Ju1, Jt1))]
        assert all(_same(type(s)(s.lo[i], s.hi[i]), type(s)(s1.lo[0], s1.hi[0]))
                   for s, s1 in pairs)
        assert (anchor.rho[i], anchor.xi[i], anchor.K[i]) == (a1.rho[0], a1.xi[0], a1.K[0])
        assert [m[i] for m in M] == [m[0] for m in system.lipschitz_M(t[one], u[one], d[one])]
        b1 = validate_segment(a1, d[one])[0]
        assert (stacked[i].bounds, stacked[i].M) == (b1.bounds, b1.M)
        pair = lambda b: (b.delta_alpha, b.delta_u, b.delta_min, b.bound_by)
        assert pair(stacked[i]) == pair(b1)
        # the chain's own box was certified by the same stack
        assert (box.bounds, pair(box)) == (b1.bounds, pair(b1))


def test_stacked_row1_jet_equals_scalar_interval(branch_result, preconditioned_system,
                                                coral):
    """The order-2 jet over the Lipschitz boxes of the recorded boxes, as
    lipschitz_M builds it, row by row against scalar Interval."""
    system = preconditioned_system
    boxes, t, u, *_ = _recorded(branch_result, system)
    rad = system.s * np.array([b.bounds.ell_x for b in boxes])[:, None]
    x_box = IArray.around(system.s * u, rad)
    jet = coral.row1_jet(x_box, order=2)
    for i in range(len(boxes)):
        phis, bx, g, g1 = scalar_row1(coral, IArray(x_box.lo[i], x_box.hi[i]).to_scalars())
        assert all((p.lo[i], p.hi[i]) == (q.lo, q.hi) for p, q in zip(jet.phis, phis))
        assert (bx.lo, bx.hi, g.lo, g.hi) == (jet.bx.lo[i], jet.bx.hi[i],
                                              jet.g.lo[i], jet.g.hi[i])
        assert np.array_equal(jet.g1.lo[i], [gj.lo for gj in g1])
        assert np.array_equal(jet.g1.hi[i], [gj.hi for gj in g1])


def _scalar_extended_constants(M, mu, v):
    """derive_extended_constants for one segment in scalar Interval."""
    I = Interval
    M1, M2, M3, M4 = (I(m) for m in M)
    vn, am = I(float(np.max(np.abs(v)))), I(abs(mu))
    L1 = ((M1 + M3) + (M2 + M4)).hi
    L2 = ((M1 + M3) * vn + (M2 + M4) * am).hi
    L4 = ((M1 * vn + M2 * am) * vn + (M3 * vn + M4 * am) * am).hi
    return L1, L2, L4


def test_extended_constants_equal_scalar_interval(branch_result):
    for b in branch_result.boxes:
        assert (b.bounds.L1, b.bounds.L2, b.bounds.L4) == \
            _scalar_extended_constants(b.M, b.mu, b.v)


def _replayed_run(coral, monkeypatch, max_steps, correct=newton_correct):
    """A seed-0 run of max_steps boxes with `correct` as its corrector, and
    every corrector call it made: (anchor t0, u0, direction mu, v, alpha,
    keywords, sigma, x)."""
    from certibif import continuation as cont
    calls = []

    def recorded(ext, alpha, **kw):
        out = correct(ext, alpha, **kw)
        calls.append((float(ext.t0), ext.u0.copy(), float(ext.mu), ext.v.copy(), alpha, kw)
                     + out[:2])
        return out

    monkeypatch.setattr(cont, "newton_correct", recorded)
    system, t0, u0 = branch_start(coral, 300.0)
    res = continue_branch(system, t0, u0, to_R=72.0, max_steps=max_steps)
    monkeypatch.undo()
    return system, res, calls


def _wave_starts(res, calls) -> list:
    """(index of the box it was placed from, anchors placed) per recorded
    wave."""
    at = {(b.t, b.u.tobytes()): b.index for b in res.boxes}
    return [(at[(t0, u0.tobytes())], len(alpha)) for t0, u0, _, _, alpha, *_ in calls]


def _cuts(starts) -> int:
    """The waves of `_wave_starts` after which the next one did not start
    from the last anchor placed."""
    return sum(k2 != k + n for (k, n), (k2, _) in zip(starts, starts[1:]))


def test_stacked_links_and_rounding_gaps(coral, monkeypatch):
    """400 seed-0 boxes replayed.  Each wave is placed from the last
    accepted box at alpha_j = j h, h = _WAVE_SPACING ALPHA_FRAC delta_alpha
    of that box; its stacked chord solve returns the same bits again, and
    every box after the start sits, bit for bit, at a point one of them
    reached.  The step out of each box is the float projection of the next
    anchor on its tangent; the stacked rounding gaps of those steps equal
    the scalar Interval loop, and the stacked link check equals its n = 1
    calls."""
    from certibif import continuation as cont
    system, res, calls = _replayed_run(coral, monkeypatch, 400)
    boxes = res.boxes
    assert len(boxes) == 400 and res.all_linked() and res.replans > 0
    starts = _wave_starts(res, calls)
    assert starts[0][0] == 0 and _cuts(starts) == res.replans
    reached = set()
    for (k, n), (t0, u0, mu, v, alpha, kw, sigma, x) in zip(starts, calls):
        h = cont._WAVE_SPACING * ALPHA_FRAC * boxes[k].delta_alpha
        assert np.array_equal(alpha, h * np.arange(1, n + 1))
        ext = ExtendedSystem(system, t0, u0, mu, v)
        sigma2, x2, _ = newton_correct(ext, alpha, **kw)
        assert np.array_equal(sigma2, sigma) and np.array_equal(x2, x)
        t, u = ext.point(alpha, sigma, x)
        reached.update(zip(t.tolist(), (ui.tobytes() for ui in u)))
    assert all((b.t, b.u.tobytes()) in reached for b in boxes[1:])
    prev, nxt = boxes[:-1], boxes[1:]
    tau = np.array([np.concatenate([[b.mu], b.v]) for b in prev])
    dz = np.array([np.concatenate([[n.t - b.t], n.u - b.u]) for b, n in zip(prev, nxt)])
    alpha = (tau * dz).sum(axis=1) / (tau * tau).sum(axis=1)
    corr = dz - alpha[:, None] * tau
    assert list(alpha) == [b.alpha_step for b in prev]
    picks = list(range(0, len(prev), len(prev) // 64))[:64]
    steps = [(prev[k].t, prev[k].u, alpha[k], prev[k].mu, prev[k].v, corr[k, 0], corr[k, 1:],
              nxt[k].t, nxt[k].u) for k in picks]
    cols = [np.array(c) for c in zip(*steps)]
    gap = _anchor_rounding_gap(*cols)
    assert list(gap) == [_scalar_rounding_gap(*st) for st in steps]
    pb = [prev[k] for k in picks]
    cn = [float(np.abs(corr[k]).max()) for k in picks]
    dmin = [nxt[k].delta_min for k in picks]
    links = check_link(pb, cols[2], cn, dmin, gap)
    assert links.all()
    assert list(links) == [check_link([p], [a], [c], [m], [g])[0]
                           for p, a, c, m, g in zip(pb, cols[2], cn, dmin, gap)]


def test_stacked_stability_labels_equal_per_matrix_labels(branch_result,
                                                          preconditioned_system, coral):
    system = preconditioned_system
    Jx = np.stack([coral.jac_x(system.lam_of_t(b.t), system.s * b.u) for b in branch_result.boxes])
    labels = classify_stability(Jx)
    assert labels == [classify_stability(J[None])[0] for J in Jx]
    assert labels == [b.stability for b in branch_result.boxes]


def test_forced_misprediction_replans_and_still_links(coral, monkeypatch):
    """Every fifth wave's anchors past its middle are placed 50% further
    out, so the step into the first of them overshoots ALPHA_FRAC of its
    box: the wave is cut there, the next wave is placed from the last box
    kept, and the branch still links to the target.  `replans` counts the
    cuts."""
    waves = iter(range(10 ** 9))

    def overshoot(ext, alpha, **kw):
        if not (len(alpha) >= 4 and next(waves) % 5 == 2):
            return newton_correct(ext, alpha, **kw)
        far = alpha.copy()
        far[len(alpha) // 2:] *= 1.5
        sigma, x, ev = newton_correct(ext, far, **kw)
        # the same points, as corrections at the alphas continue_branch placed
        return sigma + (far - alpha) * ext.mu, x + (far - alpha)[:, None] * ext.v, ev

    _, res, calls = _replayed_run(coral, monkeypatch, 8000, correct=overshoot)
    assert res.stop_reason == "target" and res.all_linked()
    assert res.replans >= 10 and res.boxes_discarded > 0
    starts = _wave_starts(res, calls)
    # each wave starts from a box that the wave before it appended
    assert all(k < k2 <= k + n for (k, n), (k2, _) in zip(starts, starts[1:]))
    assert _cuts(starts) == res.replans
    assert all(b.alpha_step <= ALPHA_FRAC * b.delta_alpha for b in res.boxes[:-1])


def test_unplaced_wave_is_cut_at_its_first_step(coral, monkeypatch):
    """A wave whose stacked corrector fails is placed again from the same
    box with one anchor, counted as a replan, and the branch goes on
    linked."""
    waves = iter(range(10 ** 9))
    events = []

    def failing(ext, alpha, **kw):
        fail = len(alpha) > 1 and next(waves) % 3 == 1
        events.append((fail, float(ext.t0), len(alpha)))
        if fail:
            raise CorrectorFailed("no convergence (forced)")
        return newton_correct(ext, alpha, **kw)

    _, res, calls = _replayed_run(coral, monkeypatch, 300, correct=failing)
    assert res.stop_reason == "max-steps" and len(res.boxes) == 300 and res.all_linked()
    failed = [i for i, (fail, *_) in enumerate(events) if fail]
    assert len(failed) >= 3
    assert all(events[i + 1] == (False, events[i][1], 1) for i in failed)
    assert res.replans == len(failed) + _cuts(_wave_starts(res, calls))


def test_wave_unplaced_twice_ends_the_branch(coral, monkeypatch):
    """When the one-anchor wave cannot be placed either, the branch stops
    with the corrector's failure after the boxes it has."""
    from certibif import continuation as cont
    calls = iter(range(10 ** 9))

    def failing(ext, alpha, **kw):
        if next(calls) >= 2:
            raise CorrectorFailed("no convergence (forced)")
        return newton_correct(ext, alpha, **kw)

    monkeypatch.setattr(cont, "newton_correct", failing)
    system, t0, u0 = branch_start(coral, 300.0)
    res = continue_branch(system, t0, u0, to_R=72.0, max_steps=8000)
    assert res.stop_reason == "corrector-failed: no convergence (forced)"
    assert next(calls) == 4 and res.replans >= 1 and res.all_linked()


def test_link_failing_at_a_wave_first_anchor_ends_the_branch(coral, monkeypatch):
    """Links into box 150 and later fail.  The wave holding box 150 is cut
    there; the next wave, placed from box 149, fails to link at its first
    anchor, which a retry would place again, so the branch stops with
    `link-failed` and that box, unlinked, last."""
    from certibif import continuation as cont
    link, calls = cont.check_link, []

    def failing(prev, *a):
        calls.append(len(prev))
        assert len(calls) <= 20, "the branch keeps placing the box that fails to link"
        return link(prev, *a) & (np.array([b.index for b in prev]) < 149)

    monkeypatch.setattr(cont, "check_link", failing)
    system, t0, u0 = branch_start(coral, 300.0)
    res = continue_branch(system, t0, u0, to_R=72.0, max_steps=8000)
    assert res.stop_reason == "link-failed" and len(res.boxes) == 151
    *linked, before, last = res.boxes
    assert all(b.linked_to_previous for b in linked[1:] + [before])
    assert not last.linked_to_previous and last.index == 150
    assert 0.0 < before.alpha_step <= ALPHA_FRAC * before.delta_alpha


# ---------------------------------------------------------------------------
# the float planner: one evaluation per point
# ---------------------------------------------------------------------------


def test_bordered_tangent_matches_svd_tangent(branch_result, preconditioned_system):
    """After the first box the tangent solves [prev; A] tau = e_0; on 64
    recorded anchors it equals the SVD null vector, oriented along the
    previous tangent, to 1e-12 in max norm."""
    system, boxes = preconditioned_system, branch_result.boxes
    tau = lambda mu_v: np.concatenate([mu_v[0], mu_v[1][0]])
    for k in range(1, len(boxes), len(boxes) // 64)[:64]:
        b, prev = boxes[k], boxes[k - 1]
        tprev = np.concatenate([[prev.mu], prev.v])
        A = system.evaluate(np.array([b.t]), b.u[None])[1]
        tb, ts = tau(tangent_estimate(A, tprev)), tau(tangent_estimate(A))
        if float(tprev @ ts) < 0.0:
            ts = -ts
        assert float(tprev @ tb) > 0.0
        assert np.max(np.abs(tb - ts)) <= 1e-12, k


def test_bordered_tangent_singular_border():
    # prev orthogonal to the null vector (1, 1) of ToyLinear: [prev; A] is singular
    A = ToyLinear().evaluate(np.zeros(1), np.zeros((1, 1)))[1]
    with pytest.raises(TangentUndefined):
        tangent_estimate(A, prev=np.array([1.0, -1.0]))


def test_planner_evaluates_each_point_once(coral, monkeypatch):
    """200 seed-0 boxes: the system is evaluated once at the start and
    otherwise only by the corrector, each chord iteration of a wave taking
    its m rows as one stacked call; the corrector's last evaluation is the
    anchors' own (tangent, B and stability label), and a wave of up to 64
    anchors converges within 11 chord steps."""
    from certibif import continuation as cont
    rows = {"evaluate": 0}
    calls = []
    evaluate, value, correct = (CoralBranchSystem.evaluate, ExtendedSystem.value,
                                cont.newton_correct)

    def counted_evaluate(self, t, u):
        rows["evaluate"] += int(np.size(t))
        return evaluate(self, t, u)

    def counted_value(self, alpha, z):
        calls[-1][1].append(int(np.size(alpha)))
        return value(self, alpha, z)

    def counted_correct(ext, alpha, **kw):
        calls.append((int(np.size(alpha)), []))
        return correct(ext, alpha, **kw)

    monkeypatch.setattr(CoralBranchSystem, "evaluate", counted_evaluate)
    monkeypatch.setattr(ExtendedSystem, "value", counted_value)
    monkeypatch.setattr(cont, "newton_correct", counted_correct)
    system, t0, u0 = branch_start(coral, 300.0)
    res = continue_branch(system, t0, u0, to_R=72.0, max_steps=200)
    assert res.stop_reason == "max-steps" and len(res.boxes) == 200 and res.all_linked()
    assert any(m > 1 for m, _ in calls)
    assert all(set(iters) == {m} and 2 <= len(iters) <= 12 for m, iters in calls)
    assert rows["evaluate"] == 1 + sum(m * len(iters) for m, iters in calls)


def test_evaluate_equals_map_compositions(branch_result, preconditioned_system, coral):
    """On 64 recorded anchors, each row of one stacked evaluation matches
    the one-state references to 8 ulps: F = f/s - u from `step`, [D_t F |
    D_u F] from `jac_lam` and `CoralMap.jac_x`, rescaled, and D_x f from
    `CoralMap.jac_x` (only the summation order of q.x and b.x and np.exp
    against math.exp differ).  D_x f is compared in the coordinates u = x/s
    of the branch system, where it is the similar matrix diag(1/s) D_x f
    diag(s); in raw coordinates the cancellation in its first row puts the
    same rounding at up to 10 ulps of the row's largest entry."""
    system = preconditioned_system
    boxes, t, u, *_ = _recorded(branch_result, system)
    stacked = system.evaluate(t, u)
    ct, s = system.lam_of_t(1.0), system.s
    similar = s[None, :] / s[:, None]
    ulps = lambda diff, scale: float(np.max(np.abs(diff) / scale)) / 2.0 ** -52
    for i, (ti, ui) in enumerate(zip(t.tolist(), u)):
        lam, x = system.lam_of_t(ti), s * ui
        Jx = coral.jac_x(lam, x)
        A = np.empty((system.d, system.d + 1))
        A[:, 0] = ct * jac_lam(coral, lam, x) / s
        A[:, 1:] = Jx * similar - np.eye(system.d)
        F = step(coral, lam, x) / s - ui
        assert ulps(stacked[0][i] - F, np.maximum(np.abs(F + ui), 1.0)) <= 8   # F = f/s - u
        assert ulps(stacked[1][i] - A, np.maximum(np.abs(A), 1.0)) <= 8
        assert ulps((stacked[2][i] - Jx) * similar, np.maximum(np.abs(Jx * similar), 1.0)) <= 8


def test_stacked_evaluate_rows_match_one_point_calls(branch_result, preconditioned_system):
    """On 64 recorded anchors a row does not depend on the rows stacked
    with it: a one-row stack, and any run of rows, give its bits again."""
    system = preconditioned_system
    boxes, t, u, *_ = _recorded(branch_result, system)
    stacked = system.evaluate(t, u)
    for i in range(len(t)):
        one = system.evaluate(t[i:i + 1], u[i:i + 1])
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(one, stacked))
    some = system.evaluate(t[5:12], u[5:12])
    assert all(np.array_equal(a, b[5:12]) for a, b in zip(some, stacked))


def test_extended_jacobian_block_structure(branch_result, preconditioned_system):
    """On 64 recorded anchors the extended Jacobian borders the stack's
    [D_t F | D_u F] with (mu, v), inside its interval enclosure."""
    system = preconditioned_system
    boxes, t, u, mu, v, _ = _recorded(branch_result, system)
    A = system.evaluate(t, u)[1]
    ext = ExtendedSystem(system, t, u, mu, v)
    J = ext.jac_from(A)
    assert np.array_equal(J[:, 0, 0], mu) and np.array_equal(J[:, 0, 1:], v)
    assert np.array_equal(J[:, 1:], A)
    _, Ju, Jt = system.eval_iv(IArray.point(t), IArray.point(u))
    Jiv = ext.jac_iv_at_origin(Ju, Jt)
    assert np.all(Jiv.lo <= J + 1e-12) and np.all(Jiv.hi >= J - 1e-12)
