import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from certibif.bifurcation import NsSystem, SnSystem, transcritical_analysis
from certibif.cift import CiftBounds
from certibif.continuation import (ALPHA_FRAC, BranchBox, _Wave,
                                   _anchor_rounding_gap, _leslie_outside_counts, _rows, _trend,
                                   _validate,
                                   ConstantRows, CoralBranchSystem, ExtendedSystem,
                                   branch_start,
                                   check_link, classify_stability,
                                   continue_branch,
                                   derive_extended_constants, newton_correct,
                                   nontrivial_fixed_point, stability_labels,
                                   tangent_estimate, validate_segment)
from certibif.errors import (CorrectorFailed, NotInvertibleEvidence, TangentUndefined,
                             ValidationFailed)
from certibif.interval import Interval, MidRad, float_matmat, up_sum
from certibif.model import CoralMap, FixedPointReduction, phi

from helpers import (eigvals_labels, extended_constants_reference, jac_lam, leslie_matrices,
                     leslie_pair, link_sides_reference, map_F, mp_branch_F, mp_coeffs, mp_fd_jacobian,
                     mp_refine_branch_point, rounding_gap_reference, special_stack, step)
import mpmath as mp


# the corrector tolerance of the toy and one-anchor corrector tests
_TOL = 1e-13


# the constant rows of a one-dimensional branch system: none
_NO_ROWS = ConstantRows(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))


class ToyLinear:
    """F(t, u) = u - t (scalar state): exact linear zero set u = t.  Like
    every branch system, it evaluates a stack of points, to F and row 1 of
    [D_t F | D_u F], and it has d - 1 = 0 constant rows."""

    d = 1
    rscale = 1.0
    rows = _NO_ROWS

    def evaluate(self, t, u):
        t = np.asarray(t, dtype=float)
        A1 = np.broadcast_to(np.array([-1.0, 1.0]), t.shape + (2,)).copy()
        return u[..., :1] - t[..., None], A1


class ToyFold:
    """F(t, u) = u^2 - t: fold at the origin."""

    d = 1
    rows = _NO_ROWS

    def evaluate(self, t, u):
        A1 = np.stack([-np.ones_like(u[..., 0]), 2.0 * u[..., 0]], axis=-1)
        return u[..., :1] ** 2 - np.asarray(t, dtype=float)[..., None], A1


def _tangent(system, t, u, prev=None):
    """The tangent (mu, v) at the one point (t, u), as a stack of one."""
    mu, v = tangent_estimate(system.rows, system.evaluate(np.array([t]), u[None])[1], prev=prev)
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
        """Row 1 vanishes and the constant row is (0, 0, -1): rank 1."""
        d = 2
        row = np.array([[0.0, 0.0, -1.0]])
        rows = ConstantRows(row, row, row)

        def evaluate(self, t, u):
            return np.zeros((1, 2)), np.zeros((1, 3))

    with pytest.raises(TangentUndefined):
        _tangent(Degenerate(), 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# extended system and corrector
# ---------------------------------------------------------------------------


def test_extended_G_at_origin_is_residual(preconditioned_system):
    """At alpha = 0, z = 0 each row of G is (0, F at that row's anchor)."""
    sys_ = preconditioned_system
    t0, u0 = np.array([3.0, 2.5, 2.0]), np.ones((3, 13)) * [[1.0], [0.9], [1.1]]
    ext = ExtendedSystem(sys_, t0, u0, [-1.0, 0.5, 1.0], np.zeros((3, 13)))
    G, _ = ext.value(np.zeros(3), np.zeros((3, 14)))
    assert (G[:, 0] == 0.0).all()
    assert np.allclose(G[:, 1:], sys_.evaluate(t0, u0)[0])


def test_extended_G_first_row_is_orthogonality(preconditioned_system):
    rng = np.random.default_rng(0)
    mu, v = rng.normal(size=3), rng.normal(size=(3, 13))
    ext = ExtendedSystem(preconditioned_system, [3.0, 2.9, 2.8], np.ones((3, 13)), mu, v)
    z = rng.normal(size=(3, 14))
    G = ext.value(np.zeros(3), z)[0]
    for i in range(3):
        assert math.isclose(G[i, 0], mu[i] * z[i, 0] + v[i] @ z[i, 1:], rel_tol=1e-12)


def test_corrector_stays_at_exact_zero():
    sys_ = ToyLinear()
    ext = ExtendedSystem(sys_, [1.0], [[1.0]], [1.0], [[1.0]])
    sigma, x, _ = newton_correct(ext, np.zeros(1), tol=_TOL)
    assert abs(sigma[0]) <= 1e-14 and abs(x[0, 0]) <= 1e-14


def test_corrector_linear_single_step():
    sys_ = ToyLinear()
    ext = ExtendedSystem(sys_, [0.0], [[0.5]], [1.0], [[0.0]])
    sigma, x, _ = newton_correct(ext, np.zeros(1), tol=_TOL, max_iter=2)
    t, u = 0.0 + sigma[0], 0.5 + x[0, 0]
    assert abs(u - t) <= 1e-14


def test_corrector_orthogonality(preconditioned_system, coral):
    red = FixedPointReduction(coral)
    x0 = red.full_point(max(red.solve(3.0)))
    t0, u0 = preconditioned_system.from_raw_R(3.0 * coral.cf.ba, x0)
    mu, v = _tangent(preconditioned_system, t0, u0)
    ext = ExtendedSystem(preconditioned_system, [t0], [u0], [mu], [v])
    sigma, x, _ = newton_correct(ext, np.array([1e-4]), tol=_TOL)
    sigma, x = sigma[0], x[0]
    dirn = max(abs(mu), np.max(np.abs(v)))
    corr = max(abs(sigma), np.max(np.abs(x)))
    assert abs(mu * sigma + v @ x) <= 1e-12 * dirn * corr + 1e-300


def test_corrector_failure_reported():
    sys_ = ToyFold()
    # orthogonality pins sigma = 0, so the corrector chases u^2 + 1 = 0
    ext = ExtendedSystem(sys_, [-1.0], [[0.5]], [1.0], [[0.0]])
    with pytest.raises(CorrectorFailed):
        newton_correct(ext, np.zeros(1), tol=_TOL, max_iter=6)


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


def _box(**kw):
    base = dict(index=0, t=0.0, u=np.zeros(1), mu=1.0, v=np.zeros(1),
                delta_alpha=1e-3, delta_u=1e-5, delta_min=1e-12,
                bounds=CiftBounds(rho=0.0, K=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0, ell_x=1.0),
                M=(0.0,) * 4)
    base.update(kw)
    return BranchBox(**base)


def _link(b, alpha, corr_norm, next_delta_min) -> bool:
    """check_link for the stack of one link out of box b, with no rounding
    gap and no residual."""
    return check_link(np.append(b.mu, b.v)[None], [b.delta_alpha], [b.delta_u], [alpha],
                      [corr_norm], [next_delta_min], [0.0], [0.0])[0]


def test_check_link_accepts_comfortable_margins():
    assert _link(_box(), 1e-4, 1e-7, 0.0)


def test_check_link_strict_at_alpha_boundary():
    b = _box()
    assert not _link(b, b.delta_alpha, 0.0, 0.0)


def test_check_link_norm_margin():
    assert not _link(_box(), 1e-4, 9.99e-6, 1e-7)


def test_check_link_bounds_the_projection_of_the_next_ball():
    """A point a + alpha dir + e of the next accuracy ball (|e| <= delta_min')
    lies at alpha + <dir, e>/<dir, dir> along the box's direction, up to
    |dir|_1/|dir|_2^2 delta_min' = 2.37 delta_min' past alpha for dir = (1,
    0.211, ..., 0.211).  An exact point of the ball that leaves the box's
    segment is refused, though |alpha| + delta_min' < delta_alpha holds
    (|dir|_inf = 1)."""
    from fractions import Fraction
    v = np.full(13, 0.211)
    b = _box(mu=1.0, v=v, delta_alpha=1e-3, delta_u=1e-5)
    dmin = 1e-6
    alpha = b.delta_alpha - 2.0 * dmin
    assert alpha + dmin < b.delta_alpha
    direction = [Fraction(1.0)] + [Fraction(float(c)) for c in v]
    e = [Fraction(dmin)] * 14                       # a corner of the ball
    shift = sum(c * ec for c, ec in zip(direction, e)) / sum(c * c for c in direction)
    assert Fraction(alpha) + shift > Fraction(b.delta_alpha)
    assert not _link(b, alpha, 0.0, dmin)
    # a ball a tenth as large stays on the segment and links
    assert _link(b, alpha, 0.0, 0.1 * dmin)


def test_check_link_bounds_the_offset_of_the_next_ball():
    """A point a + alpha dir + e of the next accuracy ball is a + (alpha +
    D) dir + w with D = <dir, e>/<dir, dir> and w = e - D dir off box k's
    direction.  For dir = (1, 0.211, ..., 0.211) and the corner e =
    delta_min' (1, ..., 1), |w|_inf = 1.37 delta_min'.  A tube of radius
    1.2 delta_min' does not hold that point, so the link is refused,
    though |c| + delta_min' < delta_u: only the lemma's D |dir|_inf term
    keeps the ball out."""
    from fractions import Fraction
    v = np.full(13, 0.211)
    dmin = 1e-6
    b = _box(mu=1.0, v=v, delta_alpha=1e-3, delta_u=1.2 * dmin)
    direction = [Fraction(1.0)] + [Fraction(float(c)) for c in v]
    e = [Fraction(dmin)] * 14                       # a corner of the ball
    D = sum(c * ec for c, ec in zip(direction, e)) / sum(c * c for c in direction)
    assert max(abs(ec - D * c) for ec, c in zip(e, direction)) > Fraction(b.delta_u)
    assert 0.0 + dmin < b.delta_u
    assert not _link(b, 1e-4, 0.0, dmin)


def test_links_count_the_rounding_gap_of_the_stored_anchor():
    """The next anchor is stored as the float (1000, 1000) + 770.4 (1,
    0.7).  The float projection alpha of the step on box k's direction
    leaves a float correction of exactly 0, but the stored anchor lies
    3.8e-14 off that direction, exactly.  It is a point of its own
    accuracy ball, so in a tube of radius 1e-14 the link must be refused;
    only the rounding gap and the residual that `_links` passes to
    `check_link` refuse it."""
    from fractions import Fraction
    from certibif.continuation import _links, _Wave
    prev, tau = np.array([1000.0, 1000.0]), np.array([1.0, 0.7])
    nxt = prev + 770.4 * tau
    tip = _box(t=prev[0], u=prev[1:], mu=tau[0], v=tau[1:], delta_alpha=1e4, delta_u=1e-14)
    wave = _Wave(1, ExtendedSystem(None, nxt[:1], nxt[None, 1:], tau[:1], tau[None, 1:]),
                 None, [None])
    alpha, corr_norm, ok = _links(tip, wave, [_box(delta_min=1e-30)])
    assert corr_norm.tolist() == [0.0]
    r = [Fraction(z1) - Fraction(z0) - Fraction(alpha[0]) * Fraction(d)
         for z1, z0, d in zip(nxt.tolist(), prev.tolist(), tau.tolist())]
    T = [Fraction(d) for d in tau.tolist()]
    D = sum(d * ri for d, ri in zip(T, r)) / sum(d * d for d in T)
    assert max(abs(ri - D * d) for ri, d in zip(r, T)) > Fraction(tip.delta_u)
    assert ok.tolist() == [False]


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


def _segment(system, t0, u0, decreasing=False) -> tuple:
    """(ext, B) of the stack of one segment at (t0, u0) along its SVD
    tangent, turned to decreasing t if `decreasing`, with B the
    validator's own inverse of DG(0)."""
    t, u = np.array([t0]), u0[None]
    A1 = system.evaluate(t, u)[1]
    mu, v = tangent_estimate(system.rows, A1)
    if decreasing and mu[0] > 0:
        mu, v = -mu, -v
    ext = ExtendedSystem(system, t, u, mu, v)
    return ext, ext.inverse(A1)


def _point(a) -> MidRad:
    """The `MidRad` point a (r = 0), as the validator passes its anchors."""
    a = np.asarray(a, dtype=float)
    return MidRad(a, np.zeros_like(a))


def _at(system, t: MidRad, u: MidRad) -> tuple:
    """`jet_iv`'s F and row 1 of [D_t F | D_u F] at the stacked points or
    boxes t, u, with no Lipschitz box."""
    return system.jet_iv(t, u, np.empty(0), np.empty((0, system.d)), np.empty(0))[0]


def test_validate_segment_coral(coral):
    system, t0, u0 = branch_start(coral, 300.0)
    box = validate_segment(*_segment(system, t0, u0, decreasing=True), [1e-4], 0)[0]
    assert box.delta_alpha > 0 and box.delta_u > 0
    assert box.delta_min <= 1e-12
    assert box.delta_min < box.delta_u
    # coupled box constraint holds rigorously
    assert box.delta_alpha + box.delta_u <= 1e-4 * (1 + 1e-12)


@pytest.mark.parametrize("d, refusal", [
    (1e-13, "2 K rho = 2.510053813801834e-13 >= ell_x = 1e-13"),
    (30.0, "4 K^2 rho L1 = inf >= 1"),
], ids=["ell_x", "L1"])
def test_validate_segment_names_the_refusing_gate(coral, d, refusal):
    """A segment that fails an accuracy gate is refused by that gate's
    inequality, as validate_zero names it, not by the planned
    delta_alpha; the L1 gate overflows to inf without a warning."""
    system, t0, u0 = branch_start(coral, 300.0)
    (got,) = validate_segment(*_segment(system, t0, u0, decreasing=True), [d], 0)
    assert isinstance(got, ValidationFailed)
    assert str(got) == refusal


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_validate_segment_requires_unit_directions(coral, scale):
    """A direction (mu, v) whose max norm is not 1 is refused with a
    ValueError naming its row: in a stack of one, and at row 2 of a stack
    of three whose other rows are the unit tangent."""
    system, t0, u0 = branch_start(coral, 300.0)
    ext, B = _segment(system, t0, u0, decreasing=True)
    scaled = ExtendedSystem(system, ext.t0, ext.u0, scale * ext.mu, scale * ext.v)
    with pytest.raises(ValueError, match=r"\bof row 0\b"):
        validate_segment(scaled, B, [1e-4], 0)
    rows = [0, 0, 0]
    stack = ExtendedSystem(system, ext.t0[rows], ext.u0[rows], ext.mu[rows], ext.v[rows].copy())
    stack.mu[2], stack.v[2] = scale * stack.mu[2], scale * stack.v[2]
    with pytest.raises(ValueError, match=r"\bof row 2\b"):
        validate_segment(stack, B[rows], [1e-4] * 3, 0)


def _labelled_pairs(system, A, monkeypatch) -> tuple:
    """The Leslie pairs (row 1, subdiagonal) of D_u f that `stability_labels`
    hands to `classify_stability` for the stack A of `evaluate`'s rows 1,
    and the labels it returns."""
    from certibif import continuation as cont
    pairs = []
    with monkeypatch.context() as m:
        m.setattr(cont, "classify_stability",
                  lambda row1, sub: pairs.append((row1, sub)) or classify_stability(row1, sub))
        labels = stability_labels(system, A)
    return pairs[0], labels


def _rows1_at(system, boxes) -> np.ndarray:
    """`evaluate`'s rows 1 at the boxes' points, as one stack."""
    return system.evaluate(np.array([b.t for b in boxes]), np.stack([b.u for b in boxes]))[1]


def test_classify_stability_trivial_branch(coral, monkeypatch):
    """Below R* = 72.22 the trivial branch is stable, above it it is not;
    the raw system's D_u f there is D_x f, a Leslie matrix with first row
    lambda phi(0) b and the survival rates S below."""
    raw = CoralBranchSystem(coral)
    (row1, sub), labels = _labelled_pairs(
        raw, raw.evaluate(np.array([50.0, 100.0]), np.zeros((2, 13)))[1], monkeypatch)
    assert labels == ["stable", "unstable(1)"]
    assert sub.tolist() == list(coral.params.S)
    assert labels == eigvals_labels(leslie_matrices(row1, sub))
    assert classify_stability(*leslie_pair(np.stack(
        [coral.jac_x(R / coral.cf.ba, np.zeros(13)) for R in (50.0, 100.0)]))) == labels


def test_classify_stability_past_ns(coral):
    red = FixedPointReduction(coral)
    lam = 200.0 / coral.cf.ba
    x = red.full_point(max(red.solve(lam)))
    row1, sub = leslie_pair(coral.jac_x(lam, x)[None])
    label = classify_stability(row1, sub)
    assert label[0].startswith("unstable") and label == eigvals_labels(leslie_matrices(row1, sub))


def test_schur_cohn_labels_equal_lapack_labels(coral, branch_result, preconditioned_system,
                                               raw_branch_result, monkeypatch):
    """The Schur-Cohn counts on Leslie pairs give LAPACK's labels on the
    dense matrices, with no row left to the eigenvalue fallback: D_x f on
    the seed-0 branch and the twenty raw-system boxes, the scaled D_u f
    pairs that `stability_labels` builds on both, and the raw system's
    pairs (as `diagram` labels them) at 400 trivial points on each side of
    R* and on a nontrivial diagram sample."""
    raw = CoralBranchSystem(coral)
    R_star = transcritical_analysis(coral).R_star
    red = FixedPointReduction(coral)
    zero = np.zeros((400, coral.d))
    x1s = np.linspace(3500.0 / red.cP, 1e-6, 400).tolist()
    dense = lambda system, boxes: leslie_pair(np.stack(
        [coral.jac_x(system.lam_of_t(b.t), system.s * b.u) for b in boxes]))
    label_pair = lambda system, A: _labelled_pairs(system, A, monkeypatch)[0]
    pairs = {
        "branch": dense(preconditioned_system, branch_result.boxes),
        "raw branch": dense(raw, raw_branch_result.boxes),
        "branch D_u f": label_pair(preconditioned_system,
                                   _rows1_at(preconditioned_system, branch_result.boxes)),
        "raw branch D_u f": label_pair(raw, _rows1_at(raw, raw_branch_result.boxes)),
        "trivial below R*": label_pair(raw, raw.evaluate(
            np.linspace(1e-3, R_star.lo, 400, endpoint=False), zero)[1]),
        "trivial above R*": label_pair(raw, raw.evaluate(
            np.linspace(R_star.hi, 300.0, 401)[1:], zero)[1]),
        "nontrivial": label_pair(raw, raw.evaluate(
            np.array([red.branch_R(x1) for x1 in x1s]),
            np.stack([red.full_point(x1) for x1 in x1s]))[1]),
    }
    seen = set()
    for name, (row1, sub) in pairs.items():
        sub = np.broadcast_to(sub, (len(row1), coral.d - 1))
        assert not _leslie_outside_counts(row1, sub)[1].any(), name
        labels = classify_stability(row1, sub)
        assert labels == eigvals_labels(leslie_matrices(row1, sub)), name
        seen.update(labels)
    assert {"stable", "unstable(1)", "unstable(2)"} <= seen


def test_labels_at_the_certified_anchors_take_the_lapack_fallback(coral, sn_cert, ns_cert):
    """At the SN and NS anchors an eigenvalue lies within rounding of the
    unit circle: the Schur-Cohn count of the Leslie pair is ambiguous
    there, and the label is LAPACK's on the dense matrix, alone and in a
    stack."""
    for system, cert in ((SnSystem(coral), sn_cert), (NsSystem(coral), ns_cert)):
        x, lam = system.x_lam(np.array(cert.anchor))
        J = coral.jac_x(lam, x)
        assert np.min(np.abs(np.abs(np.linalg.eigvals(J)) - 1.0)) < 1e-12
        assert _leslie_outside_counts(*leslie_pair(J[None]))[1].tolist() == [True]
        assert classify_stability(*leslie_pair(J[None])) == [eigvals_labels(J)]
        Js = np.stack([coral.jac_x(lam, np.zeros(coral.d)), J])
        assert _leslie_outside_counts(*leslie_pair(Js))[1].tolist() == [False, True]
        assert classify_stability(*leslie_pair(Js)) == eigvals_labels(Js)


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
    link's alpha part, |alpha_k| + delta_min_{k+1} < delta_alpha_k,
    keeps 1 - ALPHA_FRAC of the segment for a term 1e4 times smaller, and
    its z part uses a tenth of delta_u at most."""
    boxes = branch_result.boxes
    assert all(b.alpha_step <= ALPHA_FRAC * b.delta_alpha for b in boxes[:-1])
    pairs = list(zip(boxes[:-1], boxes[1:]))
    alpha_part = max(n.delta_min / b.delta_alpha for b, n in pairs)
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
            ru, rt = (b.bounds.ell_x * (1.0 - 2.0 ** -20),) * 2
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
        ext, B = _segment(preconditioned_system, t0, u0)
        mu, v = ext.mu[0], ext.v[0]
        box = validate_segment(ext, B, [1e-4], 0)[0]
        da, du = box.delta_alpha, box.delta_u
        # hull of every point reachable within the slanted box
        r_t = da * abs(mu) + du
        r_u = da * np.abs(v) + du
        t_iv = MidRad(np.array([t0]), np.array([r_t]))
        u_iv = MidRad(u0[None], r_u[None])
        _, J1 = _at(preconditioned_system, t_iv, u_iv)
        # (H3) side: two Jacobian values inside the box differ by at most
        # the entrywise enclosure width, which the derived constants bound
        # through L1 |(sigma,x)| + L2 |alpha|; rows 2.. are constant
        widths = np.concatenate([np.sum(2.0 * J1.r, axis=-1),
                                 np.sum(2.0 * ext.sys.rows.R, axis=-1)])
        width_bound = float(np.max(widths))
        formula_h3 = 2.0 * (box.bounds.L1 * (du + da * float(np.max(np.abs(v))))
                            + box.bounds.L2 * da)
        assert width_bound <= 2.0 * formula_h3 + 1e-9
        # (H4) side: D_alpha G = (0, D_t F mu + D_u F v) stays within the
        # affine envelope L3 + L4 * alpha
        val = ext.origin_bounds(J1, B)[1][0]
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
        args = (np.append(t, u), float(alpha), np.append(mu, v), np.append(sigma, x),
                np.append(t_next, u_next))
        assert _anchor_rounding_gap(*args) == rounding_gap_reference(*args)


def test_anchor_rounding_gaps_equal_scalar_interval_rows_at_special_values():
    """A stack of 600 steps whose points hold zeros of both signs,
    subnormals, floats near the largest (sums that overflow) and infinite
    corrections: each row's gap equals the scalar Interval loop bit for
    bit."""
    rng = np.random.default_rng(41)
    n, d = 600, 14
    signs = lambda: rng.choice([-1.0, 1.0], (n, d))
    prev, tau, new = (signs() * special_stack(rng, n * d, inf=False).reshape(n, d)
                      for _ in range(3))
    corr = signs() * special_stack(rng, n * d, lo=-320.0, hi=0.0).reshape(n, d)
    finite = np.isfinite(corr)        # an infinite correction meets finite terms only
    for a in (prev, tau, new):
        a[~finite] = np.minimum(np.abs(a[~finite]), 1.0)
    prev[rng.random((n, d)) < 0.05] = -0.0
    for a in (prev, tau, corr, new):      # all-zero steps
        a[:10] = rng.choice([-0.0, 0.0], (10, d))
    alpha = np.where(rng.random(n) < 0.1, 0.0, rng.choice([-1.0, 1.0], n)
                     * special_stack(rng, n, inf=False))
    gap = _anchor_rounding_gap(prev, alpha, tau, corr, new)
    want = [rounding_gap_reference(prev[k], float(alpha[k]), tau[k], corr[k], new[k])
            for k in range(n)]
    assert [g.hex() for g in gap.tolist()] == [w.hex() for w in want]
    # alpha tau steps outward even where it is an exact zero
    assert np.isinf(gap).any() and (gap[:10] == 5e-324).all()


def test_link_sides_equal_scalar_interval_rows():
    """Each link's two left sides equal the scalar Interval evaluation bit
    for bit, on 600 links whose bounds hold zeros, subnormals, huge values
    and infinities: with the other side's radius +inf, check_link refuses
    the radius equal to the reference side and accepts the next float."""
    rng = np.random.default_rng(43)
    n, d = 600, 14
    tau = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-300, 0, (n, 1))
    tau /= np.abs(tau).max(axis=1, keepdims=True)
    norm1 = up_sum(np.abs(tau), axis=-1)
    norm2sq = float_matmat(tau[:, None, :], tau[:, :, None], tau[:, :, None])[0][:, 0, 0]
    alpha = rng.choice([-1.0, 1.0], n) * special_stack(rng, n)
    corr_norm, slack, dmin, residual = (special_stack(rng, n) for _ in range(4))
    args = (alpha, corr_norm, slack, dmin, residual)
    sides = np.array([link_sides_reference(norm1[k], norm2sq[k], *(float(c[k]) for c in args))
                      for k in range(n)])
    inf = np.full(n, math.inf)
    for j in range(2):
        ref, live = sides[:, j], np.isfinite(sides).all(axis=1)
        assert 0 < live.sum() < n
        radii = lambda r: (r, inf) if j == 0 else (inf, r)
        at = check_link(tau, *radii(ref), alpha, corr_norm, dmin, slack, residual)
        above = check_link(tau, *radii(np.nextafter(ref, math.inf)), alpha, corr_norm, dmin,
                           slack, residual)
        assert not at.any() and (above == live).all()


def test_branch_driver_stops_degenerate_without_start_point(coral):
    # starting far from the branch: the corrector/validation cannot succeed
    system = CoralBranchSystem(coral)
    res = continue_branch(system, 3.0, 1e6 * np.ones(13), to_R=72.0, max_steps=5)
    assert res.stop_reason != "target"


class ToyLinearValidated(ToyLinear):
    """ToyLinear with the stacked interval interface, so segments can be
    certified: t is a `MidRad` stack of shape (n,) and u one of (n, 1)."""

    def jet_iv(self, t, u, t0, u0, d):
        J1 = _point(np.tile([-1.0, 1.0], (len(u.m), 1)))   # (D_t F, D_u F)
        return (u - t[:, None], J1), (np.zeros(len(d)),) * 4


def test_validate_segment_exact_linear_zero_set():
    """On u = t the residual vanishes and the deltas are limited only by
    the box constraints (all Lipschitz constants are zero, K is finite)."""
    sys_ = ToyLinearValidated()
    box = validate_segment(*_segment(sys_, 0.3, np.array([0.3])), [1e-2], 0)[0]
    assert box.bounds.rho <= 1e-15 and box.bounds.L3 <= 1e-12
    assert box.bounds.L1 <= 1e-300 and box.bounds.L4 <= 1e-300
    # delta_alpha + delta_u saturates the coupling cap
    used = box.delta_alpha + box.delta_u
    assert used >= 0.99e-2
    assert box.delta_min <= 1e-14


def test_validate_segment_names_the_first_segment_that_fails_p2():
    """A stack whose segment 1 has no usable approximate inverse (B = 0, so
    |I - B A| = 1) fails (P2) there: the stage raises NotInvertibleEvidence
    with that segment's index in the stack, where `_validate` cuts the
    wave, and the segment before it validates alone."""
    ext, B = _segment(ToyLinearValidated(), 0.3, np.array([0.3]))
    ext, B = ext[[0, 0, 0]], B[[0, 0, 0]]
    B[1] = 0.0
    with pytest.raises(NotInvertibleEvidence, match=r"^\(P2\) failed: ") as exc:
        validate_segment(ext, B, [1e-2] * 3, 5)
    assert exc.value.index == 1
    (box,) = validate_segment(ext[:1], B[:1], [1e-2], 5)
    assert box.index == 5 and box.delta_alpha > 0.0


class ToyNonFinite(ToyLinearValidated):
    """ToyLinearValidated whose F or J1 (`part`) has one NaN or infinite
    midpoint or radius (`field`, `value`) at anchor 1 of the stack, as an
    overflow in the jet would leave it."""

    def __init__(self, part, field, value):
        self.part, self.field, self.value = part, field, value

    def jet_iv(self, t, u, t0, u0, d):
        (F, J1), M = super().jet_iv(t, u, t0, u0, d)
        getattr(F if self.part == "F" else J1, self.field)[1, -1] = self.value
        return (F, J1), M


_NON_FINITE = [("m", math.nan), ("m", math.inf), ("r", math.nan), ("r", math.inf)]


@pytest.mark.parametrize("field, value", _NON_FINITE,
                         ids=[f"{f}-{v}" for f, v in _NON_FINITE])
def test_non_finite_row_1_fails_p2_at_its_anchor(field, value):
    """A NaN or infinite midpoint or radius in J1, which reaches (P2) in
    midpoint-radius form, fails (P2) at its anchor, without a warning."""
    ext, B = _segment(ToyNonFinite("J1", field, value), 0.3, np.array([0.3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInvertibleEvidence, match=r"^\(P2\) failed: ") as exc:
            validate_segment(ext[[0, 0, 0]], B[[0, 0, 0]], [1e-2] * 3, 5)
    assert exc.value.index == 1


@pytest.mark.parametrize("field, value", _NON_FINITE,
                         ids=[f"{f}-{v}" for f, v in _NON_FINITE])
def test_non_finite_residual_gives_infinite_rho(field, value, monkeypatch):
    """A NaN or infinite midpoint or radius in F gives rho = +inf at its
    anchor and a refused box there, without a warning; its neighbours
    validate."""
    from certibif import continuation as cont
    seen, derive = [], cont.derive_extended_constants
    monkeypatch.setattr(cont, "derive_extended_constants",
                        lambda rho, *rest: seen.append(rho) or derive(rho, *rest))
    ext, B = _segment(ToyNonFinite("F", field, value), 0.3, np.array([0.3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = validate_segment(ext[[0, 0, 0]], B[[0, 0, 0]], [1e-2] * 3, 5)
    assert seen[0][1] == math.inf and np.isfinite(seen[0][[0, 2]]).all()
    assert [type(b) for b in out] == [BranchBox, ValidationFailed, BranchBox]
    assert str(out[1]) == "4 K^2 rho L1 = inf >= 1"


def _toy_wave(ext, B, first=7) -> _Wave:
    """The wave of the stacked segments (ext, B), with no fold."""
    return _Wave(first, ext, B, [None] * len(ext.t0))


def test_validate_keeps_the_boxes_before_a_p2_failure():
    """A wave whose (P2) fails at anchor 2 keeps boxes 0 and 1, certified
    as a wave of their own, and ends the branch with `degenerate:`."""
    ext, B = _segment(ToyLinearValidated(), 0.3, np.array([0.3]))
    ext, B = ext[[0, 0, 0]], B[[0, 0, 0]]
    B[2] = 0.0
    boxes, end = _validate(_toy_wave(ext, B), np.array([1e-2]))
    assert [b.index for b in boxes] == [7, 8]
    assert all(b.halvings == 0 and b.delta_alpha > 0.0 for b in boxes)
    assert end.startswith("degenerate: (P2) failed: ")


class ToyCubic(ToyLinear):
    """F(t, u) = u - t + KAPPA u^3 at the anchor (t, u) = (-RHO, 0), so the
    residual is RHO.  Over the Lipschitz box of radius d the segment's
    points have |u| <= 2d (|v| <= 1, delta_alpha, delta_u <= d), so
    |D_uu F| = 6 KAPPA |u| <= 12 KAPPA d = M1 grows with the box, and the
    gate 4 K^2 rho L1 < 1 (K = 1 here) holds for d < 1 / (48 KAPPA RHO)."""

    KAPPA, RHO = 1e3, 1e-3

    def evaluate(self, t, u):
        t = np.asarray(t, dtype=float)
        A1 = np.stack([-np.ones_like(t), 1.0 + 3.0 * self.KAPPA * u[..., 0] ** 2], axis=-1)
        return u[..., :1] - t[..., None] + self.KAPPA * u[..., :1] ** 3, A1

    def jet_iv(self, t, u, t0, u0, d):
        x = u[:, 0]
        r = x - t + x * x * x * self.KAPPA
        du = x * x * (3.0 * self.KAPPA) + 1.0
        J1 = MidRad(np.stack([-np.ones_like(du.m), du.m], -1),
                    np.stack([np.zeros_like(du.r), du.r], -1))
        M1 = 6.0 * self.KAPPA * (np.abs(u0[:, 0]) + 2.0 * d) * (1.0 + 1e-12)
        zero = np.zeros(len(d))
        return (r[:, None], J1), (M1, zero, zero, zero)


def test_validate_halves_a_box_until_it_validates():
    """A segment that fails at both rungs 0.5 and 1 validates once the
    radius falls below 1 / (48 KAPPA RHO) = 1/48: after 5 halvings of 0.5,
    at 1/64, which `halvings` records."""
    sys_ = ToyCubic()
    ext, B = _segment(sys_, -sys_.RHO, np.array([0.0]))
    assert all(isinstance(validate_segment(ext, B, [d], 0)[0], ValidationFailed)
               for d in (0.5, 1.0))
    (box,), end = _validate(_toy_wave(ext, B), np.array([0.5, 1.0]))
    assert end == "" and box.halvings == 5
    (direct,) = validate_segment(ext, B, [0.5 / 2 ** 5], 7)
    assert box.bounds.ell_x == 0.5 / 2 ** 5 and box.delta_alpha == direct.delta_alpha
    assert isinstance(validate_segment(ext, B, [0.5 / 2 ** 4], 7)[0], ValidationFailed)


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
    the validator took: B, the validator's own inverse of DG(0), per box
    from the evaluation `continue_branch` had there, a row of a stacked
    call (a row does not depend on the rows stacked with it)."""
    chain = branch_result.boxes
    picks = list(range(0, len(chain), len(chain) // n))[:n]
    boxes = [chain[k] for k in picks]
    t, u = np.array([b.t for b in boxes]), np.stack([b.u for b in boxes])
    mu, v = np.array([b.mu for b in boxes]), np.stack([b.v for b in boxes])
    B = ExtendedSystem(system, t, u, mu, v).inverse(system.evaluate(t, u)[1])
    return boxes, t, u, mu, v, B


def test_stacked_stages_equal_their_single_segment_calls(branch_result,
                                                         preconditioned_system):
    """On 64 recorded anchors: one `jet_iv` call over the anchor points and
    three rungs each gives, in each anchor row and each rung row, the bits
    of that row's one-row call, so point rows and box rows mix in one jet;
    and every stage of the stacked validator -- B, K and xi among them --
    equals its n = 1 calls."""
    system = preconditioned_system
    boxes, t, u, mu, v, B = _recorded(branch_result, system)
    d = np.array([b.bounds.ell_x for b in boxes])
    rungs = d[:, None] * np.array([0.5, 1.0, 2.0])
    seg = np.repeat(np.arange(len(t)), 3)
    (F, J1), M = system.jet_iv(_point(t), _point(u), t[seg], u[seg], rungs.ravel())
    none = slice(0, 0)
    ext = ExtendedSystem(system, t, u, mu, v)
    A1 = system.evaluate(t, u)[1]
    K, xi = ext.origin_bounds(J1, B)
    stacked = validate_segment(ext, B, d, 0)
    for i, box in enumerate(boxes):
        one = slice(i, i + 1)
        F1, J1_1 = _at(system, _point(t[one]), _point(u[one]))
        for k in range(3):
            _, M1 = system.jet_iv(_point(t[none]), _point(u[none]), t[one], u[one],
                                  rungs[i, k:k + 1])
            assert [m[3 * i + k] for m in M] == [m[0] for m in M1]
        e1 = ext[one]
        assert all(np.array_equal(s.m[i], s1.m[0]) and np.array_equal(s.r[i], s1.r[0])
                   for s, s1 in [(F, F1), (J1, J1_1)])
        assert np.array_equal(e1.inverse(A1[one])[0], B[i])
        assert [K[i], xi[i]] == [x[0] for x in e1.origin_bounds(J1_1, B[one])]
        b1 = validate_segment(e1, B[one], d[one], i)[0]
        # rho, K and the drift xi (as L3) are in the bounds; M is the rung's
        assert (stacked[i].index, stacked[i].bounds, stacked[i].M) == (i, b1.bounds, b1.M)
        assert (b1.bounds.K, b1.bounds.L3) == (K[i], xi[i])
        assert list(b1.M) == [m[3 * i + 1] for m in M]
        pair = lambda b: (b.delta_alpha, b.delta_u, b.delta_min, b.bound_by)
        assert pair(stacked[i]) == pair(b1)
        # the chain's own box was certified by the same stack
        assert (box.bounds, pair(box)) == (b1.bounds, pair(b1))


def _lipschitz_jet_rows(branch_result, system) -> MidRad:
    """The x enclosures of the order-2 jet as `jet_iv` stacks them for 64
    recorded boxes: each anchor point, then its Lipschitz box s (.) (u +-
    ell_x)."""
    boxes, t, u, *_ = _recorded(branch_result, system)
    x = _point(u) * system.s
    ell = np.array([b.bounds.ell_x for b in boxes])
    box = MidRad(u, np.broadcast_to(ell[:, None], u.shape)) * system.s
    return MidRad(np.concatenate([x.m, box.m]), np.concatenate([x.r, box.r]))


def test_stacked_row1_jet_rows_equal_their_one_row_calls(branch_result,
                                                        preconditioned_system, coral):
    """The stacked order-2 jet over 64 recorded anchor points and their
    Lipschitz boxes: every row -- phis, b.x, g and g1, midpoint and radius
    -- has the bits of its own one-row stacked call."""
    x = _lipschitz_jet_rows(branch_result, preconditioned_system)
    jet = coral.row1_jet(x, order=2)
    parts = lambda j: list(j.phis) + [j.bx, j.g, j.g1]
    for i in range(len(x.m)):
        one = coral.row1_jet(x[i:i + 1], order=2)
        for p, q in zip(parts(jet), parts(one)):
            assert np.array_equal(p.m[i], q.m[0]) and np.array_equal(p.r[i], q.r[0]), i


def test_stacked_row1_jet_contains_high_precision_values(branch_result,
                                                        preconditioned_system, coral):
    """At corners and interior points of 16 of the recorded Lipschitz boxes,
    and at both corners of their anchors' point rows (s (.) u and the
    radius of its rounding), each corner the float next to m -+ r toward m,
    the 50-digit phi, phi', phi'' (mpmath's numerical differentiation),
    b.x, g and dg/dx lie inside the stacked jet's m +- r, taken exactly,
    the jet taken over all 64 anchors and boxes stacked."""
    x = _lipschitz_jet_rows(branch_result, preconditioned_system)
    n = len(x.m) // 2
    jet = coral.row1_jet(x, order=2)
    rng = np.random.default_rng(24)
    inside = lambda e, at, v: (mp.fsub(float(e.m[at]), float(e.r[at]), exact=True) <= v
                               <= mp.fadd(float(e.m[at]), float(e.r[at]), exact=True))
    with mp.workdps(50):
        c = mp_coeffs(coral)
        for i in list(range(0, n, 4)) + list(range(n, 2 * n, 4)):
            m = x.m[i]
            lo, hi = np.nextafter(m - x.r[i], m), np.nextafter(m + x.r[i], m)
            assert all(inside(x, (i, j), mp.mpf(float(e[j])))
                       for e in (lo, hi) for j in range(coral.d)), i
            points = [lo, hi, np.where(rng.random(coral.d) < 0.5, lo, hi),
                      lo + (hi - lo) * rng.uniform(0.0, 1.0, coral.d)] if i >= n else [lo, hi]
            for pt in points:
                xs = [mp.mpf(float(v)) for v in np.clip(pt, lo, hi)]
                P = mp.fsum(qk * xk for qk, xk in zip(c.q, xs))
                bx = mp.fsum(bk * xk for bk, xk in zip(c.b, xs))
                ds = [mp.diff(lambda y: phi(y, coral.params), P, k) for k in range(3)]
                for e, want in zip(list(jet.phis) + [jet.bx, jet.g], ds + [bx, ds[0] * bx]):
                    assert inside(e, i, want), i
                for j in range(coral.d):
                    assert inside(jet.g1, (i, j), ds[1] * c.q[j] * bx + ds[0] * c.b[j])


def test_extended_constants_equal_scalar_interval(branch_result):
    for b in branch_result.boxes:
        assert (b.bounds.L1, b.bounds.L2, b.bounds.L4) == \
            extended_constants_reference(b.M, b.mu, b.v)


def test_extended_constants_equal_scalar_interval_rows_at_special_values():
    """L1, L2 and L4 of a stack of 800 segments whose M1..M4 and
    directions hold zeros, subnormals, huge values and infinities equal
    the scalar Interval evaluation row by row, bit for bit."""
    rng = np.random.default_rng(47)
    n, d = 800, 13
    M = tuple(special_stack(rng, n) for _ in range(4))
    mu = rng.choice([-1.0, 1.0], n) * special_stack(rng, n, inf=False)
    v = rng.choice([-1.0, 1.0], (n, d)) * special_stack(rng, n * d, inf=False).reshape(n, d)
    v[rng.random(n) < 0.1] = 0.0
    b = derive_extended_constants(np.zeros(n), np.zeros(n), np.ones(n), M, np.ones(n), mu, v)
    got = np.column_stack([b.L1, b.L2, b.L4])
    for k in range(n):
        want = extended_constants_reference([m[k] for m in M], float(mu[k]), v[k])
        assert [g.hex() for g in got[k].tolist()] == [w.hex() for w in want], k
    assert np.isinf(got).any() and np.isfinite(got).any()


def _replayed_run(coral, monkeypatch, max_steps, correct=newton_correct):
    """A seed-0 run of max_steps boxes with `correct` as its corrector, and
    every corrector call it made: (anchor t0, u0, direction mu, v, alpha,
    keywords, sigma, x), the anchor and direction those of the box the
    wave was placed from, which the call takes once per alpha."""
    from certibif import continuation as cont
    calls = []

    def recorded(ext, alpha, **kw):
        out = correct(ext, alpha, **kw)
        tip = (ext.t0, ext.u0, ext.mu, ext.v)
        assert all(len(a) == len(alpha) and (a == a[0]).all() for a in tip)
        calls.append((float(ext.t0[0]), ext.u0[0].copy(), float(ext.mu[0]), ext.v[0].copy(),
                      alpha, kw) + out[:2])
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
    """1,000 seed-0 boxes replayed, through the fold and the cuts past it.
    Each wave is placed from the last accepted box k at alpha_j = h (1 + r
    + ... + r^(j-1)), h = _WAVE_SPACING ALPHA_FRAC delta_alpha of box k and
    r the delta_alpha trend of boxes k - _TREND_WINDOW..k; its stacked
    chord solve returns the same bits again, and every box after the start
    sits, bit for bit, at a point one of them reached.  The step out of
    each box is the float projection of the next anchor on its tangent;
    the stacked rounding gaps of those steps equal the scalar Interval
    loop, and the stacked link check equals its n = 1 calls."""
    from certibif import continuation as cont
    system, res, calls = _replayed_run(coral, monkeypatch, 1000)
    boxes = res.boxes
    assert len(boxes) == 1000 and res.all_linked() and res.replans > 0
    starts = _wave_starts(res, calls)
    assert starts[0][0] == 0 and _cuts(starts) == res.replans
    reached = set()
    for (k, n), (t0, u0, mu, v, alpha, kw, sigma, x) in zip(starts, calls):
        da = [b.delta_alpha for b in boxes[max(0, k - cont._TREND_WINDOW):k + 1]]
        r = min(max((da[-1] / da[0]) ** (1.0 / (len(da) - 1)), cont._TREND_CLIP[0]),
                cont._TREND_CLIP[1]) if len(da) > 1 else 1.0
        h = cont._WAVE_SPACING * ALPHA_FRAC * boxes[k].delta_alpha
        assert np.array_equal(alpha, h * np.cumsum(r ** np.arange(n)))
        ext = ExtendedSystem(system, [t0], [u0], [mu], [v])[np.zeros(n, dtype=int)]
        sigma2, x2, _ = newton_correct(ext, alpha, **kw)
        assert np.array_equal(sigma2, sigma) and np.array_equal(x2, x)
        t, u = ext.point(alpha, sigma, x)
        reached.update(zip(t.tolist(), (ui.tobytes() for ui in u)))
    assert all((b.t, b.u.tobytes()) in reached for b in boxes[1:])
    z = np.array([np.append(b.t, b.u) for b in boxes])
    prev, nxt = boxes[:-1], boxes[1:]
    tau = np.array([np.append(b.mu, b.v) for b in prev])
    dz = z[1:] - z[:-1]
    alpha = (tau * dz).sum(axis=1) / (tau * tau).sum(axis=1)
    corr = dz - alpha[:, None] * tau
    assert list(alpha) == [b.alpha_step for b in prev]
    picks = list(range(0, len(prev), len(prev) // 64))[:64]
    steps = [(z[k], alpha[k], tau[k], corr[k], z[k + 1]) for k in picks]
    cols = [np.array(c) for c in zip(*steps)]
    gap = _anchor_rounding_gap(*cols)
    assert list(gap) == [rounding_gap_reference(*st) for st in steps]
    _, a, tk, ck, _ = cols
    lo, hi = float_matmat(tk[:, None, :], ck[:, :, None], ck[:, :, None])
    residual = np.maximum(np.abs(lo), np.abs(hi))[:, 0, 0]
    links = (tk, np.array([prev[k].delta_alpha for k in picks]),
             np.array([prev[k].delta_u for k in picks]), a, np.abs(ck).max(axis=1),
             np.array([nxt[k].delta_min for k in picks]), gap, residual)
    ok = check_link(*links)
    assert ok.all()
    assert list(ok) == [check_link(*(c[k:k + 1] for c in links))[0] for k in range(len(picks))]


def test_stacked_stability_labels_equal_per_matrix_labels(branch_result,
                                                          preconditioned_system, coral):
    """The labels of the seed-0 branch's D_x f pairs as one stack equal
    those of each pair alone, LAPACK's on the dense matrices, and the
    boxes' own labels."""
    system = preconditioned_system
    row1, sub = leslie_pair(np.stack([coral.jac_x(system.lam_of_t(b.t), system.s * b.u)
                                      for b in branch_result.boxes]))
    labels = classify_stability(row1, sub)
    assert labels == [classify_stability(r[None], s)[0] for r, s in zip(row1, sub)]
    assert labels == eigvals_labels(leslie_matrices(row1, sub))
    assert labels == [b.stability for b in branch_result.boxes]


def test_continue_branch_labels_every_box_in_one_call(coral, monkeypatch):
    """A 300-box seed-0 run over several waves, through the NS point, makes
    one `classify_stability` call, on all its boxes, when it returns; each
    box's label equals the label of its own `evaluate` row alone."""
    from certibif import continuation as cont
    calls = []
    monkeypatch.setattr(cont, "classify_stability",
                        lambda row1, sub: calls.append(len(row1)) or classify_stability(row1, sub))
    system, t0, u0 = branch_start(coral, 300.0)
    res = continue_branch(system, t0, u0, to_R=72.0, max_steps=300)
    assert len(res.boxes) == 300 and res.waves > 1
    assert calls == [300]
    A1 = _rows1_at(system, res.boxes)
    labels = [b.stability for b in res.boxes]
    assert labels == [stability_labels(system, A1[i:i + 1])[0] for i in range(len(A1))]
    assert {"unstable(2)", "stable"} <= set(labels)


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


@pytest.mark.parametrize("delta_alpha, r", [
    (1e-3 * 0.97 ** np.arange(40), 0.97),
    (1e-3 * 0.97 ** np.arange(5), 0.97),
    (1e-3 * 0.8 ** np.arange(40), 0.9),
    (1e-3 * 1.05 ** np.arange(40), 1.0),
    ([1e-3], 1.0),
    ([], 1.0),
])
def test_trend_is_the_clipped_geometric_mean_ratio(delta_alpha, r):
    boxes = [SimpleNamespace(delta_alpha=float(da)) for da in delta_alpha]
    assert _trend(boxes) == pytest.approx(r, rel=1e-12, abs=0.0)


def test_waves_follow_the_delta_alpha_trend(branch_result):
    """Every step but the last stays within ALPHA_FRAC of its box, and some
    wave of the seed-0 run is placed at a trend r < 1: a wave holds at most
    _CHUNK_MAX anchors, so any _CHUNK_MAX + 1 consecutive boxes before the
    last hold a box that a wave was placed from."""
    from certibif import continuation as cont
    boxes = branch_result.boxes
    assert all(0.0 < b.alpha_step <= ALPHA_FRAC * b.delta_alpha for b in boxes[:-1])
    falling = np.array([_trend(boxes[:k + 1]) < 1.0 for k in range(len(boxes) - 1)])
    run = cont._CHUNK_MAX + 1
    assert any(falling[k:k + run].all() for k in range(len(falling) - run + 1))
    assert 0 < branch_result.replans < branch_result.waves < len(boxes)


def test_unplaced_wave_is_cut_at_its_first_step(coral, monkeypatch):
    """A wave whose stacked corrector fails is placed again from the same
    box with one anchor, counted as a replan, and the branch goes on
    linked."""
    waves = iter(range(10 ** 9))
    events = []

    def failing(ext, alpha, **kw):
        fail = len(alpha) > 1 and next(waves) % 3 == 1
        events.append((fail, float(ext.t0[0]), len(alpha)))
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
    links, calls = cont._links, []

    def failing(tip, wave, boxes):
        calls.append(len(boxes))
        assert len(calls) <= 20, "the branch keeps placing the box that fails to link"
        alpha, corr_norm, ok = links(tip, wave, boxes)
        return alpha, corr_norm, ok & (np.array([b.index for b in boxes]) < 150)

    monkeypatch.setattr(cont, "_links", failing)
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
    """After the first box the tangent solves [prev; A1; rows] tau = e_0; on
    64 recorded anchors it equals the SVD null vector, oriented along the
    previous tangent, to 1e-12 in max norm."""
    system, boxes = preconditioned_system, branch_result.boxes
    tau = lambda mu_v: np.concatenate([mu_v[0], mu_v[1][0]])
    for k in range(1, len(boxes), len(boxes) // 64)[:64]:
        b, prev = boxes[k], boxes[k - 1]
        tprev = np.concatenate([[prev.mu], prev.v])
        A1 = system.evaluate(np.array([b.t]), b.u[None])[1]
        tb = tau(tangent_estimate(system.rows, A1, tprev))
        ts = tau(tangent_estimate(system.rows, A1))
        if float(tprev @ ts) < 0.0:
            ts = -ts
        assert float(tprev @ tb) > 0.0
        assert np.max(np.abs(tb - ts)) <= 1e-12, k


def test_bordered_tangent_has_unit_max_norm(branch_result, preconditioned_system):
    """The bordered path of `tangent_estimate`, which gives every direction
    after the start box, returns max(|mu|, |v|_inf) == 1 exactly at the
    recorded seed-0 anchors, each bordered by the tangent of the box
    before it: the precondition `validate_segment` checks."""
    system, chain = preconditioned_system, branch_result.boxes
    boxes, t, u, *_ = _recorded(branch_result, system)
    before = [chain[max(b.index - 1, 0)] for b in boxes]
    prev = np.array([np.append(b.mu, b.v) for b in before])
    mu, v = tangent_estimate(system.rows, system.evaluate(t, u)[1], prev)
    assert np.maximum(np.abs(mu), np.abs(v).max(axis=-1)).tolist() == [1.0] * len(boxes)


def test_bordered_tangent_singular_border():
    # prev orthogonal to the null vector (1, 1) of ToyLinear: [prev; A1] is singular
    A1 = ToyLinear().evaluate(np.zeros(1), np.zeros((1, 1)))[1]
    with pytest.raises(TangentUndefined, match="anchor 0 of the stack"):
        tangent_estimate(_NO_ROWS, A1, prev=np.array([1.0, -1.0]))


def test_planner_evaluates_each_point_once(coral, monkeypatch):
    """200 seed-0 boxes: the system is evaluated once at the start and
    otherwise only by the corrector, each chord iteration of a wave taking
    its m rows as one stacked call, and once more at the 200 boxes, as one
    stack, for their stability labels; the corrector's last evaluation is
    the anchors' own (tangent and B), and a wave of up to 64 anchors
    converges within 11 chord steps."""
    from certibif import continuation as cont
    rows = []
    calls = []
    evaluate, value, correct = (CoralBranchSystem.evaluate, ExtendedSystem.value,
                                cont.newton_correct)

    def counted_evaluate(self, t, u):
        rows.append(int(np.size(t)))
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
    assert rows[-1] == 200
    assert sum(rows[:-1]) == 1 + sum(m * len(iters) for m, iters in calls)


def test_validator_takes_one_row1_jet_per_wave(coral, monkeypatch):
    """200 seed-0 boxes: each wave's interval stage is one order-2 row-1
    jet over its anchors and their Lipschitz boxes stacked -- the start
    anchor with the whole ladder, every later anchor with its three rungs
    -- and no other jet is built on the branch."""
    from certibif import continuation as cont
    jet, rows = CoralMap.row1_jet, []

    def counted(self, x, order=1):
        rows.append((len(x.m), order))
        return jet(self, x, order)

    system, t0, u0 = branch_start(coral, 300.0)
    monkeypatch.setattr(CoralMap, "row1_jet", counted)
    res = continue_branch(system, t0, u0, to_R=72.0, max_steps=200)
    assert res.stop_reason == "max-steps" and len(res.boxes) == 200 and res.all_linked()
    assert all(b.halvings == 0 for b in res.boxes)
    assert len(rows) == res.waves > 1
    assert rows[0] == (1 + len(cont._LADDER), 2)
    assert all(order == 2 and n % 4 == 0 for n, order in rows[1:])
    assert sum(n // 4 for n, _ in rows[1:]) == len(res.boxes) - 1 + res.boxes_discarded


def test_evaluate_equals_map_compositions(branch_result, preconditioned_system, coral):
    """On 64 recorded anchors, each row of one stacked evaluation matches
    the one-state references to 8 ulps: F = f/s - u from `step`, and row 1
    of [D_t F | D_u F] from `jac_lam` and row 0 of `CoralMap.jac_x`,
    rescaled (only the summation order of q.x and b.x and np.exp against
    math.exp differ); the constant rows below it match the rescaled rows
    of `CoralMap.jac_x`.  D_x f is compared in the coordinates u = x/s of
    the branch system, where it is the similar matrix diag(1/s) D_x f
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
        assert ulps(stacked[1][i] - A[0], np.maximum(np.abs(A[0]), 1.0)) <= 8
    # rows 1.. of D_x f, the subdiagonal S, are the same at every anchor
    assert ulps(system.rows.float - A[1:], np.maximum(np.abs(A[1:]), 1.0)) <= 8


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


def test_stacked_extended_rows_match_one_row_calls(branch_result, preconditioned_system):
    """On 64 recorded anchors, each row with its own anchor, direction and
    alpha (the step out of its box), a row of the stacked G and of the
    stacked corrector does not depend on the rows stacked with it: each row
    of `value` at a random z, and of a `newton_correct` call that stops
    every row after the same single chord step (tol = inf), gives the bits
    of that row's one-row call."""
    system = preconditioned_system
    boxes, t, u, mu, v, _ = _recorded(branch_result, system)
    ext = ExtendedSystem(system, t, u, mu, v)
    alpha = np.array([b.alpha_step for b in boxes])
    z = 1e-6 * np.random.default_rng(7).normal(size=(len(t), system.d + 1))
    stacked = ext.value(alpha, z)
    corrected = newton_correct(ext, alpha, tol=np.inf)
    same = lambda a, b, i: all(np.array_equal(x[0], y[i]) for x, y in zip(a, b))
    for i in range(len(t)):
        one = slice(i, i + 1)
        G, ev = ext[one].value(alpha[one], z[one])
        assert same((G,) + ev, (stacked[0],) + stacked[1], i)
        sigma, x, ev = newton_correct(ext[one], alpha[one], tol=np.inf)
        assert same((sigma, x) + ev, corrected[:2] + corrected[2], i)


def test_extended_jacobian_block_structure(branch_result, preconditioned_system):
    """On 64 recorded anchors the extended Jacobian borders [A1; rows] with
    (mu, v): the float row 1 from `evaluate` lies in `jet_iv`'s enclosure
    of it, and the system's constant rows lie in their interval block."""
    system = preconditioned_system
    boxes, t, u, mu, v, _ = _recorded(branch_result, system)
    A1 = system.evaluate(t, u)[1]
    assert A1.shape == (len(t), system.d + 1)
    _, J1 = _at(system, _point(t), _point(u))
    assert np.all(np.abs(A1 - J1.m) <= J1.r + 1e-12)
    rows = system.rows
    assert np.all(np.abs(rows.float - rows.mid) <= rows.R + 1e-12)


# ---------------------------------------------------------------------------
# the structured (P2) bound, drift and inverse: rows 0 and 1 per anchor
# ---------------------------------------------------------------------------


def _extended_jacobians(system, mu, v, A1, rows) -> np.ndarray:
    """The stack of DG(0) = [mu v; A1; rows] for float rows 1 and 2..."""
    J = np.empty((len(mu), system.d + 1, system.d + 1))
    J[:, 0, 0], J[:, 0, 1:], J[:, 1], J[:, 2:] = mu, v, A1, rows
    return J


def test_structured_inverse_inverts_and_keeps_rows_independent(branch_result,
                                                               preconditioned_system):
    """On 64 recorded anchors the rank-2 update of P'^-1 inverts DG(0) to
    |B J - I| <= 1e-12, and each row of the stack, and a run of rows, has
    the bits of its own call: P'^-1 is shared by every row, and its
    products stay one per anchor.  The same holds for the bordered tangent
    systems [prev; A1; rows], prev the tangent of the box before, whose
    first column alone, as the tangent takes it, has the bits of the full
    inverse's."""
    system = preconditioned_system
    boxes, t, u, mu, v, B = _recorded(branch_result, system)
    A1 = system.evaluate(t, u)[1]
    ext = ExtendedSystem(system, t, u, mu, v)
    chain = branch_result.boxes
    before = [chain[max(b.index - 1, 0)] for b in boxes]
    prev = np.array([np.append(b.mu, b.v) for b in before])
    Bp = system.rows.inverse(prev, A1)
    assert np.array_equal(system.rows.inverse(prev, A1, first_column=True), Bp[:, :, 0])
    inverses = [(B, np.column_stack([mu, v]), lambda rows: ext[rows].inverse(A1[rows])),
                (Bp, prev, lambda rows: system.rows.inverse(prev[rows], A1[rows]))]
    for Bs, X, call in inverses:
        J = _extended_jacobians(system, X[:, 0], X[:, 1:], A1, system.rows.float)
        assert np.abs(Bs @ J - np.eye(system.d + 1)).sum(axis=-1).max() <= 1e-12
        for i in range(len(t)):
            assert np.array_equal(call(slice(i, i + 1))[0], Bs[i])
        assert np.array_equal(call(slice(5, 12)), Bs[5:12])


def test_singular_capacitance_raises_linalgerror():
    """Row 1 parallel to the tangent makes DG(0) and its 2x2 capacitance
    singular: the inverse raises LinAlgError naming the anchor, and the
    corrector reports it as a singular Jacobian."""
    ext = ExtendedSystem(ToyLinear(), [0.0, 0.0], [[0.0], [0.0]], [1.0, -1.0], [[1.0], [1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="anchor 1 of the stack"):
        ext.inverse(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    with pytest.raises(CorrectorFailed, match="singular corrector Jacobian"):
        newton_correct(ext[1:], np.zeros(1), tol=_TOL)


def test_origin_bounds_high_precision(branch_result, preconditioned_system, coral):
    """On 16 recorded anchors K bounds |DG(0)^-1|_inf and xi bounds |D_t F
    mu + D_u F v|_inf, with DG(0) from 60-digit central differences of F
    and both norms at 50 digits."""
    system = preconditioned_system
    boxes, t, u, mu, v, B = _recorded(branch_result, system, n=16)
    _, J1 = _at(system, _point(t), _point(u))
    K, xi = ExtendedSystem(system, t, u, mu, v).origin_bounds(J1, B)
    F = mp_branch_F(system, mp_coeffs(coral))
    for i in range(len(t)):
        with mp.workdps(60):
            z = mp.matrix([mp.mpf(float(c)) for c in (t[i], *u[i])])
            A = mp_fd_jacobian(lambda w: mp.matrix(F(w[0], list(w[1:]))), z)
        with mp.workdps(50):
            tau = [mp.mpf(float(c)) for c in (mu[i], *v[i])]
            G = mp.matrix([tau] + [[A[r, c] for c in range(system.d + 1)]
                                   for r in range(system.d)])
            Ginv = mp.inverse(G)
            norm = max(mp.fsum(abs(Ginv[r, c]) for c in range(system.d + 1))
                       for r in range(system.d + 1))
            drift = max(abs(mp.fsum(A[r, c] * tau[c] for c in range(system.d + 1)))
                        for r in range(system.d))
            assert norm <= K[i], (i, K[i], norm)
            assert drift <= xi[i], (i, xi[i], drift)


def test_K_covers_every_vertex_of_a_wide_row_1(branch_result, preconditioned_system):
    """On 8 recorded anchors whose row 1 is widened to a relative radius of
    1e-3, K stays above |A^-1|_inf at every vertex of that row (2^14
    matrices each, the constant rows at their midpoints) by more than the
    inverses' rounding.  The radius enters K only through its row sums,
    and without them K would fall below the vertices'."""
    system = preconditioned_system
    boxes, t, u, mu, v, B = _recorded(branch_result, system, n=8)
    _, J1 = _at(system, _point(t), _point(u))
    wide = MidRad(J1.m, J1.r + 1e-3 * J1.mag)
    K, _ = ExtendedSystem(system, t, u, mu, v).origin_bounds(wide, B)
    k = system.d + 1
    signs = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    for i in range(len(t)):
        vertices = np.where(signs, wide.m[i] + wide.r[i], wide.m[i] - wide.r[i])
        J = _extended_jacobians(system, np.full(len(signs), mu[i]), v[i], vertices,
                                system.rows.mid)
        norms = np.abs(np.linalg.inv(J)).sum(axis=-1).max(axis=-1)
        assert norms.max() * (1.0 + 1e-9) <= K[i], (i, K[i], norms.max())
        # the vertices spread well beyond the inverse at the centre
        assert norms.max() >= np.abs(B[i]).sum(axis=-1).max() * (1.0 + 1e-6)


# DG(0) = [mu v; a b] of a one-dimensional system, each nearly singular
# (condition 6e10 to 1e12): the rounding of the centre product fl(B m)
# alone exceeds what |fl(B m) - I| shows, so K covers |DG(0)^-1| only
# through the gamma_k |m| part of the radius
_ROUNDING_BOUND = [
    (-0.38766256756057715, 0.16737383885057322, 0.767850719943763, -0.33152058881980445),
    (0.9750027392408078, -0.6715250946952704, 0.3895365126267121, -0.2682900601210045),
    (-0.7059286839740189, -0.03694693018713191, 0.9924394760114283, 0.05194234611463207),
    (-0.19284451664090163, 0.3094219764443271, -0.5508058018485849, 0.8837763334671296),
    (0.3442746785170989, 0.8956915357432274, 0.5695052272639889, 1.4816686891406932),
]


@pytest.mark.parametrize("mu, v, a, b", _ROUNDING_BOUND, ids=range(len(_ROUNDING_BOUND)))
def test_K_covers_the_rounding_of_the_centre_product(mu, v, a, b):
    """K bounds the exact |DG(0)^-1|_inf, computed in rationals, on point
    matrices whose float inverse B leaves BA - I dominated by rounding."""
    from fractions import Fraction
    ext = ExtendedSystem(ToyLinear(), [0.0], [[0.0]], [mu], [[v]])
    J1 = np.array([[a, b]])
    K, _ = ext.origin_bounds(_point(J1), ext.inverse(J1))
    m00, m01, m10, m11 = (Fraction(x) for x in (mu, v, a, b))
    det = m00 * m11 - m01 * m10
    exact = max(abs(m11) + abs(m01), abs(m10) + abs(m00)) / abs(det)
    assert Fraction(float(K[0])) >= exact
