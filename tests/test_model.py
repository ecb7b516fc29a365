import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certibif.continuation import CoralBranchSystem
from certibif.errors import ValidationFailed
from certibif.interval import IArray, Interval
from certibif.model import (CoralMap, CoralParams, FixedPointReduction,
                            derive_generic, phi, phi_derivs, row1_d2, row1_d3)

from helpers import contains, jac_lam, map_F, mp_coeffs, scalar_row1, step


def test_params_table_defaults(coral):
    p = coral.params
    assert p.d == 13 and p.S[0] == 0.89 and p.F[2] == 0.36 and p.omega == 36.0


@pytest.mark.parametrize("kw", [
    dict(S=(1.2,) * 12),
    dict(F=(0.5,) + (0.0,) + (1.0,) * 11),
    dict(beta=1e-4),
    dict(omega=-1.0),
])
def test_params_invariants_rejected(kw):
    with pytest.raises(ValueError):
        CoralParams(**kw)


def test_config_roundtrip(tmp_path, coral):
    path = tmp_path / "params.cfg"
    path.write_text(coral.params.to_config())
    again = CoralParams.from_config(path)
    assert again == coral.params


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d = 13\nbogus = 1\n")
    with pytest.raises(ValueError):
        CoralParams.from_config(path)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_phi_at_zero(coral):
    # y = 0 forces c1/c2
    assert math.isclose(phi(0.0, coral.params), 1.8e5 / 1.3e7, rel_tol=1e-15)


def test_phi_matches_multiprecision(coral):
    p = coral.params
    with mp.workdps(40):
        y = mp.mpf(1500)
        oracle = p.c1 * mp.exp(-mp.mpf(p.alpha) * y) / \
            (y ** 2 + p.c2 * mp.exp(-mp.mpf(p.beta) * y))
        got = phi(1500.0, p)
        assert abs(got - float(oracle)) <= 1e-12 * float(oracle)
        assert 0.0 < got < (p.c1 / p.c2) * math.exp(p.beta * 1500)


def test_phi_unimodal_shape(coral):
    p = coral.params
    assert phi(500.0, p) > phi(0.0, p)
    assert phi(10000.0, p) < phi(2000.0, p)


def test_phi_interval_contains_floats(coral):
    box = Interval(1200.0, 1800.0)
    enc = phi(box, coral.params)
    for y in np.linspace(1200, 1800, 37):
        assert phi(float(y), coral.params) in enc


def test_phi_derivs_match_finite_differences(coral):
    p = coral.params
    for y in (100.0, 853.0, 2689.0):
        ph, d1, d2, d3 = phi_derivs(y, p, order=3)
        h = 1e-3
        fd1 = (phi(y + h, p) - phi(y - h, p)) / (2 * h)
        assert math.isclose(d1, fd1, rel_tol=1e-6)
        h = 0.1   # second difference balances truncation vs cancellation
        fd2 = (phi(y + h, p) - 2 * ph + phi(y - h, p)) / h ** 2
        assert math.isclose(d2, fd2, rel_tol=1e-5)
        assert ph == phi(y, p)
        assert d3 != 0.0


@pytest.mark.parametrize("lo,hi", [(0.0, 300.0), (853.0, 2689.0),
                                   (1200.0, 1800.0), (2000.0, 6000.0),
                                   (1500.0, 1500.0)])
def test_phi_derivs_interval_contains_multiprecision(coral, lo, hi):
    # 60-digit derivatives of phi at float points of the box, orders 0..3
    p = coral.params
    encs = phi_derivs(Interval(lo, hi), p, order=3)
    with mp.workdps(60):
        c1, c2 = mp.mpf(p.c1), mp.mpf(p.c2)
        al, be = mp.mpf(p.alpha), mp.mpf(p.beta)
        f = lambda y: c1 * mp.exp(-al * y) / (y * y + c2 * mp.exp(-be * y))
        for y in np.linspace(lo, hi, 9):
            for n, enc in enumerate(encs):
                exact = mp.diff(f, mp.mpf(float(y)), n)
                assert mp.mpf(enc.lo) <= exact <= mp.mpf(enc.hi), (y, n)


def test_phi_prime_at_zero_closed_form(coral):
    p = coral.params
    _, d1 = phi_derivs(0.0, p, order=1)
    assert math.isclose(d1, p.c1 * (p.beta - p.alpha) / p.c2, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# polyp density and the map
# ---------------------------------------------------------------------------


def test_polyp_density_excludes_recruits(coral):
    e1 = np.zeros(13); e1[0] = 1.0
    e2 = np.zeros(13); e2[1] = 1.0
    assert float(coral.cf.q @ np.zeros(13)) == 0.0
    assert float(coral.cf.q @ e1) == 0.0
    expect = 1.239 * 2 ** 2.324 / 36.0
    assert math.isclose(float(coral.cf.q @ e2), expect, rel_tol=1e-12)


@st.composite
def _valid_params(draw):
    d = draw(st.integers(3, 20))
    unit = st.floats(0.0, 1.0)
    alpha = draw(st.floats(1e-6, 1e-2))
    return CoralParams(
        d=d, S=tuple(draw(st.lists(unit, min_size=d - 1, max_size=d - 1))),
        F=(0.0, 0.0) + tuple(draw(st.lists(st.floats(0.0, 10.0),
                                           min_size=d - 2, max_size=d - 2))),
        c1=draw(st.floats(1.0, 1e7)), c2=draw(st.floats(1.0, 1e9)),
        alpha=alpha, beta=alpha * draw(st.floats(1.01, 100.0)),
        omega=draw(st.floats(1.0, 100.0)))


@given(_valid_params())
@settings(max_examples=50, deadline=None)
def test_recruitment_never_reads_the_two_youngest_classes(params):
    # q_1 = b_1 = b_2 = 0 exactly in float: dynamics.iterate advances two
    # iterates per round on this; the interval coefficients enclose 0
    m = CoralMap(params)
    assert m.cf.q[0] == 0.0 and m.cf.b[0] == 0.0 and m.cf.b[1] == 0.0
    for c in (m.ci.q[0], m.ci.b[0], m.ci.b[1]):
        assert c.lo <= 0.0 <= c.hi


def test_step_extinction_fixed(coral):
    for lam in (0.3, 1.0, 5.5):
        assert np.all(step(coral, lam, np.zeros(13)) == 0.0)


def test_step_survival_rows_linear(coral):
    e1 = np.zeros(13); e1[0] = 1.0
    out = step(coral, 2.7, e1)
    assert out[1] == 0.89                       # Table value S_1
    x = np.arange(1.0, 14.0)
    assert np.allclose(step(coral, 9.9, x)[1:], step(coral, 0.1, x)[1:])


def test_validated_ns_point_is_nearly_fixed(coral):
    red = FixedPointReduction(coral)
    x1 = 1794.0
    # refine the first component with the reduced equation
    # x1 = lambda (b.a) x1 phi(cP x1), then plug back
    lam = red.branch_lambda(x1)
    residual = lambda x1: x1 - lam * coral.cf.ba * x1 * phi(red.cP * x1, coral.params)
    for _ in range(60):
        h = 1e-6
        r = residual(x1)
        dr = (residual(x1 + h) - residual(x1 - h)) / (2 * h)
        x1 -= r / dr
    x = red.full_point(x1)
    assert np.max(np.abs(step(coral, lam, x) - x)) <= 1e-6


def test_map_F_examples(coral):
    assert np.all(map_F(coral, 1.7, np.zeros(13)) == 0.0)
    x = np.arange(1.0, 14.0)
    assert np.allclose(map_F(coral, 2.0, x), step(coral, 2.0, x) - x)


def test_jacobian_at_origin_row(coral):
    p = coral.params
    J = coral.jac_x(3.1, np.zeros(13))
    assert np.allclose(J[0], 3.1 * (p.c1 / p.c2) * coral.cf.b, rtol=1e-14)


def test_jacobian_matches_finite_differences(coral):
    lam, x = 1.0, 100.0 * coral.cf.a
    J = coral.jac_x(lam, x)
    h = 1e-5
    for j in range(13):
        e = np.zeros(13); e[j] = h
        col = (step(coral, lam, x + e) - step(coral, lam, x - e)) / (2 * h)
        assert np.allclose(J[:, j], col, rtol=1e-6, atol=1e-10)


def test_jac_lam_is_first_component_only(coral):
    x = 50.0 * coral.cf.a
    dl = jac_lam(coral, 4.0, x)
    assert np.all(dl[1:] == 0.0)
    assert math.isclose(dl[0], step(coral, 4.0, x)[0] / 4.0, rel_tol=1e-14)


def _row1_data(coral, x, *vecs):
    """phi to phi''' and b.x at x, then (q.v, b.v) for each v, as floats."""
    phis = phi_derivs(float(coral.cf.q @ x), coral.params, order=3)
    out = [phis, float(coral.cf.b @ x)]
    for v in vecs:
        out += [float(coral.cf.q @ v), float(coral.cf.b @ v)]
    return out


def test_bilinear_symmetry_and_sparsity(coral):
    rng = np.random.default_rng(3)
    x = 1000.0 * coral.cf.a
    y, z, w = rng.normal(size=(3, 13))
    phis, bx, qy, by, qz, bz, qw, bw = _row1_data(coral, x, y, z, w)
    assert math.isclose(row1_d2(phis, bx, qy, by, qz, bz),
                        row1_d2(phis, bx, qz, bz, qy, by), rel_tol=1e-14)
    C1 = row1_d3(phis, bx, qy, by, qz, bz, qw, bw)
    for perm in (((qz, bz), (qy, by), (qw, bw)), ((qw, bw), (qz, bz), (qy, by)),
                 ((qy, by), (qw, bw), (qz, bz))):
        assert math.isclose(C1, row1_d3(phis, bx, *perm[0], *perm[1], *perm[2]),
                            rel_tol=1e-12)
    # rows 2..d of the map are linear: their second difference is rounding only
    lam = 2.0
    dd = (step(coral, lam, x + y + z) - step(coral, lam, x + y)
          - step(coral, lam, x + z) + step(coral, lam, x))
    assert np.all(np.abs(dd[1:]) <= 1e-12 * np.max(np.abs(x)))


def test_bilinear_matches_finite_differences(coral):
    rng = np.random.default_rng(4)
    lam, x = 1.3, 900.0 * coral.cf.a
    y, z = rng.normal(size=(2, 13))
    h = 1e-3
    fd = (step(coral, lam, x + h * (y + z)) - step(coral, lam, x + h * y)
          - step(coral, lam, x + h * z) + step(coral, lam, x)) / h ** 2
    got = lam * row1_d2(*_row1_data(coral, x, y, z))
    assert math.isclose(got, fd[0], rel_tol=1e-4)
    # numpy arrays for the last pair give the whole row of D^2 g
    phis, bx, qy, by = _row1_data(coral, x, y)
    row = row1_d2(phis, bx, qy, by, coral.cf.q, coral.cf.b)
    assert math.isclose(row @ z, row1_d2(*_row1_data(coral, x, y, z)), rel_tol=1e-12)


def test_trilinear_matches_finite_differences(coral):
    lam, x = 1.3, 900.0 * coral.cf.a
    y = coral.cf.a
    h = 1.0
    # third central difference along y
    vals = [step(coral, lam, x + k * h * y)[0] for k in (-2, -1, 0, 1, 2)]
    fd3 = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * h ** 3)
    got = lam * row1_d3(*_row1_data(coral, x, y, y, y))
    assert math.isclose(got, fd3, rel_tol=1e-4)


# ---------------------------------------------------------------------------
# fixed-point reduction and parameter conversion
# ---------------------------------------------------------------------------


def test_reduction_zero_always_root(coral):
    red = FixedPointReduction(coral)
    for lam in (0.2, 1.0, 4.0):
        assert 0.0 in red.solve(lam)


def test_reduction_roots_equal_scalar_grid_loop(coral):
    """The grid's one array call of phi brackets the same roots as the
    scalar loop over the grid (math.exp, not np.exp), bit for bit."""
    from certibif.model import _bisect
    red = FixedPointReduction(coral)
    for lam in (0.2, 0.42, 1.0, 3.0, 300.0 / coral.cf.ba, 10.0):
        h = lambda x1: 1.0 - lam * coral.cf.ba * phi(red.cP * x1, coral.params)
        xs = np.linspace(0.0, 1e5, 10_001).tolist()
        vals = [h(x) for x in xs]
        roots = [0.0]
        for lo, hi, flo, fhi in zip(xs, xs[1:], vals, vals[1:]):
            if flo == 0.0 and lo > 0.0:
                roots.append(lo)
            if flo * fhi < 0.0:
                roots.append(_bisect(h, lo, hi))
        assert red.solve(lam) == roots + ([xs[-1]] if vals[-1] == 0.0 else [])


def test_two_positive_roots_at_lambda_one(coral):
    red = FixedPointReduction(coral)
    pos = [r for r in red.solve(1.0) if r > 0]
    assert len(pos) == 2    # stable + unstable branch at R = 29.15


def test_reconstructed_point_residual(coral):
    red = FixedPointReduction(coral)
    for lam in (1.0, 3.0, 5.5):
        for x1 in (r for r in red.solve(lam) if r > 0):
            x = red.full_point(x1)
            assert np.max(np.abs(map_F(coral, lam, x))) <= 1e-9 * max(1.0, x1)


def test_full_newton_lands_on_reduced_branch(coral):
    # every 13-D fixed point found by Newton has x = x1 * a
    red = FixedPointReduction(coral)
    rng = np.random.default_rng(11)
    lam = 2.0
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, 13) * 800.0 * coral.cf.a
        for _ in range(80):
            F = map_F(coral, lam, x)
            J = coral.jac_x(lam, x) - np.eye(13)
            try:
                x = x - np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
        if np.max(np.abs(map_F(coral, lam, x))) < 1e-9:
            assert np.max(np.abs(x - x[0] * coral.cf.a)) <= 1e-7 * max(1.0, abs(x[0]))


def test_lambda_R_conversion(coral):
    # R = lambda (b.a), and the unscaled branch system's t is R
    assert abs(1.0 * coral.cf.ba - 29.15) < 0.15
    assert abs(0.3 * coral.cf.ba - 8.744) < 0.05
    x = 1.2345
    assert math.isclose(CoralBranchSystem(coral).lam_of_t(x * coral.cf.ba), x,
                        rel_tol=4 * 2.0 ** -52)


# ---------------------------------------------------------------------------
# interval / multiprecision coherence
# ---------------------------------------------------------------------------


def test_interval_step_contains_float_samples(coral):
    rng = np.random.default_rng(12)
    lam0, x0 = 2.0, 700.0 * coral.cf.a
    lam_iv = IArray.around([lam0], 1e-8)[0]
    box = IArray.around(x0, 1e-6)
    enc = IArray.from_scalars(coral.step_scalars(lam_iv, box.to_scalars(), coral.ci))
    for _ in range(25):
        lam = lam0 + rng.uniform(-1e-8, 1e-8)
        x = x0 + rng.uniform(-1e-6, 1e-6, 13)
        assert contains(enc, step(coral, lam, x))


def test_interval_jacobian_contains_float(coral):
    lam0, x0 = 2.0, 700.0 * coral.cf.a
    J_iv = coral.jac_x_iv(Interval.point(lam0), coral.row1_jet(IArray.point(x0)))
    J = coral.jac_x(lam0, x0)
    assert np.all(J_iv.lo <= J + 1e-12) and np.all(J_iv.hi >= J - 1e-12)


def _row1_boxes(coral, rng, count):
    """Boxes around jittered branch-like states, from points (radius 0)
    to relative radius 1e-4."""
    for i in range(count):
        c = rng.uniform(50.0, 3000.0) * coral.cf.a * rng.uniform(0.8, 1.2, coral.d)
        rel = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-15.0, -4.0)
        yield c, IArray.around(c, rel * c) if rel else IArray.point(c)


def test_row1_jet_equals_scalar_interval_evaluation(coral):
    bits = lambda iv: (iv.lo, iv.hi)
    for _, box in _row1_boxes(coral, np.random.default_rng(21), 24):
        phis, bx, g, g1 = scalar_row1(coral, box.to_scalars())
        for order in (1, 2, 3):
            jet = coral.row1_jet(box, order=order)
            assert len(jet.phis) == order + 1
            assert [bits(p) for p in jet.phis] == [bits(p) for p in phis[:order + 1]]
            assert bits(jet.bx) == bits(bx) and bits(jet.g) == bits(g)
            assert np.array_equal(jet.g1.lo, [gj.lo for gj in g1])
            assert np.array_equal(jet.g1.hi, [gj.hi for gj in g1])


def test_row1_jet_contains_high_precision_values(coral):
    """At the corners and interior points of each box, the 50-digit g,
    dg/dx, b.x and phi..phi^(order) (phi's derivatives by mpmath's
    numerical differentiation) lie inside the jet's enclosures."""
    rng = np.random.default_rng(22)
    inside = lambda lo, hi, v: mp.mpf(float(lo)) <= v <= mp.mpf(float(hi))
    with mp.workdps(50):
        c = mp_coeffs(coral)
        for centre, box in _row1_boxes(coral, rng, 12):
            corners = [box.lo, box.hi] + [np.where(rng.random(coral.d) < 0.5, box.lo, box.hi)
                                          for _ in range(2)]
            interior = [np.clip(centre + (box.hi - box.lo) * rng.uniform(-0.5, 0.5, coral.d),
                                box.lo, box.hi) for _ in range(2)]
            for order in (1, 2, 3):
                jet = coral.row1_jet(box, order=order)
                for pt in corners + interior:
                    x = [mp.mpf(float(v)) for v in pt]
                    P = mp.fsum(qk * xk for qk, xk in zip(c.q, x))
                    bx = mp.fsum(bk * xk for bk, xk in zip(c.b, x))
                    ds = [mp.diff(lambda y: phi(y, coral.params), P, n)
                          for n in range(order + 1)]
                    for n in range(order + 1):
                        assert inside(jet.phis[n].lo, jet.phis[n].hi, ds[n]), (order, n)
                    assert inside(jet.bx.lo, jet.bx.hi, bx)
                    assert inside(jet.g.lo, jet.g.hi, ds[0] * bx)
                    for j in range(coral.d):
                        gj = ds[1] * c.q[j] * bx + ds[0] * c.b[j]
                        assert inside(jet.g1.lo[j], jet.g1.hi[j], gj), (order, j)


def _exact_hull(*factors):
    """Exact range of a product of intervals (at 60 digits the product
    of three doubles is exact)."""
    vals = [mp.fprod(mp.mpf(float(e)) for e in ends)
            for ends in itertools.product(*((f.lo, f.hi) for f in factors))]
    return min(vals), max(vals)


def test_row1_jet_stages_enclose_the_exact_hull_of_their_inputs(coral):
    """Each endpoint-array stage of the jet -- b.x, g = phi (b.x) and
    g1_j = phi' q_j (b.x) + phi b_j -- encloses the exact range of its
    expression over its interval inputs (the coefficient enclosures, the
    box and the jet's own phi, phi' and b.x), so no outward step is
    missing; the real-valued check above cannot see one step under the
    width that the phi enclosures carry."""
    ci = coral.ci
    with mp.workdps(60):
        for _, box in _row1_boxes(coral, np.random.default_rng(23), 24):
            jet = coral.row1_jet(box)
            xs = box.to_scalars()
            hulls = [_exact_hull(bk, xk) for bk, xk in zip(ci.b, xs)]
            assert mp.mpf(jet.bx.lo) <= mp.fsum(h[0] for h in hulls)
            assert mp.fsum(h[1] for h in hulls) <= mp.mpf(jet.bx.hi)
            lo, hi = _exact_hull(jet.phis[0], jet.bx)
            assert mp.mpf(jet.g.lo) <= lo and hi <= mp.mpf(jet.g.hi)
            for j in range(coral.d):
                t = _exact_hull(jet.phis[1], ci.q[j], jet.bx)
                u = _exact_hull(jet.phis[0], ci.b[j])
                assert mp.mpf(float(jet.g1.lo[j])) <= t[0] + u[0], j
                assert t[1] + u[1] <= mp.mpf(float(jet.g1.hi[j])), j


def test_mp_coefficients_match_float(coral):
    with mp.workdps(40):
        c = mp_coeffs(coral)
        assert abs(float(c.ba) - coral.cf.ba) <= 1e-12 * coral.cf.ba
        assert abs(float(c.sum_pa) - coral.cf.sum_pa) <= 1e-12 * coral.cf.sum_pa


def test_interval_coefficients_enclose_mp(coral):
    with mp.workdps(60):
        c = mp_coeffs(coral)
        for k in range(13):
            iv = coral.ci.b[k]
            assert iv.lo <= float(c.b[k]) <= iv.hi or \
                mp.mpf(iv.lo) <= c.b[k] <= mp.mpf(iv.hi)


# ---------------------------------------------------------------------------
# preconditioning
# ---------------------------------------------------------------------------


def test_scaled_map_identity_scaling(coral):
    system = CoralBranchSystem(coral)      # unit scales, t = R
    x = 600.0 * coral.cf.a
    R = 2.0 * coral.cf.ba                  # R for lambda = 2
    assert system.R_of_t(R) == R
    lam, xr = system.lam_of_t(R), system.s * x
    assert math.isclose(lam, 2.0, rel_tol=1e-15) and np.array_equal(xr, x)
    assert np.allclose(system.evaluate(np.array([R]), x[None])[0][0] + x, step(coral, 2.0, x),
                       rtol=1e-12)


def test_scaled_map_conjugacy(coral):
    red = FixedPointReduction(coral)
    x1 = max(red.solve(2.0))
    x = red.full_point(x1)
    scales = np.maximum(np.abs(x), 1e-3)
    system = CoralBranchSystem(coral, scales=scales, rscale=100.0)
    R = 2.0 * coral.cf.ba
    t, u = system.from_raw_R(R, x)
    assert math.isclose(system.R_of_t(t), R, rel_tol=1e-15)
    lam, xr = system.lam_of_t(t), system.s * u
    assert math.isclose(lam, 2.0, rel_tol=1e-14)
    assert np.allclose(xr, x, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(system.evaluate(np.array([t]), u[None])[0])) <= 1e-10


def test_scaled_map_rejects_bad_scales(coral):
    with pytest.raises(ValidationFailed):
        CoralBranchSystem(coral, scales=np.zeros(13))
    for bad in (math.nan, math.inf, -1.0):
        scales = np.ones(13)
        scales[6] = bad
        with pytest.raises(ValidationFailed, match="positive and finite"):
            CoralBranchSystem(coral, scales=scales)


def test_derive_generic_interval_contains_float(coral):
    gen = derive_generic(coral.params, Interval.point,
                         lambda k, r: Interval.point(float(k)).pow(r))
    for k in range(13):
        assert coral.cf.a[k] in gen.a[k] or abs(coral.cf.a[k] - gen.a[k].mid) < 1e-12
