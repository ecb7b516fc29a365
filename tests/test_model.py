import math

import mpmath as mp
import numpy as np
import pytest

from certibif.continuation import CoralBranchSystem
from certibif.errors import ValidationFailed
from certibif.interval import Interval, IVector
from certibif.model import (CoralParams, FixedPointReduction,
                            R_to_lambda, derive_generic, lambda_to_R, phi,
                            phi_derivs)

from helpers import mp_coeffs


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


def test_step_extinction_fixed(coral):
    for lam in (0.3, 1.0, 5.5):
        assert np.all(coral.step(lam, np.zeros(13)) == 0.0)


def test_step_survival_rows_linear(coral):
    e1 = np.zeros(13); e1[0] = 1.0
    out = coral.step(2.7, e1)
    assert out[1] == 0.89                       # Table value S_1
    x = np.arange(1.0, 14.0)
    assert np.allclose(coral.step(9.9, x)[1:], coral.step(0.1, x)[1:])


def test_validated_ns_point_is_nearly_fixed(coral):
    red = FixedPointReduction(coral)
    x1 = 1794.0
    # refine the first component with the reduced equation, then plug back
    lam = red.branch_lambda(x1)
    for _ in range(60):
        h = 1e-6
        r = red.residual(lam, x1)
        dr = (red.residual(lam, x1 + h) - red.residual(lam, x1 - h)) / (2 * h)
        x1 -= r / dr
    x = red.full_point(x1)
    assert np.max(np.abs(coral.step(lam, x) - x)) <= 1e-6


def test_map_F_examples(coral):
    assert np.all(coral.map_F(1.7, np.zeros(13)) == 0.0)
    x = np.arange(1.0, 14.0)
    assert np.allclose(coral.map_F(2.0, x), coral.step(2.0, x) - x)


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
        col = (coral.step(lam, x + e) - coral.step(lam, x - e)) / (2 * h)
        assert np.allclose(J[:, j], col, rtol=1e-6, atol=1e-10)


def test_jac_lam_is_first_component_only(coral):
    x = 50.0 * coral.cf.a
    dl = coral.jac_lam(4.0, x)
    assert np.all(dl[1:] == 0.0)
    assert math.isclose(dl[0], coral.step(4.0, x)[0] / 4.0, rel_tol=1e-14)


def test_bilinear_symmetry_and_sparsity(coral):
    rng = np.random.default_rng(3)
    x = 1000.0 * coral.cf.a
    y, z, w = rng.normal(size=(3, 13))
    By_z = coral.bilinear_B(2.0, x, y, z)
    assert np.allclose(By_z, coral.bilinear_B(2.0, x, z, y))
    assert np.all(By_z[1:] == 0.0)
    C1 = coral.trilinear_C(2.0, x, y, z, w)
    for perm in ((z, y, w), (w, z, y), (y, w, z)):
        assert np.allclose(C1, coral.trilinear_C(2.0, x, *perm))
    assert np.all(C1[1:] == 0.0)


def test_bilinear_matches_finite_differences(coral):
    rng = np.random.default_rng(4)
    lam, x = 1.3, 900.0 * coral.cf.a
    y, z = rng.normal(size=(2, 13))
    h = 1e-3
    fd = (coral.step(lam, x + h * (y + z)) - coral.step(lam, x + h * y)
          - coral.step(lam, x + h * z) + coral.step(lam, x)) / h ** 2
    got = coral.bilinear_B(lam, x, y, z)
    assert math.isclose(got[0], fd[0], rel_tol=1e-4)


def test_trilinear_matches_finite_differences(coral):
    lam, x = 1.3, 900.0 * coral.cf.a
    y = coral.cf.a
    h = 1.0
    # third central difference along y
    vals = [coral.step(lam, x + k * h * y)[0] for k in (-2, -1, 0, 1, 2)]
    fd3 = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * h ** 3)
    got = coral.trilinear_C(lam, x, y, y, y)[0]
    assert math.isclose(got, fd3, rel_tol=1e-4)


# ---------------------------------------------------------------------------
# fixed-point reduction and parameter conversion
# ---------------------------------------------------------------------------


def test_reduction_zero_always_root(coral):
    red = FixedPointReduction(coral)
    for lam in (0.2, 1.0, 4.0):
        assert red.residual(lam, 0.0) == 0.0
        assert 0.0 in red.solve(lam)


def test_two_positive_roots_at_lambda_one(coral):
    red = FixedPointReduction(coral)
    pos = [r for r in red.solve(1.0) if r > 0]
    assert len(pos) == 2    # stable + unstable branch at R = 29.15


def test_reconstructed_point_residual(coral):
    red = FixedPointReduction(coral)
    for lam in (1.0, 3.0, 5.5):
        for x1 in (r for r in red.solve(lam) if r > 0):
            x = red.full_point(x1)
            assert np.max(np.abs(coral.map_F(lam, x))) <= 1e-9 * max(1.0, x1)


def test_full_newton_lands_on_reduced_branch(coral):
    # every 13-D fixed point found by Newton has x = x1 * a
    red = FixedPointReduction(coral)
    rng = np.random.default_rng(11)
    lam = 2.0
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, 13) * 800.0 * coral.cf.a
        for _ in range(80):
            F = coral.map_F(lam, x)
            J = coral.jac_x(lam, x) - np.eye(13)
            try:
                x = x - np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
        if np.max(np.abs(coral.map_F(lam, x))) < 1e-9:
            assert np.max(np.abs(x - x[0] * coral.cf.a)) <= 1e-7 * max(1.0, abs(x[0]))


def test_lambda_R_conversion(coral):
    assert abs(lambda_to_R(1.0, coral.cf) - 29.15) < 0.15
    assert abs(lambda_to_R(0.3, coral.cf) - 8.744) < 0.05
    x = 1.2345
    assert math.isclose(R_to_lambda(lambda_to_R(x, coral.cf), coral.cf), x,
                        rel_tol=4 * 2.0 ** -52)


# ---------------------------------------------------------------------------
# interval / multiprecision coherence
# ---------------------------------------------------------------------------


def test_interval_step_contains_float_samples(coral):
    rng = np.random.default_rng(12)
    lam0, x0 = 2.0, 700.0 * coral.cf.a
    lam_iv = Interval.around(lam0, 1e-8)
    box = IVector.around(x0, 1e-6)
    enc = IVector.from_scalars(coral.step_scalars(lam_iv, box.to_scalars(), coral.ci))
    for _ in range(25):
        lam = lam0 + rng.uniform(-1e-8, 1e-8)
        x = x0 + rng.uniform(-1e-6, 1e-6, 13)
        assert enc.contains_point(coral.step(lam, x))


def test_interval_jacobian_contains_float(coral):
    lam0, x0 = 2.0, 700.0 * coral.cf.a
    J_iv = coral.jac_x_iv(Interval.point(lam0), IVector.point(x0))
    J = coral.jac_x(lam0, x0)
    assert np.all(J_iv.lo <= J + 1e-12) and np.all(J_iv.hi >= J - 1e-12)


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
    lam, xr = system.to_raw(R, x)
    assert math.isclose(lam, 2.0, rel_tol=1e-15) and np.array_equal(xr, x)
    assert np.allclose(system.F(R, x) + x, coral.step(2.0, x), rtol=1e-12)


def test_scaled_map_conjugacy(coral):
    red = FixedPointReduction(coral)
    x1 = max(red.solve(2.0))
    x = red.full_point(x1)
    scales = np.maximum(np.abs(x), 1e-3)
    system = CoralBranchSystem(coral, scales=scales, rscale=100.0)
    R = 2.0 * coral.cf.ba
    t, u = system.from_raw_R(R, x)
    assert math.isclose(system.R_of_t(t), R, rel_tol=1e-15)
    lam, xr = system.to_raw(t, u)
    assert math.isclose(lam, 2.0, rel_tol=1e-14)
    assert np.allclose(xr, x, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(system.F(t, u))) <= 1e-10


def test_scaled_map_rejects_bad_scales(coral):
    with pytest.raises(ValidationFailed):
        CoralBranchSystem(coral, scales=np.zeros(13))


def test_derive_generic_interval_contains_float(coral):
    gen = derive_generic(coral.params, Interval.point,
                         lambda k, r: Interval.point(float(k)).pow(r))
    for k in range(13):
        assert coral.cf.a[k] in gen.a[k] or abs(coral.cf.a[k] - gen.a[k].mid) < 1e-12
