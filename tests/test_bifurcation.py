import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from certibif.bifurcation import (CI, NsSystem, SnSystem,
                                  atan2_enclosure, find_ns_anchor,
                                  find_sn_anchor, ns_box_data, ns_condition_c_pair,
                                  ns_condition_d, ns_condition_e,
                                  transcritical_analysis,
                                  verified_solve, verified_spectrum_inside_disk)
from certibif.cift import certificate_json
from certibif.errors import DomainError, SpectrumInconclusive
from certibif.interval import IArray, Interval
from certibif.model import FixedPointReduction, phi_derivs, row1_d2

from helpers import (assert_json_lossless, contains, mp_coeffs, mp_fd_jacobian,
                     mp_system_refine, step)


# ---------------------------------------------------------------------------
# complex interval scalars and atan2
# ---------------------------------------------------------------------------


def test_ci_arithmetic_contains_complex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        za = CI(Interval(a), Interval(b))
        zb = CI(Interval(c), Interval(d))
        w = complex(a, b) * complex(c, d)
        prod = za * zb
        assert w.real in prod.re and w.imag in prod.im
        if abs(complex(c, d)) > 1e-3:
            q = complex(a, b) / complex(c, d)
            quot = za / zb
            assert q.real in quot.re and q.imag in quot.im


def test_ci_abs_bounds():
    z = CI(Interval(3.0), Interval(4.0))
    assert (z.re.sqr() + z.im.sqr()).sqrt().lo <= 5.0 <= z.abs_hi()


def test_atan2_enclosure_corners():
    th = atan2_enclosure(Interval(0.9, 1.1), Interval(0.9, 1.1))
    assert th.lo <= math.pi / 4 <= th.hi
    for bb in (0.9, 1.1):
        for aa in (0.9, 1.1):
            assert math.atan2(bb, aa) in th


def test_atan2_enclosure_spanning_vertical():
    th = atan2_enclosure(Interval(1.0, 2.0), Interval(-0.5, 0.5))
    assert math.atan2(1.0, 0.0) in th
    assert th.hi < math.pi and th.lo > 0.0


def test_atan2_requires_positive_sine():
    with pytest.raises(DomainError):
        atan2_enclosure(Interval(-1.0, 1.0), Interval(1.0))


def test_verified_solve_encloses_solution():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(8, 8)) + 8 * np.eye(8)
    b = rng.normal(size=8)
    sol = verified_solve(IArray.point(A), IArray.point(b))
    assert contains(sol, np.linalg.solve(A, b))


# ---------------------------------------------------------------------------
# extended systems
# ---------------------------------------------------------------------------


def test_hns_dimension_and_zero_residual(coral, ns_cert):
    ns = NsSystem(coral)
    assert ns.dim == 3 * 13 + 3 == 42
    z = np.array(ns_cert.anchor)
    assert np.max(np.abs(ns.value(z))) <= 1e-11


def test_hns_rows_are_real_imag_eigen_equation(coral):
    """Rows 2-3 encode D_xf (u + i w) = (a - i b)(u + i w)."""
    x, lam, w, u, a, b = NsSystem(coral).split(find_ns_anchor(coral))
    A = coral.jac_x(lam, x)
    zeta = u + 1j * w
    assert np.max(np.abs(A @ zeta - (a - 1j * b) * zeta)) <= 1e-11


def test_hns_value_on_synthetic_eigen_data():
    """The block formulas vanish for hand-built exact eigen data of a pure
    rotation: rows 2..3 evaluated directly, no map involved."""
    th = 0.7
    a, b = math.cos(th), math.sin(th)
    A = np.array([[a, -b], [b, a]])     # A (u + i w) = (a - i b)(u + i w)
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    r2 = A @ w - a * w + b * u
    r3 = A @ u - b * w - a * u
    assert np.max(np.abs(r2)) <= 1e-15 and np.max(np.abs(r3)) <= 1e-15
    assert abs(a * a + b * b - 1.0) <= 1e-15


def test_hns_interval_value_contains_float(coral):
    ns = NsSystem(coral)
    z = find_ns_anchor(coral)
    enc = ns.value_iv(IArray.around(z, 1e-9))
    assert contains(enc, ns.value(z))


def _assert_jac_iv_contains_mp_jacobian(coral, system, z, rad=1e-9, corners=4):
    """At the centre and at corners of the radius-`rad` box around z, the
    50-digit finite-difference Jacobian of value_scalars lies inside
    jac_iv(box) to within 1e-20 * max(1, |J|)."""
    box = IArray.around(z, rad)
    Jiv = system.jac_iv(box)
    rng = np.random.default_rng(system.dim)
    points = [z, box.lo, box.hi] + [np.where(rng.random(system.dim) < 0.5, box.lo, box.hi)
                                    for _ in range(corners - 2)]
    with mp.workdps(50):
        coeffs = mp_coeffs(coral)

        def val(zz):
            return mp.matrix(system.value_scalars(list(zz), coeffs))

        for pt in points:
            J = mp_fd_jacobian(val, mp.matrix([mp.mpf(float(v)) for v in pt]))
            for i in range(system.dim):
                for j in range(system.dim):
                    tol = mp.mpf(1e-20) * max(1, abs(J[i, j]))
                    assert Jiv.lo[i, j] - tol <= J[i, j] <= Jiv.hi[i, j] + tol, (i, j)


def test_hns_jacobian_matches_finite_differences(coral):
    ns = NsSystem(coral)
    z = find_ns_anchor(coral)
    J = ns.jac(z)
    rng = np.random.default_rng(3)
    for j in rng.choice(42, size=10, replace=False):
        h = 1e-6 * max(1.0, abs(z[j]))
        e = np.zeros(42); e[j] = h
        col = (ns.value(z + e) - ns.value(z - e)) / (2 * h)
        assert np.allclose(J[:, int(j)], col, rtol=1e-6, atol=2e-4)
    _assert_jac_iv_contains_mp_jacobian(coral, ns, z)


def test_hsn_dimension_and_jacobian(coral):
    sn = SnSystem(coral)
    assert sn.dim == 2 * 13 + 1 == 27
    z = find_sn_anchor(coral)
    assert np.max(np.abs(sn.value(z))) <= 1e-11
    J = sn.jac(z)
    rng = np.random.default_rng(4)
    for j in rng.choice(27, size=8, replace=False):
        h = 1e-6 * max(1.0, abs(z[j]))
        e = np.zeros(27); e[j] = h
        col = (sn.value(z + e) - sn.value(z - e)) / (2 * h)
        assert np.allclose(J[:, int(j)], col, rtol=1e-6, atol=2e-4)
    _assert_jac_iv_contains_mp_jacobian(coral, sn, z)


@pytest.mark.parametrize("system_cls, find_anchor", [(NsSystem, find_ns_anchor),
                                                     (SnSystem, find_sn_anchor)],
                         ids=["NsSystem", "SnSystem"])
def test_hessian_sup_dominates_finite_differences(coral, system_cls, find_anchor):
    """T[i,k,j] must dominate |d2 H_i / dz_k dz_j| sampled at the anchor."""
    system = system_cls(coral)
    z = find_anchor(coral)
    m = system.dim
    T = system.hessian_sup(IArray.around(z, 1e-6))
    rng = np.random.default_rng(5)
    for _ in range(12):
        k, j = rng.integers(0, m, size=2)
        hk = 1e-5 * max(1.0, abs(z[k]))
        hj = 1e-5 * max(1.0, abs(z[j]))
        ek = np.zeros(m); ek[k] = hk
        ej = np.zeros(m); ej[j] = hj
        d2 = (system.value(z + ek + ej) - system.value(z + ek - ej)
              - system.value(z - ek + ej) + system.value(z - ek - ej)) / (4 * hk * hj)
        assert np.all(np.abs(d2) <= T[:, int(k), int(j)] + 1e-4)


# ---------------------------------------------------------------------------
# verified spectrum
# ---------------------------------------------------------------------------


def test_spectrum_diagonal_inside():
    A = IArray.point(np.diag([0.5, 0.9]))
    res = verified_spectrum_inside_disk(A, exclude=0)
    assert res.count_inside == 2


def test_spectrum_rotation_on_circle():
    th = math.radians(46.85)
    A = IArray.point(np.array([[math.cos(th), -math.sin(th)],
                                [math.sin(th), math.cos(th)]]))
    res = verified_spectrum_inside_disk(A, exclude=2)
    assert res.count_inside == 0
    assert res.outliers_separated


def test_spectrum_too_many_outliers():
    A = IArray.point(np.diag([1.5, 2.5, 0.1]))
    with pytest.raises(SpectrumInconclusive):
        verified_spectrum_inside_disk(A, exclude=1)


def test_spectrum_coral_ns(coral, ns_cert):
    box = IArray(np.array(ns_cert.enclosure_lo), np.array(ns_cert.enclosure_hi))
    x_box, lam_iv = NsSystem(coral).x_lam(box)
    res = verified_spectrum_inside_disk(coral.jac_x_iv(lam_iv, coral.row1_jet(x_box)),
                                       exclude=2)
    assert res.count_inside == 11
    assert res.outliers_separated


# ---------------------------------------------------------------------------
# NS conditions against a floating-point oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ns_float_oracle(coral):
    z = find_ns_anchor(coral)
    x0, lam0, w0, u0, a0, b0 = NsSystem(coral).split(z)
    A = coral.jac_x(lam0, x0)
    mu = a0 + 1j * b0
    q = u0 - 1j * w0
    ev, vecs = np.linalg.eig(A.T)
    k = int(np.argmin(np.abs(ev - np.conj(mu))))
    p = vecs[:, k]
    p = p / np.conj(np.vdot(p, q))
    cf = coral.cf
    P = float(cf.q @ x0)
    bx = float(cf.b @ x0)
    ph, p1d, p2d, p3d = phi_derivs(P, coral.params, order=3)
    g1 = p1d * cf.q * bx + ph * cf.b
    g2 = p2d * bx * np.outer(cf.q, cf.q) + p1d * (np.outer(cf.q, cf.b)
                                                  + np.outer(cf.b, cf.q))

    def B(y, z2):
        out = np.zeros(13, dtype=complex)
        qy, qz = cf.q @ y, cf.q @ z2
        by, bz = cf.b @ y, cf.b @ z2
        out[0] = lam0 * (p2d * bx * qy * qz + p1d * (qy * bz + by * qz))
        return out

    def C(y, z2, v):
        out = np.zeros(13, dtype=complex)
        qy, qz, qv = cf.q @ y, cf.q @ z2, cf.q @ v
        by, bz, bv = cf.b @ y, cf.b @ z2, cf.b @ v
        out[0] = lam0 * (p3d * bx * qy * qz * qv
                         + p2d * (qy * qz * bv + qy * bz * qv + by * qz * qv))
        return out

    Dlamf = np.zeros(13)
    Dlamf[0] = ph * bx
    x0p = -np.linalg.solve(A - np.eye(13), Dlamf)
    dAdl_total = np.zeros((13, 13))
    dAdl_total[0] = g1 + lam0 * (g2 @ x0p)
    dAdl_expl = np.zeros((13, 13))
    dAdl_expl[0] = g1
    c_total = float(np.real(np.conj(mu) * np.vdot(p, dAdl_total @ q)))
    c_expl = float(np.real(np.conj(mu) * np.vdot(p, dAdl_expl @ q)))
    qb = np.conj(q)
    I13 = np.eye(13)
    e_val = float(np.real(np.conj(mu) * (
        np.vdot(p, C(q, q, qb))
        + 2 * np.vdot(p, B(q, np.linalg.solve(I13 - A, B(q, qb))))
        + np.vdot(p, B(qb, np.linalg.solve(mu ** 2 * I13 - A, B(q, q)))))))
    return dict(z=z, c_total=c_total, c_expl=c_expl, e=e_val, B=B, C=C,
                theta=math.degrees(cmath.phase(mu)))


def _ns_data(coral, box):
    ns = NsSystem(coral)
    x_box, lam_iv = ns.x_lam(box)
    jet = coral.row1_jet(x_box, order=ns.jet_order)
    return ns_box_data(coral, box, coral.jac_x_iv(lam_iv, jet), jet)


def test_ns_condition_c_matches_oracle(coral, ns_cert, ns_float_oracle):
    box = IArray(np.array(ns_cert.enclosure_lo), np.array(ns_cert.enclosure_hi))
    total, expl = ns_condition_c_pair(coral, _ns_data(coral, box))
    assert ns_float_oracle["c_total"] in total
    assert ns_float_oracle["c_expl"] in expl
    assert (total.hi - total.lo) <= 1e-4 * abs(ns_float_oracle["c_total"])


def test_ns_condition_c_total_equals_branch_eigen_slope(coral, ns_float_oracle):
    """The total-derivative transversality equals d|mu|/dlambda along the
    branch (independent finite-difference oracle)."""
    red = FixedPointReduction(coral)
    z = ns_float_oracle["z"]
    x0, lam0 = NsSystem(coral).x_lam(z)
    x1_0 = x0[0]

    def mumod(lam):
        x1 = x1_0
        for _ in range(60):
            h = 1e-7 * max(1.0, x1)
            r = red.branch_lambda(x1) - lam
            dr = (red.branch_lambda(x1 + h) - red.branch_lambda(x1 - h)) / (2 * h)
            x1 -= r / dr
        ev = np.linalg.eigvals(coral.jac_x(lam, red.full_point(x1)))
        return max(abs(e) for e in ev if abs(e.imag) > 1e-9)

    h = 1e-5
    slope = (mumod(lam0 + h) - mumod(lam0 - h)) / (2 * h)
    assert math.isclose(slope, ns_float_oracle["c_total"], rel_tol=1e-4)


def test_ns_condition_d_excludes_resonances(coral, ns_cert):
    box = IArray(np.array(ns_cert.enclosure_lo), np.array(ns_cert.enclosure_hi))
    theta, checks = ns_condition_d(coral, box)
    assert all(checks.values())
    assert abs(theta.mid - 46.85) < 0.01
    assert (theta.hi - theta.lo) < 1e-6


def test_ns_condition_e_matches_oracle_and_sign(coral, ns_cert, ns_float_oracle):
    box = IArray(np.array(ns_cert.enclosure_lo), np.array(ns_cert.enclosure_hi))
    val = ns_condition_e(coral, _ns_data(coral, box))
    assert ns_float_oracle["e"] in val
    assert val.hi < 0.0    # supercritical: stable invariant circles observed


def test_ns_condition_e_structured_vs_dense(coral, ns_float_oracle):
    """Rows 2..d of B vanish, so the structured evaluation must equal a
    dense tensor contraction."""
    rng = np.random.default_rng(6)
    x0, lam0 = NsSystem(coral).x_lam(ns_float_oracle["z"])
    y = rng.normal(size=13) + 1j * rng.normal(size=13)
    w = rng.normal(size=13) + 1j * rng.normal(size=13)
    got = ns_float_oracle["B"](y, w)
    # dense: finite-difference Hessian contraction of f_1
    h = 1e-3
    H = np.zeros((13, 13))
    for i in range(13):
        for j in range(13):
            ei = np.zeros(13); ei[i] = h
            ej = np.zeros(13); ej[j] = h
            H[i, j] = (step(coral, lam0, x0 + ei + ej)[0]
                       - step(coral, lam0, x0 + ei - ej)[0]
                       - step(coral, lam0, x0 - ei + ej)[0]
                       + step(coral, lam0, x0 - ei - ej)[0]) / (4 * h * h)
    dense = y @ H @ w
    assert abs(got[0] - dense) <= 1e-4 * max(1.0, abs(dense))
    assert np.all(got[1:] == 0.0)


def test_ns_condition_invariance_under_eigvec_phase(coral, ns_cert):
    """Rescaling q rotates w, u into another H_ns zero; conditions (c)
    and (e) must not change (checked through a second certified box)."""
    ns = NsSystem(coral)
    x0, lam0, w0, u0, a0, b0 = ns.split(np.array(ns_cert.anchor))
    # the (w, u) -> (-w, -u) symmetry gives another exact zero
    z2 = ns.join(x0, lam0, -w0, -u0, a0, b0)
    box2 = IArray.around(z2, ns_cert.delta_accuracy)
    data2 = _ns_data(coral, box2)
    total2, expl2 = ns_condition_c_pair(coral, data2)
    e2 = ns_condition_e(coral, data2)
    c_lo, c_hi = ns_cert.conditions["c_transversality"]
    e_lo, e_hi = ns_cert.conditions["e_normal_form"]
    assert abs(expl2.mid - 0.5 * (c_lo + c_hi)) <= 1e-6
    assert abs(e2.mid - 0.5 * (e_lo + e_hi)) <= 1e-9


# ---------------------------------------------------------------------------
# certification drivers
# ---------------------------------------------------------------------------


def test_certify_ns_summary(ns_cert):
    s = ns_cert.summary
    assert abs(s["R"] - 154.1) <= 0.5
    assert abs(s["lambda"] - 5.286) <= 0.02
    assert abs(s["x1"] - 1794.0) <= 5.0
    assert abs(s["P"] - 2689.0) <= 5.0
    assert ns_cert.spectrum_inside == 11
    assert ns_cert.delta_accuracy < ns_cert.delta_uniqueness


def test_certify_sn_summary(sn_cert):
    s = sn_cert.summary
    assert abs(s["R"] - 12.28) <= 0.05
    assert abs(s["lambda"] - 0.4213) <= 0.002
    assert abs(s["x1"] - 569.5) <= 1.0
    assert abs(s["P"] - 853.4) <= 1.0
    assert sn_cert.delta_accuracy <= 1e-10
    assert sn_cert.spectrum_inside == 12


def test_sn_conditions_product_orientation_invariant(coral, sn_cert):
    (c_lo, c_hi) = sn_cert.conditions["c_transversality"]
    (d_lo, d_hi) = sn_cert.conditions["d_nondegeneracy"]
    c_mid, d_mid = 0.5 * (c_lo + c_hi), 0.5 * (d_lo + d_hi)
    # fixed points exist for R above the fold, so the product is negative
    assert c_mid * d_mid < 0.0
    assert abs(abs(c_mid) - 353.4) <= 0.1
    assert abs(abs(d_mid) - 9.924e-4) <= 1e-6


def test_sn_left_vector_duality(coral, sn_cert):
    """p^t (A - I) encloses zero componentwise and p^t q = 1."""
    box = IArray(np.array(sn_cert.enclosure_lo), np.array(sn_cert.enclosure_hi))
    x, v, lam = SnSystem(coral).split(box.mid)
    A = coral.jac_x(float(lam), x)
    ev, vecs = np.linalg.eig(A.T - np.eye(13))
    k = int(np.argmin(np.abs(ev)))
    p0 = np.real(vecs[:, k])
    p0 = p0 / (p0 @ v)
    resid = p0 @ (A - np.eye(13))
    assert np.max(np.abs(resid)) <= 1e-9
    assert abs(p0 @ v - 1.0) <= 1e-12


def test_sn_anchor_q_is_multiple_of_v(coral, sn_cert):
    x, v, lam = SnSystem(coral).split(np.array(sn_cert.anchor))
    A = coral.jac_x(lam, x)
    assert np.max(np.abs(A @ v - v)) <= 1e-10
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_certificates_refine_to_true_zero(coral, ns_cert, sn_cert):
    """Soundness: 60-digit Newton refinement lands inside delta_accuracy."""
    coeffs = mp_coeffs(coral)
    for cert, system in ((sn_cert, SnSystem(coral)), (ns_cert, NsSystem(coral))):
        z0 = np.array(cert.anchor)
        z_ref = mp_system_refine(system, coeffs, z0, dps=60)
        err = max(abs(float(z_ref[i]) - z0[i]) for i in range(system.dim))
        assert err <= cert.delta_accuracy


def test_bif_certificate_json_roundtrip(coral, sn_cert, ns_cert):
    for cert in (sn_cert, ns_cert, transcritical_analysis(coral.params)):
        assert_json_lossless(cert, certificate_json(cert))


# ---------------------------------------------------------------------------
# transcritical point
# ---------------------------------------------------------------------------


def test_transcritical_location(coral):
    from fractions import Fraction
    res = transcritical_analysis(coral.params)
    # true R* = c2/c1 = 650/9 exactly (the constants are exact floats)
    assert Fraction(res.R_star.lo) <= Fraction(650, 9) <= Fraction(res.R_star.hi)
    assert (res.R_star.hi - res.R_star.lo) <= 1e-10
    lam_expect = (1.3e7 / 1.8e5) / coral.cf.ba
    assert abs(res.lambda_star.mid - lam_expect) <= 1e-12


def test_transcritical_eigenvectors(coral):
    res = transcritical_analysis(coral.params)
    v, w = (np.array([iv.mid for iv in e]) for e in (res.v, res.w))
    assert np.allclose(v, coral.cf.a)
    assert res.eigvec_residual <= 1e-10
    # left eigenvector kills (A - I) too
    lam0 = res.lambda_star.mid
    A = coral.jac_x(lam0, np.zeros(13))
    assert np.max(np.abs(w @ (A - np.eye(13)))) <= 1e-10 * np.max(w)
    # recursion w_d = b_d, w_k = b_k + S_k w_{k+1}
    assert math.isclose(w[-1], coral.cf.b[-1], rel_tol=1e-14)
    assert math.isclose(w[0], coral.cf.ba, rel_tol=1e-14)


def test_transcritical_eigenvectors_enclose_high_precision(coral):
    """v and w enclose their 50-digit values: v = a, and the backward
    recursion w_d = b_d, w_k = b_k + S_k w_{k+1}, w_1 = b.a."""
    res = transcritical_analysis(coral.params)
    with mp.workdps(50):
        c = mp_coeffs(coral)
        w = [None] * 13
        w[12] = c.b[12]
        for k in range(11, 0, -1):
            w[k] = c.b[k] + mp.mpf(coral.params.S[k]) * w[k + 1]
        w[0] = c.ba
        for iv, ref in zip(res.v + res.w, c.a + w):
            assert mp.mpf(iv.lo) <= ref <= mp.mpf(iv.hi)


def test_transcritical_nondegeneracy_signs(coral):
    res = transcritical_analysis(coral.params)
    assert not res.nd1.contains_zero() and res.nd1.lo > 0.0
    assert not res.nd2.contains_zero() and res.nd2.lo > 0.0
    # nd2 sign = sign(beta - alpha) > 0


def test_transcritical_nd2_closed_form(coral):
    p = coral.params
    res = transcritical_analysis(p)
    expect = coral.cf.ba * (2.0 * (p.beta - p.alpha) / p.omega) * coral.cf.sum_pa
    assert math.isclose(res.nd2.mid, expect, rel_tol=1e-12)


def test_bilinear_at_origin_matches_hand_formula(coral):
    p = coral.params
    lam0 = (p.c2 / p.c1) / coral.cf.ba
    phis = phi_derivs(0.0, p, order=2)
    qa, ba = float(coral.cf.q @ coral.cf.a), float(coral.cf.b @ coral.cf.a)
    got = lam0 * row1_d2(phis, 0.0, qa, ba, qa, ba)
    expect = (2.0 * (p.beta - p.alpha) / p.omega) * coral.cf.sum_pa
    assert math.isclose(got, expect, rel_tol=1e-10)


def test_trivial_branch_determinant_closed_form(coral):
    """det(D_x f(lambda, 0) - I) = (-1)^d (1 - lambda c1 (b.a) / c2): its
    zero is lambda* = c2 / (c1 (b.a)), and the factor matches the raw
    determinant, not just its zero set."""
    p = coral.params
    scale = p.c1 * coral.cf.ba / p.c2
    rng = np.random.default_rng(7)
    for lam in rng.uniform(0.1, 5.0, size=50):
        A = coral.jac_x(float(lam), np.zeros(13))
        det = float(np.linalg.det(A - np.eye(13)))
        expect = (-1.0) ** coral.d * (1.0 - scale * float(lam))
        assert math.isclose(det, expect, rel_tol=1e-10)


def test_eigenvalue_crossing_consistency(coral, branch_result,
                                         preconditioned_system, ns_cert,
                                         sn_cert):
    """The float spectral radius crosses 1 inside the NS enclosure's
    R-interval, and the fold tangent flips inside the SN enclosure's."""
    boxes = branch_result.boxes
    Rs = np.array([preconditioned_system.R_of_t(b.t) for b in boxes])
    rad = []
    for b in boxes:
        lam, x = preconditioned_system.lam_of_t(b.t), preconditioned_system.s * b.u
        ev = np.linalg.eigvals(coral.jac_x(lam, x))
        rad.append(max(abs(e) for e in ev))
    rad = np.array(rad)
    ns_R = ns_cert.summary["R"]
    cross = [i for i in range(len(boxes) - 1)
             if (rad[i] - 1.0) * (rad[i + 1] - 1.0) < 0]
    # the two boxes that straddle the float crossing bracket the certified
    # R, and the bracket is narrower than 1, so the nearer box lies within
    # 0.5 wherever the boxes fall
    assert any(min(Rs[i], Rs[i + 1]) <= ns_R <= max(Rs[i], Rs[i + 1])
               and abs(Rs[i] - Rs[i + 1]) < 1.0 for i in cross)
    mus = np.array([b.mu for b in boxes])
    flips = [i for i in range(len(boxes) - 1) if mus[i] * mus[i + 1] < 0]
    sn_R = sn_cert.summary["R"]
    assert any(abs(Rs[i] - sn_R) < 0.05 for i in flips)


def test_split_join_anchor_roundtrip(coral, sn_cert, ns_cert):
    sn, ns = SnSystem(coral), NsSystem(coral)
    zs = np.array(sn_cert.anchor)
    zn = np.array(ns_cert.anchor)
    assert np.array_equal(sn.join(*sn.split(zs)), zs)
    assert np.array_equal(ns.join(*ns.split(zn)), zn)
    x, v, lam = sn.split(zs)
    assert (len(x), len(v), lam) == (13, 13, zs[26])
    x, lam, w, u, a, b = ns.split(zn)
    assert (len(x), lam, len(w), len(u)) == (13, zn[13], 13, 13)
    assert abs(math.degrees(math.atan2(b, a)) - 46.85) < 0.01
    # an interval box splits into the same slots
    box = IArray(np.array(ns_cert.enclosure_lo), np.array(ns_cert.enclosure_hi))
    x_box, lam_box, *_, b_box = ns.split(box)
    assert np.array_equal(x_box.lo, box.lo[:13]) and lam_box.hi == box.hi[13]
    assert b_box.lo == box.lo[41]


def test_certificate_constants_at_table_scale(sn_cert, ns_cert):
    """The preconditioned hypothesis constants land at the expected scales
    (exact values depend on the box radius and preconditioner)."""
    assert sn_cert.summary["rho"] <= 1.653e-11           # x10 of 1.653e-12
    assert abs(sn_cert.summary["K"] - 1.0) <= 1e-6
    assert sn_cert.delta_accuracy <= 3.306e-11           # x10 of 3.306e-12
    assert 4.015e-7 / 2 <= sn_cert.delta_uniqueness <= 4.015e-7 * 2
    assert ns_cert.summary["rho"] <= 6.166e-10           # x10 of 6.166e-11
    assert abs(ns_cert.summary["K"] - 1.0) <= 1e-6
    assert ns_cert.delta_accuracy <= 1.473e-9
    assert 1.220e-8 / 2 <= ns_cert.delta_uniqueness <= 1.220e-8 * 2
    assert 4.097e6 <= ns_cert.summary["L1"] <= 4.097e8   # x10 of 4.097e7


def test_sn_left_vector_duality_rigorous(coral, sn_cert):
    """The certified left-eigenvector enclosure satisfies p^t (A - I) ~ 0
    and p^t v = 1 in interval arithmetic."""
    from certibif.bifurcation import _sn_left_vector
    box = IArray(np.array(sn_cert.enclosure_lo), np.array(sn_cert.enclosure_hi))
    d = coral.d
    sn = SnSystem(coral)
    x_box, v_box, lam_iv = sn.split(box)
    A_iv = coral.jac_x_iv(lam_iv, coral.row1_jet(x_box))
    p = _sn_left_vector(coral, A_iv, sn.split(box.mid)[1])
    AmI_T = IArray((A_iv.lo - np.eye(d)).T.copy(), (A_iv.hi - np.eye(d)).T.copy())
    ps = p.to_scalars()
    resid = IArray.from_scalars(sum((AmI_T[i, k] * ps[k] for k in range(d)),
                                     Interval(0.0)) for i in range(d))
    assert np.all(resid.lo <= 1e-7) and np.all(resid.hi >= -1e-7)
    # the pinning row normalizes against the numerical left vector, so
    # p^t v is close to but not exactly one before renormalization
    z = Interval(0.0)
    for pi, vi in zip(p.to_scalars(), v_box.to_scalars()):
        z = z + pi * vi
    assert not z.contains_zero()


def test_certification_follows_perturbed_parameters():
    """Nothing is baked in: perturbing a survival rate moves the certified
    fold while the extinction threshold R* = c2/c1 stays put."""
    from certibif.bifurcation import certify_sn
    from certibif.model import CoralMap, CoralParams
    base = CoralParams()
    S = list(base.S)
    S[0] = 0.80    # weaker first-year survival
    pert = CoralParams(S=tuple(S))
    coral_p = CoralMap(pert)
    cert = certify_sn(coral_p)
    # the fold's R is 1/max(phi) and depends only on the recruitment
    # constants, but lambda and x1 move with the survival table
    assert abs(cert.summary["R"] - 12.2786) < 0.01
    assert abs(cert.summary["lambda"] - 0.42125) > 0.005
    assert abs(cert.summary["x1"] - 569.46) > 1.0
    assert cert.delta_accuracy <= 1e-9
    res = transcritical_analysis(pert)
    assert abs(res.R_star.mid - 72.2222222222222) < 1e-9   # c2/c1 unchanged
    assert res.lambda_star.mid > 2.4778                    # smaller b.a


def test_certify_fails_cleanly_on_bad_anchor(coral, sn_cert):
    from certibif.bifurcation import certify_sn
    from certibif.errors import CertificationFailed
    sn = SnSystem(coral)
    x, v, lam = sn.split(np.array(sn_cert.anchor))
    bad = sn.join(1.05 * x, v, lam)     # push the fixed point off the zero set
    with pytest.raises(CertificationFailed) as exc:
        certify_sn(coral, anchor=bad)
    assert "stage" in str(exc.value)


def test_certify_lets_programming_errors_through(coral, sn_cert, monkeypatch):
    """Only hypothesis failures become "stage cift"; a bug such as a
    TypeError inside the CIFT stage propagates unchanged."""
    from certibif.bifurcation import certify_sn

    def broken(self, box):
        raise TypeError("broken hessian_sup")

    monkeypatch.setattr(SnSystem, "hessian_sup", broken)
    with pytest.raises(TypeError, match="broken hessian_sup"):
        certify_sn(coral, anchor=np.array(sn_cert.anchor))


def test_certify_ns_rejects_conjugate_orientation(coral):
    """(x, lambda, -w, u, a, -b) is a zero of H_ns as well, carrying the
    conjugate eigenvalue a - ib; certify_ns refuses it at the orientation
    stage, which runs after the CIFT stage and before the spectrum."""
    from certibif.bifurcation import certify_ns
    from certibif.errors import CertificationFailed
    ns = NsSystem(coral)
    x, lam, w, u, a, b = ns.split(find_ns_anchor(coral))
    conj = ns.join(x, lam, -w, u, a, -b)
    assert np.max(np.abs(ns.value(conj))) <= 1e-12
    with pytest.raises(CertificationFailed, match="stage orientation"):
        certify_ns(coral, anchor=conj)
