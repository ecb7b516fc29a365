"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Heavy artifacts (certificates, the validated branch) are built in
session fixtures and timed inside the criterion that first requires them.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np

from certibif.dynamics import (angle_profile, density_matched_state,
                               farey_min_denominator, iterate, rotation_number)
from certibif.interval import Interval
from certibif.model import FixedPointReduction
from certibif.bifurcation import NsSystem, SnSystem, transcritical_analysis

from helpers import mp_coeffs, mp_refine_branch_point, mp_system_refine


def criterion(number, name, limit_seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - t0
            status = "PASS" if elapsed <= limit_seconds else \
                f"FAIL (runtime {elapsed:.1f}s > {limit_seconds}s)"
            print(f"\nACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s]")
            assert elapsed <= limit_seconds
        return wrapper
    return deco


@criterion(1, "transcritical point", 1.0)
def test_c1_transcritical(coral):
    res = transcritical_analysis(coral.params)
    assert Fraction(res.R_star.lo) <= Fraction(650, 9) <= Fraction(res.R_star.hi)
    assert abs(res.R_star.mid - 72.2222222222222) < 1e-9
    lam_expect = res.R_star.mid / coral.cf.ba
    assert abs(res.lambda_star.mid - lam_expect) <= 1e-12
    assert np.allclose([v.mid for v in res.v], coral.cf.a)
    assert res.eigvec_residual <= 1e-10
    assert not res.nd1.contains_zero()
    assert not res.nd2.contains_zero()


@criterion(2, "reproduction number calibration", 1.0)
def test_c2_calibration(coral):
    assert abs(1.0 * coral.cf.ba - 29.15) <= 0.15
    assert abs(0.3 * coral.cf.ba - 8.744) <= 0.05


@criterion(3, "saddle-node certificate", 60.0)
def test_c3_saddle_node(request):
    cert = request.getfixturevalue("sn_cert")
    s = cert.summary
    assert abs(s["R"] - 12.28) <= 0.05
    assert abs(s["lambda"] - 0.4213) <= 0.002
    assert abs(s["x1"] - 569.5) <= 1.0
    assert abs(s["P"] - 853.4) <= 1.0
    assert cert.delta_accuracy <= 1e-10
    c_lo, c_hi = cert.conditions["c_transversality"]
    d_lo, d_hi = cert.conditions["d_nondegeneracy"]
    assert c_hi < 0.0 or c_lo > 0.0          # excludes zero
    assert d_hi < 0.0 or d_lo > 0.0
    c_mid, d_mid = 0.5 * (c_lo + c_hi), 0.5 * (d_lo + d_hi)
    # the sign convention makes (c) negative; the orientation-invariant
    # product (c)*(d) is negative because fixed points exist only above
    # the fold.
    assert 353.4 / 2 <= abs(c_mid) <= 353.4 * 2 and c_mid < 0.0
    assert 9.924e-4 / 2 <= abs(d_mid) <= 9.924e-4 * 2
    assert c_mid * d_mid < 0.0


@criterion(4, "Neimark-Sacker certificate", 300.0)
def test_c4_neimark_sacker(request):
    cert = request.getfixturevalue("ns_cert")
    s = cert.summary
    assert abs(s["R"] - 154.1) <= 0.5
    assert abs(s["lambda"] - 5.286) <= 0.02
    assert abs(s["x1"] - 1794.0) <= 5.0
    assert abs(s["P"] - 2689.0) <= 5.0
    assert cert.spectrum_inside == 11
    th_lo, th_hi = cert.conditions["d_theta0_deg"]
    assert abs(0.5 * (th_lo + th_hi) - 46.85) <= 0.5
    c_lo, c_hi = cert.conditions["c_transversality"]
    assert c_lo > 0.0 or c_hi < 0.0
    c_mid = 0.5 * (c_lo + c_hi)
    assert 4.338e-2 / 2 <= abs(c_mid) <= 4.338e-2 * 2
    # the total-derivative transversality (crossing speed) is certified too
    t_lo, t_hi = cert.conditions["c_transversality_total"]
    assert t_lo > 0.0 or t_hi < 0.0
    e_lo, e_hi = cert.conditions["e_normal_form"]
    assert e_hi < 0.0                        # strictly negative: supercritical


@criterion(5, "validated branch", 1800.0)
def test_c5_validated_branch(request, coral):
    system = request.getfixturevalue("preconditioned_system")
    res = request.getfixturevalue("branch_result")
    assert len(res.boxes) >= 1000
    assert res.all_linked()
    Rs = np.array([system.R_of_t(b.t) for b in res.boxes])
    assert Rs.min() <= 12.33                 # through the fold
    assert res.fold_index is not None
    # continues until approaching the trivial branch
    assert res.stop_reason in ("target", "link-failed") or \
        res.stop_reason.startswith("degenerate")
    assert Rs[-1] >= 65.0
    dmins = np.array([b.delta_min for b in res.boxes])
    assert dmins.max() <= 1e-10
    stretch = float((dmins <= 1.453e-13).mean())
    print(f"\n  [branch: {len(res.boxes)} boxes, max accuracy {dmins.max():.3g}, "
          f"{stretch:.0%} meet the 1.453e-13 stretch bound]")
    # preconditioning payoff: validated R-progress per step on the first
    # twenty steps, scaled vs raw
    raw = request.getfixturevalue("raw_branch_result")
    pre_dR = np.mean([abs(b.alpha_step * b.mu) * system.rscale
                      for b in res.boxes[:20]])
    raw_dR = np.mean([abs(b.alpha_step * b.mu) for b in raw.boxes[:20]])
    assert pre_dR >= 10.0 * raw_dR


@criterion(6, "dynamics regimes", 60.0)
def test_c6_dynamics_regimes(coral):
    red = FixedPointReduction(coral)
    y = density_matched_state(coral, 1500.0)

    # R = 8.744: extinction
    orb = iterate(coral, 0.3, y, n=600)
    assert float(coral.cf.q @ orb.points[-1]) <= 1e-3

    # R = 29.15: bistability.  With the default age profile y ~ a the
    # basin boundary is exactly the unstable fixed point at
    # P = 320.9 = 0.2139 * 1500, so the convergence window starts just
    # above 0.22y; thresholds quoted for other (young-skewed) age
    # profiles can sit lower, but the regime itself is unchanged.
    lam = 1.0
    roots = sorted(r for r in red.solve(lam) if r > 0)
    x_stable = red.full_point(roots[-1])
    assert abs(red.cP * roots[0] / 1500.0 - 0.2139) <= 5e-4   # basin edge
    for f in (0.22, 2.0):
        orb = iterate(coral, lam, f * y, n=3000)
        assert np.max(np.abs(orb.points[-1] - x_stable)) <= 1e-3 * np.max(x_stable)
    orb = iterate(coral, lam, 0.1 * y, n=3000)
    assert np.max(np.abs(orb.points[-1])) <= 1e-3

    # R = 87.44: still converges to the positive fixed point
    lam = 3.0
    x_fix = red.full_point(max(red.solve(lam)))
    orb = iterate(coral, lam, 1.5 * y, n=4000)
    assert np.max(np.abs(orb.points[-1] - x_fix)) <= 1e-3 * np.max(x_fix)

    # R = 160.31: bounded, non-convergent oscillation
    lam = 5.5
    orb = iterate(coral, lam, 1.5 * y, n=20_000, skip=1_000)
    P = orb.points @ coral.cf.q
    assert np.max(P) < 1e5
    tail = P[-2000:]
    assert np.max(tail) - np.min(tail) > 100.0


@criterion(7, "rotation numbers", 300.0)
def test_c7_rotation_numbers(coral):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    th = 2.0 * math.pi * golden * np.arange(10_001)
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    res = rotation_number(pts, center=(0.0, 0.0))
    assert abs(res.rho - golden) <= 1e-12

    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 5.5, 1.5 * y, n=50_000, skip=10_000)
    res = rotation_number(orb)
    assert res.convergence_gap <= 1e-12      # rho(50k) vs rho(40k)

    orb = iterate(coral, 6.25, 1.5 * y, n=100_000, skip=10_000)
    prof = angle_profile(orb, bins=64)
    assert abs(prof.minimum_angle - 0.625) <= 0.05


@criterion(8, "Farey minimal denominator", 10.0)
def test_c8_farey():
    assert farey_min_denominator("0.126", "0.129") == (5, 39)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        lo = Fraction(rng.integers(1, 9999), 10_000)
        width = Fraction(int(rng.integers(1, 3000)), 10_000)
        hi = min(lo + width, Fraction(9_999, 10_000))
        if hi <= lo:
            continue
        got = farey_min_denominator(lo, hi)
        expect = None
        for q in range(1, 20_001):
            pmin = -((-lo.numerator * q) // lo.denominator)
            pmax = (hi.numerator * q) // hi.denominator
            if pmin <= pmax:
                expect = (pmin, q)
                break
        assert got == expect


@criterion(9, "soundness suite", 300.0)
def test_c9_soundness(request, coral):
    sn_cert = request.getfixturevalue("sn_cert")
    ns_cert = request.getfixturevalue("ns_cert")
    coeffs = mp_coeffs(coral)
    for cert, system in ((sn_cert, SnSystem(coral)), (ns_cert, NsSystem(coral))):
        z0 = np.array(cert.anchor)
        z_ref = mp_system_refine(system, coeffs, z0, dps=60)
        err = max(abs(float(z_ref[i]) - z0[i]) for i in range(system.dim))
        assert err <= cert.delta_accuracy

    # sampled branch boxes: the alpha = 0 solution of G lies within delta_min
    branch = request.getfixturevalue("branch_result")
    system = request.getfixturevalue("preconditioned_system")
    rng = np.random.default_rng(99)
    for idx in rng.choice(len(branch.boxes), size=8, replace=False):
        box = branch.boxes[int(idx)]
        z = mp_refine_branch_point(system, coeffs, box, 0.0, dps=50)
        err = max(abs(float(v)) for v in z)
        assert err <= box.delta_min

    # interval containment, 1e5 random samples across the arithmetic ops
    n = 100_000
    lo1 = rng.uniform(-1e3, 1e3, n)
    w1 = rng.uniform(0.0, 10.0, n)
    lo2 = rng.uniform(-1e3, 1e3, n)
    w2 = rng.uniform(0.0, 10.0, n)
    s1 = rng.uniform(0.0, 1.0, n)
    s2 = rng.uniform(0.0, 1.0, n)
    checked = 0
    for i in range(n):
        ia = Interval(lo1[i], lo1[i] + w1[i])
        ib = Interval(lo2[i], lo2[i] + w2[i])
        x = lo1[i] + s1[i] * w1[i]
        yv = lo2[i] + s2[i] * w2[i]
        op = i & 3
        if op == 0:
            assert x + yv in ia + ib
        elif op == 1:
            assert x - yv in ia - ib
        elif op == 2:
            assert x * yv in ia * ib
        else:
            if not ib.contains_zero():
                assert x / yv in ia / ib
        checked += 1
    assert checked == n
