import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certibif.dynamics import (angle_profile, density_matched_state,
                               farey_min_denominator, iterate,
                               polyp_density_series, rotation_number)
from certibif.errors import OrbitDiverged, RotationUndefined

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rigid_rotation(rho: float, n: int, r: float = 1.0, phase: float = 0.0):
    th = phase + 2.0 * math.pi * rho * np.arange(n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_iterate_counts_and_skip(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 1.0, y, n=50, skip=10)
    assert orb.points.shape == (50, 13)
    assert orb.transient_skipped == 10
    direct = iterate(coral, 1.0, y, n=60, skip=0)
    assert np.allclose(orb.points[0], direct.points[10])


def test_iterate_batch_matches_map_steps(coral):
    # reference: the float map applied one orbit and one step at a time
    y = density_matched_state(coral, 1500.0)
    lams = np.array([1.0, 5.5, 6.25])
    x0 = np.stack([y, 1.5 * y, 0.7 * y])
    orb = iterate(coral, lams, x0, n=300, skip=20, keep=2)
    assert orb.points.shape == (300, 3, 2)
    assert orb.transient_skipped == 20
    for j in range(3):
        x = x0[j]
        ref = []
        for _ in range(320):
            x = coral.step(lams[j], x)
            ref.append(x[:2])
        assert np.allclose(orb.points[:, j], ref[20:], rtol=1e-12, atol=0.0)


def test_batched_rotation_numbers_match_single_orbits(coral):
    y = density_matched_state(coral, 1500.0)
    lams = np.array([160.0, 180.0, 200.0]) / coral.cf.ba
    batch = iterate(coral, lams, 1.5 * y, n=20_000, skip=2_000, keep=2)
    for j, lam in enumerate(lams):
        alone = iterate(coral, float(lam), 1.5 * y, n=20_000, skip=2_000)
        assert abs(rotation_number(batch.points[:, j]).rho
                   - rotation_number(alone).rho) <= 1e-12


def test_orbit_decays_at_low_R(coral):
    lam = 0.3      # R = 8.744
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, lam, y, n=400, skip=0)
    assert np.max(np.abs(orb.points[-1])) < 1e-3 * np.max(y)


def test_orbit_components_stay_nonnegative(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 5.5, 1.5 * y, n=2000, skip=0)
    assert np.min(orb.points) >= 0.0


def test_orbit_diverges_detected(coral):
    bad = np.full(13, 1e308)   # dot products overflow, state goes non-finite
    with pytest.raises(OrbitDiverged) as alone:
        iterate(coral, 1.0, bad, n=50, skip=0)
    # one diverging orbit fails its batch, naming the same iterate
    y = density_matched_state(coral, 1500.0)
    with pytest.raises(OrbitDiverged) as batch:
        iterate(coral, 1.0, np.stack([y, bad, y]), n=50, skip=0)
    assert str(batch.value) == str(alone.value)


def test_density_matched_state(coral):
    y = density_matched_state(coral, 1500.0)
    assert math.isclose(float(coral.cf.q @ y), 1500.0, rel_tol=1e-12)
    assert np.allclose(y / y[0], coral.cf.a)


def test_polyp_density_series(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 1.0, y, n=5, skip=0)
    P = polyp_density_series(coral, orb)
    assert P.shape == (5,)
    assert np.all(P >= 0.0)


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------


def test_rigid_rotation_recovered_to_1e12():
    pts = _rigid_rotation(GOLDEN, 10_001)
    res = rotation_number(pts, center=(0.0, 0.0))
    assert abs(res.rho - GOLDEN) <= 1e-12


def test_weighted_beats_unweighted_average():
    pts = _rigid_rotation(GOLDEN, 10_001)
    _, inc = np.arctan2(pts[:, 1], pts[:, 0]), None
    th = np.arctan2(pts[:, 1], pts[:, 0])
    inc = np.diff(th)
    inc = np.where(inc <= -math.pi, inc + 2 * math.pi, inc)
    plain = float(np.mean(inc)) / (2 * math.pi) % 1.0
    res = rotation_number(pts, center=(0.0, 0.0))
    assert abs(plain - GOLDEN) >= 1e3 * abs(res.rho - GOLDEN)


def test_rotation_invariance_start_point_and_transient():
    base = rotation_number(_rigid_rotation(GOLDEN, 30_000), center=(0, 0))
    shifted = rotation_number(_rigid_rotation(GOLDEN, 30_000, phase=2.2),
                              center=(0, 0))
    assert abs(base.rho - shifted.rho) <= 1e-10


def test_rotation_center_hit_raises():
    pts = _rigid_rotation(GOLDEN, 100)
    pts[17] = (0.0, 0.0)
    with pytest.raises(RotationUndefined):
        rotation_number(pts, center=(0.0, 0.0))


def test_rotation_nonmonotone_raises():
    th = np.cumsum(np.where(np.arange(600) % 2 == 0, 0.4, -0.4))
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    with pytest.raises(RotationUndefined):
        rotation_number(pts, center=(0.0, 0.0))


def test_coral_rotation_number_and_gap(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 5.5, 1.5 * y, n=50_000, skip=10_000)
    res = rotation_number(orb)
    assert 0.12 < res.rho < 0.14
    assert res.convergence_gap <= 1e-12


def test_coral_rotation_invariance_on_circle(coral):
    y = density_matched_state(coral, 1500.0)
    a = rotation_number(iterate(coral, 5.5, 1.5 * y, n=30_000, skip=2_000))
    b = rotation_number(iterate(coral, 5.5, 1.2 * y, n=30_000, skip=12_000))
    assert abs(a.rho - b.rho) <= 1e-10


# ---------------------------------------------------------------------------
# angle profiles
# ---------------------------------------------------------------------------


def test_angle_profile_flat_for_rigid_rotation():
    rho = GOLDEN / 2.0  # irrational and below one half: no wrap, no empty bins
    pts = _rigid_rotation(rho, 20_000)
    prof = angle_profile(pts, center=(0.0, 0.0), bins=32)
    assert not prof.empty_bins
    assert np.nanmax(prof.mean_increment) - np.nanmin(prof.mean_increment) <= 1e-12
    assert np.allclose(prof.mean_increment, rho, atol=1e-10)


def test_angle_profile_minimum_toward_extinction(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 6.25, 1.5 * y, n=60_000, skip=10_000)
    prof = angle_profile(orb, bins=64)
    assert abs(prof.minimum_angle - 0.625) <= 0.05
    assert np.nanmin(prof.mean_increment) < 0.02   # near-zero advance there


def test_angle_profile_empty_bins_interpolated():
    pts = _rigid_rotation(0.5, 40)   # period-2: only two angles visited
    prof = angle_profile(pts, center=(0.0, 0.0), bins=16)
    assert prof.empty_bins
    assert not np.any(np.isnan(prof.mean_increment))


# ---------------------------------------------------------------------------
# Farey search
# ---------------------------------------------------------------------------


def test_farey_rotation_band():
    assert farey_min_denominator("0.126", "0.129") == (5, 39)


def test_farey_quarter():
    assert farey_min_denominator("0.24", "0.26") == (1, 4)


def test_farey_exact_endpoint_inclusive():
    assert farey_min_denominator(Fraction(1, 3), Fraction(1, 3)) == (1, 3)


def test_farey_rejects_bad_range():
    with pytest.raises(ValueError):
        farey_min_denominator("0.5", "0.4")
    with pytest.raises(ValueError):
        farey_min_denominator("0.0", "0.5")


def _brute_min_denominator(lo: Fraction, hi: Fraction, qmax: int = 20_000):
    for q in range(1, qmax + 1):
        pmin = -((-lo.numerator * q) // lo.denominator)   # ceil
        pmax = (hi.numerator * q) // hi.denominator       # floor
        if pmin <= pmax:
            return pmin, q
    return None


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(995, 1000)),
       st.fractions(min_value=Fraction(1, 10_000), max_value=Fraction(3, 10)))
@settings(max_examples=150, deadline=None)
def test_farey_matches_exhaustive_scan(lo, width):
    hi = min(lo + width, Fraction(999, 1000))
    got = farey_min_denominator(lo, hi)
    assert got == _brute_min_denominator(lo, hi)
    assert lo <= Fraction(*got) <= hi


def test_farey_narrow_interval_fast():
    # deep descent must stay fast (binary jumps, not unit steps)
    got = farey_min_denominator(Fraction(10**9, 10**18 + 7), Fraction(10**9 + 1, 10**18))
    assert Fraction(10**9, 10**18 + 7) <= Fraction(*got) <= Fraction(10**9 + 1, 10**18)
