import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certibif.dynamics import (_HISTORY_BLOCK, density_matched_state,
                               farey_min_denominator, iterate, polyp_density_series,
                               rotation_and_profile)
from certibif.errors import OrbitDiverged, RotationUndefined
from certibif.model import CoralMap, CoralParams
from helpers import step

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
            x = step(coral, lams[j], x)
            ref.append(x[:2])
        assert np.allclose(orb.points[:, j], ref[20:], rtol=1e-12, atol=0.0)


def _step_loop(coral, lam, x, n, skip, keep):
    """Iterates skip+1 .. skip+n by one reference `step` call each."""
    out = []
    for t in range(skip + n):
        x = step(coral, lam, x)
        if t >= skip:
            out.append(x[:keep])
    return np.array(out).reshape(n, keep)


@pytest.mark.parametrize("n", [0, 1, 6, 7])
@pytest.mark.parametrize("skip", [0, 3, 4])
@pytest.mark.parametrize("keep", [1, 2, 13])
def test_iterate_pairs_match_per_step_loop(coral, n, skip, keep):
    # two iterates per round: odd and even n and skip end or start with a
    # half round
    y = density_matched_state(coral, 1500.0)
    lams = np.array([1.0, 5.5, 6.25])
    x0 = np.stack([y, 1.5 * y, 0.7 * y])
    alone = iterate(coral, 5.5, 1.5 * y, n=n, skip=skip, keep=keep)
    assert alone.points.shape == (n, keep)
    assert np.allclose(alone.points, _step_loop(coral, 5.5, 1.5 * y, n, skip, keep),
                       rtol=1e-12, atol=0.0)
    batch = iterate(coral, lams, x0, n=n, skip=skip, keep=keep)
    assert batch.points.shape == (n, 3, keep)
    for j in range(3):
        ref = _step_loop(coral, lams[j], x0[j], n, skip, keep)
        assert np.allclose(batch.points[:, j], ref, rtol=1e-12, atol=0.0)


def _off_profile(coral, seed):
    """Three states whose age classes are scaled independently, so their
    older classes are not a multiple of the survival profile."""
    y = density_matched_state(coral, 1500.0)
    return np.random.default_rng(seed).uniform(0.2, 2.0, (3, coral.d)) * y


@pytest.mark.parametrize("n", [1, 12, 13, 14, 27])
@pytest.mark.parametrize("skip", [0, 1, 11, 12, 13, 26])
def test_iterate_off_profile_matches_per_step_loop(coral, n, skip):
    # components 2..d of x0 reach q.x and b.x for the first d - 1 iterates
    # only; n and skip range across d = 13 on both sides
    lams = np.array([1.0, 5.5, 6.25])
    x0 = _off_profile(coral, n * 100 + skip)
    for keep in (1, 2, 13):
        alone = iterate(coral, lams[1], x0[1], n=n, skip=skip, keep=keep)
        assert alone.points.shape == (n, keep)
        assert np.allclose(alone.points, _step_loop(coral, lams[1], x0[1], n, skip, keep),
                           rtol=1e-12, atol=0.0)
        batch = iterate(coral, lams, x0, n=n, skip=skip, keep=keep)
        assert batch.points.shape == (n, 3, keep)
        for j in range(3):
            ref = _step_loop(coral, lams[j], x0[j], n, skip, keep)
            assert np.allclose(batch.points[:, j], ref, rtol=1e-12, atol=0.0)


def test_iterate_with_a_zero_survival_rate(coral):
    # a = 0 from age 6 on: the profile is never divided by
    S = list(coral.params.S)
    S[4] = 0.0
    dead = CoralMap(CoralParams(S=tuple(S)))
    lams = np.array([1.0, 5.5, 6.25]) * coral.cf.ba / dead.cf.ba
    x0 = _off_profile(dead, 7)
    for n, skip in ((20, 0), (5, 9), (40, 30)):
        orb = iterate(dead, lams, x0, n=n, skip=skip)
        assert np.all(np.isfinite(orb.points))
        for j in range(3):
            ref = _step_loop(dead, lams[j], x0[j], n, skip, 13)
            assert np.allclose(orb.points[:, j], ref, rtol=1e-12, atol=0.0)
    assert np.all(orb.points[:, :, 5:] == 0.0)


def test_orbit_diverges_deep_in_the_transient():
    # phi stays near 1 while q.x is far below 1e150, and only age 3
    # reproduces, with a fertility so large that b.x overflows while q.x is
    # still about 1e106: x_1 doubles every three years until it does
    coral = CoralMap(CoralParams(d=3, S=(0.9, 0.8), F=(0.0, 0.0, 1e200),
                                 c1=1e300, c2=1e300, alpha=1e-300, beta=2e-300))
    lam = 2.0 / (coral.cf.b[2] * 0.9 * 0.8)
    x, first_bad = np.ones(3), None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, 5000):
            x = step(coral, lam, x)
            if not np.all(np.isfinite(x)):
                first_bad = t
                break
    # past the first blocks of history that a one-point run keeps
    assert first_bad is not None and first_bad > 4 * _HISTORY_BLOCK * coral.d
    expect = f"non-finite state at iterate {first_bad}"
    with pytest.raises(OrbitDiverged, match=expect):
        iterate(coral, lam, np.ones(3), n=1, skip=3000)
    with pytest.raises(OrbitDiverged, match=expect):
        iterate(coral, np.array([0.5 * lam, lam, 0.5 * lam]), np.ones(3), n=1, skip=3000)
    with pytest.raises(OrbitDiverged, match=expect):
        iterate(coral, lam, np.ones(3), n=4000)
    # the iterate before it is still finite
    assert np.all(np.isfinite(iterate(coral, lam, np.ones(3), n=1, skip=first_bad - 2).points))


def test_huge_finite_orbit_is_not_diverged():
    # x_1 = 1e306 is a fixed point (omega = 1e300 keeps P near 1.7e7, and
    # phi = 1/(P^2 + 1)): the history's sum overflows, its entries do not
    coral = CoralMap(CoralParams(d=3, S=(0.9, 0.8), F=(0.0, 0.0, 1.0), c1=1.0, c2=1.0,
                                 alpha=1e-300, beta=2e-300, omega=1e300))
    x0 = 1e306 * coral.cf.a
    P = float(coral.cf.q @ x0)
    lam = (P * P + 1.0) / float(coral.cf.b @ coral.cf.a)
    orb = iterate(coral, lam, x0, n=2000)
    assert np.all(np.isfinite(orb.points))
    assert np.allclose(orb.points, x0, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("skip", [2999, 3000])
def test_long_skip_returns_the_last_point_of_the_long_run(coral, skip):
    # a transient many history blocks long, carried block to block
    y = density_matched_state(coral, 1500.0)
    lams = np.array([1.0, 5.5])
    for keep in (2, 13):
        short = iterate(coral, lams, 1.5 * y, n=1, skip=skip, keep=keep)
        long = iterate(coral, lams, 1.5 * y, n=skip + 1, keep=keep)
        assert short.transient_skipped == skip
        assert np.allclose(short.points[0], long.points[-1], rtol=1e-12, atol=0.0)


def test_batched_rotation_numbers_match_single_orbits(coral):
    y = density_matched_state(coral, 1500.0)
    lams = np.array([160.0, 180.0, 200.0]) / coral.cf.ba
    batch = iterate(coral, lams, 1.5 * y, n=20_000, skip=2_000, keep=2)
    for j, lam in enumerate(lams):
        alone = iterate(coral, float(lam), 1.5 * y, n=20_000, skip=2_000)
        assert abs(rotation_and_profile(batch.points[:, j])[0].rho
                   - rotation_and_profile(alone.points[:, :2])[0].rho) <= 1e-12


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
    assert (alone.value.orbit, batch.value.orbit) == (0, 1)


def test_orbit_diverges_at_even_iterate_named_once(coral):
    # x_2 = 1e308 keeps iterate 1 finite; b.x overflows at iterate 2, the
    # second of the first round
    y = density_matched_state(coral, 1500.0)
    bad = y.copy()
    bad[1] = 1e308
    x, first_bad = bad, None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, 10):
            x = step(coral, 1.0, x)
            if not np.all(np.isfinite(x)):
                first_bad = t
                break
    assert first_bad == 2
    with pytest.raises(OrbitDiverged) as alone:
        iterate(coral, 1.0, bad, n=50, skip=0)
    with pytest.raises(OrbitDiverged) as batch:
        iterate(coral, 1.0, np.stack([y, y, bad]), n=50, skip=0)
    assert str(alone.value) == str(batch.value) == "non-finite state at iterate 2"
    assert batch.value.orbit == 2
    # iterate 2 lies beyond a one-iterate range, though its round computes it
    assert np.all(np.isfinite(iterate(coral, 1.0, bad, n=1).points))


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
    res, _ = rotation_and_profile(pts, center=(0.0, 0.0))
    assert abs(res.rho - GOLDEN) <= 1e-12


def test_weighted_beats_unweighted_average():
    pts = _rigid_rotation(GOLDEN, 10_001)
    _, inc = np.arctan2(pts[:, 1], pts[:, 0]), None
    th = np.arctan2(pts[:, 1], pts[:, 0])
    inc = np.diff(th)
    inc = np.where(inc <= -math.pi, inc + 2 * math.pi, inc)
    plain = float(np.mean(inc)) / (2 * math.pi) % 1.0
    res, _ = rotation_and_profile(pts, center=(0.0, 0.0))
    assert abs(plain - GOLDEN) >= 1e3 * abs(res.rho - GOLDEN)


def test_rotation_invariance_start_point_and_transient():
    base, _ = rotation_and_profile(_rigid_rotation(GOLDEN, 30_000), center=(0, 0))
    shifted, _ = rotation_and_profile(_rigid_rotation(GOLDEN, 30_000, phase=2.2),
                                      center=(0, 0))
    assert abs(base.rho - shifted.rho) <= 1e-10


def test_rotation_center_hit_raises():
    pts = _rigid_rotation(GOLDEN, 100)
    pts[17] = (0.0, 0.0)
    with pytest.raises(RotationUndefined):
        rotation_and_profile(pts, center=(0.0, 0.0))


def test_rotation_without_angle_advance_does_not_wind():
    pts = np.tile([2.0, 1.0], (100, 1))      # a fixed point beside the center
    with pytest.raises(RotationUndefined, match="^the orbit does not wind about the center"):
        rotation_and_profile(pts, center=(0.0, 0.0))


def test_rotation_nonmonotone_raises():
    th = np.cumsum(np.where(np.arange(600) % 2 == 0, 0.4, -0.4))
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    with pytest.raises(RotationUndefined):
        rotation_and_profile(pts, center=(0.0, 0.0))


def test_rotation_without_angle_advance_does_not_wind():
    pts = np.tile([2.0, 1.0], (100, 1))      # a fixed point beside the center
    with pytest.raises(RotationUndefined, match="^the orbit does not wind about the center"):
        rotation_and_profile(pts, center=(0.0, 0.0))


def test_coral_rotation_number_and_gap(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 5.5, 1.5 * y, n=50_000, skip=10_000)
    res, _ = rotation_and_profile(orb.points[:, :2])
    assert 0.12 < res.rho < 0.14
    assert res.convergence_gap <= 1e-12


def test_coral_rotation_invariance_on_circle(coral):
    y = density_matched_state(coral, 1500.0)
    a, _ = rotation_and_profile(iterate(coral, 5.5, 1.5 * y, n=30_000, skip=2_000).points[:, :2])
    b, _ = rotation_and_profile(iterate(coral, 5.5, 1.2 * y, n=30_000, skip=12_000).points[:, :2])
    assert abs(a.rho - b.rho) <= 1e-10


# ---------------------------------------------------------------------------
# angle profiles
# ---------------------------------------------------------------------------


def test_angle_profile_flat_for_rigid_rotation():
    rho = GOLDEN / 2.0  # irrational and below one half: no wrap, no empty bins
    pts = _rigid_rotation(rho, 20_000)
    _, prof = rotation_and_profile(pts, center=(0.0, 0.0), bins=32)
    assert not prof.empty_bins
    assert np.nanmax(prof.mean_increment) - np.nanmin(prof.mean_increment) <= 1e-12
    assert np.allclose(prof.mean_increment, rho, atol=1e-10)


def test_angle_profile_minimum_toward_extinction(coral):
    y = density_matched_state(coral, 1500.0)
    orb = iterate(coral, 6.25, 1.5 * y, n=60_000, skip=10_000)
    _, prof = rotation_and_profile(orb.points[:, :2], bins=64)
    assert abs(prof.minimum_angle - 0.625) <= 0.05
    assert np.nanmin(prof.mean_increment) < 0.02   # near-zero advance there


def test_angle_profile_empty_bins_interpolated():
    # nearly period-2: few angles visited (an exact period-2 orbit has no
    # direction of rotation, which the same pass checks)
    pts = _rigid_rotation(0.5 - 1e-3, 40)
    _, prof = rotation_and_profile(pts, center=(0.0, 0.0), bins=16)
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
