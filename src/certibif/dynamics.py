"""Non-rigorous dynamics toolkit: orbit iteration, weighted-Birkhoff
rotation numbers on the invariant circles, angle-difference profiles,
and exact smallest-denominator search in rotation-number windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OrbitDiverged, RotationUndefined
from .model import CoralMap, phi


@dataclass(frozen=True)
class OrbitSample:
    """Post-transient iterates of the coral map: `points` is (n, k) for one
    orbit and (n, m, k) for a batch of m orbits, k the stored components."""

    points: np.ndarray
    lam: float | np.ndarray
    transient_skipped: int


@dataclass(frozen=True)
class RotationResult:
    rho: float                  # rotation number, rescaled to (0, 1)
    center: tuple[float, float]
    iterates_used: int
    convergence_gap: float      # |rho_N - rho_{0.8N}|


@dataclass(frozen=True)
class AngleProfile:
    bin_centers: np.ndarray     # rescaled angles in [0, 1)
    mean_increment: np.ndarray  # mean angle advance per iterate, in revolutions
    minimum_angle: float        # rescaled angle of the slowest advance
    empty_bins: tuple[int, ...]


def density_matched_state(coral: CoralMap, P: float) -> np.ndarray:
    """State proportional to the survival profile `a` with polyp density P.

    The reference simulations start from a population "with density P";
    the age distribution is not pinned down there, so the stable-structure
    profile a is used.
    """
    c = P * coral.params.omega / coral.cf.sum_pa
    return c * coral.cf.a


def iterate(coral: CoralMap, lam, x0: np.ndarray, n: int, skip: int = 0,
            keep: int | None = None) -> OrbitSample:
    """Iterates skip+1 .. skip+n of the map from x0.

    A batch of m orbits advances as one numpy recurrence: `lam` may be an
    (m,) array and `x0` an (m, d) array, and a scalar `lam` or a (d,) `x0`
    is shared by the batch.  Only the first `keep` state components
    (default: all) are stored.  Raises OrbitDiverged, naming the iterate,
    as soon as any orbit leaves the finite floats.
    """
    if n < 0 or skip < 0:
        raise ValueError("n and skip must be nonnegative")
    d = coral.d
    k = d if keep is None else keep
    lam_a = np.asarray(lam, dtype=float)
    x0_a = np.asarray(x0, dtype=float)
    batched = lam_a.ndim > 0 or x0_a.ndim > 1
    m = np.broadcast_shapes(lam_a.shape, x0_a.shape[:-1], (1,))[0]
    lam_v = np.broadcast_to(lam_a, (m,))
    # the state is kept as (d, m) so that rows are contiguous in the shift
    qb = np.stack([coral.cf.q, coral.cf.b])           # P and b.x in one product
    S = np.array(coral.params.S, dtype=float)[:, None]
    params = coral.params
    x = np.empty((d, m))
    x[:] = np.broadcast_to(x0_a, (m, d)).T
    xn = np.empty((d, m))
    out = np.empty((n, k, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(skip + n):
            Pb = qb.dot(x)
            first = lam_v * phi(Pb[0], params) * Pb[1]
            if not math.isfinite(first.sum()):
                raise OrbitDiverged(f"non-finite state at iterate {i + 1}")
            xn[0] = first
            np.multiply(x[:-1], S, out=xn[1:])
            x, xn = xn, x
            if i >= skip:
                out[i - skip] = x[:k]
    if batched:
        return OrbitSample(points=out.transpose(0, 2, 1), lam=lam_v.copy(),
                           transient_skipped=skip)
    return OrbitSample(points=out.reshape(n, k), lam=float(lam_a),
                       transient_skipped=skip)


def polyp_density_series(coral: CoralMap, orbit: OrbitSample) -> np.ndarray:
    return orbit.points @ coral.cf.q


# ---------------------------------------------------------------------------
# weighted Birkhoff rotation numbers
# ---------------------------------------------------------------------------


_BLOCK = 8192        # orbit points per analysis block


def _bump_weights(i: np.ndarray, m: int) -> np.ndarray:
    # standard smooth bump of the weighted-Birkhoff literature at positions
    # i of 1..m; it vanishes to all orders at the ends, giving
    # super-polynomial convergence on quasiperiodic orbits
    s = i / (m + 1)
    return np.exp(-1.0 / (s * (1.0 - s)))


def _angle_blocks(xy: np.ndarray, center: tuple[float, float]):
    """(start, theta, inc) block by block: the angle of each point about
    `center` and its increment to the next point, wrapped to (-pi, pi].

    Blocks keep the analysis memory independent of the orbit length; a
    rotation sweep holds all its orbits while they are analysed.
    """
    for start in range(0, len(xy) - 1, _BLOCK):
        blk = xy[start:start + _BLOCK + 1]
        dx = blk[:, 0] - center[0]
        dy = blk[:, 1] - center[1]
        if np.any(dx * dx + dy * dy < 1e-18):
            raise RotationUndefined("orbit hits the projection center")
        theta = np.arctan2(dy, dx)
        inc = np.diff(theta)
        inc = np.where(inc <= -math.pi, inc + 2.0 * math.pi, inc)
        inc = np.where(inc > math.pi, inc - 2.0 * math.pi, inc)
        yield start, theta[:-1], inc


def rotation_number(orbit: OrbitSample | np.ndarray,
                    center: tuple[float, float] = (2500.0, 2500.0),
                    coords: tuple[int, int] = (0, 1)) -> RotationResult:
    """Weighted Birkhoff average of the angle advance about `center` in the
    (x_1, x_2) projection, rescaled to (0, 1).

    The orbit must wind consistently about the center; persistent
    sign changes of the angle increment raise RotationUndefined.
    """
    pts = orbit.points if isinstance(orbit, OrbitSample) else np.asarray(orbit)
    xy = pts[:, list(coords)] if pts.ndim == 2 and pts.shape[1] > 2 else pts
    m = len(xy) - 1
    m8 = int(0.8 * m)
    net = pos = neg = 0.0
    # weighted increment sums and weight sums over all m and the first m8
    wsum = np.zeros(4)
    for start, _, inc in _angle_blocks(xy, center):
        net += inc.sum()
        pos += inc[inc > 0.0].sum()
        neg -= inc[inc < 0.0].sum()
        i = np.arange(start + 1.0, start + 1.0 + len(inc))
        w = _bump_weights(i, m)
        k = max(0, min(len(inc), m8 - start))
        w8 = _bump_weights(i[:k], m8)
        wsum += (w @ inc, w.sum(), w8 @ inc[:k], w8.sum())
    total = pos + neg
    backward = neg if net > 0.0 else pos if net < 0.0 else 0.0
    if total == 0.0 or backward > 0.02 * total:
        raise RotationUndefined(
            f"angle increments change sign persistently ({backward/max(total,1e-300):.1%})")
    rho_full = wsum[0] / (2.0 * math.pi * wsum[1]) % 1.0
    rho_08 = wsum[2] / (2.0 * math.pi * wsum[3]) % 1.0
    gap = abs(rho_full - rho_08)
    gap = min(gap, 1.0 - gap)
    return RotationResult(rho=float(rho_full), center=tuple(center),
                          iterates_used=len(xy), convergence_gap=float(gap))


def angle_profile(orbit: OrbitSample | np.ndarray,
                  center: tuple[float, float] = (2500.0, 2500.0),
                  bins: int = 64,
                  coords: tuple[int, int] = (0, 1)) -> AngleProfile:
    """Mean angle advance per iterate, binned by the (rescaled) angle."""
    pts = orbit.points if isinstance(orbit, OrbitSample) else np.asarray(orbit)
    xy = pts[:, list(coords)] if pts.ndim == 2 and pts.shape[1] > 2 else pts
    sums = np.zeros(bins)
    counts = np.zeros(bins, dtype=int)
    for _, theta, inc in _angle_blocks(xy, center):
        ang = (theta / (2.0 * math.pi)) % 1.0
        idx = np.minimum((ang * bins).astype(int), bins - 1)
        sums += np.bincount(idx, weights=inc, minlength=bins)
        counts += np.bincount(idx, minlength=bins)
    mean = np.full(bins, np.nan)
    nz = counts > 0
    mean[nz] = sums[nz] / counts[nz] / (2.0 * math.pi)
    empty = tuple(int(i) for i in np.nonzero(~nz)[0])
    if empty:
        filled = np.nonzero(nz)[0]
        for i in empty:
            # circular nearest-neighbor interpolation
            dist = np.minimum((filled - i) % bins, (i - filled) % bins)
            order = np.argsort(dist)[:2]
            mean[i] = float(np.mean(mean[filled[order]]))
    centers = (np.arange(bins) + 0.5) / bins
    return AngleProfile(bin_centers=centers, mean_increment=mean,
                        minimum_angle=float(centers[int(np.nanargmin(mean))]),
                        empty_bins=empty)


# ---------------------------------------------------------------------------
# smallest denominator in a rotation interval (Stern-Brocot descent)
# ---------------------------------------------------------------------------


def farey_min_denominator(lo, hi) -> tuple[int, int]:
    """The fraction with the smallest denominator in [lo, hi] (ties broken
    by smaller numerator), found by accelerated Stern-Brocot descent.

    Endpoints given as strings or Fractions are used exactly; floats are
    converted via their exact binary value.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not (0 < lo <= hi < 1):
        raise ValueError("need 0 < lo <= hi < 1")
    a, b = 0, 1      # left bound a/b
    c, d = 1, 1      # right bound c/d
    while True:
        m_num, m_den = a + c, b + d
        m = Fraction(m_num, m_den)
        if lo <= m <= hi:
            return m_num, m_den
        if m < lo:
            # jump k steps toward c/d: largest k with (a + k c)/(b + k d) < lo
            k = (lo.numerator * b - lo.denominator * a) // \
                (lo.denominator * c - lo.numerator * d)
            k = max(k, 1)
            while Fraction(a + k * c, b + k * d) >= lo:
                k -= 1   # k = 1 is always valid here since the mediant was < lo
            a, b = a + k * c, b + k * d
        else:
            # jump toward a/b: largest k with (c + k a)/(d + k b) > hi
            k = (c * hi.denominator - hi.numerator * d) // \
                (hi.numerator * b - hi.denominator * a)
            k = max(k, 1)
            while Fraction(c + k * a, d + k * b) <= hi:
                k -= 1
            c, d = c + k * a, d + k * b
