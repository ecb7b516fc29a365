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
from .model import CoralMap, CoralParams


@dataclass(frozen=True)
class OrbitSample:
    """Post-transient iterates of the coral map: `points` is (n, k) for one
    orbit and (n, m, k) for a batch of m orbits, k the stored components.
    `points` is a view into the buffer that also held the x_1 history."""

    points: np.ndarray
    transient_skipped: int


@dataclass(frozen=True)
class RotationResult:
    rho: float                  # rotation number, rescaled to (0, 1)
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


_HISTORY_BLOCK = 32   # a transient runs in blocks of at least this many d rows


def _recruitment(params: CoralParams, lam2: np.ndarray):
    """(Q, recruit): the buffer Q (6, 2, m) and a function that writes the
    recruits lam2 * phi(P, params) * bx into its argument `out` (2, m),
    where lam2 is (2, m) and Q holds -alpha, -beta, P, P, P and bx.  The
    caller fills Q[2:] (P three times, then bx) before each call.

    A float twin of `model.phi`, kept so that an orbit round makes no
    generic call: it applies phi's operations in phi's order, so its bits
    are phi's.  Its seven calls all take operands of their output's shape,
    since a call that broadcasts a constant costs about twice a same-shape
    one at orbit batch sizes: one multiply Q[0:3] * Q[2:5] gives -alpha P,
    -beta P and P P, one `exp` both exponentials, and one multiply by a
    filled (2, 2, m) array applies c1 and c2."""
    m = lam2.shape[1]
    Q = np.empty((6, 2, m))
    Q[0], Q[1] = -params.alpha, -params.beta
    c = np.empty((2, 2, m))
    c[0], c[1] = params.c1, params.c2
    T = np.empty((3, 2, m))
    E, E0, E1, D = T[:2], T[0], T[1], T[2]   # E0, E1: c1 e^{-alpha P}, c2 e^{-beta P}
    neg, P3, bx = Q[0:3], Q[2:5], Q[5]
    multiply, exp, add, divide = np.multiply, np.exp, np.add, np.divide

    def recruit(out: np.ndarray) -> None:
        multiply(neg, P3, T)
        exp(E, E)
        multiply(c, E, E)
        add(D, E1, D)
        divide(E0, D, D)
        multiply(lam2, D, D)
        multiply(D, bx, out)
    return Q, recruit


def _weights(coral: CoralMap) -> np.ndarray:
    """The (8, d) weights of history rows t-d+1 .. t that give, in the
    order of `_recruitment`'s Q[2:], q.x at t and t+1 three times, then
    b.x at t and t+1; x_1(t+1) would meet q_1 a_1 = b_1 a_1 = 0."""
    cf = coral.cf
    qa, ba = cf.q * cf.a, cf.b * cf.a
    W = np.zeros((4, coral.d))
    W[0], W[1, 1:], W[2], W[3, 1:] = qa[::-1], qa[:0:-1], ba[::-1], ba[:0:-1]
    return W[[0, 1, 0, 1, 0, 1, 2, 3]]


def iterate(coral: CoralMap, lam, x0: np.ndarray, n: int, skip: int = 0,
            keep: int | None = None) -> OrbitSample:
    """Iterates skip+1 .. skip+n of the map from x0.

    A batch of m orbits advances as one numpy recurrence: `lam` may be an
    (m,) array and `x0` an (m, d) array, and a scalar `lam` or a (d,) `x0`
    is shared by the batch.  Only the first `keep` state components
    (default: all) are stored.  Raises OrbitDiverged naming the first
    iterate <= skip + n at which any orbit (its `orbit`) leaves the finite floats.

    The map runs in renewal form, on the history of x_1 alone.  Past the
    first d - 1 iterates, x_j(t) = a_j x_1(t - j + 1) with a the survival
    profile, so q.x and b.x are weighted sums of the last d recruitments.
    Recruitment reads neither x_1 nor x_2 (q_1 = b_1 = b_2 = 0), so one
    (8, d) @ (d, m) product of reversed q*a and b*a weights with the last
    d rows of history writes q.x at iterates t and t+1 three times and b.x
    once into `_recruitment`'s buffer, and its fused evaluation of
    lam * phi(q.x) * b.x (seven numpy calls, none broadcasting, with phi's
    bits) gives x_1(t+1) and x_1(t+2).  Components 2..d of x0 enter q.x
    and b.x as an initial term over the first d - 1 iterates, computed by
    chained survival shifts of x0 (never by dividing by a, which may hold
    zeros).  Components 2..keep are filled after the loop by the chained
    shifts x_{j+1}(t) = S_j x_j(t-1) over the whole range.

    The history lives in the first plane of the output buffer.  A
    transient longer than the buffer runs in blocks, each carrying its
    last d + 1 rows to the front; finiteness is checked once per block.
    """
    if n < 0 or skip < 0:
        raise ValueError("n and skip must be nonnegative")
    d = coral.d
    k = d if keep is None else keep
    if not 1 <= k <= d:
        raise ValueError(f"keep must be in 1..{d}, got {keep}")
    lam_a = np.asarray(lam, dtype=float)
    x0_a = np.asarray(x0, dtype=float)
    if x0_a.ndim == 0 or x0_a.shape[-1] != d:
        raise ValueError(f"x0 must end in an axis of d = {d} age classes, got shape {x0_a.shape}")
    batched = lam_a.ndim > 0 or x0_a.ndim > 1
    m = np.broadcast_shapes(lam_a.shape, x0_a.shape[:-1], (1,))[0]
    lam_v = np.broadcast_to(lam_a, (m,))
    X0 = np.broadcast_to(x0_a, (m, d)).T
    cf, params = coral.cf, coral.params
    S = np.array(params.S, dtype=float)
    total = skip + n
    last = total + total % 2        # a round from odd total - 1 also makes total + 1
    final = skip - skip % 2         # the last block starts at or just before skip
    rows = max(n, _HISTORY_BLOCK * d) + d + 3
    lam2 = np.tile(lam_v, (2, 1))   # same shape as phi's output: no broadcast per round
    Q, recruit = _recruitment(params, lam2)
    Pb = Q[2:].reshape(8, m)        # the product's rows, a view of Q
    dot = _weights(coral).dot
    buf = np.empty((k, rows, m))
    H = buf[0]                      # H[r] is x_1(base + r)
    base, t = -d, 0                 # x_1 is known up to time t
    H[:d] = 0.0                     # no recruits before time 0 ...
    H[d] = X0[0]
    # ... but x0's older classes: init[i] is what they add to the product of
    # the round from t = 2i (q.x, b.x at t and t + 1); by t = d - 1 they
    # have all aged out
    init = np.zeros((d // 2, 8, m))
    qb = np.stack([cf.q, cf.b])
    y = X0.copy()
    y[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(d - 1):
            init[s // 2, s % 2::2] = (qb @ y)[[0, 0, 0, 1]]
            y[1:] = S[:, None] * y[:-1]
        while True:
            r_init = 2 * len(init) - base
            done = last - base < rows
            # a block that cannot reach `last` stops at the latest even
            # time it holds, and never past `final`
            stop = total if done else min(final, base + rows - 1 - (base + rows - 1) % 2)
            for r in range(t - base, stop - base, 2):
                dot(H[r - d + 1:r + 1], Pb)
                if r < r_init:
                    Pb += init[(r + base) // 2]
                recruit(H[r + 1:r + 3])
            block = H[t + 1 - base:stop + 1 - base]
            if not math.isfinite(block.sum()):   # a finite sum may overflow too
                bad = ~np.isfinite(block)
                if bad.any():
                    i, j = divmod(int(bad.argmax()), m)
                    raise OrbitDiverged(f"non-finite state at iterate {t + 1 + i}", orbit=j)
            if done:
                break
            H[:d + 1] = H[stop - d - base:stop + 1 - base]
            base, t = stop - d, stop
        z = -base                   # row of time 0, if the block holds it
        if z >= 0:
            buf[1:, z] = X0[1:k]
        o = skip + 1 - base         # row of iterate skip + 1
        # class j + 1 is class j one row earlier, times S_j, from time 1 on
        for j in range(1, k):
            lo = max(j, z + 1)
            np.multiply(S[j - 1], buf[j - 1, lo - 1:o + n - 1], out=buf[j, lo:o + n])
    pts = buf[:, o:o + n]
    if batched:
        return OrbitSample(points=pts.transpose(1, 2, 0), transient_skipped=skip)
    return OrbitSample(points=pts[:, :, 0].T, transient_skipped=skip)


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


def _angles(xy: np.ndarray, center: tuple[float, float]):
    """(theta, inc), the angle of each point of xy but the last about
    `center` and its increment to the next point, wrapped to (-pi, pi];
    None if a point hits the center."""
    dx = xy[:, 0] - center[0]
    dy = xy[:, 1] - center[1]
    if np.any(dx * dx + dy * dy < 1e-18):
        return None
    theta = np.arctan2(dy, dx)
    inc = np.diff(theta)
    inc = np.where(inc <= -math.pi, inc + 2.0 * math.pi, inc)
    inc = np.where(inc > math.pi, inc - 2.0 * math.pi, inc)
    return theta[:-1], inc


class _RotationSums:
    """Weighted increment sums and weight sums over all increments and
    over the first 0.8 of them, plus the net, forward and backward
    advance, of batch orbit `orbit`; `hit` records that it hit the
    projection center."""

    def __init__(self, orbit: int):
        self.orbit, self.hit = orbit, False
        self.net = self.pos = self.neg = 0.0
        self.wsum = np.zeros(4)

    def add(self, inc: np.ndarray, w: np.ndarray, w8: np.ndarray, w_sums: tuple) -> None:
        """One block's increments, with the block's bump weights w for all
        increments and w8 for those among the first 0.8 of them, and their
        sums (w.sum(), w8.sum())."""
        self.net += inc.sum()
        self.pos += inc[inc > 0.0].sum()
        self.neg -= inc[inc < 0.0].sum()
        self.wsum += (w @ inc, w_sums[0], w8 @ inc[:len(w8)], w_sums[1])

    def result(self, iterates_used: int) -> RotationResult:
        if self.hit:
            raise RotationUndefined("orbit hits the projection center", orbit=self.orbit)
        net, pos, neg, wsum = self.net, self.pos, self.neg, self.wsum
        total = pos + neg
        backward = neg if net > 0.0 else pos if net < 0.0 else 0.0
        if total == 0.0:
            raise RotationUndefined("the orbit does not wind about the center (no angle advance)",
                                    orbit=self.orbit)
        if backward > 0.02 * total:
            raise RotationUndefined(
                f"angle increments change sign persistently ({backward / total:.1%})",
                orbit=self.orbit)
        rho_full = wsum[0] / (2.0 * math.pi * wsum[1]) % 1.0
        rho_08 = wsum[2] / (2.0 * math.pi * wsum[3]) % 1.0
        gap = abs(rho_full - rho_08)
        gap = min(gap, 1.0 - gap)
        return RotationResult(rho=float(rho_full), iterates_used=iterates_used,
                              convergence_gap=float(gap))


class _ProfileSums:
    """Angle increments summed and counted per bin of the rescaled angle."""

    def __init__(self, bins: int):
        self.bins = bins
        self.sums = np.zeros(bins)
        self.counts = np.zeros(bins, dtype=int)

    def add(self, theta: np.ndarray, inc: np.ndarray) -> None:
        ang = theta / (2.0 * math.pi)
        ang = np.where(ang < 0.0, ang + 1.0, ang)     # `% 1.0`, exactly, on [-1/2, 1/2]
        idx = np.minimum((ang * self.bins).astype(int), self.bins - 1)
        self.sums += np.bincount(idx, weights=inc, minlength=self.bins)
        self.counts += np.bincount(idx, minlength=self.bins)

    def result(self) -> AngleProfile:
        bins, sums, counts = self.bins, self.sums, self.counts
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


def rotation_and_profile(xy: np.ndarray, center: tuple[float, float] = (2500.0, 2500.0),
                         bins: int = 64):
    """The weighted Birkhoff average of the angle advance about `center` of
    an orbit's (x_1, x_2) projection, rescaled to (0, 1), and its mean
    angle advance per iterate binned by the (rescaled) angle, from one pass
    over its angles: a (RotationResult, AngleProfile) pair for one orbit xy
    (n, 2), and a list of m pairs for m orbits xy (n, m, 2).

    The angles are taken in blocks of 8,192 points, so the analysis memory
    does not grow with n.  Blocks are the outer loop and orbits the inner:
    a block's bump weights depend only on its positions and n, so they
    and their sums are computed once for all orbits, and only one orbit's
    block arrays are alive at a time.  An orbit must wind consistently
    about the center; one that hits it or whose angle increments change
    sign persistently raises RotationUndefined, whose `orbit` is the first
    such orbit.
    """
    orbits = xy[:, None] if xy.ndim == 2 else xy
    n, m = orbits.shape[:2]
    incs, incs8 = n - 1, int(0.8 * (n - 1))
    rots = [_RotationSums(j) for j in range(m)]
    profs = [_ProfileSums(bins) for _ in range(m)]
    for start in range(0, incs, _BLOCK):
        i = np.arange(start + 1.0, start + 1.0 + min(_BLOCK, incs - start))
        w = _bump_weights(i, incs)
        w8 = _bump_weights(i[:max(0, min(len(i), incs8 - start))], incs8)
        w_sums = (w.sum(), w8.sum())
        for j, (rot, prof) in enumerate(zip(rots, profs)):
            angles = None if rot.hit else _angles(orbits[start:start + _BLOCK + 1, j], center)
            if angles is None:
                rot.hit = True
                continue
            rot.add(angles[1], w, w8, w_sums)
            prof.add(*angles)
    pairs = [(rot.result(n), prof.result()) for rot, prof in zip(rots, profs)]
    return pairs[0] if xy.ndim == 2 else pairs


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
