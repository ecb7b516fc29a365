"""The red-coral population map f(lambda, x) = L(lambda, x) x.

Only the first component (recruitment) is nonlinear; components 2..d are
the linear survival shifts x_{k+1} <- S_k x_k.  All derivatives up to
third order are closed-form, which keeps interval enclosures tight.

The map code is generic over the scalar type: plain floats drive
simulation and Newton refinement, `Interval` scalars drive every rigorous
bound, and mpmath floats can be threaded through for high-precision
cross-checks.  Coefficient sets are derived once per scalar backend from
the same base constants, so all backends describe the same real map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .interval import Interval, MidRad, up_mul, up_sum

GROWTH_EXPONENT = 2.324       # age-scaling exponent shared by p_k and b_k
POLYPS_PER_COLONY_SCALE = 1.239


@dataclass(frozen=True)
class CoralParams:
    """Model constants: survival/fertility table plus the recruitment
    nonlinearity constants and the site area (dm^2)."""

    d: int = 13
    S: tuple[float, ...] = (0.89, 0.63, 0.70, 0.52, 0.44, 0.29,
                            0.57, 0.33, 0.75, 1.0, 0.33, 1.0)
    F: tuple[float, ...] = (0.0, 0.0, 0.36, 0.64, 0.82, 0.97, 0.98,
                            0.99, 1.0, 1.0, 1.0, 1.0, 1.0)
    c1: float = 1.8e5
    c2: float = 1.3e7
    alpha: float = 5e-4
    beta: float = 3.4e-3
    omega: float = 36.0

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("need at least three age classes")
        if len(self.S) != self.d - 1 or len(self.F) != self.d:
            raise ValueError("S must have d-1 entries and F must have d")
        if any(not 0.0 <= s <= 1.0 for s in self.S):
            raise ValueError("survival rates must lie in [0, 1]")
        if any(not 0.0 <= f < math.inf for f in self.F):
            raise ValueError("fertility rates F must be nonnegative and finite")
        if self.F[0] != 0.0 or self.F[1] != 0.0:
            raise ValueError("colonies younger than two years do not reproduce")
        for key in ("c1", "c2", "alpha", "beta", "omega"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        if self.beta <= self.alpha:
            raise ValueError("beta must exceed alpha")

    @staticmethod
    def from_config(path: str | Path) -> "CoralParams":
        """Load parameters from a key=value text file (see README)."""
        fields: dict[str, object] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key == "d":
                fields["d"] = int(val)
            elif key in ("S", "F"):
                fields[key] = tuple(float(v) for v in val.split(","))
            elif key in ("c1", "c2", "alpha", "beta", "omega"):
                fields[key] = float(val)
            else:
                raise ValueError(f"unknown config key {key!r}")
        return CoralParams(**fields)  # type: ignore[arg-type]

    def to_config(self) -> str:
        lines = [f"d = {self.d}",
                 "S = " + ", ".join(repr(s) for s in self.S),
                 "F = " + ", ".join(repr(f) for f in self.F)]
        for key in ("c1", "c2", "alpha", "beta", "omega"):
            lines.append(f"{key} = {getattr(self, key)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DerivedCoefficients:
    """Survival products a_k, birth rates b_k, polyps per colony p_k and
    the polyp-density gradient q = dP/dx; one scalar backend each."""

    a: Sequence
    b: Sequence
    p: Sequence
    q: Sequence          # q_1 = 0: recruits carry no polyps in P
    ba: object           # b . a
    sum_pa: object       # sum_{k>=2} p_k a_k  (so P = x1 * sum_pa / omega on the branch)


def derive_generic(params: CoralParams, lift: Callable, pow_: Callable) -> DerivedCoefficients:
    """Build the derived coefficients with custom scalar constructors.

    `lift` embeds a float exactly into the scalar type; `pow_(k, r)`
    computes k**r for integer k.
    """
    d = params.d
    S = [lift(s) for s in params.S]
    a = [lift(1.0)]
    for k in range(1, d):
        a.append(a[-1] * S[k - 1])
    kpow = [pow_(k, GROWTH_EXPONENT) for k in range(1, d + 1)]
    p = [lift(POLYPS_PER_COLONY_SCALE) * kp for kp in kpow]
    b = [lift(params.F[k]) * kpow[k] for k in range(d)]
    omega = lift(params.omega)
    q = [lift(0.0)] + [pk / omega for pk in p[1:]]
    ba = sum((bk * ak for bk, ak in zip(b, a)), lift(0.0))
    sum_pa = sum((pk * ak for pk, ak in zip(p[1:], a[1:])), lift(0.0))
    return DerivedCoefficients(a=a, b=b, p=p, q=q, ba=ba, sum_pa=sum_pa)


def derive_float(params: CoralParams) -> DerivedCoefficients:
    c = derive_generic(params, float, lambda k, r: math.pow(k, r))
    arr = lambda xs: np.array(xs, dtype=float)
    return DerivedCoefficients(a=arr(c.a), b=arr(c.b), p=arr(c.p), q=arr(c.q),
                               ba=float(c.ba), sum_pa=float(c.sum_pa))


def derive_interval(params: CoralParams) -> DerivedCoefficients:
    return derive_generic(params, Interval.point,
                          lambda k, r: Interval.point(float(k)).pow(r))


# ---------------------------------------------------------------------------
# recruitment nonlinearity
# ---------------------------------------------------------------------------


def _sexp(y):
    if isinstance(y, np.ndarray):
        return np.exp(y)          # overflow gives inf, as for floats
    if isinstance(y, (float, int, np.floating)):
        try:
            return math.exp(y)
        except OverflowError:
            return math.inf
    if isinstance(y, (Interval, MidRad)):
        return y.exp()
    import mpmath
    return mpmath.exp(y)


def phi(y, params: CoralParams):
    """Recruits-to-larvae ratio c1 e^{-alpha y} / (y^2 + c2 e^{-beta y})."""
    num = params.c1 * _sexp(-params.alpha * y)
    den = y * y + params.c2 * _sexp(-params.beta * y)
    return num / den


def phi_derivs(y, params: CoralParams, order: int = 3):
    """phi and its first `order` derivatives (quotient-rule recursion on
    N = phi * D, which stays tight in interval arithmetic).

    Powers of alpha and beta are applied one factor at a time in the type
    of y, so no float-rounded constant enters an interval enclosure."""
    c1, c2, al, be = params.c1, params.c2, params.alpha, params.beta
    N = c1 * _sexp(-al * y)
    E = c2 * _sexp(-be * y)
    D = y * y + E
    out = [N / D]
    if order >= 1:
        Np = -al * N
        Dp = 2.0 * y - be * E
        out.append((Np - out[0] * Dp) / D)
    if order >= 2:
        Npp = al * (al * N)
        Dpp = 2.0 + be * (be * E)
        out.append((Npp - 2.0 * out[1] * Dp - out[0] * Dpp) / D)
    if order >= 3:
        Nppp = -(al * (al * (al * N)))
        Dppp = -(be * (be * (be * E)))
        out.append((Nppp - 3.0 * out[2] * Dp - 3.0 * out[1] * Dpp - out[0] * Dppp) / D)
    return tuple(out)


def row1_d2(phis, bx, qy, by, qz, bz):
    """D^2 g[y, z] for g = phi(P) (b.x), the nonlinear part of f_1 =
    lambda*g (rows 2..d of the map are linear), from phis = (phi, phi',
    phi'', ...) at P = q.x and the contractions qy = q.y, by = b.y, ...

    Generic over the scalar type: floats (numpy arrays for qz, bz give a
    whole row of D^2 g), Interval, CI and mpmath scalars."""
    return phis[2] * bx * qy * qz + phis[1] * (qy * bz + by * qz)


def row1_d3(phis, bx, qy, by, qz, bz, qw, bw):
    """D^3 g[y, z, w] for g = phi(P) (b.x), as row1_d2 (phis to phi''')."""
    return (phis[3] * bx * qy * qz * qw
            + phis[2] * (qy * qz * bw + qy * bz * qw + by * qz * qw))


def polyp_density(x, coeffs: DerivedCoefficients):
    """P = (1/Omega) sum_{k>=2} p_k x_k, via the q = dP/dx gradient."""
    total = None
    for qk, xk in zip(coeffs.q, x):
        term = qk * xk
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# the map and its derivatives
# ---------------------------------------------------------------------------


class CoralMap:
    """f(lambda, x) with float (numpy) and generic-scalar evaluation paths."""

    def __init__(self, params: CoralParams | None = None):
        self.params = params or CoralParams()
        self.cf = derive_float(self.params)
        self.ci = derive_interval(self.params)
        self._S = np.array(self.params.S, dtype=float)
        self._q_mr, self._b_mr = (MidRad.of(([v.lo for v in c], [v.hi for v in c]))
                                  for c in (self.ci.q, self.ci.b))
        qm, bm = self._qm, self._bm = [np.array([v.mag for v in c]) for c in (self.ci.q, self.ci.b)]
        self._qq, self._qb_sym = np.outer(qm, qm), np.outer(qm, bm) + np.outer(bm, qm)

    @property
    def d(self) -> int:
        return self.params.d

    # -- float paths ----------------------------------------------------

    def jac_x(self, lam: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        P = float(self.cf.q @ x)
        bx = float(self.cf.b @ x)
        ph, ph1 = phi_derivs(P, self.params, order=1)
        J = np.zeros((self.d, self.d))
        J[0, :] = lam * (ph1 * self.cf.q * bx + ph * self.cf.b)
        J[np.arange(1, self.d), np.arange(self.d - 1)] = self._S
        return J

    # -- generic-scalar paths --------------------------------------------

    def step_scalars(self, lam, x: Sequence, coeffs: DerivedCoefficients) -> list:
        P = polyp_density(x, coeffs)
        bx = sum((bk * xk for bk, xk in zip(coeffs.b, x)), 0.0 * P)
        first = lam * phi(P, self.params) * bx
        return [first] + [self.params.S[k] * x[k] for k in range(self.d - 1)]

    def row1_jet(self, x: "list[Interval] | MidRad", order: int = 1) -> "Row1Jet":
        """g = phi(P) (b.x) over an interval point or box x, where f_1 =
        lambda*g, with phi..phi^(order) and the gradient of g.

        One x, a list of `Interval`s, runs in `Interval` scalars, q.x and
        b.x summed in k order as `step_scalars` sums them.  A `MidRad` stack
        x (leading axes, one jet per row) runs in `MidRad`, q.x and b.x as
        `MidRad.dot` row sums, so a row does not depend on the rows stacked
        with it."""
        if isinstance(x, MidRad):
            q, b = self._q_mr, self._b_mr
            P, bx = x.dot(q), x.dot(b)
            phis = phi_derivs(P, self.params, order=max(order, 1))
            # dg/dx_j = phi'(P) q_j (b.x) + phi(P) b_j, one row per stacked x
            g1 = q * phis[1][..., None] * bx[..., None] + b * phis[0][..., None]
        else:
            P = polyp_density(x, self.ci)
            bx = sum((bk * xk for bk, xk in zip(self.ci.b, x)), 0.0 * P)
            phis = phi_derivs(P, self.params, order=max(order, 1))
            g1 = [qk * phis[1] * bx + bk * phis[0] for qk, bk in zip(self.ci.q, self.ci.b)]
        return Row1Jet(phis=phis, bx=bx, g=phis[0] * bx, g1=g1)

    def jac_x_iv(self, lam: Interval, jet: "Row1Jet") -> tuple[np.ndarray, np.ndarray]:
        """D_x f from the row-1 jet of the same x, as endpoint arrays."""
        lo, hi = np.zeros((self.d, self.d)), np.zeros((self.d, self.d))
        row = [g * lam for g in jet.g1]
        lo[0], hi[0] = [v.lo for v in row], [v.hi for v in row]
        k = np.arange(self.d - 1)
        lo[k + 1, k] = hi[k + 1, k] = self._S
        return lo, hi

    # -- rigorous second/third-order bounds over a box --------------------

    def hessian_weights(self, w: np.ndarray) -> tuple[float, float]:
        """Upper bounds (S_qq, S_qb) of sum_jk w_jk q_j q_k and sum_jk w_jk
        (q_j b_k + b_j q_k) for nonnegative weights w, so that over any box
        sum_jk w_jk |d2g/dx_j dx_k| <= |phi'' (b.x)| S_qq + |phi'| S_qb."""
        return (float(up_sum(up_mul(w, self._qq))),
                float(up_sum(up_mul(w, self._qb_sym))))

    def row1_bounds(self, lam: Interval, x_box: list[Interval]) -> "Row1Bounds":
        """Sup-magnitude data for mean-value Lipschitz estimates on a box."""
        jet = self.row1_jet(x_box, order=3)
        ph1, ph2, ph3 = jet.phis[1:]
        g2m = up_mul(up_mul((ph2 * jet.bx).mag, self._qq) + up_mul(ph1.mag, self._qb_sym), 1.0)
        return Row1Bounds(lam_mag=lam.mag, g1=np.array([v.mag for v in jet.g1]), g2=g2m,
                          a3=(ph3 * jet.bx).mag, b3=ph2.mag, q=self._qm, b=self._bm)


@dataclass(frozen=True)
class Row1Jet:
    """g = phi(P) (b.x) and its first derivatives over an interval point
    or box (`Interval` scalars, g1 a list of them), or over stacked x
    (`MidRad` throughout); phis reach the order the jet was built for."""

    phis: tuple                # phi .. phi^(order) at P = q.x
    bx: "Interval | MidRad"    # b.x
    g: "Interval | MidRad"     # phi(P) (b.x)
    g1: "list[Interval] | MidRad"      # dg/dx_j

    def __getitem__(self, rows) -> "Row1Jet":
        """The jet of the stacked x rows `rows` (a slice keeps them stacked)."""
        return Row1Jet(phis=tuple(p[rows] for p in self.phis), bx=self.bx[rows],
                       g=self.g[rows], g1=self.g1[rows])


@dataclass(frozen=True)
class Row1Bounds:
    """Upper bounds over a box for the derivatives of g (f_1 = lambda*g)."""

    lam_mag: float
    g1: np.ndarray    # sup |dg/dx_j|
    g2: np.ndarray    # sup |d2g/dx_j dx_k|
    a3: float         # sup |phi'''*(b.x)|
    b3: float         # sup |phi''|
    q: np.ndarray
    b: np.ndarray

    def g3_contracted(self, wmag: np.ndarray) -> np.ndarray:
        """Entrywise bound of |sum_j d3g_{jkl} w_j| for |w_j| <= wmag_j."""
        qw = up_sum(up_mul(self.q, wmag))
        bw = up_sum(up_mul(self.b, wmag))
        qq = np.outer(self.q, self.q)
        qb = np.outer(self.q, self.b)
        t = up_mul(self.a3, up_mul(qw, qq))
        t = t + up_mul(self.b3, up_mul(qw, qb + qb.T) + up_mul(bw, qq))
        return up_mul(t, 1.0)


# ---------------------------------------------------------------------------
# fixed-point reduction
# ---------------------------------------------------------------------------


class FixedPointReduction:
    """Eq-level reduction of the fixed-point problem to the scalar x1."""

    def __init__(self, coral: CoralMap):
        self.coral = coral
        self.cP = coral.cf.sum_pa / coral.params.omega   # P = cP * x1 on the branch

    def branch_lambda(self, x1: float) -> float:
        """lambda for which x1 is a nontrivial fixed-point first component."""
        return 1.0 / (self.coral.cf.ba * phi(self.cP * x1, self.coral.params))

    def branch_R(self, x1: float) -> float:
        return 1.0 / phi(self.cP * x1, self.coral.params)

    def full_point(self, x1: float) -> np.ndarray:
        return x1 * self.coral.cf.a

    def solve(self, lam: float, x1_max: float = 1e5, grid: int = 10_000) -> list[float]:
        """All nonnegative roots of the reduced equation (bracketing grid
        plus bisection; the trivial root 0 is always included)."""
        if lam <= 0.0:
            raise DomainError("lambda must be positive")
        h = lambda x1: 1.0 - lam * self.coral.cf.ba * phi(self.cP * x1, self.coral.params)
        roots = [0.0]
        xs = np.linspace(0.0, x1_max, grid + 1)
        vals = h(xs)
        # a grid point where h is zero, or a sign change to bisect, in grid order
        zero = (vals[:-1] == 0.0) & (xs[:-1] > 0.0)
        for i in np.flatnonzero(zero | (vals[:-1] * vals[1:] < 0.0)).tolist():
            lo, hi = float(xs[i]), float(xs[i + 1])
            roots.append(lo if zero[i] else _bisect(h, lo, hi))
        if vals[-1] == 0.0:
            roots.append(float(xs[-1]))
        return roots


def schur_cohn_inside(negative: np.ndarray) -> np.ndarray:
    """The number of roots inside the unit disk of a polynomial of degree
    n from the signs of its Schur-Cohn steps gamma_n..gamma_1, none 0 (Jury,
    Theory and Application of the z-Transform Method, 1964):
    `negative[..., k - 1]` says gamma_k < 0; leading axes stack polynomials.
    inside_k = inside_(k-1) for gamma_k > 0 and k - inside_(k-1) for
    gamma_k < 0 (inside_0 = 0), so inside_n sums k [gamma_k < 0] s_(k+1)..s_n
    over k, s_j = sign(gamma_j)."""
    n = negative.shape[-1]
    later = np.ones(negative.shape, dtype=np.int64)
    np.cumprod(np.where(negative[..., :0:-1], -1, 1), axis=-1, out=later[..., -2::-1])
    return (negative * np.arange(1, n + 1) * later).sum(axis=-1)


def _bisect(h, lo: float, hi: float, iters: int = 200) -> float:
    flo = h(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = h(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
