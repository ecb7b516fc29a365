"""Validated pseudo-arclength continuation of the fixed-point branch.

Each step certifies a slanted box around the predictor segment
(anchor + alpha * direction) by applying the constructive implicit
function theorem to the extended system

    G(alpha, (sigma, x)) = ( mu*sigma + v.x,
                             F(t0 + alpha*mu + sigma, u0 + alpha*v + x) )

and consecutive boxes are linked by checking that the next accuracy ball
sits inside the previous uniqueness region.  The driver works on a
rescaled copy of the coral map (parameter t = R / rscale, state u = x / s)
so that all coordinates have comparable size.

The driver plans in float and certifies in stacks.  A float planner walks
a chunk of steps ahead: tangent, the float inverse B of the extended
Jacobian, float estimates of K and of the Lipschitz data over the box, the
delta_alpha they predict, and the chord corrector, whose last evaluation
is the next anchor's, so the planner evaluates each float point once.  The
validator runs every interval stage once on the stacked anchors of the
chunk and certifies each box at exactly its planned delta_alpha.  The
longest prefix that validates and links is kept.  The first box that fails
is replanned: its delta_alpha is planned again from its certified constants
and checked the same way (its Lipschitz box halving when even that fails),
and planning resumes after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import cift
from .errors import (CorrectorFailed, NotInvertibleEvidence, TangentUndefined,
                     ValidationFailed)
from .interval import (_EPS, FloatHull, IArray, Interval, _adn, _aup, float_matmat,
                       norm_inf, up_mul, up_sum)
from .model import CoralMap, FixedPointReduction, phi_derivs


class CoralBranchSystem:
    """F(t, u) = f(lambda(t), s (.) u) / s - u with parameter t = R/rscale.

    scales = None and rscale = 1 give the raw system in (R, x) coordinates.
    """

    def __init__(self, coral: CoralMap, scales: np.ndarray | None = None,
                 rscale: float = 1.0):
        self.coral = coral
        self.d = coral.d
        s = np.ones(self.d) if scales is None else np.asarray(scales, dtype=float)
        if not np.all(np.isfinite(s) & (s > 0.0)):
            raise ValidationFailed("scale constants must be positive and finite")
        self.s = s
        self.rscale = float(rscale)
        # the constant entries of D_u F: s_j/s_0 scales row 1, and the
        # subdiagonal is S_k s_k/s_{k+1}
        r0 = s / s[0]
        self._ratio0_iv = IArray(_adn(r0), _aup(r0))
        # lipschitz_M's scalings of row 1's gradient and Hessian
        self._ratio0 = r0
        self._Sqq, self._Sqb = coral.hessian_weights(up_mul(np.outer(s, s) / s[0], 1.0))
        S = np.array(coral.params.S, dtype=float)
        r1 = s[:-1] / s[1:]
        k = np.arange(self.d - 1)
        # the constant rows of D_x f (the subdiagonal S) and of [D_t F | D_u F]
        # (that subdiagonal rescaled, minus I); evaluate fills row 1
        self._Jx = np.zeros((self.d, self.d))
        self._Jx[k + 1, k] = S
        self._A = np.zeros((self.d, self.d + 1))
        self._A[:, 1:] = self._Jx * s[None, :] / s[:, None] - np.eye(self.d)
        # the constant subdiagonal of D_u F, S_k s_k/s_{k+1}, once; eval_iv
        # fills row 1 and subtracts I per call
        sub = IArray(_adn(r1), _aup(r1)) * S
        self._Ju_lo, self._Ju_hi = np.zeros((self.d, self.d)), np.zeros((self.d, self.d))
        self._Ju_lo[k + 1, k], self._Ju_hi[k + 1, k] = sub.lo, sub.hi
        self._S = S
        self._ct_iv = Interval.point(self.rscale) / coral.ci.ba   # dlambda/dt
        self._ct = self.rscale / coral.cf.ba

    # -- coordinate helpers ----------------------------------------------

    def lam_of_t(self, t: float) -> float:
        return self._ct * t

    def R_of_t(self, t: float) -> float:
        return self.rscale * t

    def to_raw(self, t: float, u: np.ndarray) -> tuple[float, np.ndarray]:
        return self.lam_of_t(t), self.s * u

    def from_raw_R(self, R: float, x: np.ndarray) -> tuple[float, np.ndarray]:
        return R / self.rscale, np.asarray(x, dtype=float) / self.s

    # -- float evaluation --------------------------------------------------

    def evaluate(self, t: float, u: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F, [D_t F | D_u F] as one (d, d + 1) matrix, and the raw D_x f
        that its D_u F block rescales, at (t, u), from one q.x, one b.x and
        one `phi_derivs`.  This is the float interface of every branch
        system; one without a map to label stability by gives None in
        place of D_x f.  Each entry equals, bit for bit, the composition of
        the one-state map, its lambda derivative and `CoralMap.jac_x`
        (the tests keep the first two as reference functions)."""
        cf, s = self.coral.cf, self.s
        lam, x = self._ct * t, s * u
        P, bx = float(cf.q @ x), float(cf.b @ x)
        ph, ph1 = phi_derivs(P, self.coral.params, order=1)
        f = np.empty(self.d)
        f[0] = lam * ph * bx
        f[1:] = self._S * x[:-1]
        Jx = self._Jx.copy()
        Jx[0] = lam * (ph1 * cf.q * bx + ph * cf.b)
        A = self._A.copy()
        A[0, 0] = self._ct * (ph * bx) / s[0]
        A[0, 1:] = Jx[0] * s / s[0]
        A[0, 1] -= 1.0
        return f / s - u, A, Jx

    def lipschitz_estimator(self, t0: float, u0: np.ndarray):
        """Float estimate of `lipschitz_M` over the box of radius d around
        (t0, u0), as a function of d: its formulas in `FloatHull`
        arithmetic, which follows the certified constants to rounding
        error at a fraction of the cost (the planner's input).  q.x0 and
        b.x0 are taken once for all the boxes the planner probes."""
        cf, params, ct = self.coral.cf, self.coral.params, abs(self._ct)
        x0 = self.s * u0
        P0, b0 = float(cf.q @ x0), float(cf.b @ x0)

        def estimate(d: float) -> tuple[float, float, float, float]:
            rx = self.s * d
            rP, rb = float(cf.q @ rx), float(cf.b @ rx)
            bx = FloatHull(b0 - rb, b0 + rb)
            ph0, ph1, ph2 = phi_derivs(FloatHull(P0 - rP, P0 + rP), params, order=2)
            M1 = ct * (abs(t0) + d) * ((ph2 * bx).mag * self._Sqq + ph1.mag * self._Sqb)
            c = ph1 * bx
            g1 = np.maximum(np.abs(c.lo * cf.q + ph0.lo * cf.b),
                            np.abs(c.hi * cf.q + ph0.hi * cf.b))
            M2 = ct * float(self._ratio0 @ g1)
            return M1, M2, M2, 0.0

        return estimate

    # -- interval evaluation ------------------------------------------------

    def eval_iv(self, t, u: IArray) -> tuple[IArray, IArray, IArray]:
        """Interval (F, D_u F, D_t F) at interval points or boxes, from one
        row-1 jet of x = s (.) u: t an `Interval` with u of shape (d,), or
        t an `IArray` of shape (n,) with u of shape (n, d) for a stack."""
        d = self.d
        lead = u.lo.shape[:-1]
        lam = self._ct_iv * t
        x = u * self.s
        jet = self.coral.row1_jet(x)
        # F = f(lambda, x) / s - u; rows 2..d of f are S_k x_k
        flo, fhi = np.empty(lead + (d,)), np.empty(lead + (d,))
        f0, f_rest = lam * jet.phis[0] * jet.bx, x[..., :-1] * self._S
        flo[..., 0], fhi[..., 0] = f0.lo, f0.hi
        flo[..., 1:], fhi[..., 1:] = f_rest.lo, f_rest.hi
        F = IArray(flo, fhi) / self.s - u
        # D_u F = (row 1 of D_x f scaled by s_j / s_0, the constant subdiagonal) - I
        row0 = jet.g1 * (lam[..., None] if isinstance(lam, IArray) else lam) * self._ratio0_iv
        lo = np.broadcast_to(self._Ju_lo, lead + (d, d)).copy()
        hi = np.broadcast_to(self._Ju_hi, lead + (d, d)).copy()
        lo[..., 0, :], hi[..., 0, :] = row0.lo, row0.hi
        jt = self._ct_iv * jet.g / Interval.point(float(self.s[0]))
        Jt_lo, Jt_hi = np.zeros(lead + (d,)), np.zeros(lead + (d,))
        Jt_lo[..., 0], Jt_hi[..., 0] = jt.lo, jt.hi
        return F, IArray(lo, hi).shifted(1.0), IArray(Jt_lo, Jt_hi)

    # -- Lipschitz data over a box -------------------------------------------

    def lipschitz_M(self, t0, u0, d) -> tuple:
        """(M1..M4) for the mean-value bounds of (D_u F, D_t F) over the
        boxes |u - u0_i| <= d_i, |t - t0_i| <= d_i, one entry per stacked
        box (blockwise Lipschitz recipe).

        Row 1 is the only non-constant row of D_u F and the only nonzero
        entry of D_t F, so each max-norm difference is one row sum: M1 =
        |lambda| sum_jk (s_j s_k / s_0) |d2g/dx_j dx_k| bounds D_u F in u, in
        the closed form of `CoralMap.hessian_weights`; M2 = sum_j tg_j
        bounds it in t, and M3 = M2 since d/du_k of D_t F is d/dt of
        (D_u F)_1k = tg_k.  lambda is affine in t, so M4 = 0."""
        t0, u0, d = (np.asarray(a, dtype=float) for a in (t0, u0, d))
        rad = _aup(self.s * d[..., None])
        x_box = IArray(_adn(_adn(self.s * u0) - rad), _aup(_aup(self.s * u0) + rad))
        lam_mag = (self._ct_iv * IArray.around(t0, d)).mag
        jet = self.coral.row1_jet(x_box, order=2)
        g2 = up_mul(up_mul((jet.phis[2] * jet.bx).mag, self._Sqq)
                    + up_mul(jet.phis[1].mag, self._Sqb), 1.0)
        M1 = up_mul(lam_mag, g2)
        M2 = up_sum(up_mul(self._ct_iv.mag, up_mul(self._ratio0, jet.g1.mag)), axis=-1)
        return M1, M2, M2, np.zeros_like(M1)


def nontrivial_fixed_point(coral: CoralMap, R: float) -> np.ndarray:
    """The largest nontrivial fixed point x of the map at R; raises
    ValidationFailed when there is none."""
    red = FixedPointReduction(coral)
    roots = [r for r in red.solve(R / coral.cf.ba) if r > 0]
    if not roots:
        raise ValidationFailed(f"no nontrivial fixed point at R = {R}")
    return red.full_point(max(roots))


def branch_start(coral: CoralMap, R: float) -> tuple[CoralBranchSystem, float, np.ndarray]:
    """The branch system and its start (t0, u0) at the largest nontrivial
    fixed point for R.  The system scales each state component by its
    start value rounded to one significant digit, and R by 100."""
    x0 = nontrivial_fixed_point(coral, R)
    zero = [f"x{k + 1}" for k in np.flatnonzero(x0 == 0.0)]
    if zero:
        raise ValidationFailed(f"start point at R = {R} has zero components "
                               f"{', '.join(zero)}: no scale for them")
    e = np.floor(np.log10(np.abs(x0)))
    scales = np.round(x0 / 10.0 ** e) * 10.0 ** e
    system = CoralBranchSystem(coral, scales=scales, rscale=100.0)
    t0, u0 = system.from_raw_R(R, x0)
    return system, t0, u0


# ---------------------------------------------------------------------------
# extended system
# ---------------------------------------------------------------------------


class ExtendedSystem:
    """G(alpha, (sigma, x)) for one anchor/direction pair.  The interval
    stages also take a stack: t0, mu of shape (n,) and u0, v of shape
    (n, d) with the matching stacked enclosures; the float methods take
    one anchor."""

    def __init__(self, system: CoralBranchSystem, t0, u0: np.ndarray, mu, v: np.ndarray):
        self.sys = system
        self.t0 = np.asarray(t0, dtype=float) if np.ndim(t0) else float(t0)
        self.u0 = np.asarray(u0, dtype=float)
        self.mu = np.asarray(mu, dtype=float) if np.ndim(mu) else float(mu)
        self.v = np.asarray(v, dtype=float)

    def point(self, alpha: float, sigma: float, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(t, u) = anchor + alpha * direction + (sigma, x)."""
        return self.t0 + alpha * self.mu + sigma, self.u0 + alpha * self.v + x

    def value(self, alpha: float, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        """G(alpha, z), and the branch system's evaluation (F, [D_t F |
        D_u F], D_x f) at the point it is taken at."""
        sigma, x = z[0], z[1:]
        ev = self.sys.evaluate(*self.point(alpha, sigma, x))
        G = np.empty(len(z))
        G[0] = self.mu * sigma + self.v @ x
        G[1:] = ev[0]
        return G, ev

    def jac_from(self, A: np.ndarray) -> np.ndarray:
        """D_{(sigma,x)} G from [D_t F | D_u F] at the point G is taken at."""
        J = np.empty((A.shape[0] + 1, A.shape[1]))
        J[0, 0] = self.mu
        J[0, 1:] = self.v
        J[1:] = A
        return J

    def jac_iv_at_origin(self, Ju: IArray, Jt: IArray) -> IArray:
        """Interval enclosure of D_{(sigma,x)} G(0, (0,0)) -- the (P2) matrix --
        from enclosures (Ju, Jt) of (D_u F, D_t F) at (t0, u0)."""
        d = self.sys.d
        lead = self.v.shape[:-1]
        lo = np.empty(lead + (d + 1, d + 1))
        hi = np.empty(lead + (d + 1, d + 1))
        lo[..., 0, 0] = hi[..., 0, 0] = self.mu
        lo[..., 0, 1:] = hi[..., 0, 1:] = self.v
        lo[..., 1:, 0], hi[..., 1:, 0] = Jt.lo, Jt.hi
        lo[..., 1:, 1:], hi[..., 1:, 1:] = Ju.lo, Ju.hi
        return IArray(lo, hi)

    def drift_iv(self, Ju: IArray, Jt: IArray) -> IArray:
        """Enclosure of D_t F mu + D_u F v, the alpha-derivative of G's F
        rows, as one product of the row (mu, v) with [D_t F | D_u F]^T."""
        row = np.concatenate([np.asarray(self.mu)[..., None], self.v], axis=-1)[..., None, :]
        JT = IArray(np.concatenate([Jt.lo[..., None, :], np.swapaxes(Ju.lo, -1, -2)], axis=-2),
                    np.concatenate([Jt.hi[..., None, :], np.swapaxes(Ju.hi, -1, -2)], axis=-2))
        return float_matmat(row, JT)[..., 0, :]


# relative size of the second-smallest singular value below which the
# branch Jacobian counts as rank deficient by more than one
_RANK_TOL = 1e-8


def tangent_estimate(jac: np.ndarray, prev: np.ndarray | None = None
                     ) -> tuple[float, np.ndarray]:
    """Unit max-norm null vector of `jac` = [D_t F | D_u F] at the anchor.

    Given the previous direction, it solves the bordered system [prev;
    jac] tau = e_0, whose solution continues prev (prev . tau = 1).  At the
    start, with no direction to border by, it is the last right singular
    vector."""
    if prev is None:
        _, sv, Vt = np.linalg.svd(jac)
        if sv[-1] <= _RANK_TOL * sv[0]:
            # rank < d: the null space is at least two-dimensional
            raise TangentUndefined("branch Jacobian rank deficiency exceeds one")
        tang = Vt[-1]
    else:
        border = np.empty((len(prev), len(prev)))
        border[0], border[1:] = prev, jac
        rhs = np.zeros(len(prev))
        rhs[0] = 1.0
        try:
            tang = np.linalg.solve(border, rhs)
        except np.linalg.LinAlgError as exc:
            raise TangentUndefined(f"bordered tangent system singular: {exc}") from exc
        if not np.isfinite(tang).all():
            raise TangentUndefined("bordered tangent system singular: non-finite solution")
    tang = tang / np.abs(tang).max()
    return float(tang[0]), tang[1:].copy()


def newton_correct(ext: ExtendedSystem, alpha: float, tol: float = 1e-13,
                   max_iter: int = 25) -> tuple[float, np.ndarray, tuple]:
    """Approximate zero (sigma, x) of G(alpha, .) orthogonal to the
    predictor, and the branch system's evaluation (F, [D_t F | D_u F],
    D_x f) at the point it reaches.

    Chord steps z <- z - B_alpha G(alpha, z): the extended Jacobian is
    evaluated and inverted once, at the predictor (alpha, 0), so each
    iteration costs one evaluation of the system."""
    z = np.zeros(ext.sys.d + 1)
    B = None
    for it in range(max_iter + 1):
        G, ev = ext.value(alpha, z)
        if np.abs(G).max() <= tol:
            return float(z[0]), z[1:].copy(), ev
        if it == max_iter:
            break
        if B is None:
            try:
                B = np.linalg.inv(ext.jac_from(ev[1]))
            except np.linalg.LinAlgError as exc:
                raise CorrectorFailed(f"singular corrector Jacobian: {exc}") from exc
        z = z - B @ G
    raise CorrectorFailed(f"no convergence in {max_iter} iterations "
                          f"(residual {np.abs(G).max():.3e})")


# ---------------------------------------------------------------------------
# hypotheses and segment validation (stacked: one entry per segment)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentHypotheses:
    """(P1)-(P3) data for one anchor/direction pair, or arrays of them for
    a stack of segments."""

    rho: float
    xi: float
    K: float
    M1: float
    M2: float
    M3: float
    M4: float
    d_u: float
    d_lambda: float


def derive_extended_constants(h: SegmentHypotheses, mu, v: np.ndarray) -> cift.CiftBounds:
    """Lipschitz constants of the extended system from the (P3) data, for
    one segment or a stack (then the bounds hold arrays).

    With the product norm max(|sigma|, |x|), the derivative difference is
    bounded by (M1+M3)|x| + (M2+M4)|sigma| <= L1 max(|sigma|, |x|) with
    L1 = M1+M2+M3+M4 (sharp when |sigma| = |x|; the smaller constant
    max(M1+M3, M2+M4) would only be valid for the sum norm).
    """
    I = IArray.point
    vn, am = I(np.abs(v).max(axis=-1)), I(np.abs(mu))
    M1, M2, M3, M4 = I(h.M1), I(h.M2), I(h.M3), I(h.M4)
    L1 = ((M1 + M3) + (M2 + M4)).hi
    L2 = ((M1 + M3) * vn + (M2 + M4) * am).hi
    L4 = ((M1 * vn + M2 * am) * vn + (M3 * vn + M4 * am) * am).hi
    return cift.CiftBounds(rho=h.rho, K=h.K, L1=L1, L2=L2, L3=h.xi, L4=L4,
                           ell_x=h.d_u, ell_alpha=h.d_lambda)


def _rows(obj, n: int) -> list:
    """The n per-segment instances of a dataclass whose fields are arrays."""
    cols = [np.broadcast_to(getattr(obj, f.name), (n,)).tolist() for f in fields(obj)]
    return [type(obj)(*vals) for vals in zip(*cols)]


@dataclass
class BranchBox:
    """One validated slanted box along the branch.  `validate_segment`
    builds it; the driver fills the fields after `hyp` as the step goes."""

    index: int
    t: float
    u: np.ndarray
    mu: float
    v: np.ndarray
    delta_alpha: float
    delta_u: float
    delta_min: float
    bounds: cift.CiftBounds
    hyp: SegmentHypotheses
    bound_by: str = ""            # "planned", or the constraint that set a replan
    linked_to_previous: bool = False
    alpha_step: float = 0.0       # alpha used to leave this box
    corr_norm: float = 0.0        # |(sigma*, x*)| of the outgoing corrector
    halvings: int = 0             # box halvings before this segment validated
    stability: str = ""

    @property
    def dir_norm(self) -> float:
        return max(abs(self.mu), float(np.abs(self.v).max()))


@dataclass(frozen=True)
class SegmentAnchor:
    """The part of the hypotheses of a stack of segments that does not
    depend on the Lipschitz box: (P1) rho, the (P3) drift xi and the (P2)
    bound K, one entry per segment."""

    ext: ExtendedSystem
    rho: np.ndarray
    xi: np.ndarray
    K: np.ndarray

    def take(self, i: int) -> "SegmentAnchor":
        """Segment i as a stack of one."""
        e, sl = self.ext, slice(i, i + 1)
        return SegmentAnchor(ExtendedSystem(e.sys, e.t0[sl], e.u0[sl], e.mu[sl], e.v[sl]),
                             self.rho[sl], self.xi[sl], self.K[sl])


def segment_anchor(system: CoralBranchSystem, t0: np.ndarray, u0: np.ndarray,
                   mu: np.ndarray, v: np.ndarray, B: np.ndarray) -> SegmentAnchor:
    """Anchor stage of a stack of segments: t0, mu of shape (n,), u0, v of
    shape (n, d), and B the float inverses of their extended Jacobians.
    Raises NotInvertibleEvidence, whose `index` names the first failing
    segment, when (P2) fails."""
    ext = ExtendedSystem(system, t0, u0, mu, v)
    F, Ju, Jt = system.eval_iv(IArray.point(ext.t0), IArray.point(ext.u0))
    rho = norm_inf(F).hi
    xi = norm_inf(ext.drift_iv(Ju, Jt)).hi
    try:
        K, _ = cift.inverse_bound(ext.jac_iv_at_origin(Ju, Jt), B)
    except NotInvertibleEvidence as exc:
        raise NotInvertibleEvidence(f"(P2) failed: {exc}", index=exc.index) from exc
    return SegmentAnchor(ext=ext, rho=rho, xi=xi, K=K)


def validate_segment(anchor: SegmentAnchor, d, delta_alpha=None,
                     index: int = 0) -> list:
    """Box stage of a stack of anchored segments: certify segment i over
    its Lipschitz box d_i -- (P3) plus the delta inequalities -- in one
    stacked `cift.check_deltas` at its planned delta_alpha_i.  When
    `delta_alpha` is None, each segment's delta_alpha is planned from its
    certified constants as the planner plans it from estimates, and the
    box records the constraint whose root set it.  One entry per segment:
    its BranchBox (index `index` + i), or the ValidationFailed that names
    the broken part."""
    ext = anchor.ext
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    M1, M2, M3, M4 = ext.sys.lipschitz_M(ext.t0, ext.u0, d)
    hyp = SegmentHypotheses(rho=anchor.rho, xi=anchor.xi, K=anchor.K, M1=M1, M2=M2,
                            M3=M3, M4=M4, d_u=d, d_lambda=d)
    bounds = derive_extended_constants(hyp, ext.mu, ext.v)
    dir_norm = np.maximum(np.abs(ext.mu), np.abs(ext.v).max(axis=-1))
    hyps, bnds = _rows(hyp, n), _rows(bounds, n)
    if delta_alpha is None:
        roots = [cift.delta_alpha_root(b.K, b.rho, b.L1, b.L2, b.L3, b.L4, b.ell_x, dn,
                                       coupled_cap=b.ell_x)
                 for b, dn in zip(bnds, dir_norm.tolist())]
        # the roots ignore ell_alpha, which the check does not
        delta_alpha = [_planned(min(root, b.ell_alpha)) for (root, _), b in zip(roots, bnds)]
        bound_by = [name for _, name in roots]
    else:
        bound_by = ["planned"] * n
    ok, pairs = cift.check_deltas(bounds, dir_norm, d, delta_alpha)
    out = []
    for i, (h, b, p, good) in enumerate(zip(hyps, bnds, _rows(pairs, n), ok.tolist())):
        out.append(BranchBox(
            index=index + i, t=float(ext.t0[i]), u=ext.u0[i].copy(), mu=float(ext.mu[i]),
            v=ext.v[i].copy(), delta_alpha=p.delta_alpha, delta_u=p.delta_x,
            delta_min=p.delta_min, bounds=b, hyp=h, bound_by=bound_by[i]) if good
            else ValidationFailed(
                cift.accuracy_gates(b.K, b.rho, b.L1, b.ell_x, "ell_x")[1]
                or f"delta inequalities infeasible at the planned delta_alpha = "
                   f"{p.delta_alpha!r}"))
    return out


# Each step moves this fraction of its box's certified segment
# [-delta_alpha, delta_alpha].  The link needs |alpha| + delta_min'/|dir|
# < delta_alpha, and delta_min'/|dir| is below 1e-8 delta_alpha on the
# default branch, so the 1% left over is ample.
ALPHA_FRAC = 0.99


def check_link(prev: list[BranchBox], alpha, corr_norm, next_delta_min,
               slack=0.0) -> np.ndarray:
    """Theorem linking inequalities for a stack of links: the accuracy
    ball of box k+1 must lie in the uniqueness region of box prev[k] at
    the alpha where the corrector ran, whose correction had max norm
    corr_norm[k].  One bool per link.

    `slack` absorbs the rounding gap between the stored floating-point
    anchor and the exact decomposition anchor + alpha*dir + correction.
    """
    I = IArray.point
    da = np.array([b.delta_alpha for b in prev])
    du = np.array([b.delta_u for b in prev])
    dn = np.array([b.dir_norm for b in prev])
    dmin = I(next_delta_min)
    lhs1 = (I(np.abs(alpha)) + dmin / I(dn)).hi
    lhs2 = (I(corr_norm) + I(slack) + dmin).hi
    return (lhs1 < da) & (lhs2 < du)


def _anchor_rounding_gap(t_prev, u_prev, alpha_k, mu, v, sigma, x_corr,
                         t_next, u_next):
    """Upper bound of |float_anchor - (anchor + alpha*dir + corr)|_inf,
    with t as component 0: ((anchor + alpha*dir) + corr) - float_anchor
    in `IArray` arithmetic; stacked inputs give one bound per step."""
    pt = lambda t, u: np.concatenate([np.asarray(t, dtype=float)[..., None], u], axis=-1)
    prev, d, corr, new = pt(t_prev, u_prev), pt(mu, v), pt(sigma, x_corr), pt(t_next, u_next)
    a = np.asarray(alpha_k, dtype=float)[..., None]
    I = IArray.point
    return (I(prev) + I(d) * a + I(corr) - I(new)).mag.max(axis=-1)


# |gamma| at or below this, on coefficients scaled to max |a| = 1, leaves a
# Schur-Cohn count to LAPACK: a root lies on or near the unit circle
_SCHUR_COHN_TOL = 1e-9


def _leslie_outside_counts(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack (n, d, d) of Leslie matrices (a dense first row, the
    subdiagonal, zeros elsewhere): the number of roots outside the unit
    circle of det(zI - J) = z^d - sum_j J[0,j] (J[1,0]...J[j,j-1]) z^(d-1-j),
    counted by the Schur-Cohn recursion, and the mask of rows whose count
    is ambiguous (a root near the circle, a degenerate step, a non-finite
    entry or a matrix that is not Leslie).

    The recursion takes p of formal degree k (coefficients a_0..a_k,
    ascending) to T p with c_i = a_0 a_i - a_k a_(k-i), i < k, and gamma =
    c_0; the roots m inside the disk obey m(p) = m(Tp) for gamma > 0 and
    m(p) = k - m(Tp) for gamma < 0 (Jury, Theory and Application of the
    z-Transform Method, 1964)."""
    n, d = J.shape[0], J.shape[-1]
    off = np.ones((d, d), dtype=bool)
    off[0] = False
    off[np.arange(1, d), np.arange(d - 1)] = False
    gamma = np.empty((n, d))
    # a zero or non-finite row gives gamma = 0 or NaN, which marks it ambiguous
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        sub = np.ones((n, d))
        np.cumprod(J[:, np.arange(1, d), np.arange(d - 1)], axis=1, out=sub[:, 1:])
        a = np.empty((n, d + 1))
        a[:, :d] = -(J[:, 0] * sub)[:, ::-1]
        a[:, d] = 1.0
        for k in range(d, 0, -1):
            a /= np.abs(a).max(axis=1, keepdims=True)
            a = a[:, :1] * a[:, :k] - a[:, k:k + 1] * a[:, k:0:-1]
            gamma[:, k - 1] = a[:, 0]
    ambiguous = (J[:, off] != 0.0).any(axis=1) | ~(np.abs(gamma) > _SCHUR_COHN_TOL).all(axis=1)
    # inside_k = s_k inside_(k-1) + k [gamma_k < 0] with s_k = sign(gamma_k)
    # and inside_0 = 0: sum the terms k [gamma_k < 0] s_(k+1)...s_d
    negative = gamma < 0.0
    signs = np.where(negative, -1, 1)
    later = np.ones((n, d), dtype=np.int64)
    np.cumprod(signs[:, :0:-1], axis=1, out=later[:, -2::-1])
    inside = (negative * np.arange(1, d + 1) * later).sum(axis=1)
    return d - inside, ambiguous


def classify_stability(jac_x: np.ndarray):
    """Non-rigorous: count eigenvalues of D_x f outside the unit circle.
    A stack of matrices gives the list of their labels.

    D_x f is a Leslie matrix, so the count comes from the Schur-Cohn
    recursion on its characteristic polynomial; rows whose count is
    ambiguous take `np.linalg.eigvals`, whose count it equals elsewhere."""
    J = np.asarray(jac_x, dtype=float)
    Js = J.reshape(-1, *J.shape[-2:])
    idx, ambiguous = _leslie_outside_counts(Js)
    if ambiguous.any():
        idx[ambiguous] = (np.abs(np.linalg.eigvals(Js[ambiguous])) > 1.0).sum(axis=-1)
    label = lambda i: "stable" if i == 0 else f"unstable({i})"
    return label(int(idx[0])) if J.ndim == 2 else [label(i) for i in idx.tolist()]


# ---------------------------------------------------------------------------
# whole-branch driver: float planner, stacked validator
# ---------------------------------------------------------------------------


@dataclass
class BranchResult:
    boxes: list[BranchBox] = field(default_factory=list)
    stop_reason: str = ""
    fold_index: int | None = None
    replans: int = 0              # boxes whose planned delta_alpha failed
    boxes_discarded: int = 0      # planned boxes dropped after those

    def all_linked(self) -> bool:
        return all(b.linked_to_previous for b in self.boxes[1:])


# The Lipschitz box |u - u0|, |t - t0| <= d starts at _BOX_START.  The
# planner moves it by factors of 2 within [_BOX_MIN, _BOX_CAP] to the
# candidate with the longest predicted step, and a box that fails to
# validate even at the delta_alpha planned from its certified constants
# halves it.
_BOX_START = 1e-4
_BOX_CAP = 3e-2
_BOX_MIN = 1e-11
_CORRECTOR_TOL = 1e-14
_MAX_NEWTON = 25
# A planned delta_alpha sits this fraction below the float root of the
# predicted constants.  On the seed-0 branch the certified M1, M2 exceed
# their estimates by at most 8e-14 relative and K by 1.2e-11, so a planned
# box fails only where the prediction breaks down; the step gives up 1e-8
# of its length for that.
_PLAN_MARGIN = 1e-8
# Chunk sizes of the validator: it starts at _CHUNK_MIN planned steps,
# doubles after each chunk that validates whole, and starts over after a
# replan.
_CHUNK_MIN = 8
_CHUNK_MAX = 64


@dataclass
class _Step:
    """One planned box: its float anchor data and the step that leaves it."""

    index: int
    ext: ExtendedSystem           # anchor (t0, u0) and tangent (mu, v)
    B: np.ndarray                 # float inverse of the extended Jacobian
    Jx: np.ndarray | None         # raw D_x f, for the stability label
    d: float                      # Lipschitz box
    delta_alpha: float            # planned; certified as it is
    fold_index: int | None        # last fold seen up to this box
    prev: "_Step | None"          # the box this one was stepped to from
    alpha: float = 0.0            # the step that leaves the box
    corr: tuple[float, np.ndarray] | None = None
    reached: tuple | None = None  # the system's evaluation at the next anchor
    stop: str = ""                # stop reason after this box

    @property
    def tangent(self) -> np.ndarray:
        return np.concatenate([[self.ext.mu], self.ext.v])

    def leave(self, alpha: float) -> bool:
        """Run the corrector for the step alpha out of this box; False, with
        the stop reason set, when it fails."""
        e = self.ext
        # the residual cannot resolve below a few ulps of the state
        tol = max(_CORRECTOR_TOL, 8.0 * _EPS * max(abs(e.t0), float(np.abs(e.u0).max())))
        try:
            sigma, x, self.reached = newton_correct(e, alpha, tol=tol, max_iter=_MAX_NEWTON)
        except CorrectorFailed as exc:
            self.stop = f"corrector-failed: {exc}"
            return False
        self.alpha, self.corr = alpha, (sigma, x)
        return True

    def next_anchor(self) -> tuple[float, np.ndarray]:
        return self.ext.point(self.alpha, *self.corr)


def _predict_alpha(estimate, vn: float, am: float, K: float, rho: float, xi: float,
                   d: float) -> tuple[float, str]:
    """The planned delta_alpha for the Lipschitz box d, and its
    constraint: the float root of `cift.delta_alpha_root` fed with float
    estimates (`estimate` from `lipschitz_estimator`, vn = |v|, am = |mu|)."""
    M1, M2, M3, M4 = estimate(d)
    L1 = M1 + M2 + M3 + M4
    L2 = (M1 + M3) * vn + (M2 + M4) * am
    L4 = (M1 * vn + M2 * am) * vn + (M3 * vn + M4 * am) * am
    root, bound_by = cift.delta_alpha_root(K, rho, L1, L2, xi, L4, d, max(am, vn),
                                           coupled_cap=d)
    return _planned(root), bound_by


def _planned(root: float) -> float:
    """The planned delta_alpha for a float root: _PLAN_MARGIN below it."""
    return root * (1.0 - _PLAN_MARGIN)


def _plan_box(system, t: float, u: np.ndarray, mu: float, v: np.ndarray, F: np.ndarray,
              A: np.ndarray, B: np.ndarray, d: float) -> tuple[float, float]:
    """(d, delta_alpha): the Lipschitz box with the longest predicted step
    among d 2^k, and its planned delta_alpha.  The climb starts at the
    previous box and moves up while a box cap bounds the step (a larger
    box relaxes the caps) or down while the L1 coupling does (a smaller
    box lowers the Lipschitz data), as long as the step grows.  Every
    root is at most the search-cap root, and rounding is monotone, so a
    box whose planned search-cap root does not exceed the current step
    cannot win: the climb stops there without evaluating it.

    The estimates stay above what the validator certifies by more than
    its rounding: K from the row sums of |B| (the Neumann factor 1/(1 -
    rho1) is 1 + O(1e-12)), rho and xi from the float residual and drift
    plus generous multiples of their rounding."""
    K = float(np.abs(B).sum(axis=1).max())
    rho = float(np.abs(F).max()) + 64.0 * _EPS * max(float(np.abs(u).max()), 1.0)
    tang = np.concatenate([[mu], v])
    xi = float((np.abs(A @ tang) + 32.0 * (len(tang) + 1) * _EPS * (np.abs(A) @ np.abs(tang))).max())
    vn = float(np.abs(v).max())
    args = (system.lipschitz_estimator(t, u), vn, abs(mu), K, rho, xi)
    dir_norm = max(abs(mu), vn)
    da, bound_by = _predict_alpha(*args, d)
    factor = 2.0 if bound_by in ("search-cap", "coupled-cap") else 0.5
    while bound_by != "ell-x" and _BOX_MIN <= factor * d <= _BOX_CAP:
        if not _planned(cift.search_cap_root(factor * d, dir_norm)) > da:
            break
        da2, bound2 = _predict_alpha(*args, factor * d)
        if not da2 > da:
            break
        d, da, bound_by = factor * d, da2, bound2
    return d, da


def _plan(system, prev: _Step | None, start: tuple[float, np.ndarray], n: int,
          to_R: float) -> tuple[list[_Step], str]:
    """Plan up to n boxes in float from the anchor that the step out of
    `prev` reached, or from `start` = (t0, u0) when `prev` is None.  Each
    anchor reuses the evaluation its corrector ended with.  Returns the
    steps and the stop reason that ends the branch right after them (""
    for none); a step that ends the branch itself carries its reason in
    `stop`."""
    steps: list[_Step] = []
    if prev is None:
        (t, u), ev = start, system.evaluate(*start)
        d, fold_index, first = _BOX_START, None, 0
    else:
        (t, u), ev = prev.next_anchor(), prev.reached
        d, fold_index, first = prev.d, prev.fold_index, prev.index + 1
    for k in range(first, first + n):
        F, A, Jx = ev
        try:
            mu, v = tangent_estimate(A, prev=None if prev is None else prev.tangent)
        except TangentUndefined as exc:
            return steps, f"tangent-undefined: {exc}"
        if prev is None and mu > 0.0:
            mu, v = -mu, -v          # start by decreasing R
        # a fold shows as a sign change of the parameter component
        if prev is not None and np.sign(mu) != np.sign(prev.ext.mu) and mu != 0.0:
            fold_index = k
        ext = ExtendedSystem(system, t, u, mu, v)
        try:
            B = np.linalg.inv(ext.jac_from(A))
        except np.linalg.LinAlgError as exc:
            return steps, f"degenerate: (P2): extended Jacobian singular: {exc}"
        d, da = _plan_box(system, t, u, mu, v, F, A, B, d)
        step = _Step(index=k, ext=ext, B=B, Jx=Jx, d=d, delta_alpha=da,
                     fold_index=fold_index, prev=prev)
        steps.append(step)
        if fold_index is not None and system.R_of_t(t) >= to_R:
            step.stop = "target"
            break
        if not step.leave(ALPHA_FRAC * da):
            break
        prev = step
        t, u = step.next_anchor()
        ev = step.reached
    return steps, ""


def _anchors(system, steps: list[_Step]) -> SegmentAnchor:
    return segment_anchor(system, np.array([s.ext.t0 for s in steps]),
                          np.stack([s.ext.u0 for s in steps]),
                          np.array([s.ext.mu for s in steps]),
                          np.stack([s.ext.v for s in steps]),
                          np.stack([s.B for s in steps]))


def _corr_norm(step: _Step) -> float:
    sigma, x = step.corr
    return max(abs(sigma), float(np.abs(x).max()))


def _links(system, res: BranchResult, boxes: list[BranchBox],
           steps: list[_Step]) -> np.ndarray:
    """check_link for each of `boxes` (with its step) reached by a step
    from the box before it; True where there is nothing to link."""
    ok = np.ones(len(boxes), dtype=bool)
    j = [i for i, s in enumerate(steps) if s.prev is not None]
    if not j:
        return ok
    prev_box = lambda i: boxes[i - 1] if i > 0 else res.boxes[-1]
    ps = [steps[i].prev for i in j]
    nx = [steps[i].ext for i in j]
    gap = _anchor_rounding_gap(
        np.array([p.ext.t0 for p in ps]), np.stack([p.ext.u0 for p in ps]),
        np.array([p.alpha for p in ps]), np.array([p.ext.mu for p in ps]),
        np.stack([p.ext.v for p in ps]), np.array([p.corr[0] for p in ps]),
        np.stack([p.corr[1] for p in ps]), np.array([e.t0 for e in nx]),
        np.stack([e.u0 for e in nx]))
    ok[j] = check_link([prev_box(i) for i in j], [p.alpha for p in ps],
                       [_corr_norm(p) for p in ps], [boxes[i].delta_min for i in j], gap)
    return ok


def _replan(anchor: SegmentAnchor, step: _Step) -> BranchBox | ValidationFailed:
    """Certify a box whose planned delta_alpha failed at the delta_alpha
    planned from its certified constants, halving its Lipschitz box until
    it validates."""
    d, halvings = step.d, 0
    while True:
        box = validate_segment(anchor, [d], index=step.index)[0]
        if isinstance(box, BranchBox):
            box.halvings = halvings
            step.d = d
            return box
        d *= 0.5
        halvings += 1
        if d < _BOX_MIN:
            return box


def _certify(system, steps: list[_Step], res: BranchResult) -> _Step | None:
    """Validate planned steps as one stack and append the boxes that
    validate and link to `res`.  Returns the last step, whose step out the
    planner continues from, or None when the branch ended
    (`res.stop_reason` says why)."""
    end = ""
    try:
        anchor = _anchors(system, steps)
    except NotInvertibleEvidence as exc:
        end = f"degenerate: {exc}"
        steps = steps[:exc.index or 0]
        if not steps:
            res.stop_reason = end
            return None
        anchor = _anchors(system, steps)
    boxes = validate_segment(anchor, [s.d for s in steps],
                             [s.delta_alpha for s in steps], index=steps[0].index)
    bad = next((i for i, b in enumerate(boxes) if not isinstance(b, BranchBox)), None)
    if bad is not None:
        res.replans += 1
        res.boxes_discarded += len(steps) - bad - 1
        step, box = steps[bad], _replan(anchor.take(bad), steps[bad])
        if isinstance(box, BranchBox):
            boxes[bad], steps = box, steps[:bad + 1]
            # the step out of the box is replanned from its new delta_alpha
            end, step.alpha, step.corr = "", 0.0, None
            if step.stop != "target":
                step.stop = ""
                step.leave(ALPHA_FRAC * box.delta_alpha)
        else:
            end, steps = f"degenerate: {box}", steps[:bad]
        boxes = boxes[:len(steps)]
    links = _links(system, res, boxes, steps)
    labels = (None if not steps or steps[0].Jx is None
              else classify_stability(np.stack([s.Jx for s in steps])))
    for i, (box, step) in enumerate(zip(boxes, steps)):
        box.linked_to_previous = step.prev is not None and bool(links[i])
        res.boxes.append(box)
        if step.prev is not None and not links[i]:
            res.stop_reason = "link-failed"
            return None
        if labels is not None:
            box.stability = labels[i]
        res.fold_index = step.fold_index
        if step.corr is not None:
            box.alpha_step, box.corr_norm = step.alpha, _corr_norm(step)
        if step.stop:
            res.stop_reason = step.stop
            return None
    if end:
        res.stop_reason = end
        return None
    last = steps[-1]
    last.prev = None             # the steps before it are done with
    return last


def continue_branch(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                    to_R: float, max_steps: int) -> BranchResult:
    """Chain linked validated boxes from a validated start point.

    Terminates on reaching to_R after the fold, on validation failure
    after the adaptive box has shrunk to its floor, on a linking failure,
    or after max_steps boxes.
    """
    res = BranchResult()
    prev, start = None, (float(t0), np.asarray(u0, dtype=float).copy())
    chunk = _CHUNK_MIN
    while len(res.boxes) < max_steps:
        steps, stop = _plan(system, prev, start, min(chunk, max_steps - len(res.boxes)), to_R)
        replans = res.replans
        if steps:
            prev = _certify(system, steps, res)
            if prev is None:
                return res
        if res.replans > replans:
            chunk = _CHUNK_MIN        # the planner's stop lay after a discarded box
        elif stop:
            res.stop_reason = stop
            return res
        else:
            chunk = min(2 * chunk, _CHUNK_MAX)
    res.stop_reason = "max-steps"
    return res
