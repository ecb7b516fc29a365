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

`continue_branch` places every box by a wave: float anchors along the tip's
tangent (the tip is the last certified box) at the spacing _WAVE_SPACING
ALPHA_FRAC delta_alpha, corrected in one stacked chord solve (whose last
evaluation gives each anchor's tangent, float inverse B and stability
matrix) and certified as one stack, each box at the delta_alpha of its
certified constants.  The step out of a box is the projection of the next
anchor on its tangent; the first one longer than ALPHA_FRAC delta_alpha,
or that fails to link, cuts the wave, and the next wave starts from the
last box kept.  A cut at the wave's first anchor ends the branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import cift
from .errors import (CorrectorFailed, NotInvertibleEvidence, TangentUndefined,
                     ValidationFailed)
from .interval import (_EPS, IArray, Interval, _adn, _aup, float_matmat, norm_inf, up_mul,
                       up_sum)
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

    def from_raw_R(self, R: float, x: np.ndarray) -> tuple[float, np.ndarray]:
        return R / self.rscale, np.asarray(x, dtype=float) / self.s

    # -- float evaluation --------------------------------------------------

    def evaluate(self, t, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F, [D_t F | D_u F] as one (d, d + 1) matrix, and the raw D_x f
        that its D_u F block rescales, at a stack of independent points t
        (n,), u (n, d), from one q.x, one b.x and one `phi_derivs` per row.
        This is the float interface of every branch system (one without a
        map gives None for D_x f).  q.x and b.x are row sums, not a matrix
        product, so that a row does not depend on the rows stacked with it;
        a row is a few ulps off the one-state map, its lambda derivative and
        `CoralMap.jac_x`."""
        cf, s, d = self.coral.cf, self.s, self.d
        lam, x = self._ct * np.asarray(t, dtype=float), s * u
        lead = lam.shape
        P, bx = (x * cf.q).sum(axis=-1), (x * cf.b).sum(axis=-1)
        ph, ph1 = phi_derivs(P, self.coral.params, order=1)
        f = np.empty(lead + (d,))
        f[..., 0] = lam * ph * bx
        f[..., 1:] = self._S * x[..., :-1]
        Jx = _tiled(self._Jx, lead)
        Jx[..., 0, :] = lam[..., None] * (ph1[..., None] * cf.q * bx[..., None]
                                          + ph[..., None] * cf.b)
        A = _tiled(self._A, lead)
        A[..., 0, 0] = self._ct * (ph * bx) / s[0]
        A[..., 0, 1:] = Jx[..., 0, :] * s / s[0]
        A[..., 0, 1] -= 1.0
        return f / s - u, A, Jx

    # -- interval evaluation ------------------------------------------------

    def eval_iv(self, t, u: IArray) -> tuple[IArray, IArray, IArray]:
        """Interval (F, D_u F, D_t F) at a stack of interval points or
        boxes, t an `IArray` of shape (n,) and u one of shape (n, d), from
        one row-1 jet of x = s (.) u."""
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
        row0 = jet.g1 * lam[..., None] * self._ratio0_iv
        lo, hi = _tiled(self._Ju_lo, lead), _tiled(self._Ju_hi, lead)
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


def _tiled(a: np.ndarray, lead: tuple) -> np.ndarray:
    """A new array of shape lead + a.shape holding a copy of a per entry."""
    out = np.empty(lead + a.shape)
    out[...] = a
    return out


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
    """G(alpha, (sigma, x)) for a stack of anchor/direction pairs: t0, mu
    of shape (n,) and u0, v of shape (n, d), with the matching stacked
    enclosures.  The float methods also take one anchor (t0, mu 0-d, u0,
    v of shape (d,)) with a stack of alphas along its direction."""

    def __init__(self, system: CoralBranchSystem, t0, u0: np.ndarray, mu, v: np.ndarray):
        self.sys = system
        self.t0, self.u0 = np.asarray(t0, dtype=float), np.asarray(u0, dtype=float)
        self.mu, self.v = np.asarray(mu, dtype=float), np.asarray(v, dtype=float)

    def point(self, alpha, sigma, x: np.ndarray) -> tuple:
        """(t, u) = anchor + alpha * direction + (sigma, x); an (m,) alpha
        with (m,) sigma and (m, d) x gives m points along the one anchor's
        direction."""
        a = np.asarray(alpha)
        return self.t0 + alpha * self.mu + sigma, self.u0 + a[..., None] * self.v + x

    def value(self, alpha, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        """G(alpha, z), and the branch system's evaluation (F, [D_t F |
        D_u F], D_x f) at the point it is taken at; stacked alphas take
        one z row each."""
        sigma, x = z[..., 0], z[..., 1:]
        ev = self.sys.evaluate(*self.point(alpha, sigma, x))
        G = np.empty(z.shape)
        G[..., 0] = self.mu * sigma + x @ self.v
        G[..., 1:] = ev[0]
        return G, ev

    def jac_from(self, A: np.ndarray) -> np.ndarray:
        """D_{(sigma,x)} G from [D_t F | D_u F] at the point G is taken at
        (a stack of them gives a stack)."""
        J = np.empty(A.shape[:-2] + (A.shape[-2] + 1, A.shape[-1]))
        J[..., 0, 0] = self.mu
        J[..., 0, 1:] = self.v
        J[..., 1:, :] = A
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
        row = np.concatenate([self.mu[..., None], self.v], axis=-1)[..., None, :]
        JT = IArray(np.concatenate([Jt.lo[..., None, :], np.swapaxes(Ju.lo, -1, -2)], axis=-2),
                    np.concatenate([Jt.hi[..., None, :], np.swapaxes(Ju.hi, -1, -2)], axis=-2))
        return float_matmat(row, JT)[..., 0, :]


# relative size of the second-smallest singular value below which the
# branch Jacobian counts as rank deficient by more than one
_RANK_TOL = 1e-8


def tangent_estimate(jac: np.ndarray, prev: np.ndarray | None = None) -> tuple:
    """Unit max-norm null vectors (mu (n,), v (n, d)) of a stack `jac` (n,
    d, d + 1) of [D_t F | D_u F] at the anchors.

    Given the previous direction, it solves the bordered systems [prev;
    jac] tau = e_0, whose solutions continue prev (prev . tau = 1).  At the
    start, with no direction to border by, it is the last right singular
    vector of each Jacobian."""
    if prev is None:
        _, sv, Vt = np.linalg.svd(jac)
        if (sv[..., -1] <= _RANK_TOL * sv[..., 0]).any():
            # rank < d: the null space is at least two-dimensional
            raise TangentUndefined("branch Jacobian rank deficiency exceeds one")
        tang = Vt[..., -1, :]
    else:
        n = len(prev)
        border = np.empty(jac.shape[:-2] + (n, n))
        border[..., 0, :], border[..., 1:, :] = prev, jac
        rhs = np.zeros(n)
        rhs[0] = 1.0
        try:
            tang = np.linalg.solve(border, rhs)
        except np.linalg.LinAlgError as exc:
            raise TangentUndefined(f"bordered tangent system singular: {exc}") from exc
        if not np.isfinite(tang).all():
            raise TangentUndefined("bordered tangent system singular: non-finite solution")
    tang = tang / np.abs(tang).max(axis=-1, keepdims=True)
    return tang[:, 0].copy(), tang[:, 1:].copy()


def newton_correct(ext: ExtendedSystem, alpha, tol: float = 1e-13,
                   max_iter: int = 25) -> tuple:
    """Approximate zero (sigma, x) of G(alpha, .) orthogonal to the
    predictor, and the branch system's evaluation (F, [D_t F | D_u F],
    D_x f) at the point it reaches.  The (m,) array of alphas corrects m
    predictors along the anchor's direction at once (arrays out, one row
    each); the stack takes one chord step more once every row meets `tol`,
    since its slowest row stops just below it and the residual sets each
    anchor's accuracy radius.

    Chord steps z <- z - B_alpha G(alpha, z): the extended Jacobian is
    evaluated and inverted once, at the predictor (alpha, 0), so each
    iteration costs one evaluation of the system."""
    z = np.zeros((len(alpha), ext.sys.d + 1))
    B, extra = None, True
    for it in range(max_iter + 1):
        G, ev = ext.value(alpha, z)
        if np.abs(G).max() <= tol:
            if not extra or it == max_iter:
                return z[:, 0].copy(), z[:, 1:].copy(), ev
            extra = False
        elif it == max_iter:
            break
        if B is None:
            try:
                B = np.linalg.inv(ext.jac_from(ev[1]))
            except np.linalg.LinAlgError as exc:
                raise CorrectorFailed(f"singular corrector Jacobian: {exc}") from exc
        z = z - (B @ G[..., None])[..., 0]
    raise CorrectorFailed(f"no convergence in {max_iter} iterations "
                          f"(residual {np.abs(G).max():.3e})")


# ---------------------------------------------------------------------------
# hypotheses and segment validation (stacked: one entry per segment)
# ---------------------------------------------------------------------------


def derive_extended_constants(rho, xi, K, M: tuple, d, mu, v: np.ndarray) -> cift.CiftBounds:
    """The CIFT bounds of the extended system over the Lipschitz box of
    radius d, from the (P1)-(P3) data rho, xi, K and M = (M1..M4) of
    `lipschitz_M`, one entry per segment of a stack in each array.

    With the product norm max(|sigma|, |x|), the derivative difference is
    bounded by (M1+M3)|x| + (M2+M4)|sigma| <= L1 max(|sigma|, |x|) with
    L1 = M1+M2+M3+M4 (sharp when |sigma| = |x|; the smaller constant
    max(M1+M3, M2+M4) would only be valid for the sum norm).
    """
    I = IArray.point
    vn, am = I(np.abs(v).max(axis=-1)), I(np.abs(mu))
    M1, M2, M3, M4 = (I(m) for m in M)
    M13, M24 = M1 + M3, M2 + M4
    L1 = (M13 + M24).hi
    L2 = (M13 * vn + M24 * am).hi
    L4 = ((M1 * vn + M2 * am) * vn + (M3 * vn + M4 * am) * am).hi
    return cift.CiftBounds(rho=rho, K=K, L1=L1, L2=L2, L3=xi, L4=L4, ell_x=d, ell_alpha=d)


def _rows(obj) -> list:
    """The per-segment instances of a dataclass whose fields are arrays."""
    return [type(obj)(*vals) for vals in zip(*(getattr(obj, f.name).tolist()
                                                for f in fields(obj)))]


@dataclass
class BranchBox:
    """One validated slanted box along the branch.  `bounds` holds its
    (P1)-(P3) data: rho, K, the drift xi as L3 and the Lipschitz box
    radius d as ell_x = ell_alpha; M is (M1..M4) over that box.
    `validate_segment` builds it; the driver fills the fields after M as
    the step goes."""

    index: int
    t: float
    u: np.ndarray
    mu: float
    v: np.ndarray
    delta_alpha: float
    delta_u: float
    delta_min: float
    bounds: cift.CiftBounds
    M: tuple
    bound_by: str = ""            # the constraint whose root set delta_alpha
    linked_to_previous: bool = False
    alpha_step: float = 0.0       # alpha used to leave this box
    corr_norm: float = 0.0        # |(sigma, x)|, the correction of that step
    halvings: int = 0             # box halvings before this segment validated
    stability: str = ""


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


def _take(obj, idx):
    """The dataclass of arrays `obj` at the entries idx of each field."""
    return type(obj)(*(getattr(obj, f.name)[idx] for f in fields(obj)))


def validate_segment(anchor: SegmentAnchor, d, index: int = 0) -> list:
    """Box stage of a stack of anchored segments: certify segment i --
    (P3) plus the delta inequalities -- in one stacked `cift.check_deltas`
    at the delta_alpha planned from its certified constants (the float
    root of `cift.delta_alpha_root`, capped at the box's alpha radius,
    _PLAN_MARGIN below); `bound_by` records the constraint whose root set
    it.  d gives each segment its Lipschitz box, or a row of candidate
    boxes (rungs) all bounded by one stacked `lipschitz_M`, of which the
    segment takes the one with the largest delta_alpha.  One entry per
    segment: its BranchBox (index `index` + i), or the ValidationFailed
    that names the broken part."""
    ext = anchor.ext
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    r = d.size // n
    seg = np.repeat(np.arange(n), r)     # the segment of each rung
    d = d.ravel()
    M = ext.sys.lipschitz_M(ext.t0[seg], ext.u0[seg], d)
    b = derive_extended_constants(anchor.rho[seg], anchor.xi[seg], anchor.K[seg], M, d,
                                  ext.mu[seg], ext.v[seg])
    dir_norm = np.maximum(np.abs(ext.mu), np.abs(ext.v).max(axis=-1))
    root, names = cift.delta_alpha_root(b.K, b.rho, b.L1, b.L2, b.L3, b.L4, b.ell_x,
                                        dir_norm[seg], coupled_cap=b.ell_x)
    # the roots ignore ell_alpha, which the check does not
    planned = _planned(np.minimum(root, b.ell_alpha))
    pick = np.arange(n) * r + planned.reshape(n, r).argmax(axis=1)
    bounds = _take(b, pick)
    ok, pairs = cift.check_deltas(bounds, dir_norm, bounds.ell_x, planned[pick])
    Ms = zip(*(m[pick].tolist() for m in M))
    out = []
    for i, (b, Mi, p, name, good) in enumerate(zip(_rows(bounds), Ms, _rows(pairs),
                                                   names[pick].tolist(), ok.tolist())):
        out.append(BranchBox(
            index=index + i, t=float(ext.t0[i]), u=ext.u0[i].copy(), mu=float(ext.mu[i]),
            v=ext.v[i].copy(), delta_alpha=p.delta_alpha, delta_u=p.delta_x,
            delta_min=p.delta_min, bounds=b, M=Mi, bound_by=name) if good
            else ValidationFailed(
                cift.accuracy_gates(b.K, b.rho, b.L1, b.ell_x, "ell_x")[1]
                or f"delta inequalities infeasible at the planned delta_alpha = "
                   f"{p.delta_alpha!r}"))
    return out


# Each step moves at most this fraction of its box's certified segment
# [-delta_alpha, delta_alpha].  The link needs |alpha| + |D| < delta_alpha
# (see check_link), and |D| is below 1e-8 delta_alpha on the default
# branch, so the 1% left over is ample.
ALPHA_FRAC = 0.99


def check_link(prev: list[BranchBox], alpha, corr_norm, next_delta_min,
               slack=0.0, residual=0.0) -> np.ndarray:
    """Theorem linking inequalities for a stack of links: the accuracy
    ball of box k+1 must lie in the uniqueness tube of box prev[k].  One
    bool per link.

    The step out of box k's float anchor a along its direction dir = (mu,
    v) was alpha[k], and the next float anchor is, exactly, a + alpha dir +
    c + g: c the correction, with max norm corr_norm[k] and |<dir, c>| at
    most residual[k] (the first row of G it leaves), and g the rounding
    gap of the stored anchor, |g| <= slack[k].

    Lemma.  A point a + alpha dir + c + g + e of the next accuracy ball,
    |e| <= delta_min', is a + (alpha + D) dir + w with D = <dir, c + g + e>
    / <dir, dir> and w = c + g + e - D dir, so <dir, w> = 0: w is a zero of
    box k's G(alpha + D, .), whose zeros lie on that hyperplane (G's first
    row).  |D| <= (residual + |dir|_1 (slack + delta_min')) / |dir|_2^2 and
    |w| <= corr_norm + slack + delta_min' + |D| |dir|_inf, so |alpha| + |D|
    < delta_alpha and that bound on |w| < delta_u make it the CIFT's unique
    zero on box k's tube.  Every term rounds up (|dir|_2^2 down)."""
    I = IArray.point
    da = np.array([b.delta_alpha for b in prev])
    du = np.array([b.delta_u for b in prev])
    tau = np.concatenate([np.array([[b.mu] for b in prev]), [b.v for b in prev]], axis=1)
    norm1 = up_sum(np.abs(tau), axis=-1)
    norm2sq = float_matmat(tau[:, None, :], I(tau[:, :, None])).lo[:, 0, 0]
    e = I(slack) + I(next_delta_min)
    D = (I(residual) + I(norm1) * e) / I(norm2sq)
    lhs1 = (I(np.abs(alpha)) + D).hi
    lhs2 = (I(corr_norm) + e + D * I(np.abs(tau).max(axis=-1))).hi
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


def classify_stability(jac_x: np.ndarray) -> list[str]:
    """Non-rigorous: count eigenvalues of D_x f outside the unit circle,
    for a stack (n, d, d) of matrices: the list of their n labels.

    D_x f is a Leslie matrix, so the count comes from the Schur-Cohn
    recursion on its characteristic polynomial; rows whose count is
    ambiguous take `np.linalg.eigvals`, whose count it equals elsewhere."""
    J = np.asarray(jac_x, dtype=float)
    idx, ambiguous = _leslie_outside_counts(J)
    if ambiguous.any():
        idx[ambiguous] = (np.abs(np.linalg.eigvals(J[ambiguous])) > 1.0).sum(axis=-1)
    return ["stable" if i == 0 else f"unstable({i})" for i in idx.tolist()]


# ---------------------------------------------------------------------------
# whole-branch continuation: waves of float anchors, certified as stacks
# ---------------------------------------------------------------------------


@dataclass
class BranchResult:
    boxes: list[BranchBox] = field(default_factory=list)
    stop_reason: str = ""
    fold_index: int | None = None
    replans: int = 0              # waves cut at a step, or that could not be placed
    boxes_discarded: int = 0      # certified anchors dropped after those cuts

    def all_linked(self) -> bool:
        return all(b.linked_to_previous for b in self.boxes[1:])


# The Lipschitz box |u - u0|, |t - t0| <= d lies on the ladder _BOX_START
# 2^k within [_BOX_MIN, _BOX_CAP].  The start box takes the best box of the
# whole ladder, each later box the best of the rungs {d/2, d, 2d} around
# the last accepted box's d, and a box that fails to validate even so
# halves its smallest rung.
_BOX_START = 1e-4
_BOX_CAP = 3e-2
_BOX_MIN = 1e-11
_LADDER = _BOX_START * 2.0 ** np.arange(
    np.ceil(np.log2(_BOX_MIN / _BOX_START)), np.floor(np.log2(_BOX_CAP / _BOX_START)) + 1)
_CORRECTOR_TOL = 1e-14
_MAX_NEWTON = 25
# A planned delta_alpha sits this fraction below the float root of the
# certified constants, so that the check, which rounds them apart from the
# root, accepts it; the step gives up 1e-8 of its length for that.
_PLAN_MARGIN = 1e-8
# Wave lengths: a wave places _CHUNK_MIN anchors and doubles after each
# wave accepted whole, up to _CHUNK_MAX; after a cut it places as many as
# the cut wave accepted, at least _CHUNK_MIN, and after a wave that could
# not be placed, one.
_CHUNK_MIN = 8
_CHUNK_MAX = 64
# A wave's anchors are spaced by this fraction of ALPHA_FRAC times the last
# certified delta_alpha.  A validator call costs mostly per wave, and a
# wider spacing is cut sooner where delta_alpha falls: on the default
# branch 0.95 takes 128 waves and 1,788 boxes, 0.88 60 waves and 1,877.
_WAVE_SPACING = 0.88
# Accepted boxes get their stability labels in stacks of this many.
_LABEL_STACK = 128


def _planned(root):
    """The planned delta_alpha for a float root: _PLAN_MARGIN below it."""
    return root * (1.0 - _PLAN_MARGIN)


@dataclass
class _Wave:
    """Float anchors certified as one stack: points and tangents in `ext`,
    B, D_x f and the last fold seen up to each."""

    first: int                    # index of anchor 0 along the branch
    ext: ExtendedSystem
    B: np.ndarray
    Jx: np.ndarray | None
    folds: list

    def __len__(self) -> int:
        return len(self.folds)

    def take(self, n: int) -> "_Wave":
        e = self.ext
        return _Wave(self.first, ExtendedSystem(e.sys, e.t0[:n], e.u0[:n], e.mu[:n], e.v[:n]),
                     self.B[:n], None if self.Jx is None else self.Jx[:n], self.folds[:n])


def _tangent(e: ExtendedSystem) -> np.ndarray:
    """(mu, v) of the row or rows of e as one vector each."""
    return np.concatenate([e.mu[..., None], e.v], axis=-1)


def _wave(system, first: int, t: np.ndarray, u: np.ndarray, ev: tuple,
          prev: np.ndarray | None, fold_index: int | None) -> _Wave:
    """The wave of anchors t (n,), u (n, d) at which the system's
    evaluation is ev: tangents bordered by the tangent `prev` of the anchor
    before them (None at the start: one anchor, its SVD tangent oriented
    to decreasing R), their B, and the fold indices after `fold_index`.
    Raises TangentUndefined, or LinAlgError for a singular B."""
    A, Jx = ev[1], ev[2]
    mu, v = tangent_estimate(A, prev)
    if prev is None and mu[0] > 0.0:
        mu, v = -mu, -v              # start by decreasing R
    ext = ExtendedSystem(system, t, u, mu, v)
    B = np.linalg.inv(ext.jac_from(A))
    # a fold shows as a sign change of the parameter component
    sign = np.sign(np.concatenate([[np.nan if prev is None else prev[0]], mu]))
    flip = np.flatnonzero((sign[1:] != sign[:-1]) & (mu != 0.0) & ~np.isnan(sign[:-1]))
    folds = [fold_index] * len(mu)
    for k in flip.tolist():
        folds[k:] = [first + k] * (len(mu) - k)
    return _Wave(first, ext, B, Jx, folds)


def _place(system, tip: BranchBox, n: int, fold_index: int | None) -> _Wave:
    """The wave of n anchors after the tip, with tangent tau: one stacked
    chord solve corrects the predictors tip + j h tau, j = 1..n, each on
    its hyperplane tau.(z - tip) = j h |tau|^2, where h is _WAVE_SPACING
    ALPHA_FRAC times the tip's delta_alpha.  Raises CorrectorFailed,
    TangentUndefined or LinAlgError."""
    base = ExtendedSystem(system, tip.t, tip.u, tip.mu, tip.v)
    alpha = _WAVE_SPACING * ALPHA_FRAC * tip.delta_alpha * np.arange(1, n + 1)
    # the residual cannot resolve below a few ulps of the state
    tol = max(_CORRECTOR_TOL, 8.0 * _EPS * max(abs(tip.t), float(np.abs(tip.u).max())))
    sigma, x, ev = newton_correct(base, alpha, tol=tol, max_iter=_MAX_NEWTON)
    t, u = base.point(alpha, sigma, x)
    return _wave(system, tip.index + 1, t, u, ev, _tangent(base), fold_index)


# the errors of placing anchors, and the stop reason each gives
_PLACE_ERRORS = {CorrectorFailed: "corrector-failed", TangentUndefined: "tangent-undefined",
                 np.linalg.LinAlgError: "degenerate: (P2): extended Jacobian singular"}


def _links(tip: BranchBox, wave: _Wave, boxes: list[BranchBox]) -> tuple:
    """(alpha, corr_norm, links) of the step into each of `boxes` (a prefix
    of the wave's) from the box before: the float projection of z_next -
    z_prev on tau_prev, the remainder correcting it."""
    n, e = len(boxes), wave.ext
    t0 = np.concatenate([[tip.t], e.t0[:n - 1]])
    u0 = np.concatenate([tip.u[None], e.u0[:n - 1]])
    tau = np.concatenate([[np.concatenate([[tip.mu], tip.v])], _tangent(e)[:n - 1]])
    dz = np.concatenate([(e.t0[:n] - t0)[:, None], e.u0[:n] - u0], axis=1)
    alpha = (tau * dz).sum(axis=1) / (tau * tau).sum(axis=1)
    corr = dz - alpha[:, None] * tau
    gap = _anchor_rounding_gap(t0, u0, alpha, tau[:, 0], tau[:, 1:], corr[:, 0], corr[:, 1:],
                               e.t0[:n], e.u0[:n])
    residual = float_matmat(tau[:, None, :], IArray.point(corr[:, :, None])).mag[:, 0, 0]
    corr_norm = np.abs(corr).max(axis=1)
    return alpha, corr_norm, check_link([tip] + boxes[:-1], alpha, corr_norm,
                                        [b.delta_min for b in boxes], gap, residual)


def _validate(system, wave: _Wave, rungs: np.ndarray) -> tuple[list, str]:
    """The boxes of the longest prefix of the wave that validates, each over
    the best of the Lipschitz boxes `rungs` (halving the smallest where all
    fail), and the stop reason that ends the branch after them, or ""."""
    e = wave.ext
    try:
        anchor = segment_anchor(system, e.t0, e.u0, e.mu, e.v, wave.B)
    except NotInvertibleEvidence as exc:
        boxes, end = _validate(system, wave.take(exc.index), rungs) if exc.index else ([], "")
        return boxes, end or f"degenerate: {exc}"
    boxes = validate_segment(anchor, np.broadcast_to(rungs, (len(wave), len(rungs))),
                             index=wave.first)
    for i, box in enumerate(boxes):
        h, halvings = rungs[0], 0
        while isinstance(box, ValidationFailed) and h >= 2.0 * _BOX_MIN:
            h, halvings = 0.5 * h, halvings + 1
            box = validate_segment(anchor.take(i), [h], index=wave.first + i)[0]
        if isinstance(box, ValidationFailed):
            return boxes[:i], f"degenerate: {box}"
        box.halvings, boxes[i] = halvings, box
    return boxes, ""


def continue_branch(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                    to_R: float, max_steps: int) -> BranchResult:
    """Chain linked validated boxes from a validated start point, in waves
    placed after the last certified box (the tip).  A wave cut at anchor k
    >= 1 keeps the boxes before it, and the next wave starts from the new
    tip; a wave that cannot be placed is tried again with one anchor.
    Terminates on reaching to_R after the fold, on validation failure after
    the adaptive box has shrunk to its floor, on a link that fails at a
    wave's first anchor, on a one-anchor wave that cannot be placed, or
    after max_steps boxes."""
    res, unlabelled = BranchResult(), []      # accepted boxes with their D_x f
    t0, u0 = np.array([t0], dtype=float), np.array([u0], dtype=float)
    tip, m = None, _CHUNK_MIN
    try:
        while len(res.boxes) < max_steps:
            n = min(m, max_steps - len(res.boxes))
            try:
                wave = (_wave(system, 0, t0, u0, system.evaluate(t0, u0), None, None)
                        if tip is None else _place(system, tip, n, res.fold_index))
            except tuple(_PLACE_ERRORS) as exc:
                if tip is None or n == 1:
                    res.stop_reason = f"{_PLACE_ERRORS[type(exc)]}: {exc}"
                    return res
                res.replans, m = res.replans + 1, 1
                continue
            cut = _accept(system, wave, tip, to_R, res, unlabelled)
            if res.stop_reason:
                return res
            tip = res.boxes[-1]
            if len(unlabelled) >= _LABEL_STACK:
                _label(unlabelled)
            if cut is None:
                m = min(2 * m, _CHUNK_MAX)
            else:
                res.replans += 1
                res.boxes_discarded += len(wave) - cut
                m = max(cut, _CHUNK_MIN)
        res.stop_reason = "max-steps"
        return res
    finally:
        _label(unlabelled)


def _label(unlabelled: list) -> None:
    """Give each (box, D_x f) pair its stability label, all in one stacked
    call, and empty the list."""
    if unlabelled:
        labels = classify_stability(np.stack([J for _, J in unlabelled]))
        for (box, _), label in zip(unlabelled, labels):
            box.stability = label
        unlabelled.clear()


def _accept(system, wave: _Wave, tip: BranchBox | None, to_R: float, res: BranchResult,
            unlabelled: list) -> int | None:
    """Certify a wave placed after `tip` and append to `res` the boxes that
    validate, step and link, and to `unlabelled` each with its D_x f; set
    `res.stop_reason` when the branch ends with them.  Returns the index
    of the anchor at which the wave was cut, or None."""
    # the branch ends at the first anchor past the fold at or above to_R
    R = system.R_of_t(wave.ext.t0)
    target = next((k for k in range(len(wave))
                   if wave.folds[k] is not None and R[k] >= to_R), None)
    if target is not None:
        wave = wave.take(target + 1)
    rungs = (_LADDER if tip is None
             else np.clip(tip.bounds.ell_x * np.array([0.5, 1.0, 2.0]), _BOX_MIN, _BOX_CAP))
    boxes, end = _validate(system, wave, rungs)
    if tip is not None and boxes:
        alpha, corr_norm, ok = _links(tip, wave, boxes)
    for k, box in enumerate(boxes):
        if tip is not None:
            step_ok = ok[k] and 0.0 < alpha[k] <= ALPHA_FRAC * tip.delta_alpha
            if not step_ok and k:
                return k
            tip.alpha_step, tip.corr_norm = float(alpha[k]), float(corr_norm[k])
            if not step_ok:
                # a retry would place the same anchor again
                res.boxes.append(box)
                res.stop_reason = "link-failed"
                return None
            box.linked_to_previous = True
        if wave.Jx is not None:
            unlabelled.append((box, wave.Jx[k]))
        res.boxes.append(box)
        res.fold_index = wave.folds[k]
        tip = box
        if k == target:
            res.stop_reason = "target"
    res.stop_reason = res.stop_reason or end
    return None
