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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cift
from .errors import (CorrectorFailed, NotInvertibleEvidence, TangentUndefined,
                     ValidationFailed)
from .interval import (_EPS, IMatrix, Interval, IVector, _adn, _aup, _mul_bounds,
                       _sum_bounds, float_matmat, norm_inf, up_mul, up_sum)
from .model import CoralMap, FixedPointReduction


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
        self._ratio0_lo, self._ratio0_hi = _adn(r0), _aup(r0)
        # lipschitz_M's scalings of row 1's gradient and Hessian
        self._ratio0 = r0
        self._outer0 = up_mul(np.outer(s, s) / s[0], 1.0)
        S = np.array(coral.params.S, dtype=float)
        r1 = s[:-1] / s[1:]
        # rows 2..d of D_u F - the subdiagonal minus I - once; eval_iv fills
        # row 1 per call
        lo, hi = np.zeros((self.d, self.d)), np.zeros((self.d, self.d))
        k = np.arange(self.d - 1)
        lo[k + 1, k], hi[k + 1, k] = _mul_bounds(S, S, _adn(r1), _aup(r1))
        Ju = IMatrix(lo, hi).shifted(1.0)
        self._Ju_lo, self._Ju_hi = Ju.lo, Ju.hi
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

    def F(self, t: float, u: np.ndarray) -> np.ndarray:
        lam, x = self.to_raw(t, u)
        return self.coral.step(lam, x) / self.s - u

    def jacobians(self, t: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[D_t F | D_u F] at (t, u) as one (d, d + 1) matrix, and the raw
        D_x f that its D_u F block rescales.  This is the float Jacobian
        interface of every branch system; one without a map to label
        stability by gives None in place of D_x f."""
        lam, x = self.to_raw(t, u)
        J = self.coral.jac_x(lam, x)
        A = np.empty((self.d, self.d + 1))
        A[:, 0] = self._ct * self.coral.jac_lam(lam, x) / self.s
        A[:, 1:] = J * self.s[None, :] / self.s[:, None] - np.eye(self.d)
        return A, J

    # -- interval evaluation ------------------------------------------------

    def eval_iv(self, t: Interval, u: IVector) -> tuple[IVector, IMatrix, IVector]:
        """Interval (F, D_u F, D_t F) at an interval point or box, from one
        row-1 jet of x = s (.) u."""
        d = self.d
        lam = self._ct_iv * t
        x = IVector(*_mul_bounds(self.s, self.s, u.lo, u.hi))
        jet = self.coral.row1_jet(x)
        # F = f(lambda, x) / s - u; rows 2..d of f are S_k x_k
        flo, fhi = np.empty(d), np.empty(d)
        f0 = lam * jet.phis[0] * jet.bx
        flo[0], fhi[0] = f0.lo, f0.hi
        flo[1:], fhi[1:] = _mul_bounds(self._S, self._S, x.lo[:-1], x.hi[:-1])
        F = IVector(*_sum_bounds(_adn(flo / self.s), _aup(fhi / self.s), -u.hi, -u.lo))
        lo, hi = self._Ju_lo.copy(), self._Ju_hi.copy()
        lo[0], hi[0] = _mul_bounds(*_mul_bounds(lam.lo, lam.hi, jet.g1.lo, jet.g1.hi),
                                   self._ratio0_lo, self._ratio0_hi)
        # the diagonal shift of row 1, rounded as IMatrix.shifted rounds
        lo[0, 0], hi[0, 0] = _sum_bounds(lo[0, 0], hi[0, 0], -1.0, -1.0)
        jt = self._ct_iv * jet.g / Interval.point(float(self.s[0]))
        Jt = IVector(np.zeros(d), np.zeros(d))
        Jt.lo[0], Jt.hi[0] = jt.lo, jt.hi
        return F, IMatrix(lo, hi), Jt

    # -- Lipschitz data over a box -------------------------------------------

    def lipschitz_M(self, t0: float, u0: np.ndarray, d_t: float,
                    d_u: float) -> tuple[float, float, float, float]:
        """(M1..M4) for the mean-value bounds of (D_u F, D_t F) over the box
        |u - u0| <= d_u, |t - t0| <= d_t (blockwise Lipschitz recipe).

        Row 1 is the only non-constant row of D_u F and the only nonzero
        entry of D_t F, so each max-norm difference is one row sum:
        M1 = sum_jk E_jk bounds D_u F in u, M2 = sum_j tg_j bounds it in t,
        and M3 = M2 since d/du_k of D_t F is d/dt of (D_u F)_1k = tg_k.
        lambda is affine in t, so M4 = 0."""
        rad = _aup(self.s * d_u)
        x_box = IVector(_adn(_adn(self.s * u0) - rad), _aup(_aup(self.s * u0) + rad))
        lam_box = self._ct_iv * Interval.around(t0, d_t)
        rb = self.coral.row1_bounds(lam_box, x_box)
        E = up_mul(self._outer0, up_mul(rb.lam_mag, rb.g2))
        M1 = float(up_sum(up_sum(E, axis=1)))
        tg = up_mul(self._ct_iv.mag, up_mul(self._ratio0, rb.g1))
        M2 = float(up_sum(tg))
        return M1, M2, M2, 0.0


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
    """G(alpha, (sigma, x)) for one anchor/direction pair."""

    def __init__(self, system: CoralBranchSystem, t0: float, u0: np.ndarray,
                 mu: float, v: np.ndarray):
        self.sys = system
        self.t0 = float(t0)
        self.u0 = np.asarray(u0, dtype=float)
        self.mu = float(mu)
        self.v = np.asarray(v, dtype=float)

    def value(self, alpha: float, z: np.ndarray) -> np.ndarray:
        sigma, x = z[0], z[1:]
        first = self.mu * sigma + self.v @ x
        rest = self.sys.F(self.t0 + alpha * self.mu + sigma,
                          self.u0 + alpha * self.v + x)
        return np.concatenate([[first], rest])

    def jac(self, alpha: float, z: np.ndarray) -> np.ndarray:
        sigma, x = z[0], z[1:]
        t = self.t0 + alpha * self.mu + sigma
        u = self.u0 + alpha * self.v + x
        return self.jac_from(self.sys.jacobians(t, u)[0])

    def jac_from(self, A: np.ndarray) -> np.ndarray:
        """D_{(sigma,x)} G from [D_t F | D_u F] at the point G is taken at."""
        J = np.empty((A.shape[0] + 1, A.shape[1]))
        J[0, 0] = self.mu
        J[0, 1:] = self.v
        J[1:] = A
        return J

    def jac_iv_at_origin(self, Ju: IMatrix, Jt: IVector) -> IMatrix:
        """Interval enclosure of D_{(sigma,x)} G(0, (0,0)) -- the (P2) matrix --
        from enclosures (Ju, Jt) of (D_u F, D_t F) at (t0, u0)."""
        d = self.sys.d
        lo = np.empty((d + 1, d + 1))
        hi = np.empty((d + 1, d + 1))
        lo[0, 0] = hi[0, 0] = self.mu
        lo[0, 1:] = hi[0, 1:] = self.v
        lo[1:, 0], hi[1:, 0] = Jt.lo, Jt.hi
        lo[1:, 1:], hi[1:, 1:] = Ju.lo, Ju.hi
        return IMatrix(lo, hi)

    def drift_iv(self, Ju: IMatrix, Jt: IVector) -> IVector:
        """Enclosure of D_t F mu + D_u F v, the alpha-derivative of G's F
        rows, as one product of the row (mu, v) with [D_t F | D_u F]^T."""
        row = np.concatenate([[self.mu], self.v])[None, :]
        JT = IMatrix(np.vstack([Jt.lo, Ju.lo.T]), np.vstack([Jt.hi, Ju.hi.T]))
        out = float_matmat(row, JT)
        return IVector(out.lo[0], out.hi[0])


# relative size of the second-smallest singular value below which the
# branch Jacobian counts as rank deficient by more than one
_RANK_TOL = 1e-8


def tangent_estimate(jac: np.ndarray, prev: np.ndarray | None = None
                     ) -> tuple[float, np.ndarray]:
    """Unit max-norm null vector of `jac` = [D_t F | D_u F] at the anchor,
    oriented to continue the previous direction when one is given."""
    _, sv, Vt = np.linalg.svd(jac)
    if sv[-1] <= _RANK_TOL * sv[0]:
        # rank < d: the null space is at least two-dimensional
        raise TangentUndefined("branch Jacobian rank deficiency exceeds one")
    tang = Vt[-1]
    tang = tang / np.max(np.abs(tang))
    if prev is not None and float(prev @ tang) < 0.0:
        tang = -tang
    return float(tang[0]), tang[1:].copy()


def newton_correct(ext: ExtendedSystem, alpha: float, tol: float = 1e-13,
                   max_iter: int = 25) -> tuple[float, np.ndarray]:
    """Approximate zero of G(alpha, .) orthogonal to the predictor."""
    z = np.zeros(ext.sys.d + 1)
    for _ in range(max_iter):
        r = ext.value(alpha, z)
        if np.max(np.abs(r)) <= tol:
            return float(z[0]), z[1:].copy()
        try:
            step = np.linalg.solve(ext.jac(alpha, z), -r)
        except np.linalg.LinAlgError as exc:
            raise CorrectorFailed(f"singular corrector Jacobian: {exc}") from exc
        z = z + step
    r = ext.value(alpha, z)
    if np.max(np.abs(r)) <= tol:
        return float(z[0]), z[1:].copy()
    raise CorrectorFailed(f"no convergence in {max_iter} iterations "
                          f"(residual {np.max(np.abs(r)):.3e})")


# ---------------------------------------------------------------------------
# hypotheses and segment validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentHypotheses:
    """(P1)-(P3) data for one anchor/direction pair."""

    rho: float
    xi: float
    K: float
    M1: float
    M2: float
    M3: float
    M4: float
    d_u: float
    d_lambda: float


def derive_extended_constants(h: SegmentHypotheses, mu: float,
                              v: np.ndarray) -> cift.CiftBounds:
    """Lipschitz constants of the extended system from the (P3) data.

    With the product norm max(|sigma|, |x|), the derivative difference is
    bounded by (M1+M3)|x| + (M2+M4)|sigma| <= L1 max(|sigma|, |x|) with
    L1 = M1+M2+M3+M4 (sharp when |sigma| = |x|; the smaller constant
    max(M1+M3, M2+M4) would only be valid for the sum norm).
    """
    vn = float(np.max(np.abs(v)))
    am = abs(mu)
    I = Interval
    L1 = ((I(h.M1) + I(h.M3)) + (I(h.M2) + I(h.M4))).hi
    L2 = ((I(h.M1) + I(h.M3)) * I(vn) + (I(h.M2) + I(h.M4)) * I(am)).hi
    L4 = ((I(h.M1) * I(vn) + I(h.M2) * I(am)) * I(vn)
          + (I(h.M3) * I(vn) + I(h.M4) * I(am)) * I(am)).hi
    return cift.CiftBounds(rho=h.rho, K=h.K, L1=L1, L2=L2, L3=h.xi, L4=L4,
                           ell_x=h.d_u, ell_alpha=h.d_lambda)


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
    linked_to_previous: bool = False
    alpha_step: float = 0.0       # alpha used to leave this box
    corr_norm: float = 0.0        # |(sigma*, x*)| of the outgoing corrector
    halvings: int = 0             # box halvings before this segment validated
    stability: str = ""

    @property
    def dir_norm(self) -> float:
        return max(abs(self.mu), float(np.max(np.abs(self.v))))


@dataclass(frozen=True)
class SegmentAnchor:
    """The part of a segment's hypotheses that does not depend on the
    Lipschitz box: (P1) rho, the (P3) drift xi and the (P2) bound K."""

    ext: ExtendedSystem
    rho: float
    xi: float
    K: float


def segment_anchor(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                   mu: float, v: np.ndarray, jac: np.ndarray) -> SegmentAnchor:
    """Anchor stage of a segment, computed once per step; `jac` is
    [D_t F | D_u F] at (t0, u0).  Raises ValidationFailed when (P2) fails."""
    ext = ExtendedSystem(system, t0, u0, mu, v)
    t_iv, u_iv = Interval.point(t0), IVector.point(u0)
    F, Ju, Jt = system.eval_iv(t_iv, u_iv)
    rho = norm_inf(F).hi
    xi = norm_inf(ext.drift_iv(Ju, Jt)).hi

    extJ = ext.jac_iv_at_origin(Ju, Jt)
    try:
        B = np.linalg.inv(ext.jac_from(jac))
    except np.linalg.LinAlgError as exc:
        raise ValidationFailed(f"(P2): extended Jacobian singular: {exc}") from exc
    try:
        K, _ = cift.inverse_bound(extJ, B)
    except NotInvertibleEvidence as exc:
        raise ValidationFailed(f"(P2) failed: {exc}") from exc
    return SegmentAnchor(ext=ext, rho=rho, xi=xi, K=K)


def validate_segment(anchor: SegmentAnchor, d_u: float, d_lambda: float,
                     index: int = 0) -> BranchBox:
    """Box stage: certify the anchored segment over the Lipschitz box
    (d_u, d_lambda) -- (P3) plus the delta inequalities; raises
    ValidationFailed naming the broken part."""
    ext = anchor.ext
    M1, M2, M3, M4 = ext.sys.lipschitz_M(ext.t0, ext.u0, d_lambda, d_u)
    hyp = SegmentHypotheses(rho=anchor.rho, xi=anchor.xi, K=anchor.K, M1=M1,
                            M2=M2, M3=M3, M4=M4, d_u=d_u, d_lambda=d_lambda)
    bounds = derive_extended_constants(hyp, ext.mu, ext.v)
    dir_norm = max(abs(ext.mu), float(np.max(np.abs(ext.v))))
    pair = cift.solve_deltas(bounds, dir_norm=dir_norm,
                             coupled_cap=min(d_u, d_lambda))
    if pair.delta_alpha <= 0.0:
        raise ValidationFailed("delta_alpha degenerated to zero")
    return BranchBox(index=index, t=ext.t0, u=ext.u0.copy(), mu=ext.mu,
                     v=ext.v.copy(), delta_alpha=pair.delta_alpha,
                     delta_u=pair.delta_x, delta_min=pair.delta_min,
                     bounds=bounds, hyp=hyp)


# Each step moves this fraction of its box's certified segment
# [-delta_alpha, delta_alpha].  The link needs |alpha| + delta_min'/|dir|
# < delta_alpha, and delta_min'/|dir| is below 1e-8 delta_alpha on the
# default branch, so the 1% left over is ample.
ALPHA_FRAC = 0.99


def check_link(prev: BranchBox, alpha_k: float, correction: tuple[float, np.ndarray],
               next_delta_min: float, slack: float = 0.0) -> bool:
    """Theorem linking inequalities: the (k+1)-st accuracy ball must lie in
    the k-th uniqueness region at the alpha where the corrector ran.

    `slack` absorbs the rounding gap between the stored floating-point
    anchor and the exact decomposition anchor + alpha*dir + correction.
    """
    sigma, x = correction
    corr_norm = max(abs(sigma), float(np.max(np.abs(x))))
    lhs1 = (Interval(abs(alpha_k))
            + Interval(next_delta_min) / Interval(prev.dir_norm)).hi
    if not lhs1 < prev.delta_alpha:
        return False
    lhs2 = (Interval(corr_norm) + Interval(slack) + Interval(next_delta_min)).hi
    return lhs2 < prev.delta_u


def _anchor_rounding_gap(t_prev: float, u_prev: np.ndarray, alpha_k: float,
                         mu: float, v: np.ndarray, sigma: float,
                         x_corr: np.ndarray, t_next: float,
                         u_next: np.ndarray) -> float:
    """Upper bound of |float_anchor - (anchor + alpha*dir + corr)|_inf,
    with t as component 0: ((anchor + alpha*dir) + corr) - float_anchor
    in interval arithmetic on endpoint arrays."""
    pt = lambda t, u: np.concatenate([[t], u])
    prev, d, corr, new = pt(t_prev, u_prev), pt(mu, v), pt(sigma, x_corr), pt(t_next, u_next)
    lo, hi = _mul_bounds(alpha_k, alpha_k, d, d)
    lo, hi = _sum_bounds(prev, prev, lo, hi)
    lo, hi = _sum_bounds(lo, hi, corr, corr)
    lo, hi = _sum_bounds(lo, hi, -new, -new)
    return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))


def classify_stability(jac_x: np.ndarray) -> str:
    """Non-rigorous: count eigenvalues of D_x f outside the unit circle."""
    ev = np.linalg.eigvals(jac_x)
    idx = int(np.sum(np.abs(ev) > 1.0))
    return "stable" if idx == 0 else f"unstable({idx})"


# ---------------------------------------------------------------------------
# whole-branch driver
# ---------------------------------------------------------------------------


@dataclass
class BranchResult:
    boxes: list[BranchBox] = field(default_factory=list)
    stop_reason: str = ""
    fold_index: int | None = None

    def all_linked(self) -> bool:
        return all(b.linked_to_previous for b in self.boxes[1:])


# The Lipschitz box |u - u0|, |t - t0| <= d starts at _BOX_START, halves
# when a segment fails to validate (down to _BOX_MIN) and grows by
# _BOX_GROWTH up to _BOX_CAP when the coupling constraint binds.
_BOX_START = 1e-4
_BOX_CAP = 3e-2
_BOX_MIN = 1e-11
_BOX_GROWTH = 2.0
_CORRECTOR_TOL = 1e-14
_MAX_NEWTON = 25


def continue_branch(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                    to_R: float, max_steps: int) -> BranchResult:
    """Chain linked validated boxes from a validated start point.

    Terminates on reaching to_R after the fold, on validation failure
    after the adaptive box has shrunk to its floor, on a linking failure,
    or after max_steps boxes.
    """
    res = BranchResult()
    t, u = float(t0), np.asarray(u0, dtype=float).copy()
    prev_tangent: np.ndarray | None = None
    d = _BOX_START
    pending_alpha = 0.0
    pending_corr: tuple[float, np.ndarray] | None = None
    pending_slack = 0.0
    fold_seen = False

    for k in range(max_steps):
        A, Jx = system.jacobians(t, u)
        try:
            mu, v = tangent_estimate(A, prev=prev_tangent)
        except TangentUndefined as exc:
            res.stop_reason = f"tangent-undefined: {exc}"
            return res
        if prev_tangent is None and mu > 0.0:
            mu, v = -mu, -v          # start by decreasing R
        prev_tangent = np.concatenate([[mu], v])

        try:
            anchor = segment_anchor(system, t, u, mu, v, A)
        except ValidationFailed as exc:
            res.stop_reason = f"degenerate: {exc}"
            return res
        halvings = 0
        while True:
            try:
                box = validate_segment(anchor, d, d, index=k)
                break
            except ValidationFailed as exc:
                d *= 0.5
                halvings += 1
                if d < _BOX_MIN:
                    res.stop_reason = f"degenerate: {exc}"
                    return res
        box.halvings = halvings

        if pending_corr is not None:
            box.linked_to_previous = check_link(res.boxes[-1], pending_alpha, pending_corr,
                                                box.delta_min, slack=pending_slack)
            if not box.linked_to_previous:
                res.stop_reason = "link-failed"
                res.boxes.append(box)
                return res

        if Jx is not None:
            box.stability = classify_stability(Jx)

        # detect fold passage via the parameter component of the tangent
        if k > 0 and res.boxes and np.sign(mu) != np.sign(res.boxes[-1].mu) and mu != 0.0:
            fold_seen = True
            res.fold_index = k
        if fold_seen and system.R_of_t(t) >= to_R:
            res.boxes.append(box)
            res.stop_reason = "target"
            return res

        alpha_k = ALPHA_FRAC * box.delta_alpha
        # the residual cannot resolve below a few ulps of the state
        tol = max(_CORRECTOR_TOL, 8.0 * _EPS * max(abs(t), float(np.max(np.abs(u)))))
        try:
            sigma, x_corr = newton_correct(anchor.ext, alpha_k, tol=tol,
                                           max_iter=_MAX_NEWTON)
        except CorrectorFailed as exc:
            res.boxes.append(box)
            res.stop_reason = f"corrector-failed: {exc}"
            return res
        box.alpha_step = alpha_k
        box.corr_norm = max(abs(sigma), float(np.max(np.abs(x_corr))))
        res.boxes.append(box)

        pending_alpha, pending_corr = alpha_k, (sigma, x_corr)
        t_next = t + alpha_k * mu + sigma
        u_next = u + alpha_k * v + x_corr
        pending_slack = _anchor_rounding_gap(t, u, alpha_k, mu, v, sigma,
                                             x_corr, t_next, u_next)
        t, u = t_next, u_next

        # adapt the Lipschitz box: grow when the coupling constraint binds
        used = box.delta_alpha * box.dir_norm + box.delta_u
        if used >= 0.5 * d:
            d = min(_BOX_CAP, d * _BOX_GROWTH)

    res.stop_reason = "max-steps"
    return res
