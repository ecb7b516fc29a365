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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cift
from .errors import (CorrectorFailed, NotInvertibleEvidence, TangentUndefined,
                     ValidationFailed)
from .interval import (IMatrix, Interval, IVector, norm_inf, up_mul, up_sum)
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
        if np.any(s <= 0.0):
            raise ValidationFailed("scale constants must be positive")
        self.s = s
        self.rscale = float(rscale)
        self._s_iv = [Interval.point(float(v)) for v in s]
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

    def jac_u(self, t: float, u: np.ndarray) -> np.ndarray:
        lam, x = self.to_raw(t, u)
        J = self.coral.jac_x(lam, x)
        return J * self.s[None, :] / self.s[:, None] - np.eye(self.d)

    def jac_t(self, t: float, u: np.ndarray) -> np.ndarray:
        lam, x = self.to_raw(t, u)
        return self._ct * self.coral.jac_lam(lam, x) / self.s

    # -- interval evaluation ------------------------------------------------

    def _lift(self, t: Interval, u: IVector) -> tuple[Interval, list[Interval]]:
        lam = self._ct_iv * t
        xs = [sk * uk for sk, uk in zip(self._s_iv, u.to_scalars())]
        return lam, xs

    def F_iv(self, t: Interval, u: IVector) -> IVector:
        lam, xs = self._lift(t, u)
        fs = self.coral.step_scalars(lam, xs, self.coral.ci)
        us = u.to_scalars()
        return IVector.from_scalars([fk / sk - uk for fk, sk, uk
                                     in zip(fs, self._s_iv, us)])

    def jacs_iv(self, t: Interval, u: IVector) -> tuple[IMatrix, IVector]:
        """Interval (D_u F, D_t F) at an interval point."""
        lam, xs = self._lift(t, u)
        g, g1, _, _ = self.coral.row1_gradient(xs, self.coral.ci)
        d = self.d
        Ju = IMatrix(np.zeros((d, d)), np.zeros((d, d)))
        for j, gj in enumerate(g1):
            Ju.set_entry(0, j, lam * gj * (self._s_iv[j] / self._s_iv[0]))
        for k in range(d - 1):
            Ju.set_entry(k + 1, k, Interval.point(self.coral.params.S[k])
                         * (self._s_iv[k] / self._s_iv[k + 1]))
        Ju = Ju - np.eye(d)
        Jt = IMatrix(np.zeros((d, 1)), np.zeros((d, 1)))
        Jt.set_entry(0, 0, self._ct_iv * g / self._s_iv[0])
        return Ju, IVector(Jt.lo[:, 0], Jt.hi[:, 0])

    # -- Lipschitz data over a box -------------------------------------------

    def lipschitz_M(self, t0: float, u0: np.ndarray, d_t: float,
                    d_u: float) -> tuple[float, float, float, float]:
        """(M1..M4) for the mean-value bounds of (D_u F, D_t F) over the box
        |u - u0| <= d_u, |t - t0| <= d_t (blockwise Lipschitz recipe)."""
        dn = lambda a: np.nextafter(a, -math.inf)
        up = lambda a: np.nextafter(a, math.inf)
        rad = up(self.s * d_u)
        x_box = IVector(dn(dn(self.s * u0) - rad), up(up(self.s * u0) + rad))
        lam_box = self._ct_iv * Interval.around(t0, d_t)
        rb = self.coral.row1_bounds(lam_box, x_box)
        s, d = self.s, self.d
        scl2 = up_mul(np.outer(s, s) / s[0], 1.0)
        E = up_mul(scl2, up_mul(rb.lam_mag, rb.g2))
        M1 = float(up_mul(float(d), up_sum(E.max(axis=0))))
        ct_mag = self._ct_iv.mag
        tg = up_mul(ct_mag, up_mul(s / s[0], rb.g1))
        M2 = float(up_sum(tg))
        M3 = float(up_mul(float(d), float(np.max(tg))))
        return M1, M2, M3, 0.0


def branch_start(coral: CoralMap, R: float, precondition: bool = True
                 ) -> tuple[CoralBranchSystem, float, np.ndarray]:
    """The branch system and its start (t0, u0) at the largest nontrivial
    fixed point for R; raises ValidationFailed when there is none.

    Preconditioning scales each state component by its start value rounded
    to one significant digit and R by 100; otherwise the system is raw.
    """
    red = FixedPointReduction(coral)
    roots = [r for r in red.solve(R / coral.cf.ba) if r > 0]
    if not roots:
        raise ValidationFailed(f"no nontrivial fixed point at R = {R}")
    x0 = red.full_point(max(roots))
    if precondition:
        e = np.floor(np.log10(np.abs(x0)))
        scales = np.round(x0 / 10.0 ** e) * 10.0 ** e
        system = CoralBranchSystem(coral, scales=scales, rscale=100.0)
    else:
        system = CoralBranchSystem(coral)
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
        d = self.sys.d
        J = np.empty((d + 1, d + 1))
        J[0, 0] = self.mu
        J[0, 1:] = self.v
        J[1:, 0] = self.sys.jac_t(t, u)
        J[1:, 1:] = self.sys.jac_u(t, u)
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


def tangent_estimate(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                     prev: np.ndarray | None = None,
                     rank_tol: float = 1e-8) -> tuple[float, np.ndarray]:
    """Unit max-norm null vector of [D_t F | D_u F], oriented to continue
    the previous direction when one is given."""
    A = np.empty((system.d, system.d + 1))
    A[:, 0] = system.jac_t(t0, u0)
    A[:, 1:] = system.jac_u(t0, u0)
    _, sv, Vt = np.linalg.svd(A)
    if sv[-1] <= rank_tol * sv[0]:
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


@dataclass(frozen=True)
class BranchBox:
    """One validated slanted box along the branch."""

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
    stability: str = ""

    @property
    def dir_norm(self) -> float:
        return max(abs(self.mu), float(np.max(np.abs(self.v))))


def validate_segment(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                     mu: float, v: np.ndarray, d_u: float, d_lambda: float,
                     index: int = 0) -> BranchBox:
    """Certify one branch segment (Theorem hypotheses (P1)-(P3) plus the
    delta inequalities); raises ValidationFailed naming the broken part."""
    ext = ExtendedSystem(system, t0, u0, mu, v)
    t_iv, u_iv = Interval.point(t0), IVector.point(u0)
    rho = norm_inf(system.F_iv(t_iv, u_iv)).hi
    Ju, Jt = system.jacs_iv(t_iv, u_iv)
    xi = norm_inf(Jt.scale(mu) + Ju.matvec(IVector.point(v))).hi

    extJ = ext.jac_iv_at_origin(Ju, Jt)
    try:
        B = np.linalg.inv(ext.jac(0.0, np.zeros(system.d + 1)))
    except np.linalg.LinAlgError as exc:
        raise ValidationFailed(f"(P2): extended Jacobian singular: {exc}") from exc
    try:
        K, _ = cift.inverse_bound(extJ, B)
    except NotInvertibleEvidence as exc:
        raise ValidationFailed(f"(P2) failed: {exc}") from exc

    M1, M2, M3, M4 = system.lipschitz_M(t0, u0, d_lambda, d_u)
    hyp = SegmentHypotheses(rho=rho, xi=xi, K=K, M1=M1, M2=M2, M3=M3, M4=M4,
                            d_u=d_u, d_lambda=d_lambda)
    bounds = derive_extended_constants(hyp, mu, v)
    dir_norm = max(abs(mu), float(np.max(np.abs(v))))
    pair = cift.solve_deltas(bounds, dir_norm=dir_norm,
                             coupled_cap=min(d_u, d_lambda))
    if pair.delta_alpha <= 0.0:
        raise ValidationFailed("delta_alpha degenerated to zero")
    return BranchBox(index=index, t=t0, u=np.asarray(u0, float).copy(),
                     mu=mu, v=np.asarray(v, float).copy(),
                     delta_alpha=pair.delta_alpha, delta_u=pair.delta_x,
                     delta_min=pair.delta_min, bounds=bounds, hyp=hyp)


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
    """Upper bound of |float_anchor - (anchor + alpha*dir + corr)|_inf."""
    a = Interval(alpha_k)
    dt = Interval(t_prev) + a * Interval(mu) + Interval(sigma) - Interval(t_next)
    gap = dt.mag
    for j in range(len(v)):
        dj = (Interval(float(u_prev[j])) + a * Interval(float(v[j]))
              + Interval(float(x_corr[j])) - Interval(float(u_next[j])))
        gap = max(gap, dj.mag)
    return gap


def classify_stability(coral: CoralMap, lam: float, x: np.ndarray) -> str:
    """Non-rigorous: count Jacobian eigenvalues outside the unit circle."""
    ev = np.linalg.eigvals(coral.jac_x(lam, x))
    idx = int(np.sum(np.abs(ev) > 1.0))
    return "stable" if idx == 0 else f"unstable({idx})"


# ---------------------------------------------------------------------------
# whole-branch driver
# ---------------------------------------------------------------------------


@dataclass
class ContinuationConfig:
    from_R: float = 300.0
    to_R: float = 72.0
    max_steps: int = 8000
    alpha_frac: float = 0.8
    d_u0: float = 1e-4
    d_lambda0: float = 1e-4
    box_cap: float = 3e-2
    box_min: float = 1e-11
    box_growth: float = 2.0
    corrector_tol: float = 1e-14
    max_newton: int = 25


@dataclass
class BranchResult:
    boxes: list[BranchBox] = field(default_factory=list)
    stop_reason: str = ""
    fold_index: int | None = None

    def all_linked(self) -> bool:
        return all(b.linked_to_previous for b in self.boxes[1:])


def continue_branch(system: CoralBranchSystem, t0: float, u0: np.ndarray,
                    config: ContinuationConfig | None = None) -> BranchResult:
    """Chain linked validated boxes from a validated start point.

    Terminates on reaching to_R after the fold, on validation failure
    after the adaptive box has shrunk to its floor, on a linking failure,
    or on max_steps.
    """
    cfg = config or ContinuationConfig()
    res = BranchResult()
    t, u = float(t0), np.asarray(u0, dtype=float).copy()
    prev_tangent: np.ndarray | None = None
    d_u, d_lam = cfg.d_u0, cfg.d_lambda0
    pending_alpha = 0.0
    pending_corr: tuple[float, np.ndarray] | None = None
    pending_slack = 0.0
    fold_seen = False

    for k in range(cfg.max_steps):
        try:
            mu, v = tangent_estimate(system, t, u, prev=prev_tangent)
        except TangentUndefined as exc:
            res.stop_reason = f"tangent-undefined: {exc}"
            return res
        if prev_tangent is None and mu > 0.0:
            mu, v = -mu, -v          # start by decreasing R
        prev_tangent = np.concatenate([[mu], v])

        box = None
        while True:
            try:
                box = validate_segment(system, t, u, mu, v, d_u, d_lam, index=k)
                break
            except ValidationFailed as exc:
                d_u *= 0.5
                d_lam *= 0.5
                if min(d_u, d_lam) < cfg.box_min:
                    res.stop_reason = f"degenerate: {exc}"
                    return res

        if pending_corr is not None:
            linked = check_link(res.boxes[-1], pending_alpha, pending_corr,
                                box.delta_min, slack=pending_slack)
            box = replace(box, linked_to_previous=linked)
            if not linked:
                res.stop_reason = "link-failed"
                res.boxes.append(box)
                return res

        coral = getattr(system, "coral", None)
        if coral is not None:
            lam, x = system.to_raw(t, u)
            box = replace(box, stability=classify_stability(coral, lam, x))

        # detect fold passage via the parameter component of the tangent
        if k > 0 and res.boxes and np.sign(mu) != np.sign(res.boxes[-1].mu) and mu != 0.0:
            fold_seen = True
            res.fold_index = k
        if fold_seen and system.R_of_t(t) >= cfg.to_R:
            res.boxes.append(box)
            res.stop_reason = "target"
            return res

        alpha_k = cfg.alpha_frac * box.delta_alpha
        ext = ExtendedSystem(system, t, u, mu, v)
        try:
            sigma, x_corr = newton_correct(ext, alpha_k, tol=cfg.corrector_tol,
                                           max_iter=cfg.max_newton)
        except CorrectorFailed as exc:
            res.boxes.append(box)
            res.stop_reason = f"corrector-failed: {exc}"
            return res
        corr_norm = max(abs(sigma), float(np.max(np.abs(x_corr))))
        box = replace(box, alpha_step=alpha_k, corr_norm=corr_norm)
        res.boxes.append(box)

        pending_alpha, pending_corr = alpha_k, (sigma, x_corr)
        t_next = t + alpha_k * mu + sigma
        u_next = u + alpha_k * v + x_corr
        pending_slack = _anchor_rounding_gap(t, u, alpha_k, mu, v, sigma,
                                             x_corr, t_next, u_next)
        t, u = t_next, u_next

        # adapt the Lipschitz box: grow when the coupling constraint binds
        used = box.delta_alpha * box.dir_norm + box.delta_u
        if used >= 0.5 * min(d_u, d_lam):
            d_u = min(cfg.box_cap, d_u * cfg.box_growth)
            d_lam = min(cfg.box_cap, d_lam * cfg.box_growth)

    res.stop_reason = "max-steps"
    return res
