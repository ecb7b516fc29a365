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
tangent (the tip is the last certified box), the first step _WAVE_SPACING
ALPHA_FRAC delta_alpha and each later one r times the one before, r the
trend of delta_alpha, corrected in one stacked chord solve (whose last
evaluation gives each anchor's row 1 of [D_t F | D_u F], which with the
system's `ConstantRows` gives its tangent and float inverse B) and
certified as one stack by one `validate_segment` call: one order-2 row-1
jet over the anchors and their Lipschitz boxes stacked
(`CoralBranchSystem.jet_iv`) gives the interval data of the whole wave,
and each box takes the delta_alpha of its certified constants.  Every
`ExtendedSystem` is such a stack, one anchor per row; a wave's chord
solve takes the tip once per anchor.  The step out of a box is the
projection of the next anchor on its tangent, and one `check_link` call
on the arrays of those steps links the wave; the first step longer than
ALPHA_FRAC delta_alpha, or that fails to link, cuts the wave, and the
next wave starts from the last box kept.  A cut at the wave's first
anchor ends the branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import cift
from .errors import (CorrectorFailed, NotInvertibleEvidence, TangentUndefined,
                     ValidationFailed)
from .interval import (_EPS, _TINY, Interval, MidRad, _adn, _aup, _gamma, add_hi,
                       div_hi, float_matmat, gamma_rad, mid_rad, mul_hi, up_mul, up_sum)
from .model import CoralMap, FixedPointReduction, phi_derivs, schur_cohn_inside


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
        self._ratio0_mr = MidRad.of((_adn(r0), _aup(r0)))
        # the M bounds' scalings of row 1's gradient and Hessian
        self._ratio0 = r0
        self._Sqq, self._Sqb = coral.hessian_weights(up_mul(np.outer(s, s) / s[0], 1.0))
        S = np.array(coral.params.S, dtype=float)
        r1 = s[:-1] / s[1:]
        k = np.arange(self.d - 1)
        # rows 2..d of [D_t F | D_u F]: the subdiagonal S_k s_k/s_{k+1} and -1
        # on the diagonal, as floats and enclosed (S >= 0)
        rows = np.zeros((self.d - 1, self.d + 1))
        rows[k, k + 1] = S * s[:-1] / s[1:]
        lo, hi = np.zeros((self.d - 1, self.d + 1)), np.zeros((self.d - 1, self.d + 1))
        lo[k, k + 1], hi[k, k + 1] = _adn(_adn(r1) * S), _aup(_aup(r1) * S)
        rows[k, k + 2] = lo[k, k + 2] = hi[k, k + 2] = -1.0
        self.rows = ConstantRows(rows, lo, hi)
        self._S = S
        self._ct_iv = Interval.point(self.rscale) / coral.ci.ba   # dlambda/dt
        self._ct_mr = MidRad.of(self._ct_iv)
        self._ct = self.rscale / coral.cf.ba

    # -- coordinate helpers ----------------------------------------------

    def lam_of_t(self, t: float) -> float:
        return self._ct * t

    def R_of_t(self, t: float) -> float:
        return self.rscale * t

    def from_raw_R(self, R: float, x: np.ndarray) -> tuple[float, np.ndarray]:
        return R / self.rscale, np.asarray(x, dtype=float) / self.s

    # -- float evaluation --------------------------------------------------

    def evaluate(self, t, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F and A1, row 1 of [D_t F | D_u F] as an (n, d + 1) array, at a
        stack of independent points t (n,), u (n, d), from one q.x, one b.x
        and one `phi_derivs` per row; rows 2..d of [D_t F | D_u F] are
        `rows`.  This is the float interface of every branch system.  q.x
        and b.x are row sums, not a matrix product, so that a row does not
        depend on the rows stacked with it; a row is a few ulps off the
        one-state map, its lambda derivative and row 0 of `CoralMap.jac_x`."""
        cf, s, d = self.coral.cf, self.s, self.d
        lam, x = self._ct * np.asarray(t, dtype=float), s * u
        lead = lam.shape
        P, bx = (x * cf.q).sum(axis=-1), (x * cf.b).sum(axis=-1)
        ph, ph1 = phi_derivs(P, self.coral.params, order=1)
        f = np.empty(lead + (d,))
        f[..., 0] = lam * ph * bx
        f[..., 1:] = self._S * x[..., :-1]
        A1 = np.empty(lead + (d + 1,))
        A1[..., 0] = self._ct * (ph * bx) / s[0]
        A1[..., 1:] = lam[..., None] * (ph1[..., None] * cf.q * bx[..., None]
                                        + ph[..., None] * cf.b) * s / s[0]
        A1[..., 1] -= 1.0
        return f / s - u, A1

    # -- interval evaluation ------------------------------------------------

    def jet_iv(self, t: MidRad, u: MidRad, t0, u0, d) -> tuple:
        """F and row 1 of [D_t F | D_u F], an (n, d + 1) stack, as `MidRad`
        stacks at a stack of points or boxes, t of shape (n,) and u of
        shape (n, d), and (M1..M4) for the mean-value bounds of (D_u F,
        D_t F) over the boxes |u - u0_i| <= d_i, |t - t0_i| <= d_i, one
        entry per stacked box (blockwise Lipschitz recipe), from one
        order-2 row-1 jet of x = s (.) u and those boxes' x stacked (a jet
        row does not depend on the rows stacked with it).  The other rows
        of [D_t F | D_u F] are `rows`.

        Row 1 is the only non-constant row of D_u F and the only nonzero
        entry of D_t F, so each max-norm difference is one row sum: M1 =
        |lambda| sum_jk (s_j s_k / s_0) |d2g/dx_j dx_k| bounds D_u F in u, in
        the closed form of `CoralMap.hessian_weights`; M2 = sum_j tg_j
        bounds it in t, and M3 = M2 since d/du_k of D_t F is d/dt of
        (D_u F)_1k = tg_k.  lambda is affine in t, so M4 = 0."""
        t0, u0, d = (np.asarray(a, dtype=float) for a in (t0, u0, d))
        n, x = len(u.m), u * self.s
        cat = lambda *parts, axis=-1: MidRad(np.concatenate([p.m for p in parts], axis=axis),
                                             np.concatenate([p.r for p in parts], axis=axis))
        box = MidRad(u0, np.broadcast_to(d[..., None], u0.shape)) * self.s
        jet = self.coral.row1_jet(cat(x, box, axis=0), order=2)
        at, over = jet[:n], jet[n:]
        lam = t * self._ct_mr
        # F = f(lambda, x) / s - u; rows 2..d of f are S_k x_k
        f0, f_rest = lam * at.phis[0] * at.bx, x[..., :-1] * self._S
        F = cat(f0[..., None], f_rest) / self.s - u
        # row 1: (D_t F_1, row 1 of D_x f scaled by s_j / s_0, minus e_1)
        jt = self._ct_mr * at.g / float(self.s[0])
        ju = at.g1 * lam[..., None] * self._ratio0_mr
        J1 = cat(jt[..., None], ju[..., :1] - 1.0, ju[..., 1:])
        # (M1..M4) over the boxes
        lam_mag = (self._ct_mr * MidRad(t0, d)).mag
        g2 = up_mul(up_mul((over.phis[2] * over.bx).mag, self._Sqq)
                    + up_mul(over.phis[1].mag, self._Sqb), 1.0)
        M1 = up_mul(lam_mag, g2)
        M2 = up_sum(up_mul(self._ct_iv.mag, up_mul(self._ratio0, over.g1.mag)), axis=-1)
        return (F, J1), (M1, M2, M2, np.zeros_like(M1))


class ConstantRows:
    """Rows 2..d of the extended Jacobian DG(0) = [mu v; D_t F | D_u F],
    which are the same at every anchor of a branch system: its rows of
    [D_t F | D_u F] below the first (for the coral system [0 | S_k s_k /
    s_(k+1) subdiagonal - I]).  `float` holds them in floats; `mid` and
    `R` split their enclosure lo <= rows <= hi as `interval.mid_rad` does
    for a product of d + 1 terms, and `R_rows` bounds the row sums of R.
    `P_inv` is the float inverse of P' = [e_0; e_1; float], taken once
    (lower bidiagonal for the coral system)."""

    def __init__(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.float = rows
        k = rows.shape[-1]
        self.mid, self.R = mid_rad(lo, hi, _gamma(k)[0])
        self.R_rows = up_sum(self.R, axis=-1)
        P = np.eye(k)
        P[2:] = rows
        self.P_inv = np.linalg.inv(P)

    def inverse(self, X: np.ndarray, A1: np.ndarray, first_column: bool = False) -> np.ndarray:
        """Float inverses of the stack of matrices [X; A1; float], X and A1
        (n, d + 1) their rows 0 and 1: a rank-2 update of P'^-1 (Hager,
        "Updating the inverse of a matrix", SIAM Review 1989).  P' has rows
        0 and 1 of the identity, and so has P'^-1, so [X; A1; float] P'^-1
        is the identity but for its rows 0 and 1, Y = [X; A1] P'^-1.  Hence
        the inverse is P'^-1 [[C^-1, -C^-1 Y_r]; [0, I]] with the 2x2
        capacitance C = Y[:, :2], inverted explicitly, and Y_r = Y[:, 2:].
        With `first_column`, only column 0 of each inverse, P'^-1[:, :2]
        C^-1 e_0 (n, d + 1), computed from Y's first two columns alone.
        Every product is one per row, so a row does not depend on the rows
        stacked with it.  Raises LinAlgError where C is singular."""
        Q = self.P_inv
        Y = np.stack([X, A1], axis=1) @ (Q[:, :2] if first_column else Q)
        (c00, c01), (c10, c11) = Y[:, 0, :2].T, Y[:, 1, :2].T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Cinv = np.stack([np.stack([c11, -c01], axis=-1), np.stack([-c10, c00], axis=-1)],
                            axis=1) / (c00 * c11 - c01 * c10)[:, None, None]
        bad = np.flatnonzero(~np.isfinite(Cinv).all(axis=(1, 2)))
        if bad.size:
            raise np.linalg.LinAlgError(f"singular capacitance at anchor {bad[0]} of the stack")
        if first_column:
            return (Q[:, :2] @ Cinv[:, :, :1])[:, :, 0]
        Z = np.concatenate([Cinv, -(Cinv @ Y[:, :, 2:])], axis=-1)
        B = Q[:, :2] @ Z
        B[:, :, 2:] += Q[:, 2:]
        return B


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
    """G(alpha, (sigma, x)) for a stack of anchor/direction pairs, one per
    row: t0, mu of shape (n,) and u0, v of shape (n, d).  Its methods take
    one alpha (n,) and z (n, d + 1) row, or one enclosure, per anchor, and
    a row does not depend on the rows stacked with it; `ext[rows]` is the
    system of those rows."""

    def __init__(self, system: CoralBranchSystem, t0, u0: np.ndarray, mu, v: np.ndarray):
        self.sys = system
        self.t0, self.u0 = np.asarray(t0, dtype=float), np.asarray(u0, dtype=float)
        self.mu, self.v = np.asarray(mu, dtype=float), np.asarray(v, dtype=float)

    def __getitem__(self, rows) -> ExtendedSystem:
        return ExtendedSystem(self.sys, self.t0[rows], self.u0[rows], self.mu[rows], self.v[rows])

    def point(self, alpha: np.ndarray, sigma: np.ndarray, x: np.ndarray) -> tuple:
        """(t, u) = anchor + alpha * direction + (sigma, x) per row."""
        return self.t0 + alpha * self.mu + sigma, self.u0 + alpha[:, None] * self.v + x

    def value(self, alpha: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        """G(alpha, z), and the branch system's evaluation (F, A1), A1 row 1
        of [D_t F | D_u F], at the points it is taken at."""
        sigma, x = z[:, 0], z[:, 1:]
        ev = self.sys.evaluate(*self.point(alpha, sigma, x))
        G = np.empty(z.shape)
        G[:, 0] = self.mu * sigma + (x * self.v).sum(axis=-1)
        G[:, 1:] = ev[0]
        return G, ev

    def inverse(self, A1: np.ndarray) -> np.ndarray:
        """`ConstantRows.inverse` of DG(0) = [mu v; A1; rows] at the anchors,
        A1 (n, d + 1) row 1 of [D_t F | D_u F]: the float inverses B."""
        return self.sys.rows.inverse(np.column_stack([self.mu, self.v]), A1)

    def origin_bounds(self, J1: MidRad, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (P2) bound K >= |DG(0)^-1| and the (P3) drift xi >= |D_t F mu
        + D_u F v| at each anchor, from the `MidRad` stack J1 (n, d + 1) of
        row 1 of [D_t F | D_u F], the system's constant rows and B; raises
        NotInvertibleEvidence, whose `index` names the first anchor that
        fails, when (P2) does (as a NaN or infinite entry of J1 makes it).

        DG(0) lies in m +- R: m the rows (mu, v), J1.m and `rows.mid`, R
        the `interval.gamma_rad` of J1's m and r and `rows.R`.  K is
        `cift.neumann_K` of `cift.neumann_rho_rows`, whose radius row sums
        take two rows per anchor and `rows.R_rows`.  xi is the max norm of
        rows 1.. of DG(0) times (mu, v) in the same form: centre plus
        up((fl(R |(mu, v)|) + (k + 1) 2^-1074) / (1 - gamma_k)) per row, as
        `float_matmat` bounds an entry.  (P2) passing proves B invertible,
        so every R there is finite, and so is xi.  Every product is one per
        anchor, of that anchor's own matrices, so a row does not depend on
        the rows stacked with it."""
        rows, (n, k) = self.sys.rows, J1.m.shape
        gamma, inv_1mg = _gamma(k)
        X = np.column_stack([self.mu, self.v])
        m, R, R_rows = np.empty((n, k, k)), np.empty((n, k - 1, k)), np.empty((n, k))
        m[:, 0], m[:, 1], m[:, 2:] = X, J1.m, rows.mid
        R[:, 0], R[:, 1:] = gamma_rad(J1.m, J1.r, gamma), rows.R
        R_rows[:, 0] = up_sum(gamma_rad(X, 0.0, gamma), axis=-1)
        R_rows[:, 1], R_rows[:, 2:] = up_sum(R[:, 0], axis=-1), rows.R_rows
        K = cift.neumann_K(cift.neumann_rho_rows(B, m, R_rows), B)
        c, Rw = (m[:, 1:] @ X[..., None])[..., 0], (R @ np.abs(X)[..., None])[..., 0]
        rad = _aup(_aup(Rw + (k + 1) * _TINY) * inv_1mg)
        return K, _aup(np.abs(c) + rad).max(axis=-1)


# relative size of the second-smallest singular value below which the
# branch Jacobian counts as rank deficient by more than one
_RANK_TOL = 1e-8


def tangent_estimate(rows: ConstantRows, A1: np.ndarray, prev: np.ndarray | None = None) -> tuple:
    """Unit max-norm null vectors (mu (n,), v (n, d)) of the Jacobians [A1;
    rows] = [D_t F | D_u F] at the anchors, A1 (n, d + 1) their row 1.

    Given the previous direction, it solves the bordered systems [prev; A1;
    rows] tau = e_0, whose solutions continue prev (prev . tau = 1): tau is
    column 0 of `rows.inverse`, which forms only that column.  At the
    start, with no direction to border by, it is the last right singular
    vector of each Jacobian."""
    if prev is None:
        _, sv, Vt = np.linalg.svd(np.stack([np.vstack([a, rows.float]) for a in A1]))
        if (sv[..., -1] <= _RANK_TOL * sv[..., 0]).any():
            # rank < d: the null space is at least two-dimensional
            raise TangentUndefined("branch Jacobian rank deficiency exceeds one")
        tang = Vt[..., -1, :]
    else:
        try:
            tang = rows.inverse(np.broadcast_to(prev, A1.shape), A1, first_column=True)
        except np.linalg.LinAlgError as exc:
            raise TangentUndefined(f"bordered tangent system singular: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(tang).all(axis=-1))
        if bad.size:
            raise TangentUndefined(f"bordered tangent system singular: non-finite solution "
                                   f"at anchor {bad[0]} of the stack")
    tang = tang / np.abs(tang).max(axis=-1, keepdims=True)
    return tang[:, 0].copy(), tang[:, 1:].copy()


# chord steps the corrector takes before it gives up
_MAX_NEWTON = 25


def newton_correct(ext: ExtendedSystem, alpha: np.ndarray, tol: float,
                   max_iter: int = _MAX_NEWTON) -> tuple:
    """Approximate zeros (sigma, x) of G(alpha, .) orthogonal to the
    predictors, one row per anchor of `ext`, and the branch system's
    evaluation (F, A1) at the points they reach, A1 row 1 of [D_t F |
    D_u F].  The stack takes one chord step more once every row meets
    `tol`, since its slowest row stops just below it and the residual sets
    each anchor's accuracy radius.

    Chord steps z <- z - B_alpha G(alpha, z): row 1 of the extended
    Jacobian is evaluated, and the Jacobian inverted
    (`ExtendedSystem.inverse`), once, at the predictor (alpha, 0), so each
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
                B = ext.inverse(ev[1])
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
    `CoralBranchSystem.jet_iv`, one entry per segment of a stack in each
    array.

    With the product norm max(|sigma|, |x|), the derivative difference is
    bounded by (M1+M3)|x| + (M2+M4)|sigma| <= L1 max(|sigma|, |x|) with
    L1 = M1+M2+M3+M4 (sharp when |sigma| = |x|; the smaller constant
    max(M1+M3, M2+M4) would only be valid for the sum norm).
    """
    vn, am = np.abs(v).max(axis=-1), np.abs(mu)
    M1, M2, M3, M4 = M
    M13, M24 = add_hi(M1, M3), add_hi(M2, M4)
    L1 = add_hi(M13, M24)
    L2 = add_hi(mul_hi(M13, vn), mul_hi(M24, am))
    L4 = add_hi(mul_hi(add_hi(mul_hi(M1, vn), mul_hi(M2, am)), vn),
                mul_hi(add_hi(mul_hi(M3, vn), mul_hi(M4, am)), am))
    return cift.CiftBounds(rho=rho, K=K, L1=L1, L2=L2, L3=xi, L4=L4, ell_x=d)


def _rows(obj) -> list:
    """The per-segment instances of a dataclass whose fields are arrays."""
    return [type(obj)(*vals) for vals in zip(*(getattr(obj, f.name).tolist()
                                                for f in fields(obj)))]


@dataclass
class BranchBox:
    """One validated slanted box along the branch.  `bounds` holds its
    (P1)-(P3) data: rho, K, the drift xi as L3 and the Lipschitz box
    radius d as ell_x; M is (M1..M4) over that box.
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


def _take(obj, idx):
    """The dataclass of arrays `obj` at the entries idx of each field."""
    return type(obj)(*(getattr(obj, f.name)[idx] for f in fields(obj)))


def validate_segment(ext: ExtendedSystem, B: np.ndarray, d, index: int) -> list:
    """Certify the stack of segments of `ext`, B the float inverses of
    their extended Jacobians and d each segment's Lipschitz box radius, or
    a row of them (rungs).  Each direction (mu, v) has max norm 1, as
    `tangent_estimate` makes it; a row whose direction has not raises
    ValueError.  One `jet_iv` call gives `MidRad` F and row 1 of DG(0) at
    each anchor, and (M1..M4) over each rung; (P1) rho is F's
    largest magnitude, and `ExtendedSystem.origin_bounds` takes the (P2)
    bound K and the (P3) drift xi from row 1, raising NotInvertibleEvidence
    (`index` the first failing segment) when (P2) fails.  Then segment i --
    (P3) plus the delta inequalities -- is checked in one stacked
    `cift.check_deltas` at the delta_alpha `cift.delta_alpha_root` plans
    from its certified constants; `bound_by` records the constraint whose
    root set it.  Of its rungs the segment takes the one with the largest
    delta_alpha.  One entry per segment: its BranchBox
    (index `index` + i), or the ValidationFailed that names the broken
    part."""
    bad = np.flatnonzero(np.maximum(np.abs(ext.mu), np.abs(ext.v).max(axis=-1)) != 1.0)
    if bad.size:
        raise ValueError(f"direction (mu, v) of row {bad[0]} does not have max norm 1")
    d = np.asarray(d, dtype=float).reshape(len(ext.t0), -1)
    n, r = d.shape
    seg = np.repeat(np.arange(n), r)
    d = d.ravel()
    point = lambda a: MidRad(a, np.zeros_like(a))
    (F, J1), M = ext.sys.jet_iv(point(ext.t0), point(ext.u0), ext.t0[seg], ext.u0[seg], d)
    try:
        K, xi = ext.origin_bounds(J1, B)
    except NotInvertibleEvidence as exc:
        raise NotInvertibleEvidence(f"(P2) failed: {exc}", index=exc.index) from exc
    rho = F.mag.max(axis=-1)
    b = derive_extended_constants(rho[seg], xi[seg], K[seg], M, d, ext.mu[seg], ext.v[seg])
    planned, names = cift.delta_alpha_root(b)
    pick = np.arange(n) * r + planned.reshape(n, r).argmax(axis=1)
    bounds = _take(b, pick)
    ok, pairs = cift.check_deltas(bounds, planned[pick])
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


def check_link(tau: np.ndarray, delta_alpha, delta_u, alpha, corr_norm, next_delta_min,
               slack, residual) -> np.ndarray:
    """Theorem linking inequalities for a stack of links: the accuracy
    ball of box k+1 must lie in the uniqueness tube of box k, whose
    direction dir = (mu, v) is tau[k], of max norm 1 (as `validate_segment`
    requires), and whose radii are delta_alpha[k] and delta_u[k].  One bool
    per link.

    The step out of box k's float anchor a along dir was alpha[k], and
    the next float anchor is, exactly, a + alpha dir + c + g: c the
    correction, with max norm corr_norm[k] and |<dir, c>| at most
    residual[k] (the first row of G it leaves), and g the rounding gap of
    the stored anchor, |g| <= slack[k].

    Lemma.  A point a + alpha dir + c + g + e of the next accuracy ball,
    |e| <= delta_min', is a + (alpha + D) dir + w with D = <dir, c + g + e>
    / <dir, dir> and w = c + g + e - D dir, so <dir, w> = 0: w is a zero of
    box k's G(alpha + D, .), whose zeros lie on that hyperplane (G's first
    row).  |D| <= (residual + |dir|_1 (slack + delta_min')) / |dir|_2^2 and
    |w| <= corr_norm + slack + delta_min' + |D| (|dir|_inf = 1), so |alpha|
    + |D| < delta_alpha and that bound on |w| < delta_u make it the CIFT's
    unique zero on box k's tube.  Every term rounds up (|dir|_2^2 down)."""
    norm1 = up_sum(np.abs(tau), axis=-1)
    norm2sq = float_matmat(tau[:, None, :], tau[:, :, None], tau[:, :, None])[0][:, 0, 0]
    e = add_hi(slack, next_delta_min)
    D = div_hi(add_hi(residual, mul_hi(norm1, e)), norm2sq)
    lhs1 = add_hi(np.abs(alpha), D)
    lhs2 = add_hi(add_hi(corr_norm, e), D)
    return (lhs1 < delta_alpha) & (lhs2 < delta_u)


def _anchor_rounding_gap(prev, alpha, tau, corr, new):
    """Upper bound of |new - (prev + alpha tau + corr)|_inf for points
    (t, u) with t as component 0: the magnitude of the interval ((prev +
    alpha tau) + corr) - new, its upper end at s = 1 and its lower end
    negated at s = -1; (n, d + 1) points give one bound per step."""
    a = np.asarray(alpha, dtype=float)[..., None]
    return np.maximum(*(np.abs(add_hi(add_hi(add_hi(s * prev, mul_hi(s * tau, a)), s * corr),
                                      -s * new)) for s in (1.0, -1.0))).max(axis=-1)


# |gamma| at or below this, on coefficients scaled to max |a| = 1, leaves a
# Schur-Cohn count to LAPACK: a root lies on or near the unit circle
_SCHUR_COHN_TOL = 1e-9


def _leslie_outside_counts(row1: np.ndarray, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of Leslie matrices J, given as their first rows row1 (n,
    d) and subdiagonals sub (n, d - 1): the number of roots outside the unit
    circle of det(zI - J) = z^d - sum_j row1_j (sub_0...sub_(j-1)) z^(d-1-j),
    counted by the Schur-Cohn recursion, and the mask of rows whose count
    is ambiguous (a root near the circle, a degenerate step or a non-finite
    entry).

    The recursion takes p of formal degree k (coefficients a_0..a_k,
    ascending) to T p with c_i = a_0 a_i - a_k a_(k-i), i < k, and gamma_k
    = c_0; `schur_cohn_inside` turns the signs into the count."""
    n, d = row1.shape
    gamma = np.empty((n, d))
    # a zero or non-finite row gives gamma = 0 or NaN, which marks it ambiguous
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        a = np.ones((n, d + 1))
        np.cumprod(sub, axis=1, out=a[:, 1:d])      # sub_0...sub_(j-1) at j
        a[:, :d] = -(row1 * a[:, :d])[:, ::-1]
        for k in range(d, 0, -1):
            a /= np.abs(a).max(axis=1, keepdims=True)
            a = a[:, :1] * a[:, :k] - a[:, k:k + 1] * a[:, k:0:-1]
            gamma[:, k - 1] = a[:, 0]
    ambiguous = ~(np.abs(gamma) > _SCHUR_COHN_TOL).all(axis=1)
    return d - schur_cohn_inside(gamma < 0.0), ambiguous


def classify_stability(row1: np.ndarray, sub: np.ndarray) -> list[str]:
    """Non-rigorous: count the eigenvalues outside the unit circle of each
    Leslie matrix of a stack, given as its first row, row1 (n, d), and its
    subdiagonal of survival rates, sub (d - 1,) or (n, d - 1): the list of
    the n labels.

    The count comes from the Schur-Cohn recursion on the characteristic
    polynomial; only the rows whose count is ambiguous are built as d x d
    matrices, for `np.linalg.eigvals`, whose count it equals elsewhere."""
    n, d = row1.shape
    sub = np.broadcast_to(sub, (n, d - 1))
    idx, ambiguous = _leslie_outside_counts(row1, sub)
    if ambiguous.any():
        J = np.zeros((int(ambiguous.sum()), d, d))
        J[:, 0], J[:, np.arange(1, d), np.arange(d - 1)] = row1[ambiguous], sub[ambiguous]
        idx[ambiguous] = (np.abs(np.linalg.eigvals(J)) > 1.0).sum(axis=-1)
    return ["stable" if i == 0 else f"unstable({i})" for i in idx.tolist()]


def stability_labels(system: CoralBranchSystem, A1: np.ndarray) -> list[str]:
    """The stability labels of D_u f, the Jacobian of u -> f(lambda, s (.)
    u) / s, at a stack of points, from A1 (n, d + 1), their rows 1 of [D_t F
    | D_u F] as `evaluate` gives them.  D_u f = diag(1/s) D_x f diag(s) has
    D_x f's eigenvalues and is a Leslie matrix too: its first row is A1[:,
    1:] + e_1 and its subdiagonal that of `rows.float`."""
    row1 = A1[:, 1:].copy()
    row1[:, 0] += 1.0
    return classify_stability(row1, np.diagonal(system.rows.float, offset=1))


# ---------------------------------------------------------------------------
# whole-branch continuation: waves of float anchors, certified as stacks
# ---------------------------------------------------------------------------


@dataclass
class BranchResult:
    boxes: list[BranchBox] = field(default_factory=list)
    stop_reason: str = ""
    fold_index: int | None = None
    waves: int = 0                # waves placed, the start box's included
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
# Wave lengths: a wave places _CHUNK_MIN anchors and doubles after each
# wave accepted whole, up to _CHUNK_MAX; after a cut it places as many as
# the cut wave accepted, at least _CHUNK_MIN, and after a wave that could
# not be placed, one.
_CHUNK_MIN = 8
_CHUNK_MAX = 64
# A wave's first step is this fraction of ALPHA_FRAC times the tip's
# delta_alpha, each later one `_trend` times the one before, so a step stays
# near that fraction of its own box's delta_alpha where delta_alpha falls
# (1% a box for R > 58).  A validator call costs mostly per wave, and a
# wider spacing is cut sooner: on the default branch, where all three are
# tuned, 0.92 takes 38 waves and 1,912 boxes, 0.95 46 waves and 0.97 64.
_WAVE_SPACING = 0.92
_TREND_WINDOW = 16
_TREND_CLIP = (0.9, 1.0)


@dataclass
class _Wave:
    """Float anchors certified as one stack: points and tangents in `ext`,
    B and the last fold seen up to each."""

    first: int                    # index of anchor 0 along the branch
    ext: ExtendedSystem
    B: np.ndarray
    folds: list

    def __len__(self) -> int:
        return len(self.folds)

    def take(self, n: int) -> _Wave:
        return _Wave(self.first, self.ext[:n], self.B[:n], self.folds[:n])


def _wave(system, first: int, t: np.ndarray, u: np.ndarray, A1: np.ndarray,
          prev: np.ndarray | None, fold_index: int | None) -> _Wave:
    """The wave of anchors t (n,), u (n, d) at which row 1 of [D_t F |
    D_u F] is A1: tangents bordered by the tangent `prev` of the anchor
    before them (None at the start: one anchor, its SVD tangent oriented
    to decreasing R), their B, and the fold indices after `fold_index`.
    Raises TangentUndefined, or LinAlgError for a singular B."""
    mu, v = tangent_estimate(system.rows, A1, prev)
    if prev is None and mu[0] > 0.0:
        mu, v = -mu, -v              # start by decreasing R
    ext = ExtendedSystem(system, t, u, mu, v)
    B = ext.inverse(A1)
    # a fold shows as a sign change of the parameter component
    sign = np.sign(np.concatenate([[np.nan if prev is None else prev[0]], mu]))
    flip = np.flatnonzero((sign[1:] != sign[:-1]) & (mu != 0.0) & ~np.isnan(sign[:-1]))
    folds = [fold_index] * len(mu)
    for k in flip.tolist():
        folds[k:] = [first + k] * (len(mu) - k)
    return _Wave(first, ext, B, folds)


def _trend(boxes: list[BranchBox]) -> float:
    """(da[-1] / da[-1-w])^(1/w) over the boxes' delta_alphas da, w <=
    _TREND_WINDOW steps back, clipped to _TREND_CLIP; 1 below two boxes."""
    da = [b.delta_alpha for b in boxes[-_TREND_WINDOW - 1:]]
    if len(da) < 2:
        return 1.0
    return float(np.clip((da[-1] / da[0]) ** (1.0 / (len(da) - 1)), *_TREND_CLIP))


def _place(system, tip: BranchBox, n: int, r: float, fold_index: int | None) -> _Wave:
    """The wave of n anchors after the tip, with tangent tau: one stacked
    chord solve corrects the predictors tip + a_j tau, j = 1..n, each on its
    hyperplane tau.(z - tip) = a_j |tau|^2, a_j = h (1 + r + ... +
    r^(j-1)) with h _WAVE_SPACING ALPHA_FRAC times the tip's delta_alpha
    and r from `_trend`.  Raises CorrectorFailed, TangentUndefined or
    LinAlgError."""
    # the tip once per anchor
    base = ExtendedSystem(system, [tip.t], [tip.u], [tip.mu], [tip.v])[np.zeros(n, dtype=int)]
    alpha = _WAVE_SPACING * ALPHA_FRAC * tip.delta_alpha * np.cumsum(r ** np.arange(n))
    # the residual cannot resolve below a few ulps of the state
    tol = max(_CORRECTOR_TOL, 8.0 * _EPS * max(abs(tip.t), float(np.abs(tip.u).max())))
    sigma, x, (_, A1) = newton_correct(base, alpha, tol=tol)
    t, u = base.point(alpha, sigma, x)
    return _wave(system, tip.index + 1, t, u, A1, np.append(tip.mu, tip.v), fold_index)


# the errors of placing anchors, and the stop reason each gives
_PLACE_ERRORS = {CorrectorFailed: "corrector-failed", TangentUndefined: "tangent-undefined",
                 np.linalg.LinAlgError: "degenerate: (P2): extended Jacobian singular"}


def _links(tip: BranchBox, wave: _Wave, boxes: list[BranchBox]) -> tuple:
    """(alpha, corr_norm, links) of the step into each of `boxes` (a prefix
    of the wave's) from the box before: the float projection of z_next -
    z_prev on tau_prev, the remainder correcting it."""
    n, e = len(boxes), wave.ext
    z = np.column_stack([np.append(tip.t, e.t0[:n]), np.concatenate([[tip.u], e.u0[:n]])])
    tau = np.column_stack([np.append(tip.mu, e.mu[:n - 1]),
                           np.concatenate([[tip.v], e.v[:n - 1]])])
    dz = z[1:] - z[:-1]
    alpha = (tau * dz).sum(axis=1) / (tau * tau).sum(axis=1)
    corr = dz - alpha[:, None] * tau
    gap = _anchor_rounding_gap(z[:-1], alpha, tau, corr, z[1:])
    lo, hi = float_matmat(tau[:, None, :], corr[:, :, None], corr[:, :, None])
    residual = np.maximum(np.abs(lo), np.abs(hi))[:, 0, 0]
    corr_norm = np.abs(corr).max(axis=1)
    prev = [tip] + boxes[:-1]
    return alpha, corr_norm, check_link(
        tau, np.array([b.delta_alpha for b in prev]), np.array([b.delta_u for b in prev]),
        alpha, corr_norm, np.array([b.delta_min for b in boxes]), gap, residual)


def _validate(wave: _Wave, rungs: np.ndarray) -> tuple[list, str]:
    """The boxes of the longest prefix of the wave that validates, each over
    the best of the Lipschitz boxes `rungs` (halving the smallest where all
    fail), and the stop reason that ends the branch after them, or ""."""
    try:
        boxes = validate_segment(wave.ext, wave.B, np.broadcast_to(rungs, (len(wave), len(rungs))),
                                 wave.first)
    except NotInvertibleEvidence as exc:
        boxes, end = _validate(wave.take(exc.index), rungs) if exc.index else ([], "")
        return boxes, end or f"degenerate: {exc}"
    for i, box in enumerate(boxes):
        h, halvings = rungs[0], 0
        while isinstance(box, ValidationFailed) and h >= 2.0 * _BOX_MIN:
            # segment i alone, over the halved box
            h, halvings = 0.5 * h, halvings + 1
            box = validate_segment(wave.ext[i:i + 1], wave.B[i:i + 1], [h], wave.first + i)[0]
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
    after max_steps boxes.  On return every box gets its stability label
    from one `stability_labels` call on one `evaluate` stack of the boxes'
    points."""
    res = BranchResult()
    t0, u0 = np.array([t0], dtype=float), np.array([u0], dtype=float)
    tip, m = None, _CHUNK_MIN
    while len(res.boxes) < max_steps:
        n = min(m, max_steps - len(res.boxes))
        try:
            wave = (_wave(system, 0, t0, u0, system.evaluate(t0, u0)[1], None, None)
                    if tip is None else
                    _place(system, tip, n, _trend(res.boxes), res.fold_index))
        except tuple(_PLACE_ERRORS) as exc:
            if tip is None or n == 1:
                res.stop_reason = f"{_PLACE_ERRORS[type(exc)]}: {exc}"
                break
            res.replans, m = res.replans + 1, 1
            continue
        res.waves += 1
        cut = _accept(system, wave, tip, to_R, res)
        if res.stop_reason:
            break
        tip = res.boxes[-1]
        if cut is None:
            m = min(2 * m, _CHUNK_MAX)
        else:
            res.replans += 1
            res.boxes_discarded += len(wave) - cut
            m = max(cut, _CHUNK_MIN)
    else:
        res.stop_reason = "max-steps"
    if res.boxes:
        t, u = np.array([b.t for b in res.boxes]), np.array([b.u for b in res.boxes])
        for box, label in zip(res.boxes, stability_labels(system, system.evaluate(t, u)[1])):
            box.stability = label
    return res


def _accept(system, wave: _Wave, tip: BranchBox | None, to_R: float,
            res: BranchResult) -> int | None:
    """Certify a wave placed after `tip` and append to `res` the boxes that
    validate, step and link; set `res.stop_reason` when the branch ends
    with them.  Returns the index
    of the anchor at which the wave was cut, or None."""
    # the branch ends at the first anchor past the fold at or above to_R
    R = system.R_of_t(wave.ext.t0)
    target = next((k for k in range(len(wave))
                   if wave.folds[k] is not None and R[k] >= to_R), None)
    if target is not None:
        wave = wave.take(target + 1)
    rungs = (_LADDER if tip is None
             else np.clip(tip.bounds.ell_x * np.array([0.5, 1.0, 2.0]), _BOX_MIN, _BOX_CAP))
    boxes, end = _validate(wave, rungs)
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
        res.boxes.append(box)
        res.fold_index = wave.folds[k]
        tip = box
        if k == target:
            res.stop_reason = "target"
    res.stop_reason = res.stop_reason or end
    return None
