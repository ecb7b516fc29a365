"""Certification of the saddle-node, Neimark-Sacker and transcritical
bifurcation points of the coral map.

The NS and SN points are isolated zeros of extended systems (fixed point
+ eigenpair + normalization rows); those zeros are certified with the
constructive implicit function theorem, after which the transversality
and nondegeneracy conditions are evaluated in interval arithmetic over
the certified enclosure.  The transcritical point on the extinction
branch has closed forms, which are still evaluated as intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cift
from .errors import (CertificationFailed, ConditionInconclusive, DomainError,
                     NotInvertibleEvidence, SpectrumInconclusive, ValidationFailed)
from .interval import (IArray, Interval, dot_seq, float_matmat, norm_inf, up_dot, up_mul,
                       up_sum, _dn2, _up2)
from .model import (CoralMap, FixedPointReduction, Row1Jet, _bisect, phi_derivs,
                    polyp_density, row1_d2, row1_d3)


# ---------------------------------------------------------------------------
# complex interval scalars/vectors (only what the conditions need)
# ---------------------------------------------------------------------------


class CI:
    """Rectangular complex interval re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval | float, im: Interval | float = 0.0):
        self.re = re if isinstance(re, Interval) else Interval(float(re))
        self.im = im if isinstance(im, Interval) else Interval(float(im))

    def __repr__(self) -> str:
        return f"CI({self.re!r}, {self.im!r})"

    def conj(self) -> "CI":
        return CI(self.re, -self.im)

    def __add__(self, o: "CI") -> "CI":
        return CI(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "CI") -> "CI":
        return CI(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "CI | Interval | float") -> "CI":
        if not isinstance(o, CI):
            return CI(self.re * o, self.im * o)
        return CI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o: "CI") -> "CI":
        den = o.re.sqr() + o.im.sqr()
        num = self * o.conj()
        return CI(num.re / den, num.im / den)

    def abs_hi(self) -> float:
        return (self.re.sqr() + self.im.sqr()).sqrt().hi


def atan2_enclosure(b: Interval, a: Interval) -> Interval:
    """Enclosure of atan2(b, a) for rectangles in the open upper half
    plane (extremes are attained at corners there)."""
    if not b.lo > 0.0:
        raise DomainError("atan2 enclosure requires b > 0")
    corners = [math.atan2(bb, aa) for bb in (b.lo, b.hi) for aa in (a.lo, a.hi)]
    return Interval(_dn2(min(corners)), _up2(max(corners)))


_PI_IV = Interval(math.pi, math.nextafter(math.pi, math.inf))
_RAD2DEG = Interval(180.0) / _PI_IV


# ---------------------------------------------------------------------------
# verified linear solves (Neumann-series enclosures)
# ---------------------------------------------------------------------------


def verified_solve(A: IArray, rhs: IArray, B: np.ndarray | None = None) -> IArray:
    """Enclosure of A^{-1} rhs for every A, rhs in the input enclosures."""
    if B is None:
        B = np.linalg.inv(A.mid)
    rho1 = cift.neumann_rho(A, B)
    Bb = float_matmat(B, rhs)
    r = ((Interval(rho1) * norm_inf(Bb)) / (Interval(1.0) - Interval(rho1))).hi
    return Bb.widened(r)


def _realify(re_m: IArray, im_m: IArray) -> IArray:
    n = re_m.shape[0]
    lo = np.empty((2 * n, 2 * n))
    hi = np.empty((2 * n, 2 * n))
    lo[:n, :n], hi[:n, :n] = re_m.lo, re_m.hi
    lo[n:, n:], hi[n:, n:] = re_m.lo, re_m.hi
    lo[:n, n:], hi[:n, n:] = -im_m.hi, -im_m.lo
    lo[n:, :n], hi[n:, :n] = im_m.lo, im_m.hi
    return IArray(lo, hi)


def verified_solve_complex(re_m: IArray, im_m: IArray,
                           rhs: list[CI]) -> list[CI]:
    """Enclosure of M^{-1} rhs for complex interval M via realification."""
    n = re_m.shape[0]
    rl = np.array([z.re.lo for z in rhs] + [z.im.lo for z in rhs])
    rh = np.array([z.re.hi for z in rhs] + [z.im.hi for z in rhs])
    sol = verified_solve(_realify(re_m, im_m), IArray(rl, rh))
    return [CI(sol[i], sol[n + i]) for i in range(n)]


# ---------------------------------------------------------------------------
# interval matrix assembly and row-1 contractions
# ---------------------------------------------------------------------------


def _put(lo: np.ndarray, hi: np.ndarray, index, v) -> None:
    """Store an Interval or IArray at lo/hi[index]."""
    lo[index], hi[index] = v.lo, v.hi


def _qb(coeffs, v) -> tuple:
    """(q.v, b.v) in the scalar type of v's entries (Interval or CI)."""
    qv, bv = coeffs.q[0] * v[0], coeffs.b[0] * v[0]
    for qk, bk, vk in zip(coeffs.q[1:], coeffs.b[1:], v[1:]):
        qv, bv = qv + qk * vk, bv + bk * vk
    return qv, bv


def _d2_row(coral: CoralMap, lam: Interval, phis, bx: Interval, y) -> IArray:
    """lam * D^2 g[y, e_k] for k = 1..d: row 1 of the x-derivative of
    D_x f y, in O(d) from q.y and b.y."""
    qy, by = _qb(coral.ci, y)
    return IArray.from_scalars(lam * row1_d2(phis, bx, qy, by, qk, bk)
                               for qk, bk in zip(coral.ci.q, coral.ci.b))


def _row1_jvp(coral: CoralMap, lam, x, coeffs, *vecs) -> list:
    """lam * Dg(x)[v] for each v: row 1 of D_x f v in the generic scalar
    type of the residuals (floats, Intervals or mpmath)."""
    P = polyp_density(x, coeffs)
    bx = sum((bk * xk for bk, xk in zip(coeffs.b, x)), 0.0 * P)
    ph, ph1 = phi_derivs(P, coral.params, order=1)
    g1 = [ph1 * qk * bx + ph * bk for qk, bk in zip(coeffs.q, coeffs.b)]
    return [sum((gj * vj for gj, vj in zip(g1, v)), 0.0 * lam) * lam for v in vecs]


def _g1_dot(jet: Row1Jet, y: IArray) -> Interval:
    """Dg[y] = sum_j g1_j y_j over the jet's box, summed in j order."""
    return dot_seq(jet.g1.lo, jet.g1.hi, y.lo, y.hi, start=Interval(0.0))


# ---------------------------------------------------------------------------
# extended systems
# ---------------------------------------------------------------------------


class _PointSystem:
    """Layout and evaluation shared by H_ns and H_sn.  `slots` holds the
    slice or position of each variable in z: split and join place the
    variables by it, and the Jacobian and Hessian builders their columns.

    Both systems share their first rows: rows 0..d-1 are the fixed-point
    rows f - x, and each eigenvector part y (the slots in `_eig`, in that
    order) owns the next d rows.  Their x and lambda columns are those of
    D_x f y and their y columns are D_x f - cI, c = `_shift(parts)` (None
    for c = 1: the block of the fixed-point rows, built once).  The
    subclass finishes the eigen rows with its own terms (`_rows` in the
    residual, where it also subtracts c y so that each row keeps its
    evaluation order; `_own_jac`, `_own_jac_iv` and `_own_hessian` in the
    derivatives) and appends its normalization rows."""

    slots: tuple
    _x: int                  # slot of x
    _lam: int                # slot of lambda
    _eig: tuple              # slots of the eigenvector parts

    def __init__(self, coral: CoralMap):
        self.coral = coral
        self.d = coral.d

    def split(self, z) -> tuple:
        """The variables of z (array, scalar list or IArray) in slot order."""
        return tuple(z[s] for s in self.slots)

    def join(self, *parts) -> np.ndarray:
        z = np.empty(self.dim)
        for s, part in zip(self.slots, parts, strict=True):
            z[s] = part
        return z

    def x_lam(self, z) -> tuple:
        return z[self.slots[self._x]], z[self.slots[self._lam]]

    def value(self, z: np.ndarray) -> np.ndarray:
        return np.array(self.value_scalars(np.asarray(z, dtype=float), self.coral.cf))

    def value_iv(self, z: IArray) -> IArray:
        return IArray.from_scalars(self.value_scalars(z.to_scalars(), self.coral.ci))

    def value_scalars(self, z: list, coeffs) -> list:
        """Generic-scalar evaluation (drives interval and mpmath paths):
        f - x, then the subclass's rows from D_x f y for each eigenvector y."""
        parts = self.split(z)
        x, lam = parts[self._x], parts[self._lam]
        S = self.coral.params.S
        f = self.coral.step_scalars(lam, x, coeffs)
        ys = [parts[k] for k in self._eig]
        jys = [[j0] + [S[i] * y[i] for i in range(self.d - 1)]
               for j0, y in zip(_row1_jvp(self.coral, lam, x, coeffs, *ys), ys)]
        return [fi - xi for fi, xi in zip(f, x)] + self._rows(parts, *jys)

    def jac(self, z: np.ndarray) -> np.ndarray:
        parts = self.split(np.asarray(z, dtype=float))
        x, lam = parts[self._x], parts[self._lam]
        d, cf = self.d, self.coral.cf
        bx = float(cf.b @ x)
        phis = phi_derivs(float(cf.q @ x), self.coral.params, order=2)
        g1 = phis[1] * cf.q * bx + phis[0] * cf.b
        A = self.coral.jac_x(lam, x)
        c = self._shift(parts)
        AmI = A - np.eye(d)
        AmC = AmI if c is None else A - c * np.eye(d)
        J = np.zeros((self.dim, self.dim))
        sx, sl = self.slots[self._x], self.slots[self._lam]
        J[:d, sx] = AmI
        J[0, sl] = phis[0] * bx
        for i, k in enumerate(self._eig, 1):
            y = parts[k]
            J[i * d, sx] = lam * row1_d2(phis, bx, cf.q @ y, cf.b @ y, cf.q, cf.b)
            J[i * d, sl] = g1 @ y
            J[i * d:(i + 1) * d, self.slots[k]] = AmC
        self._own_jac(J, parts)
        return J

    def jac_iv(self, z: IArray) -> IArray:
        parts, Z = self.split(z.to_scalars()), self.split(z)
        d, lam = self.d, parts[self._lam]
        jet = self.coral.row1_jet(Z[self._x], order=2)
        phis, bx = jet.phis, jet.bx
        A = self.coral.jac_x_iv(lam, jet)
        c = self._shift(parts)
        AmI = A.shifted(1.0)
        AmC = AmI if c is None else A.shifted(c)
        lo, hi = np.zeros((self.dim, self.dim)), np.zeros((self.dim, self.dim))
        sx, sl = self.slots[self._x], self.slots[self._lam]
        _put(lo, hi, (np.s_[:d], sx), AmI)
        _put(lo, hi, (0, sl), phis[0] * bx)
        for i, k in enumerate(self._eig, 1):
            _put(lo, hi, (i * d, sx), _d2_row(self.coral, lam, phis, bx, parts[k]))
            _put(lo, hi, (i * d, sl), _g1_dot(jet, Z[k]))
            _put(lo, hi, (np.s_[i * d:(i + 1) * d], self.slots[k]), AmC)
        self._own_jac_iv(lo, hi, parts, Z)
        return IArray(lo, hi)

    def hessian_sup(self, box: IArray) -> np.ndarray:
        parts, m = self.split(box), self.dim
        rb = self.coral.row1_bounds(parts[self._lam], parts[self._x])
        T = np.zeros((m, m, m))
        sx, sl = self.slots[self._x], self.slots[self._lam]
        lg2 = up_mul(rb.lam_mag, rb.g2)
        T[0, sx, sx] = lg2
        T[0, sl, sx] = T[0, sx, sl] = rb.g1
        for i, k in enumerate(self._eig, 1):
            r, sy, ymag = i * self.d, self.slots[k], parts[k].mag
            T[r, sx, sx] = up_mul(rb.lam_mag, rb.g3_contracted(ymag))
            T[r, sl, sx] = T[r, sx, sl] = up_mul(up_dot(ymag, rb.g2), 1.0)
            T[r, sy, sx] = lg2          # d2/dy_j dx_k = lam*g2[j,k]
            T[r, sx, sy] = lg2.T
            T[r, sl, sy] = T[r, sy, sl] = rb.g1
        self._own_hessian(T)
        return T


class NsSystem(_PointSystem):
    """H_ns(x, lambda, w, u, a, b) = 0 encodes a fixed point carrying a
    unit-norm complex eigenpair on the unit circle; dimension 3d + 3.
    Its eigen rows are D_x f w - a w + b u and D_x f u - b w - a u."""

    name = "neimark-sacker"
    kind = "neimark_sacker"
    on_circle = 2            # eigenvalues of D_x f on the unit circle
    jet_order = 3            # the row-1 jet order its conditions read
    _x, _lam, _eig = 0, 1, (2, 3)

    def __init__(self, coral: CoralMap):
        super().__init__(coral)
        d = self.d
        self.dim = 3 * d + 3
        # x | lambda | w | u | a | b
        self.slots = (slice(0, d), d, slice(d + 1, 2 * d + 1),
                      slice(2 * d + 1, 3 * d + 1), 3 * d + 1, 3 * d + 2)

    def _shift(self, parts):
        return parts[4]          # a

    def _rows(self, parts, jw: list, ju: list) -> list:
        *_, w, u, a, b = parts
        out = [jwi - a * wi + b * ui for jwi, wi, ui in zip(jw, w, u)]
        out += [jui - b * wi - a * ui for jui, wi, ui in zip(ju, w, u)]
        out.append(a * a + b * b - 1.0)
        out.append(sum((wi * wi for wi in w), 0.0 * a) - 1.0)
        out.append(sum((ui * ui for ui in u), 0.0 * a) - 1.0)
        return out

    def _own_jac(self, J: np.ndarray, parts) -> None:
        d = self.d
        *_, w, u, a, b = parts
        _, _, sw, su, sa, sb = self.slots
        r2, r3 = slice(d, 2 * d), slice(2 * d, 3 * d)
        J[r2, su] = b * np.eye(d)
        J[r2, sa] = -w
        J[r2, sb] = u
        J[r3, sw] = -b * np.eye(d)
        J[r3, sa] = -u
        J[r3, sb] = -w
        J[3 * d, sa] = 2 * a
        J[3 * d, sb] = 2 * b
        J[3 * d + 1, sw] = 2 * w
        J[3 * d + 2, su] = 2 * u

    def _own_jac_iv(self, lo: np.ndarray, hi: np.ndarray, parts, Z) -> None:
        d = self.d
        *_, a, b = parts
        _, _, W, U, _, _ = Z
        _, _, sw, su, sa, sb = self.slots
        r2, r3, i = slice(d, 2 * d), slice(2 * d, 3 * d), np.arange(d)
        _put(lo, hi, (d + i, su.start + i), b)
        _put(lo, hi, (r2, sa), -W)
        _put(lo, hi, (r2, sb), U)
        _put(lo, hi, (2 * d + i, sw.start + i), -b)
        _put(lo, hi, (r3, sa), -U)
        _put(lo, hi, (r3, sb), -W)
        _put(lo, hi, (3 * d, sa), 2.0 * a)
        _put(lo, hi, (3 * d, sb), 2.0 * b)
        _put(lo, hi, (3 * d + 1, sw), W * 2.0)
        _put(lo, hi, (3 * d + 2, su), U * 2.0)

    def _own_hessian(self, T: np.ndarray) -> None:
        d = self.d
        _, _, sw, su, sa, sb = self.slots
        c = np.arange(d)
        wc, uc = sw.start + c, su.start + c
        # bilinear -a*w + b*u and -b*w - a*u terms
        T[d + c, sa, wc] = T[d + c, wc, sa] = 1.0
        T[d + c, sb, uc] = T[d + c, uc, sb] = 1.0
        T[2 * d + c, sb, wc] = T[2 * d + c, wc, sb] = 1.0
        T[2 * d + c, sa, uc] = T[2 * d + c, uc, sa] = 1.0
        # normalization rows
        T[3 * d, sa, sa] = 2.0
        T[3 * d, sb, sb] = 2.0
        T[3 * d + 1, wc, wc] = 2.0
        T[3 * d + 2, uc, uc] = 2.0


class SnSystem(_PointSystem):
    """H_sn(x, v, lambda) = 0: fixed point with unit-norm kernel vector of
    D_xf - I; dimension 2d + 1."""

    name = "saddle-node"
    kind = "saddle_node"
    on_circle = 1            # eigenvalues of D_x f on the unit circle
    jet_order = 2            # the row-1 jet order its conditions read
    _x, _lam, _eig = 0, 2, (1,)

    def __init__(self, coral: CoralMap):
        super().__init__(coral)
        d = self.d
        self.dim = 2 * d + 1
        # x | v | lambda
        self.slots = (slice(0, d), slice(d, 2 * d), 2 * d)

    def _shift(self, parts) -> None:
        return None              # D_x f - I, as in the fixed-point rows

    def _rows(self, parts, jv: list) -> list:
        _, v, lam = parts
        out = [jvi - vi for jvi, vi in zip(jv, v)]
        out.append(sum((vi * vi for vi in v), 0.0 * lam) - 1.0)
        return out

    def _own_jac(self, J: np.ndarray, parts) -> None:
        J[2 * self.d, self.slots[1]] = 2 * parts[1]

    def _own_jac_iv(self, lo: np.ndarray, hi: np.ndarray, parts, Z) -> None:
        _put(lo, hi, (2 * self.d, self.slots[1]), Z[1] * 2.0)

    def _own_hessian(self, T: np.ndarray) -> None:
        vc = self.slots[1].start + np.arange(self.d)
        T[2 * self.d, vc, vc] = 2.0


# ---------------------------------------------------------------------------
# numerical anchors (non-rigorous seeds for the certifications)
# ---------------------------------------------------------------------------


def _newton_refine(system, z0: np.ndarray, tol: float = 1e-13,
                   max_iter: int = 50) -> np.ndarray:
    z = np.asarray(z0, dtype=float).copy()
    best = z.copy()
    best_r = math.inf
    for _ in range(max_iter):
        r = system.value(z)
        rn = float(np.max(np.abs(r)))
        if rn < best_r:
            best, best_r = z.copy(), rn
        if rn <= tol:
            return z
        z = z + np.linalg.solve(system.jac(z), -r)
    return best


def find_sn_anchor(coral: CoralMap) -> np.ndarray:
    """Seed for H_sn: the fold of the reduced branch (phi'(P) = 0)."""
    red = FixedPointReduction(coral)

    def dphi(y: float) -> float:
        return phi_derivs(y, coral.params, order=1)[1]

    lo, hi = 1.0, 5000.0
    if dphi(lo) <= 0 or dphi(hi) >= 0:
        raise CertificationFailed("could not bracket the fold of phi")
    x1 = _bisect(dphi, lo, hi) / red.cP
    lam = red.branch_lambda(x1)
    x = red.full_point(x1)
    A = coral.jac_x(lam, x)
    ev, vecs = np.linalg.eig(A)
    k = int(np.argmin(np.abs(ev - 1.0)))
    v = np.real(vecs[:, k])
    v = v / np.linalg.norm(v)
    if v[0] < 0:
        v = -v
    sn = SnSystem(coral)
    return _newton_refine(sn, sn.join(x, v, lam))


def find_ns_anchor(coral: CoralMap) -> np.ndarray:
    """Seed for H_ns: bisect the branch until the spectral radius crosses 1,
    then normalize the crossing eigenpair so |w| = |u| = 1."""
    red = FixedPointReduction(coral)

    def h(x1: float) -> float:
        lam = red.branch_lambda(x1)
        ev = np.linalg.eigvals(coral.jac_x(lam, red.full_point(x1)))
        return float(np.max(np.abs(ev))) - 1.0

    lo, hi = 800.0, 2600.0
    if h(lo) >= 0 or h(hi) <= 0:
        raise CertificationFailed("could not bracket the stability loss")
    x1 = _bisect(h, lo, hi)
    lam = red.branch_lambda(x1)
    x = red.full_point(x1)
    A = coral.jac_x(lam, x)
    ev, vecs = np.linalg.eig(A)
    cand = [i for i in range(len(ev)) if ev[i].imag < -1e-12]
    k = max(cand, key=lambda i: abs(ev[i]))
    mu = ev[k]                    # mu = a - i b with b > 0
    vec = vecs[:, k]
    u0, w0 = np.real(vec), np.imag(vec)
    # rotate the phase so that |u| = |w|, then scale both to unit norm
    delta = float(u0 @ u0 - w0 @ w0)
    cross = float(u0 @ w0)
    phl = 0.5 * math.atan2(delta, 2.0 * cross)
    cu, su = math.cos(phl), math.sin(phl)
    u1 = cu * u0 - su * w0
    w1 = su * u0 + cu * w0
    u1 /= np.linalg.norm(u1)
    w1 /= np.linalg.norm(w1)
    a0, b0 = mu.real, -mu.imag
    nrm = math.hypot(a0, b0)
    a0, b0 = a0 / nrm, b0 / nrm
    if b0 < 0:
        b0, w1 = -b0, -w1
    ns = NsSystem(coral)
    return _newton_refine(ns, ns.join(x, lam, w1, u1, a0, b0))


# ---------------------------------------------------------------------------
# verified spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """The Gershgorin disks of the similarity-conjugated Jacobian enclosure:
    how many lie strictly inside the unit disk, and whether the rest are
    separated from every other disk."""

    count_inside: int
    outliers_separated: bool


def verified_spectrum_inside_disk(A: IArray, exclude: int = 2) -> SpectrumResult:
    """Count eigenvalues rigorously strictly inside the unit disk.

    Conjugates the enclosure by the numerical eigenvector matrix, bounds
    the Neumann correction for the inexact inverse, and applies Gershgorin
    to the result.  At most `exclude` disks may fail the strict test; they
    must be disjoint from every other disk so that the usual Gershgorin
    counting argument pins one eigenvalue in each.
    """
    n = A.shape[0]
    ev, V = np.linalg.eig(A.mid)
    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SpectrumInconclusive(f"eigenvector matrix singular: {exc}") from exc

    AVr = float_matmat(np.real(V).T, A.T).T
    AVi = float_matmat(np.imag(V).T, A.T).T
    Wr, Wi = np.real(W), np.imag(W)
    Yre = float_matmat(Wr, AVr) - float_matmat(Wi, AVi)
    Yim = float_matmat(Wr, AVi) + float_matmat(Wi, AVr)
    # Z = W V computed rigorously from the float factors
    Vr_iv, Vi_iv = IArray.point(np.real(V)), IArray.point(np.imag(V))
    Zre = float_matmat(Wr, Vr_iv) - float_matmat(Wi, Vi_iv)
    Zim = float_matmat(Wr, Vi_iv) + float_matmat(Wi, Vr_iv)
    Nre = -Zre.shifted(1.0)           # I - Z
    Nim = -Zim
    # |N| and |Y| in the complex row-sum norm, via |z| <= |re| + |im|
    nmag = Nre.mag + Nim.mag
    ymag = Yre.mag + Yim.mag
    n_norm = float(np.max(up_sum(nmag, axis=1)))
    if not n_norm < 1.0:
        raise SpectrumInconclusive(f"similarity too ill-conditioned: |I-WV| >= {n_norm}")
    y_norm = float(np.max(up_sum(ymag, axis=1)))
    corr = ((Interval(y_norm) * Interval(n_norm))
            / (Interval(1.0) - Interval(n_norm))).hi

    radii, inside = [], []
    for i in range(n):
        offdiag = float(up_sum(np.delete(ymag[i], i)))
        rad = (Interval(offdiag) + Interval(corr)).hi
        radii.append(rad)
        if (Interval(CI(Yre[i, i], Yim[i, i]).abs_hi()) + Interval(rad)).hi < 1.0:
            inside.append(i)
    outliers = tuple(i for i in range(n) if i not in inside)
    if len(outliers) > exclude:
        raise SpectrumInconclusive(
            f"{len(outliers)} disks fail the strict unit-disk test, "
            f"only {exclude} allowed")

    def disjoint(i: int, j: int) -> bool:
        # the true Gershgorin disks are contained in disk(Y_ii, radii[i])
        dre = Yre[i, i] - Yre[j, j]
        dim_ = Yim[i, i] - Yim[j, j]
        dist_lo = (dre.sqr() + dim_.sqr()).sqrt().lo
        return dist_lo > (Interval(radii[i]) + Interval(radii[j])).hi

    separated = all(disjoint(i, j) for i in outliers for j in range(n) if j != i)
    return SpectrumResult(count_inside=len(inside), outliers_separated=separated)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BifCertificate:
    """Interval certificate for one bifurcation point."""

    kind: str
    anchor: tuple[float, ...]
    enclosure_lo: tuple[float, ...]
    enclosure_hi: tuple[float, ...]
    delta_accuracy: float
    delta_uniqueness: float
    conditions: dict[str, tuple[float, float]]
    spectrum_inside: int
    summary: dict[str, float]
    base: cift.Certificate


# ---------------------------------------------------------------------------
# Neimark-Sacker conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NsBoxData:
    """Interval data shared by the NS conditions (c) and (e) over a
    certified box, built once by ns_box_data."""

    lam: Interval
    a: Interval
    b: Interval
    A: IArray            # D_x f over the box
    g1: list             # dg/dx_j
    phis: tuple          # phi .. phi''' at P = q.x
    bx: Interval         # b.x
    q: list[CI]          # right eigenvector, A q = e^{i theta0} q
    r: list[CI]          # r = conj(p), normalized so that <p, q> = r^t q = 1


def _ns_left_row(coral: CoralMap, A_iv: IArray, a: Interval, b: Interval,
                 box_mid: np.ndarray) -> list[CI]:
    """Enclosure of r = conj(p): the row vector with r^t A = e^{i theta0} r^t,
    normalized by a numerical pinning row (renormalized by callers)."""
    d = coral.d
    # N = A^t - (a + i b) I; bordered with c = u0 + i w0 (approximate null
    # vector of N^H) and a pinning row from the numerical left eigenvector.
    _, _, w0, u0, a0, b0 = NsSystem(coral).split(box_mid)
    ev, vecs = np.linalg.eig(A_iv.T.mid)
    k = int(np.argmin(np.abs(ev - (a0 + 1j * b0))))
    r0 = vecs[:, k]
    pin = np.conj(r0) / float(np.vdot(r0, r0).real)
    c_col = u0 + 1j * w0

    n = d + 1
    re_lo, re_hi, im_lo, im_hi = (np.zeros((n, n)) for _ in range(4))
    _put(re_lo, re_hi, np.s_[:d, :d], A_iv.T.shifted(a))
    _put(im_lo, im_hi, (np.arange(d), np.arange(d)), -b)
    re_lo[:d, d] = re_hi[:d, d] = c_col.real
    im_lo[:d, d] = im_hi[:d, d] = c_col.imag
    re_lo[d, :d] = re_hi[d, :d] = pin.real
    im_lo[d, :d] = im_hi[d, :d] = pin.imag
    rhs = [CI(0.0, 0.0) for _ in range(n)]
    rhs[d] = CI(1.0, 0.0)
    sol = verified_solve_complex(IArray(re_lo, re_hi), IArray(im_lo, im_hi), rhs)
    return sol[:d]


def ns_box_data(coral: CoralMap, box: IArray, A_iv: IArray, jet: Row1Jet) -> NsBoxData:
    """The NS condition data over a certified box, given the order-3 row-1
    jet of its x part and the D_x f enclosure built from it."""
    _, lam, w, u, a, b = NsSystem(coral).split(box.to_scalars())
    q = [CI(ui, -wi) for ui, wi in zip(u, w)]
    r = _ns_left_row(coral, A_iv, a, b, box.mid)
    z = sum((ri * qi for ri, qi in zip(r, q)), CI(0.0))
    if (z.re.sqr() + z.im.sqr()).lo <= 0.0:
        raise ConditionInconclusive("<p, q> enclosure touches zero")
    return NsBoxData(lam=lam, a=a, b=b, A=A_iv, g1=jet.g1.to_scalars(),
                     phis=jet.phis, bx=jet.bx, q=q, r=[ri / z for ri in r])


def ns_condition_c_pair(coral: CoralMap, data: NsBoxData) -> tuple[Interval, Interval]:
    """Transversality values Re(e^{-i theta0} <p, dA/dlambda q>): the total
    branch derivative dA/dlambda = D_{x lambda} f + D_{xx} f [x0'(lambda), .]
    (equal to d|mu|/dlambda along the branch) and, for cross-checking
    against other implementations, the version using only the explicit
    part D_{x lambda} f.  Returns (total, explicit_only)."""
    d = coral.d
    # x0'(lambda) = -(A - I)^{-1} D_lambda f
    lo, hi = np.zeros(d), np.zeros(d)
    _put(lo, hi, 0, data.phis[0] * data.bx)
    x0p = -verified_solve(data.A.shifted(1.0), IArray(lo, hi))
    chain = _d2_row(coral, data.lam, data.phis, data.bx, x0p.to_scalars()).to_scalars()
    pref = CI(data.a, -data.b) * data.r[0]

    def contract(row: list[Interval]) -> Interval:
        return (pref * sum((c * qj for c, qj in zip(row, data.q)), CI(0.0))).re

    total = contract([gj + cj for gj, cj in zip(data.g1, chain)])
    explicit = contract(data.g1)
    return total, explicit


def ns_condition_d(coral: CoralMap, box: IArray) -> tuple[Interval, dict[str, bool]]:
    """Resonance exclusion: theta0 avoids the k-th roots of unity, k <= 4.

    Returns the enclosure of theta0 in degrees plus per-angle verdicts
    (0 and 180 follow from the verified sign of sin theta0)."""
    *_, a, b = NsSystem(coral).split(box)
    if not b.lo > 0.0:
        raise ConditionInconclusive("sin(theta0) enclosure not positive")
    theta = atan2_enclosure(b, a) * _RAD2DEG
    checks = {
        "theta0 != 0 (k=1)": b.lo > 0.0,
        "theta0 != 180 (k=2)": b.lo > 0.0,
        "theta0 != 120 (k=3)": not (120.0 in theta),
        "theta0 != 90 (k=4)": not (90.0 in theta),
    }
    return theta, checks


def ns_condition_e(coral: CoralMap, data: NsBoxData) -> Interval:
    """Cubic normal-form coefficient (sign decides super/subcritical)."""
    d = coral.d
    lam, phis, bx, q = data.lam, data.phis, data.bx, data.q
    qbar = [z.conj() for z in q]
    Q, Qbar = _qb(coral.ci, q), _qb(coral.ci, qbar)

    def B1(y: tuple, z: tuple) -> CI:
        """Row 1 of B(y, z) from the (q.y, b.y) and (q.z, b.z) pairs."""
        return lam * row1_d2(phis, bx, *y, *z)

    term_c = lam * row1_d3(phis, bx, *Q, *Q, *Qbar)

    # (I - A)^{-1} B(q, qbar): real matrix, complex right-hand side
    ImA = -data.A.shifted(1.0)
    beta1 = B1(Q, Qbar)
    B_pre = np.linalg.inv(ImA.mid)
    e1 = np.zeros(d)
    e1[0] = 1.0
    z1_re = verified_solve(ImA, IArray.point(e1) * beta1.re, B_pre)
    z1_im = verified_solve(ImA, IArray.point(e1) * beta1.im, B_pre)
    z1 = [CI(re, im) for re, im in zip(z1_re.to_scalars(), z1_im.to_scalars())]
    term_b2 = B1(Q, _qb(coral.ci, z1))

    # (e^{2 i theta0} I - A)^{-1} B(q, q): genuinely complex solve
    mu2 = CI(data.a, data.b) * CI(data.a, data.b)
    im_lo, im_hi = np.zeros((d, d)), np.zeros((d, d))
    _put(im_lo, im_hi, (np.arange(d), np.arange(d)), mu2.im)
    rhs = [CI(0.0, 0.0) for _ in range(d)]
    rhs[0] = B1(Q, Q)
    z2 = verified_solve_complex(-data.A.shifted(mu2.re), IArray(im_lo, im_hi), rhs)
    term_b3 = B1(Qbar, _qb(coral.ci, z2))

    total = term_c + CI(2.0 * term_b2.re, 2.0 * term_b2.im) + term_b3
    val = CI(data.a, -data.b) * data.r[0] * total
    return val.re


def certify_ns(coral: CoralMap, anchor: np.ndarray | None = None,
               ell: float = 1e-6) -> BifCertificate:
    """Full Neimark-Sacker certification: CIFT zero of H_ns, orientation of
    (a, b), verified spectrum count, and interval conditions (c), (d), (e)."""
    ns = NsSystem(coral)

    def orientation(box: IArray) -> None:
        *_, a_iv, b_iv = ns.split(box)
        if not b_iv.lo > 0.0:
            raise CertificationFailed("stage orientation: sin(theta0) not verified positive")
        if 1.0 not in a_iv.sqr() + b_iv.sqr():
            raise CertificationFailed("stage orientation: a^2 + b^2 enclosure misses 1")

    def conditions(box: IArray, A_iv: IArray, jet: Row1Jet) -> tuple[dict, dict]:
        data = ns_box_data(coral, box, A_iv, jet)
        cond_c, cond_c_explicit = ns_condition_c_pair(coral, data)
        theta, angle_checks = ns_condition_d(coral, box)
        cond_e = ns_condition_e(coral, data)
        if cond_c.contains_zero() or cond_c_explicit.contains_zero():
            raise CertificationFailed(f"stage condition (c): interval {cond_c} "
                                      f"or {cond_c_explicit} contains 0")
        if not all(angle_checks.values()):
            raise CertificationFailed(f"stage condition (d): {angle_checks}")
        if cond_e.contains_zero():
            raise CertificationFailed(f"stage condition (e): interval {cond_e} contains 0")
        return {
            "c_transversality_total": (cond_c.lo, cond_c.hi),
            "c_transversality": (cond_c_explicit.lo, cond_c_explicit.hi),
            "d_theta0_deg": (theta.lo, theta.hi),
            "e_normal_form": (cond_e.lo, cond_e.hi),
        }, {"theta0_deg": theta.mid}

    if anchor is None:
        anchor = find_ns_anchor(coral)
    return _certify(ns, anchor, ell, conditions, orientation)


# ---------------------------------------------------------------------------
# saddle-node conditions and certification
# ---------------------------------------------------------------------------


def _sn_left_vector(coral: CoralMap, A_iv: IArray, v_mid: np.ndarray) -> IArray:
    """Enclosure of the left kernel vector p of (A - I), pinned by a
    numerical normalization row (callers renormalize to p^t q = 1)."""
    d = coral.d
    N_mid = A_iv.mid.T - np.eye(d)
    ev, vecs = np.linalg.eig(N_mid)
    k = int(np.argmin(np.abs(ev)))
    p0 = np.real(vecs[:, k])
    pin = p0 / float(p0 @ p0)
    n = d + 1
    lo, hi = np.zeros((n, n)), np.zeros((n, n))
    _put(lo, hi, np.s_[:d, :d], A_iv.T.shifted(1.0))
    lo[:d, d] = hi[:d, d] = v_mid
    lo[d, :d] = hi[d, :d] = pin
    rhs = np.zeros(n)
    rhs[d] = 1.0
    return verified_solve(IArray(lo, hi), IArray.point(rhs))[:d]


def sn_conditions(coral: CoralMap, box: IArray, A_iv: IArray,
                  jet: Row1Jet) -> tuple[Interval, Interval]:
    """(c) p^t D_lambda f and (d) p^t B(q, q) over the certified box, with
    q = v and p normalized so that p^t q = 1; `jet` is the order-2 row-1
    jet of the box's x part and A_iv the D_x f enclosure built from it.

    The certified kernel vector fixes an arbitrary sign; the returned
    values use the orientation that makes (c) negative (only the product
    (c)*(d) is orientation invariant)."""
    sn = SnSystem(coral)
    _, v, lam = sn.split(box.to_scalars())
    phis, bx = jet.phis, jet.bx

    ps = _sn_left_vector(coral, A_iv, sn.split(box.mid)[1]).to_scalars()
    z = sum((pi * vi for pi, vi in zip(ps, v)), Interval(0.0))
    if z.contains_zero():
        raise ConditionInconclusive("p^t q enclosure touches zero")
    ps = [pi / z for pi in ps]

    cond_c = ps[0] * (phis[0] * bx)
    qv, bv = _qb(coral.ci, v)
    cond_d = ps[0] * (lam * row1_d2(phis, bx, qv, bv, qv, bv))

    if cond_c.mid > 0.0:
        cond_c, cond_d = -cond_c, -cond_d
    return cond_c, cond_d


def certify_sn(coral: CoralMap, anchor: np.ndarray | None = None,
               ell: float = 1e-6) -> BifCertificate:
    """Saddle-node certification: CIFT zero of H_sn, simple-eigenvalue-1
    verification, and interval conditions (c), (d)."""

    def conditions(box: IArray, A_iv: IArray, jet: Row1Jet) -> tuple[dict, dict]:
        cond_c, cond_d = sn_conditions(coral, box, A_iv, jet)
        if cond_c.contains_zero():
            raise CertificationFailed(f"stage condition (c): interval {cond_c} contains 0")
        if cond_d.contains_zero():
            raise CertificationFailed(f"stage condition (d): interval {cond_d} contains 0")
        return {"c_transversality": (cond_c.lo, cond_c.hi),
                "d_nondegeneracy": (cond_d.lo, cond_d.hi)}, {}

    if anchor is None:
        anchor = find_sn_anchor(coral)
    return _certify(SnSystem(coral), anchor, ell, conditions)


def _certify(system: "NsSystem | SnSystem", anchor: np.ndarray, ell: float,
             conditions, orientation=None) -> BifCertificate:
    """The stages shared by the SN and NS certifications, in this order:

    1. cift: a CIFT zero of the extended system near `anchor`;
    2. `orientation(box)`, if given, on the certified box;
    3. spectrum: all but `system.on_circle` eigenvalues of D_x f over the
       box lie strictly inside the unit disk, the rest in separated disks;
    4. `conditions(box, A_iv, jet)`, which checks the point's own
       conditions and returns them with any extra summary entries; `jet`
       is the row-1 jet of the box's x part at `system.jet_order`, and
       A_iv the D_x f enclosure built from it.

    A failed stage raises CertificationFailed naming the stage."""
    coral, d = system.coral, system.d
    try:
        base = cift.validate_zero(system, anchor, ell)
    except (ValidationFailed, DomainError) as exc:
        raise CertificationFailed(f"stage cift: {exc}") from exc
    anchor = np.asarray(anchor, float)
    box = IArray.around(anchor, base.delta_accuracy)
    if orientation is not None:
        orientation(box)

    x_box, lam_iv = system.x_lam(box)
    jet = coral.row1_jet(x_box, order=system.jet_order)
    A_iv = coral.jac_x_iv(lam_iv, jet)
    n_circle = system.on_circle
    try:
        spec = verified_spectrum_inside_disk(A_iv, exclude=n_circle)
    except SpectrumInconclusive as exc:
        raise CertificationFailed(f"stage spectrum: {exc}") from exc
    if spec.count_inside != d - n_circle or not spec.outliers_separated:
        raise CertificationFailed(
            f"stage spectrum: {spec.count_inside} eigenvalues inside, "
            f"separated={spec.outliers_separated}")

    try:
        conds, extra = conditions(box, A_iv, jet)
    except (ConditionInconclusive, NotInvertibleEvidence) as exc:
        raise CertificationFailed(f"stage conditions: {exc}") from exc

    x0, lam0 = system.x_lam(anchor)
    lam0 = float(lam0)
    summary = {
        "R": coral.cf.ba * lam0,
        "lambda": lam0,
        "x1": float(x0[0]),
        "P": float(coral.cf.q @ x0),
        **extra,
        "rho": base.rho,
        "K": base.K,
        "L1": base.L1,
    }
    return BifCertificate(
        kind=system.kind,
        anchor=tuple(float(v) for v in anchor),
        enclosure_lo=tuple(float(v) for v in box.lo),
        enclosure_hi=tuple(float(v) for v in box.hi),
        delta_accuracy=base.delta_accuracy,
        delta_uniqueness=base.delta_uniqueness,
        conditions=conds,
        spectrum_inside=spec.count_inside,
        summary=summary,
        base=base,
    )


# ---------------------------------------------------------------------------
# transcritical point (closed form, interval-verified)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranscriticalResult:
    """The extinction-branch bifurcation data, everything as enclosures."""

    R_star: Interval
    lambda_star: Interval
    v: tuple[Interval, ...]       # right eigenvector = survival products a
    w: tuple[Interval, ...]       # left eigenvector (backward recursion)
    nd1: Interval                 # w^t D_{x lambda} f v
    nd2: Interval                 # w^t D_{xx} f [v, v]
    eigvec_residual: float        # |(D_x f(lambda*, 0) - I) a|_inf / |a|_inf
    kind: str = field(default="transcritical", init=False)


def transcritical_analysis(params=None) -> TranscriticalResult:
    """Closed-form transcritical point on the extinction branch:
    R* = c2/c1, lambda* = R*/(b.a), with both nondegeneracy values as
    intervals that must exclude zero."""
    coral = CoralMap(params) if params is None or not isinstance(params, CoralMap) \
        else params
    p = coral.params
    ci = coral.ci
    d = coral.d
    R_star = Interval(p.c2) / Interval(p.c1)
    lam_star = R_star / ci.ba

    # left eigenvector: w_d = b_d, w_k = b_k + S_k w_{k+1}, w_1 = b.a
    w_iv = [Interval(0.0)] * d
    w_iv[d - 1] = ci.b[d - 1]
    for k in range(d - 2, 0, -1):
        w_iv[k] = ci.b[k] + Interval(p.S[k]) * w_iv[k + 1]
    w_iv[0] = ci.ba

    c_ratio = Interval(p.c1) / Interval(p.c2)
    nd1 = w_iv[0] * c_ratio * ci.ba
    nd2 = w_iv[0] * ((2.0 * (Interval(p.beta) - Interval(p.alpha)))
                     / Interval(p.omega)) * ci.sum_pa

    lam0 = float(p.c2 / p.c1 / coral.cf.ba)
    res = coral.jac_x(lam0, np.zeros(d)) - np.eye(d)
    resid = float(np.max(np.abs(res @ coral.cf.a)) / np.max(np.abs(coral.cf.a)))
    return TranscriticalResult(R_star=R_star, lambda_star=lam_star, v=tuple(ci.a),
                               w=tuple(w_iv), nd1=nd1, nd2=nd2, eigvec_residual=resid)
