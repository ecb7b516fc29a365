"""Certification of the saddle-node, Neimark-Sacker and transcritical
bifurcation points of the coral map.

The NS and SN points are isolated zeros of extended systems (fixed point
+ eigenpair + normalization rows); those zeros are certified with the
constructive implicit function theorem, after which the spectrum and
the transversality and nondegeneracy conditions are evaluated in
interval arithmetic over the certified enclosure.  D_x f is a Leslie
matrix, so none of them forms a matrix: the spectrum is a Schur-Cohn
count on its characteristic polynomial with the root on the circle
divided out, the left eigenvector is a backward recursion (Fisher's
reproductive value), and since only row 1 of f is nonlinear, every
right-hand side is a multiple of e_1, whose resolvent is a forward
recursion divided by one scalar.  The transcritical point on the
extinction branch has closed forms, which are still evaluated as
intervals.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import cift
from .errors import (CertificationFailed, ConditionInconclusive, DomainError,
                     SpectrumInconclusive, ValidationFailed)
from .interval import Interval, _dn, _dn2, _up, _up2, around, up_dot, up_mul
from .model import (CoralMap, FixedPointReduction, Row1Jet, _bisect, phi_derivs,
                    polyp_density, row1_d2, row1_d3, schur_cohn_inside)


# ---------------------------------------------------------------------------
# complex interval scalars/vectors (only what the conditions need)
# ---------------------------------------------------------------------------


class CI:
    """Rectangular complex interval re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval | float, im: Interval | float = 0.0):
        self.re = re if isinstance(re, Interval) else Interval(float(re))
        self.im = im if isinstance(im, Interval) else Interval(float(im))

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

    def __truediv__(self, o: "CI | Interval") -> "CI":
        if not isinstance(o, CI):
            return CI(self.re / o, self.im / o)
        den = o.re.sqr() + o.im.sqr()
        num = self * o.conj()
        return CI(num.re / den, num.im / den)


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
# the Leslie form of D_x f: left eigenvectors and resolvents in closed form
# ---------------------------------------------------------------------------
#
# D_x f is a Leslie matrix A: its first row A1 is the only nonlinear row,
# and below it stands the subdiagonal of survival rates S.  Both helpers
# take the scalars of A1 (and mu, z, c) as Interval or CI and the float S;
# over enclosures of their inputs they enclose what the same recursions
# give at every point in them.  mu or z None stands for 1, where nothing
# is divided.


def leslie_left(A1: list, S, mu=None) -> list:
    """The left eigenvector r, r^t A = mu r^t with r_1 = 1, for an
    eigenvalue mu of A: r_d = A1_d / mu and r_j = (A1_j + S_j r_{j+1}) / mu
    (Fisher's reproductive value).  The first column of r^t A = mu r^t is
    the characteristic equation, which holds at an eigenvalue, and r_1 = 0
    would force r = 0, so the scaling r_1 = 1 loses nothing.  A1 and mu
    share one scalar type."""
    r = [A1[-1] if mu is None else A1[-1] / mu]
    for a, s in zip(A1[-2:0:-1], S[-1:0:-1]):
        t = a + s * r[0]
        r.insert(0, t if mu is None else t / mu)
    return [type(A1[0])(1.0)] + r


def leslie_resolvent(A1: list, S, c, z=None) -> list:
    """y = (zI - A)^{-1} c e_1 = c rho / (z - A1.rho): rows 2..d of
    (zI - A) y = c e_1 give y = y_1 rho with rho_1 = 1 and rho_k =
    rho_{k-1} S_{k-1} / z, and row 1 gives y_1.  The denominator vanishes
    only where z is an eigenvalue of A; an enclosure of it that holds 0
    raises DomainError."""
    one = Interval(1.0) if z is None else type(z)(1.0)
    rho = [one]
    for s in S:
        rho.append(rho[-1] * s if z is None else rho[-1] * s / z)
    den = one if z is None else z
    for a, p in zip(A1, rho):
        den = den - p * a
    y1 = c / den
    return [y1 * p for p in rho]


@contextmanager
def _quantity(name: str):
    """A divisor enclosure that holds 0 while `name` is computed becomes
    ConditionInconclusive naming it."""
    try:
        yield
    except DomainError as exc:
        raise ConditionInconclusive(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# interval matrix assembly and row-1 contractions
# ---------------------------------------------------------------------------


def _put(lo: np.ndarray, hi: np.ndarray, index, v) -> None:
    """Store an Interval, or a list of them, at lo/hi[index]."""
    if isinstance(v, Interval):
        lo[index], hi[index] = v.lo, v.hi
    else:
        lo[index], hi[index] = [e.lo for e in v], [e.hi for e in v]


def _qb(coeffs, v) -> tuple:
    """(q.v, b.v) in the scalar type of v's entries (Interval or CI)."""
    qv, bv = coeffs.q[0] * v[0], coeffs.b[0] * v[0]
    for qk, bk, vk in zip(coeffs.q[1:], coeffs.b[1:], v[1:]):
        qv, bv = qv + qk * vk, bv + bk * vk
    return qv, bv


def _d2_row(coral: CoralMap, lam: Interval | float, phis, bx: Interval, y) -> list:
    """lam * D^2 g[y, e_k] for k = 1..d: row 1 of the x-derivative of
    D_x f y, in O(d) from q.y and b.y (y of Interval or float entries)."""
    qy, by = _qb(coral.ci, y)
    return [lam * row1_d2(phis, bx, qy, by, qk, bk) for qk, bk in zip(coral.ci.q, coral.ci.b)]


def _row1_jvp(coral: CoralMap, lam, x, coeffs, *vecs) -> list:
    """lam * Dg(x)[v] for each v: row 1 of D_x f v in the generic scalar
    type of the residuals (floats, Intervals or mpmath)."""
    P = polyp_density(x, coeffs)
    bx = sum((bk * xk for bk, xk in zip(coeffs.b, x)), 0.0 * P)
    ph, ph1 = phi_derivs(P, coral.params, order=1)
    g1 = [ph1 * qk * bx + ph * bk for qk, bk in zip(coeffs.q, coeffs.b)]
    return [sum((gj * vj for gj, vj in zip(g1, v)), 0.0 * lam) * lam for v in vecs]


def _g1_dot(jet: Row1Jet, y: list) -> Interval:
    """Dg[y] = sum_j g1_j y_j over the jet's box (y of Interval or float
    entries), summed in j order."""
    return sum((gj * yj for gj, yj in zip(jet.g1, y)), Interval(0.0))


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
    evaluation order; `_own_jac` and `_own_hessian` in the derivatives)
    and appends its normalization rows."""

    slots: tuple
    _x: int                  # slot of x
    _lam: int                # slot of lambda
    _eig: tuple              # slots of the eigenvector parts

    def __init__(self, coral: CoralMap):
        self.coral = coral
        self.d = coral.d

    def split(self, z) -> tuple:
        """The variables of z (array or scalar list) in slot order."""
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

    def value_iv(self, z: list[Interval]) -> list[Interval]:
        return self.value_scalars(z, self.coral.ci)

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
        A = np.diag(np.asarray(self.coral.params.S, dtype=float), -1)
        A[0] = lam * g1            # D_x f: row 1 from g1, the survival rates below
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

    def jac_iv(self, z0: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """An enclosure of DH(z0) at the float point z0, as endpoint arrays,
        from J = `jac(z0)`: J with the rows that carry row 1 of D_x f (row 0
        and the first row of each eigen block) enclosed from one order-2
        row-1 jet.  Only row 1 of the map is nonlinear, so every other entry
        of `jac` is exact: the survival rates S_k, -1 and -c (-a for NS) on
        the diagonals, and the subclass's terms, entries of z0 (+-b, +-w,
        +-u) or their doublings (2a, 2b, 2w, 2u, 2v), which no rounding
        moves."""
        lo, hi = J.copy(), J.copy()
        parts = self.split(np.asarray(z0, dtype=float).tolist())
        d, lam, c = self.d, parts[self._lam], self._shift(parts)
        jet = self.coral.row1_jet(parts[self._x], order=2)
        row = [g * lam for g in jet.g1]          # row 1 of D_x f
        sx, sl = self.slots[self._x], self.slots[self._lam]
        _put(lo, hi, (0, sx), [row[0] - 1.0] + row[1:])
        _put(lo, hi, (0, sl), jet.g)
        for j, k in enumerate(self._eig, 1):
            _put(lo, hi, (j * d, sx), _d2_row(self.coral, lam, jet.phis, jet.bx, parts[k]))
            _put(lo, hi, (j * d, sl), _g1_dot(jet, parts[k]))
            _put(lo, hi, (j * d, self.slots[k]), [row[0] - (1.0 if c is None else c)] + row[1:])
        return lo, hi

    def hessian_sup(self, box: list[Interval]) -> np.ndarray:
        parts, m = self.split(box), self.dim
        rb = self.coral.row1_bounds(parts[self._lam], parts[self._x])
        T = np.zeros((m, m, m))
        sx, sl = self.slots[self._x], self.slots[self._lam]
        lg2 = up_mul(rb.lam_mag, rb.g2)
        T[0, sx, sx] = lg2
        T[0, sl, sx] = T[0, sx, sl] = rb.g1
        for i, k in enumerate(self._eig, 1):
            r, sy, ymag = i * self.d, self.slots[k], np.array([v.mag for v in parts[k]])
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

    def _own_hessian(self, T: np.ndarray) -> None:
        vc = self.slots[1].start + np.arange(self.d)
        T[2 * self.d, vc, vc] = 2.0


# ---------------------------------------------------------------------------
# numerical anchors (non-rigorous seeds for the certifications)
# ---------------------------------------------------------------------------


def _newton_refine(system, z0: np.ndarray, tol: float = 1e-13,
                   max_iter: int = 50) -> np.ndarray:
    """Newton on `system` from z0, stopped at the first iterate whose
    residual is at most `tol` or that fails to halve the best residual so
    far; past that point the steps only move z about the rounding floor of
    the residual, a few ulps of x.  Returns the best iterate."""
    z = np.asarray(z0, dtype=float).copy()
    best, best_r = z, math.inf
    for _ in range(max_iter):
        r = system.value(z)
        rn = float(np.max(np.abs(r)))
        halved = rn <= 0.5 * best_r
        if rn < best_r:
            best, best_r = z, rn
        if not halved or rn <= tol:
            break
        z = z + np.linalg.solve(system.jac(z), -r)
    return best


def _illinois(h, lo: float, hi: float, rtol: float) -> float:
    """A root of h in [lo, hi], where h(lo) < 0 < h(hi), by the Illinois
    regula falsi (Dowell and Jarratt, BIT 11, 1971): the secant point of
    the bracket, with the value at an end that is kept twice in a row
    halved, so that both ends converge.  It returns the last point
    evaluated once the bracket is narrower than rtol times that point."""
    flo, fhi = h(lo), h(hi)
    if not flo < 0.0 < fhi:
        raise CertificationFailed("could not bracket the stability loss")
    kept = 0                      # -1: lo kept last time, +1: hi kept
    for _ in range(100):
        c = hi - fhi * (hi - lo) / (fhi - flo)
        fc = h(c)
        if fc < 0.0:
            lo, flo = c, fc
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = c, fc
            if kept == -1:
                flo *= 0.5
            kept = -1
        if fc == 0.0 or hi - lo <= rtol * abs(c):
            break
    return c


def find_sn_anchor(coral: CoralMap) -> np.ndarray:
    """Seed for H_sn: the fold of the reduced branch, phi'(P) = 0, bisected
    to float precision (phi' is a cheap scalar).  There the kernel vector
    of D_x f - I is the survival profile a (v_1 = 1, v_{k+1} = S_k v_k).
    Newton on H_sn finishes the seed."""
    red = FixedPointReduction(coral)

    def dphi(y: float) -> float:
        return phi_derivs(y, coral.params, order=1)[1]

    lo, hi = 1.0, 5000.0
    if dphi(lo) <= 0 or dphi(hi) >= 0:
        raise CertificationFailed("could not bracket the fold of phi")
    x1 = _bisect(dphi, lo, hi) / red.cP
    sn = SnSystem(coral)
    v = coral.cf.a / np.linalg.norm(coral.cf.a)
    return _newton_refine(sn, sn.join(red.full_point(x1), v, red.branch_lambda(x1)))


def find_ns_anchor(coral: CoralMap) -> np.ndarray:
    """Seed for H_ns: a regula falsi on the branch's spectral radius to
    relative width 1e-7, where the crossing eigenvalue mu = a - ib (b > 0)
    of D_x f, from the last eigvals call, has the eigenvector v_1 = 1,
    v_{k+1} = S_k v_k / mu (the rho of `leslie_resolvent`); its phase is
    turned so that |u| = |w| for v = u + iw and both are scaled to 1.
    Newton on H_ns supplies the last digits."""
    red = FixedPointReduction(coral)
    last = {}

    def h(x1: float) -> float:
        last["ev"] = ev = np.linalg.eigvals(coral.jac_x(red.branch_lambda(x1),
                                                       red.full_point(x1)))
        return float(np.max(np.abs(ev))) - 1.0

    x1 = _illinois(h, 800.0, 2600.0, 1e-7)
    ev = last["ev"][last["ev"].imag < -1e-12]
    mu = ev[np.argmax(np.abs(ev))]
    vec = np.cumprod(np.concatenate(([1.0], coral.params.S / mu)))
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
    return _newton_refine(ns, ns.join(red.full_point(x1), red.branch_lambda(x1),
                                      w1, u1, a0, b0))


# ---------------------------------------------------------------------------
# verified spectrum: the deflated Schur-Cohn count
# ---------------------------------------------------------------------------


def leslie_deflated(A1: list, a: list, shift: Interval | None = None) -> tuple[list, dict]:
    """det(zI - A) = z^d - sum_j A1_j a_j z^(d-j) for a Leslie matrix A with
    row 1 A1 and survival products a_j = S_1..S_(j-1) (Intervals), divided
    by z - 1 for `shift` None, else by z^2 - 2 shift z + 1, by interval
    synthetic division: the quotient's coefficients, leading one first,
    and the remainder's by name (r_1 z + r_0)."""
    c = [Interval(1.0)] + [-(aj * sj) for aj, sj in zip(A1, a)]
    if shift is None:
        q = c[:1]
        for cj in c[1:-1]:
            q.append(cj + q[-1])
        return q, {"r_0": c[-1] + q[-1]}
    two_a = 2.0 * shift
    q = [c[0], c[1] + two_a * c[0]]
    for cj in c[2:-2]:
        q.append(cj + two_a * q[-1] - q[-2])
    return q, {"r_1": c[-2] + two_a * q[-1] - q[-2], "r_0": c[-1] - q[-1]}


def _rescaled(p: list) -> list:
    """p times the power of two that brings max |p_i| into [1/2, 1), which
    moves no root and no gamma sign: exact, but for an endpoint at or below
    2^-1022, where the product may round and so is stepped outward."""
    s = math.ldexp(1.0, -math.frexp(max(v.mag for v in p))[1])
    lo, hi = [v.lo * s for v in p], [v.hi * s for v in p]
    tiny = sys.float_info.min
    return [Interval(_dn(l) if abs(l) <= tiny else l, _up(h) if abs(h) <= tiny else h)
            for l, h in zip(lo, hi)]


def verified_spectrum_inside_disk(A1: list, a: list, shift: Interval | None = None) -> int:
    """How many eigenvalues of the Leslie matrices over an enclosure
    (`leslie_deflated`'s arguments) lie strictly inside the unit disk
    besides the root on the circle, 1 (`shift` None, SN) or e^{+-i theta0}
    (`shift` = cos theta0, NS), which must be all d - 1 or d - 2 others: the
    Schur-Cohn count (`schur_cohn_inside`) of the deflated polynomial.

    Soundness: at the true zero in the certified box, D_x f lies in the
    enclosure and has that root exactly, so its polynomial is the divisor
    times a quotient that the interval division encloses, and leaves the
    remainder 0, which the remainder enclosures must hold.  Every gamma_k
    over the enclosed quotients excludes 0, so the true quotient has no
    root on the circle and shares the count of the whole enclosure.
    All its roots inside mean that the other eigenvalues are inside and
    that the root on the circle is simple (for NS, the pair).  Otherwise
    SpectrumInconclusive names a remainder that excludes 0, a gamma_k that
    holds 0, or the first gamma_k whose sign is not that of an all-inside
    quotient of degree m (gamma_m < 0, the others > 0)."""
    q, rem = leslie_deflated(A1, a, shift)
    for name, r in rem.items():
        if not r.contains_zero():
            raise SpectrumInconclusive(f"remainder {name} = {r} of the deflation excludes 0")
    m = len(q) - 1
    p = q[::-1]                  # ascending: p_0 + p_1 z + ... + p_m z^m
    negative = np.zeros(m, dtype=bool)
    for k in range(m, 0, -1):
        p = _rescaled(p)
        p = [p[0] * p[i] - p[k] * p[k - i] for i in range(k)]
        if p[0].contains_zero():
            raise SpectrumInconclusive(f"gamma_{k} = {p[0]} holds 0")
        negative[k - 1] = p[0].hi < 0.0
    inside = int(schur_cohn_inside(negative))
    if inside != m:
        k = max(k for k in range(1, m + 1) if negative[k - 1] != (k == m))
        raise SpectrumInconclusive(f"{inside} of the {m} roots of the quotient inside the "
                                   f"unit disk: gamma_{k} {'<' if negative[k - 1] else '>'} 0")
    return inside


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
    A1: list             # row 1 of D_x f over the box
    g1: list             # dg/dx_j
    phis: tuple          # phi .. phi''' at P = q.x
    bx: Interval         # b.x
    q: list[CI]          # right eigenvector, A q = e^{i theta0} q
    r: list[CI]          # r = conj(p), normalized so that <p, q> = r^t q = 1


def ns_box_data(coral: CoralMap, box: list[Interval], A1: list, jet: Row1Jet) -> NsBoxData:
    """The NS condition data over a certified box, given the order-3 row-1
    jet of its x part and row 1 of D_x f built from it; r is the left
    eigenvector of D_x f for e^{i theta0} = a + ib (`leslie_left`)."""
    _, lam, w, u, a, b = NsSystem(coral).split(box)
    q = [CI(ui, -wi) for ui, wi in zip(u, w)]
    with _quantity("r^t A = e^{i theta0} r^t"):
        r = leslie_left([CI(aj) for aj in A1], coral.params.S, CI(a, b))
    with _quantity("<p, q>"):
        z = sum((ri * qi for ri, qi in zip(r, q)), CI(0.0))
        r = [ri / z for ri in r]
    return NsBoxData(lam=lam, a=a, b=b, A1=A1, g1=jet.g1,
                     phis=jet.phis, bx=jet.bx, q=q, r=r)


def ns_condition_c_pair(coral: CoralMap, data: NsBoxData) -> tuple[Interval, Interval]:
    """Transversality values Re(e^{-i theta0} <p, dA/dlambda q>): the total
    branch derivative dA/dlambda = D_{x lambda} f + D_{xx} f [x0'(lambda), .]
    (equal to d|mu|/dlambda along the branch) and, for cross-checking
    against other implementations, the version using only the explicit
    part D_{x lambda} f.  Returns (total, explicit_only)."""
    # x0'(lambda) = -(A - I)^{-1} D_lambda f = (I - A)^{-1} (phi b.x) e_1
    with _quantity("x0'(lambda)"):
        x0p = leslie_resolvent(data.A1, coral.params.S, data.phis[0] * data.bx)
    chain = _d2_row(coral, data.lam, data.phis, data.bx, x0p)
    pref = CI(data.a, -data.b) * data.r[0]

    def contract(row: list[Interval]) -> Interval:
        return (pref * sum((c * qj for c, qj in zip(row, data.q)), CI(0.0))).re

    total = contract([gj + cj for gj, cj in zip(data.g1, chain)])
    explicit = contract(data.g1)
    return total, explicit


def ns_condition_d(coral: CoralMap, box: list[Interval]) -> tuple[Interval, dict[str, bool]]:
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
    lam, phis, bx, q, S = data.lam, data.phis, data.bx, data.q, coral.params.S
    qbar = [z.conj() for z in q]
    Q, Qbar = _qb(coral.ci, q), _qb(coral.ci, qbar)

    def B1(y: tuple, z: tuple) -> CI:
        """Row 1 of B(y, z) from the (q.y, b.y) and (q.z, b.z) pairs."""
        return lam * row1_d2(phis, bx, *y, *z)

    term_c = lam * row1_d3(phis, bx, *Q, *Q, *Qbar)
    with _quantity("(I - A)^{-1} B(q, qbar)"):
        z1 = leslie_resolvent(data.A1, S, B1(Q, Qbar))
    term_b2 = B1(Q, _qb(coral.ci, z1))
    mu2 = CI(data.a, data.b) * CI(data.a, data.b)
    with _quantity("(e^{2 i theta0} I - A)^{-1} B(q, q)"):
        z2 = leslie_resolvent(data.A1, S, B1(Q, Q), mu2)
    term_b3 = B1(Qbar, _qb(coral.ci, z2))

    total = term_c + CI(2.0 * term_b2.re, 2.0 * term_b2.im) + term_b3
    val = CI(data.a, -data.b) * data.r[0] * total
    return val.re


def certify_ns(coral: CoralMap, anchor: np.ndarray | None = None,
               ell: float = 1e-6) -> BifCertificate:
    """Full Neimark-Sacker certification: CIFT zero of H_ns, orientation of
    (a, b), verified spectrum count, and interval conditions (c), (d), (e)."""
    ns = NsSystem(coral)

    def orientation(box: list[Interval]) -> None:
        *_, a_iv, b_iv = ns.split(box)
        if not b_iv.lo > 0.0:
            raise CertificationFailed("stage orientation: sin(theta0) not verified positive")
        if 1.0 not in a_iv.sqr() + b_iv.sqr():
            raise CertificationFailed("stage orientation: a^2 + b^2 enclosure misses 1")

    def conditions(box: list[Interval], A1: list, jet: Row1Jet) -> tuple[dict, dict]:
        data = ns_box_data(coral, box, A1, jet)
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


def sn_conditions(coral: CoralMap, box: list[Interval], A1: list,
                  jet: Row1Jet) -> tuple[Interval, Interval]:
    """(c) p^t D_lambda f and (d) p^t B(q, q) over the certified box, with
    q = v and p normalized so that p^t q = 1; `jet` is the order-2 row-1
    jet of the box's x part and A1 row 1 of D_x f built from it.
    p = r / (r^t q), r the left eigenvector of D_x f for the eigenvalue 1
    (`leslie_left`); only p_1 = 1 / (r^t q) enters, since rows 2..d of
    D_lambda f and B vanish.

    The certified kernel vector fixes an arbitrary sign; the returned
    values use the orientation that makes (c) negative (only the product
    (c)*(d) is orientation invariant)."""
    _, v, lam = SnSystem(coral).split(box)
    phis, bx = jet.phis, jet.bx
    r = leslie_left(A1, coral.params.S)
    with _quantity("p^t q"):
        p1 = Interval(1.0) / sum((ri * vi for ri, vi in zip(r, v)), Interval(0.0))

    cond_c = p1 * (phis[0] * bx)
    qv, bv = _qb(coral.ci, v)
    cond_d = p1 * (lam * row1_d2(phis, bx, qv, bv, qv, bv))

    if cond_c.mid > 0.0:
        cond_c, cond_d = -cond_c, -cond_d
    return cond_c, cond_d


def certify_sn(coral: CoralMap, anchor: np.ndarray | None = None,
               ell: float = 1e-6) -> BifCertificate:
    """Saddle-node certification: CIFT zero of H_sn, simple-eigenvalue-1
    verification, and interval conditions (c), (d)."""

    def conditions(box: list[Interval], A1: list, jet: Row1Jet) -> tuple[dict, dict]:
        cond_c, cond_d = sn_conditions(coral, box, A1, jet)
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
    3. spectrum: the root of D_x f on the circle over the box, 1 or e^{+-i
       theta0} (`system._shift`), is simple and the others lie strictly
       inside the unit disk, by the Schur-Cohn count of the characteristic
       polynomial with that root divided out (`verified_spectrum_inside_disk`);
    4. `conditions(box, A1, jet)`, which checks the point's own
       conditions and returns them with any extra summary entries; `jet`
       is the row-1 jet of the box's x part at `system.jet_order`, and
       A1 row 1 of D_x f built from it (the rows below are the survival
       subdiagonal), as a list of Intervals.

    A failed stage raises CertificationFailed naming the stage."""
    coral = system.coral
    try:
        base = cift.validate_zero(system, anchor, ell)
    except (ValidationFailed, DomainError) as exc:
        raise CertificationFailed(f"stage cift: {exc}") from exc
    anchor = np.asarray(anchor, float)
    box = around(anchor, base.delta_accuracy)
    if orientation is not None:
        orientation(box)

    x_box, lam_iv = system.x_lam(box)
    jet = coral.row1_jet(x_box, order=system.jet_order)
    A1 = [g * lam_iv for g in jet.g1]
    try:
        inside = verified_spectrum_inside_disk(A1, coral.ci.a,
                                               system._shift(system.split(box)))
    except SpectrumInconclusive as exc:
        raise CertificationFailed(f"stage spectrum: {exc}") from exc

    try:
        conds, extra = conditions(box, A1, jet)
    except ConditionInconclusive as exc:
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
        enclosure_lo=tuple(v.lo for v in box),
        enclosure_hi=tuple(v.hi for v in box),
        delta_accuracy=base.delta_accuracy,
        delta_uniqueness=base.delta_uniqueness,
        conditions=conds,
        spectrum_inside=inside,
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


def transcritical_analysis(coral: CoralMap) -> TranscriticalResult:
    """Closed-form transcritical point on the extinction branch:
    R* = c2/c1, lambda* = R*/(b.a), with both nondegeneracy values as
    intervals that must exclude zero."""
    p = coral.params
    ci = coral.ci
    d = coral.d
    R_star = Interval(p.c2) / Interval(p.c1)
    lam_star = R_star / ci.ba

    # left eigenvector for the eigenvalue 1 of D_x f(lambda*, 0), whose row 1
    # is b / (b.a): w = (b.a) r is `leslie_left` on b itself, with w_1 = b.a
    # (w_d = b_d, w_k = b_k + S_k w_{k+1})
    w_iv = [ci.ba] + leslie_left(ci.b, p.S)[1:]

    c_ratio = Interval(p.c1) / Interval(p.c2)
    nd1 = w_iv[0] * c_ratio * ci.ba
    nd2 = w_iv[0] * ((2.0 * (Interval(p.beta) - Interval(p.alpha)))
                     / Interval(p.omega)) * ci.sum_pa

    lam0 = float(p.c2 / p.c1 / coral.cf.ba)
    res = coral.jac_x(lam0, np.zeros(d)) - np.eye(d)
    resid = float(np.max(np.abs(res @ coral.cf.a)) / np.max(np.abs(coral.cf.a)))
    return TranscriticalResult(R_star=R_star, lambda_star=lam_star, v=tuple(ci.a),
                               w=tuple(w_iv), nd1=nd1, nd2=nd2, eigvec_residual=resid)
