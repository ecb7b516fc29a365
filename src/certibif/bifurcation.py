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

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cift
from .errors import (CertificationFailed, ConditionInconclusive, DomainError,
                     NotInvertibleEvidence, SpectrumInconclusive)
from .interval import (IMatrix, Interval, IVector, float_matmat, float_matvec,
                       matmat_float, norm_inf, up_dot, up_mul, up_sum, _dn2, _up2)
from .model import CoralMap, FixedPointReduction, phi_derivs, polyp_density


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

    def abs_lo(self) -> float:
        return (self.re.sqr() + self.im.sqr()).sqrt().lo


def _cdot(coefs: list[Interval], vec: list[CI]) -> CI:
    out = CI(Interval(0.0), Interval(0.0))
    for c, z in zip(coefs, vec):
        out = out + CI(c * z.re, c * z.im)
    return out


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


def verified_solve(A: IMatrix, rhs: IVector, B: np.ndarray | None = None) -> IVector:
    """Enclosure of A^{-1} rhs for every A, rhs in the input enclosures."""
    if B is None:
        B = np.linalg.inv(A.mid)
    BA = float_matmat(B, A)
    n = A.shape[0]
    rho1 = norm_inf(IMatrix.identity(n) - BA).hi
    if not rho1 < 1.0:
        raise NotInvertibleEvidence(f"|I - BA| bound {rho1} >= 1")
    Bb = float_matvec(B, rhs)
    r = ((Interval(rho1) * norm_inf(Bb)) / (Interval(1.0) - Interval(rho1))).hi
    return Bb.widened(r)


def _realify(re_m: IMatrix, im_m: IMatrix) -> IMatrix:
    n = re_m.shape[0]
    lo = np.empty((2 * n, 2 * n))
    hi = np.empty((2 * n, 2 * n))
    lo[:n, :n], hi[:n, :n] = re_m.lo, re_m.hi
    lo[n:, n:], hi[n:, n:] = re_m.lo, re_m.hi
    lo[:n, n:], hi[:n, n:] = -im_m.hi, -im_m.lo
    lo[n:, :n], hi[n:, :n] = im_m.lo, im_m.hi
    return IMatrix(lo, hi)


def verified_solve_complex(re_m: IMatrix, im_m: IMatrix,
                           rhs: list[CI]) -> list[CI]:
    """Enclosure of M^{-1} rhs for complex interval M via realification."""
    n = re_m.shape[0]
    rl = np.array([z.re.lo for z in rhs] + [z.im.lo for z in rhs])
    rh = np.array([z.re.hi for z in rhs] + [z.im.hi for z in rhs])
    sol = verified_solve(_realify(re_m, im_m), IVector(rl, rh))
    return [CI(Interval(sol.lo[i], sol.hi[i]), Interval(sol.lo[n + i], sol.hi[n + i]))
            for i in range(n)]


# ---------------------------------------------------------------------------
# extended systems
# ---------------------------------------------------------------------------


class NsSystem:
    """H_ns(x, lambda, w, u, a, b) = 0 encodes a fixed point carrying a
    unit-norm complex eigenpair on the unit circle; dimension 3d + 3."""

    name = "neimark-sacker"

    def __init__(self, coral: CoralMap):
        self.coral = coral
        self.d = coral.d
        self.dim = 3 * self.d + 3

    # variable slices: x | lambda | w | u | a | b
    def split(self, z):
        d = self.d
        return (z[:d], z[d], z[d + 1:2 * d + 1], z[2 * d + 1:3 * d + 1],
                z[3 * d + 1], z[3 * d + 2])

    def join(self, x, lam, w, u, a, b) -> np.ndarray:
        return np.concatenate([x, [lam], w, u, [a], [b]])

    def value(self, z: np.ndarray) -> np.ndarray:
        return np.array(self.value_scalars(np.asarray(z, dtype=float), self.coral.cf))

    def value_scalars(self, z: list, coeffs) -> list:
        """Generic-scalar evaluation (drives interval and mpmath paths)."""
        d = self.d
        x, lam = z[:d], z[d]
        w, u = z[d + 1:2 * d + 1], z[2 * d + 1:3 * d + 1]
        a, b = z[3 * d + 1], z[3 * d + 2]
        S = self.coral.params.S
        f = self.coral.step_scalars(lam, x, coeffs)
        _, g1, _, _ = self.coral.row1_gradient(x, coeffs)
        jw = [sum((gj * wj for gj, wj in zip(g1, w)), 0.0 * lam) * lam] + \
             [S[i] * w[i] for i in range(d - 1)]
        ju = [sum((gj * uj for gj, uj in zip(g1, u)), 0.0 * lam) * lam] + \
             [S[i] * u[i] for i in range(d - 1)]
        out = [fi - xi for fi, xi in zip(f, x)]
        out += [jwi - a * wi + b * ui for jwi, wi, ui in zip(jw, w, u)]
        out += [jui - b * wi - a * ui for jui, wi, ui in zip(ju, w, u)]
        out.append(a * a + b * b - 1.0)
        out.append(sum((wi * wi for wi in w), 0.0 * a) - 1.0)
        out.append(sum((ui * ui for ui in u), 0.0 * a) - 1.0)
        return out

    def value_iv(self, z: IVector) -> IVector:
        return IVector.from_scalars(self.value_scalars(z.to_scalars(), self.coral.ci))

    def jac(self, z: np.ndarray) -> np.ndarray:
        x, lam, w, u, a, b = self.split(np.asarray(z, dtype=float))
        d = self.d
        cf = self.coral.cf
        P = float(cf.q @ x)
        bx = float(cf.b @ x)
        ph, ph1, ph2 = phi_derivs(P, self.coral.params, order=2)
        g1 = ph1 * cf.q * bx + ph * cf.b
        g2 = ph2 * bx * np.outer(cf.q, cf.q) \
            + ph1 * (np.outer(cf.q, cf.b) + np.outer(cf.b, cf.q))
        A = self.coral.jac_x(lam, x)
        J = np.zeros((self.dim, self.dim))
        sx, sl = slice(0, d), d
        sw, su = slice(d + 1, 2 * d + 1), slice(2 * d + 1, 3 * d + 1)
        sa, sb = 3 * d + 1, 3 * d + 2
        r1, r2, r3 = slice(0, d), slice(d, 2 * d), slice(2 * d, 3 * d)
        # rows f(lambda, x) - x
        J[r1, sx] = A - np.eye(d)
        J[0, sl] = ph * bx
        # rows D_xf w - a w + b u
        J[d, sx] = lam * (g2 @ w)
        J[d, sl] = g1 @ w
        J[r2, sw] = A - a * np.eye(d)
        J[r2, su] = b * np.eye(d)
        J[r2, sa] = -w
        J[r2, sb] = u
        # rows D_xf u - b w - a u
        J[2 * d, sx] = lam * (g2 @ u)
        J[2 * d, sl] = g1 @ u
        J[r3, sw] = -b * np.eye(d)
        J[r3, su] = A - a * np.eye(d)
        J[r3, sa] = -u
        J[r3, sb] = -w
        # normalization rows
        J[3 * d, sa] = 2 * a
        J[3 * d, sb] = 2 * b
        J[3 * d + 1, sw] = 2 * w
        J[3 * d + 2, su] = 2 * u
        return J

    def jac_iv(self, z: IVector) -> IMatrix:
        d = self.d
        zs = z.to_scalars()
        x, lam = zs[:d], zs[d]
        w, u = zs[d + 1:2 * d + 1], zs[2 * d + 1:3 * d + 1]
        a, b = zs[3 * d + 1], zs[3 * d + 2]
        ci = self.coral.ci
        _, g1, phis, bx = self.coral.row1_gradient(x, ci)
        g2 = self.coral.row1_second(x, ci)       # g2[j][k] = d2 g / dx_j dx_k
        S = self.coral.params.S
        J = IMatrix(np.zeros((self.dim, self.dim)), np.zeros((self.dim, self.dim)))

        def aset(i, j, v):
            J.set_entry(i, j, v)

        one = Interval(1.0)
        # rows f - x
        for j in range(d):
            aset(0, j, lam * g1[j] - (one if j == 0 else 0.0))
        for i in range(1, d):
            aset(i, i - 1, Interval(S[i - 1]))
            aset(i, i, Interval(-1.0))
        aset(0, d, phis[0] * bx)
        # eigen rows: (D_xf vec) - a*vec + sgn*b*other  for vec in (w, u)
        for row0, base, obase, vec, other, sgn in (
                (d, d + 1, 2 * d + 1, w, u, 1.0),
                (2 * d, 2 * d + 1, d + 1, u, w, -1.0)):
            for k in range(d):
                acc = Interval(0.0)
                for j in range(d):
                    acc = acc + g2[j][k] * vec[j]
                aset(row0, k, lam * acc)
            acc = Interval(0.0)
            for j in range(d):
                acc = acc + g1[j] * vec[j]
            aset(row0, d, acc)
            for i in range(d):
                r = row0 + i
                if i == 0:
                    for j in range(d):
                        aset(r, base + j, lam * g1[j])
                else:
                    aset(r, base + i - 1, Interval(S[i - 1]))
                aset(r, base + i, J.entry(r, base + i) + (-a))
                aset(r, obase + i, sgn * b)
                aset(r, 3 * d + 1, -vec[i])
                aset(r, 3 * d + 2, sgn * other[i])
        # normalization rows
        aset(3 * d, 3 * d + 1, 2.0 * a)
        aset(3 * d, 3 * d + 2, 2.0 * b)
        for j in range(d):
            aset(3 * d + 1, d + 1 + j, 2.0 * w[j])
            aset(3 * d + 2, 2 * d + 1 + j, 2.0 * u[j])
        return J

    def hessian_sup(self, box: IVector) -> np.ndarray:
        d, m = self.d, self.dim
        zs = box
        lam_box = zs[d]
        x_box = IVector(zs.lo[:d], zs.hi[:d])
        wmag = np.maximum(np.abs(zs.lo[d + 1:2 * d + 1]), np.abs(zs.hi[d + 1:2 * d + 1]))
        umag = np.maximum(np.abs(zs.lo[2 * d + 1:3 * d + 1]), np.abs(zs.hi[2 * d + 1:3 * d + 1]))
        rb = self.coral.row1_bounds(lam_box, x_box)
        T = np.zeros((m, m, m))
        sx = slice(0, d)
        sl = d
        sw = slice(d + 1, 2 * d + 1)
        su = slice(2 * d + 1, 3 * d + 1)
        sa, sb = 3 * d + 1, 3 * d + 2
        lg2 = up_mul(rb.lam_mag, rb.g2)
        # row f_1 - x_1
        T[0, sx, sx] = lg2
        T[0, sl, sx] = rb.g1
        T[0, sx, sl] = rb.g1
        # eigen rows, first components
        for row0, vmag, svec in ((d, wmag, sw), (2 * d, umag, su)):
            T[row0, sx, sx] = up_mul(rb.lam_mag, rb.g3_contracted(vmag))
            tv = up_mul(up_dot(vmag, rb.g2), 1.0)
            T[row0, sl, sx] = tv
            T[row0, sx, sl] = tv
            T[row0, svec, sx] = lg2          # d2/dw_j dx_k = lam*g2[j,k]
            T[row0, sx, svec] = lg2.T
            T[row0, sl, svec] = rb.g1
            T[row0, svec, sl] = rb.g1
        # bilinear -a*w + b*u rows
        for c in range(d):
            T[d + c, sa, d + 1 + c] = T[d + c, d + 1 + c, sa] = 1.0
            T[d + c, sb, 2 * d + 1 + c] = T[d + c, 2 * d + 1 + c, sb] = 1.0
            T[2 * d + c, sb, d + 1 + c] = T[2 * d + c, d + 1 + c, sb] = 1.0
            T[2 * d + c, sa, 2 * d + 1 + c] = T[2 * d + c, 2 * d + 1 + c, sa] = 1.0
        # normalization rows
        T[3 * d, sa, sa] = 2.0
        T[3 * d, sb, sb] = 2.0
        for j in range(d):
            T[3 * d + 1, d + 1 + j, d + 1 + j] = 2.0
            T[3 * d + 2, 2 * d + 1 + j, 2 * d + 1 + j] = 2.0
        return T


class SnSystem:
    """H_sn(x, v, lambda) = 0: fixed point with unit-norm kernel vector of
    D_xf - I; dimension 2d + 1."""

    name = "saddle-node"

    def __init__(self, coral: CoralMap):
        self.coral = coral
        self.d = coral.d
        self.dim = 2 * self.d + 1

    def split(self, z):
        d = self.d
        return z[:d], z[d:2 * d], z[2 * d]

    def join(self, x, v, lam) -> np.ndarray:
        return np.concatenate([x, v, [lam]])

    def value(self, z: np.ndarray) -> np.ndarray:
        return np.array(self.value_scalars(np.asarray(z, dtype=float), self.coral.cf))

    def value_scalars(self, z: list, coeffs) -> list:
        d = self.d
        x, v, lam = z[:d], z[d:2 * d], z[2 * d]
        S = self.coral.params.S
        f = self.coral.step_scalars(lam, x, coeffs)
        _, g1, _, _ = self.coral.row1_gradient(x, coeffs)
        jv = [sum((gj * vj for gj, vj in zip(g1, v)), 0.0 * lam) * lam] + \
             [S[i] * v[i] for i in range(d - 1)]
        out = [fi - xi for fi, xi in zip(f, x)]
        out += [jvi - vi for jvi, vi in zip(jv, v)]
        out.append(sum((vi * vi for vi in v), 0.0 * lam) - 1.0)
        return out

    def value_iv(self, z: IVector) -> IVector:
        return IVector.from_scalars(self.value_scalars(z.to_scalars(), self.coral.ci))

    def jac(self, z: np.ndarray) -> np.ndarray:
        x, v, lam = self.split(np.asarray(z, dtype=float))
        d = self.d
        cf = self.coral.cf
        P = float(cf.q @ x)
        bx = float(cf.b @ x)
        ph, ph1, ph2 = phi_derivs(P, self.coral.params, order=2)
        g1 = ph1 * cf.q * bx + ph * cf.b
        g2 = ph2 * bx * np.outer(cf.q, cf.q) \
            + ph1 * (np.outer(cf.q, cf.b) + np.outer(cf.b, cf.q))
        A = self.coral.jac_x(lam, x)
        J = np.zeros((self.dim, self.dim))
        J[:d, :d] = A - np.eye(d)
        J[0, 2 * d] = ph * bx
        J[d, :d] = lam * (g2 @ v)
        J[d:2 * d, d:2 * d] = A - np.eye(d)
        J[d, 2 * d] = g1 @ v
        J[2 * d, d:2 * d] = 2 * v
        return J

    def jac_iv(self, z: IVector) -> IMatrix:
        d = self.d
        zs = z.to_scalars()
        x, v, lam = zs[:d], zs[d:2 * d], zs[2 * d]
        ci = self.coral.ci
        _, g1, phis, bx = self.coral.row1_gradient(x, ci)
        g2 = self.coral.row1_second(x, ci)
        S = self.coral.params.S
        J = IMatrix(np.zeros((self.dim, self.dim)), np.zeros((self.dim, self.dim)))
        one = Interval(1.0)
        for j in range(d):
            J.set_entry(0, j, lam * g1[j] - (one if j == 0 else 0.0))
        for i in range(1, d):
            J.set_entry(i, i - 1, Interval(S[i - 1]))
            J.set_entry(i, i, Interval(-1.0))
        J.set_entry(0, 2 * d, phis[0] * bx)
        for k in range(d):
            acc = Interval(0.0)
            for j in range(d):
                acc = acc + g2[j][k] * v[j]
            J.set_entry(d, k, lam * acc)
        for j in range(d):
            J.set_entry(d, d + j, lam * g1[j] - (one if j == 0 else 0.0))
        for i in range(1, d):
            J.set_entry(d + i, d + i - 1, Interval(S[i - 1]))
            J.set_entry(d + i, d + i, Interval(-1.0))
        acc = Interval(0.0)
        for j in range(d):
            acc = acc + g1[j] * v[j]
        J.set_entry(d, 2 * d, acc)
        for j in range(d):
            J.set_entry(2 * d, d + j, 2.0 * v[j])
        return J

    def hessian_sup(self, box: IVector) -> np.ndarray:
        d, m = self.d, self.dim
        lam_box = box[2 * d]
        x_box = IVector(box.lo[:d], box.hi[:d])
        vmag = np.maximum(np.abs(box.lo[d:2 * d]), np.abs(box.hi[d:2 * d]))
        rb = self.coral.row1_bounds(lam_box, x_box)
        T = np.zeros((m, m, m))
        sx, sv, sl = slice(0, d), slice(d, 2 * d), 2 * d
        lg2 = up_mul(rb.lam_mag, rb.g2)
        T[0, sx, sx] = lg2
        T[0, sl, sx] = rb.g1
        T[0, sx, sl] = rb.g1
        T[d, sx, sx] = up_mul(rb.lam_mag, rb.g3_contracted(vmag))
        tv = up_mul(up_dot(vmag, rb.g2), 1.0)
        T[d, sl, sx] = tv
        T[d, sx, sl] = tv
        T[d, sv, sx] = lg2
        T[d, sx, sv] = lg2.T
        T[d, sl, sv] = rb.g1
        T[d, sv, sl] = rb.g1
        for j in range(d):
            T[2 * d, d + j, d + j] = 2.0
        return T


@dataclass(frozen=True)
class NsPoint:
    """Neimark-Sacker candidate: fixed point plus a unit eigenpair written
    in real coordinates, with (a, b) = (cos theta0, sin theta0)."""

    x: np.ndarray
    lam: float
    w: np.ndarray
    u: np.ndarray
    a: float
    b: float

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.x, [self.lam], self.w, self.u,
                               [self.a], [self.b]])

    @staticmethod
    def from_array(z: np.ndarray) -> "NsPoint":
        z = np.asarray(z, dtype=float)
        d = (len(z) - 3) // 3
        return NsPoint(x=z[:d].copy(), lam=float(z[d]),
                       w=z[d + 1:2 * d + 1].copy(), u=z[2 * d + 1:3 * d + 1].copy(),
                       a=float(z[3 * d + 1]), b=float(z[3 * d + 2]))

    @property
    def theta0(self) -> float:
        return math.atan2(self.b, self.a)


@dataclass(frozen=True)
class SnPoint:
    """Saddle-node candidate: fixed point plus the unit kernel vector of
    D_x f - I."""

    x: np.ndarray
    v: np.ndarray
    lam: float

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.v, [self.lam]])

    @staticmethod
    def from_array(z: np.ndarray) -> "SnPoint":
        z = np.asarray(z, dtype=float)
        d = (len(z) - 1) // 2
        return SnPoint(x=z[:d].copy(), v=z[d:2 * d].copy(), lam=float(z[2 * d]))



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
    for _ in range(200):
        midp = 0.5 * (lo + hi)
        if midp in (lo, hi):
            break
        if dphi(midp) > 0:
            lo = midp
        else:
            hi = midp
    y_star = 0.5 * (lo + hi)
    x1 = y_star / red.cP
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
    for _ in range(200):
        midp = 0.5 * (lo + hi)
        if midp in (lo, hi):
            break
        if h(midp) < 0:
            lo = midp
        else:
            hi = midp
    x1 = 0.5 * (lo + hi)
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
    """Gershgorin disks of the similarity-conjugated Jacobian enclosure."""

    count_inside: int
    inside: tuple[int, ...]
    outliers: tuple[int, ...]
    centers: tuple[complex, ...]
    radii: tuple[float, ...]
    outliers_separated: bool


def verified_spectrum_inside_disk(A: IMatrix, exclude: int = 2) -> SpectrumResult:
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

    AVr = matmat_float(A, np.real(V))
    AVi = matmat_float(A, np.imag(V))
    Wr, Wi = np.real(W), np.imag(W)
    Yre = float_matmat(Wr, AVr) - float_matmat(Wi, AVi)
    Yim = float_matmat(Wr, AVi) + float_matmat(Wi, AVr)
    # Z = W V computed rigorously from the float factors
    Vr_iv, Vi_iv = IMatrix.point(np.real(V)), IMatrix.point(np.imag(V))
    Zre = float_matmat(Wr, Vr_iv) - float_matmat(Wi, Vi_iv)
    Zim = float_matmat(Wr, Vi_iv) + float_matmat(Wi, Vr_iv)
    Nre = IMatrix.identity(n) - Zre
    Nim = IMatrix(np.zeros((n, n)), np.zeros((n, n))) - Zim
    # |N| and |Y| in the complex row-sum norm, via |z| <= |re| + |im|
    nmag = Nre.mag + Nim.mag
    ymag = Yre.mag + Yim.mag
    n_norm = float(np.max(up_sum(nmag, axis=1)))
    if not n_norm < 1.0:
        raise SpectrumInconclusive(f"similarity too ill-conditioned: |I-WV| >= {n_norm}")
    y_norm = float(np.max(up_sum(ymag, axis=1)))
    corr = ((Interval(y_norm) * Interval(n_norm))
            / (Interval(1.0) - Interval(n_norm))).hi

    centers, radii, inside = [], [], []
    for i in range(n):
        offdiag = float(up_sum(np.delete(ymag[i], i)))
        rad = (Interval(offdiag) + Interval(corr)).hi
        c = CI(Yre.entry(i, i), Yim.entry(i, i))
        centers.append(complex(c.re.mid, c.im.mid))
        radii.append(rad)
        if (Interval(c.abs_hi()) + Interval(rad)).hi < 1.0:
            inside.append(i)
    outliers = tuple(i for i in range(n) if i not in inside)
    if len(outliers) > exclude:
        raise SpectrumInconclusive(
            f"{len(outliers)} disks fail the strict unit-disk test, "
            f"only {exclude} allowed")

    def disjoint(i: int, j: int) -> bool:
        # the true Gershgorin disks are contained in disk(Y_ii, radii[i])
        dre = Yre.entry(i, i) - Yre.entry(j, j)
        dim_ = Yim.entry(i, i) - Yim.entry(j, j)
        dist_lo = (dre.sqr() + dim_.sqr()).sqrt().lo
        return dist_lo > (Interval(radii[i]) + Interval(radii[j])).hi

    separated = all(disjoint(i, j) for i in outliers for j in range(n) if j != i)
    return SpectrumResult(count_inside=len(inside), inside=tuple(inside),
                          outliers=outliers, centers=tuple(centers),
                          radii=tuple(radii), outliers_separated=separated)


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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "anchor": [repr(v) for v in self.anchor],
            "enclosure_lo": [repr(v) for v in self.enclosure_lo],
            "enclosure_hi": [repr(v) for v in self.enclosure_hi],
            "delta_accuracy": repr(self.delta_accuracy),
            "delta_uniqueness": repr(self.delta_uniqueness),
            "conditions": {k: [repr(lo), repr(hi)]
                           for k, (lo, hi) in self.conditions.items()},
            "spectrum_inside": self.spectrum_inside,
            "summary": {k: repr(v) for k, v in self.summary.items()},
            "base": self.base.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "BifCertificate":
        return BifCertificate(
            kind=d["kind"],
            anchor=tuple(float(v) for v in d["anchor"]),
            enclosure_lo=tuple(float(v) for v in d["enclosure_lo"]),
            enclosure_hi=tuple(float(v) for v in d["enclosure_hi"]),
            delta_accuracy=float(d["delta_accuracy"]),
            delta_uniqueness=float(d["delta_uniqueness"]),
            conditions={k: (float(v[0]), float(v[1]))
                        for k, v in d["conditions"].items()},
            spectrum_inside=int(d["spectrum_inside"]),
            summary={k: float(v) for k, v in d["summary"].items()},
            base=cift.Certificate.from_json_dict(d["base"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Neimark-Sacker conditions
# ---------------------------------------------------------------------------


def _ns_box_pieces(coral: CoralMap, box: IVector):
    """Shared interval data for the NS conditions over a certified box."""
    d = coral.d
    zs = box.to_scalars()
    x, lam = zs[:d], zs[d]
    w, u = zs[d + 1:2 * d + 1], zs[2 * d + 1:3 * d + 1]
    a, b = zs[3 * d + 1], zs[3 * d + 2]
    x_box = IVector(box.lo[:d], box.hi[:d])
    A_iv = coral.jac_x_iv(lam, x_box)
    phis = phi_derivs(polyp_density(x, coral.ci), coral.params, order=3)
    bx = sum((bk * xk for bk, xk in zip(coral.ci.b, x)), Interval(0.0))
    q_vec = [CI(ui, -wi) for ui, wi in zip(u, w)]   # A q = e^{+i theta0} q
    return x, lam, w, u, a, b, A_iv, phis, bx, q_vec


def _ns_left_row(coral: CoralMap, A_iv: IMatrix, a: Interval, b: Interval,
                 box_mid: np.ndarray) -> list[CI]:
    """Enclosure of r = conj(p): the row vector with r^t A = e^{i theta0} r^t,
    normalized by a numerical pinning row (renormalized by callers)."""
    d = coral.d
    # N = A^t - (a + i b) I; bordered with c = u0 + i w0 (approximate null
    # vector of N^H) and a pinning row from the numerical left eigenvector.
    w0 = box_mid[d + 1:2 * d + 1]
    u0 = box_mid[2 * d + 1:3 * d + 1]
    a0, b0 = box_mid[3 * d + 1], box_mid[3 * d + 2]
    At = IMatrix(A_iv.lo.T.copy(), A_iv.hi.T.copy())
    ev, vecs = np.linalg.eig(At.mid)
    k = int(np.argmin(np.abs(ev - (a0 + 1j * b0))))
    r0 = vecs[:, k]
    pin = np.conj(r0) / float(np.vdot(r0, r0).real)
    c_col = u0 + 1j * w0

    n = d + 1
    re = IMatrix(np.zeros((n, n)), np.zeros((n, n)))
    im = IMatrix(np.zeros((n, n)), np.zeros((n, n)))
    for i in range(d):
        for j in range(d):
            e = At.entry(i, j)
            if i == j:
                e = e - a
            re.set_entry(i, j, e)
        im.set_entry(i, i, -b)
        re.set_entry(i, d, Interval(float(c_col[i].real)))
        im.set_entry(i, d, Interval(float(c_col[i].imag)))
        re.set_entry(d, i, Interval(float(pin[i].real)))
        im.set_entry(d, i, Interval(float(pin[i].imag)))
    rhs = [CI(0.0, 0.0) for _ in range(n)]
    rhs[d] = CI(1.0, 0.0)
    sol = verified_solve_complex(re, im, rhs)
    return sol[:d]


def _normalized_p_row(coral: CoralMap, box: IVector) -> list[CI]:
    """r = conj(p) with <p, q> = r^t q = 1 over the certified box."""
    x, lam, w, u, a, b, A_iv, phis, bx, q_vec = _ns_box_pieces(coral, box)
    r = _ns_left_row(coral, A_iv, a, b, box.mid)
    z = _cdot([Interval(1.0)] * coral.d, [ri * qi for ri, qi in zip(r, q_vec)])
    den = z.re.sqr() + z.im.sqr()
    if den.lo <= 0.0:
        raise ConditionInconclusive("<p, q> enclosure touches zero")
    return [ri / z for ri in r]


def ns_condition_c_pair(coral: CoralMap, box: IVector) -> tuple[Interval, Interval]:
    """Transversality values Re(e^{-i theta0} <p, dA/dlambda q>): the total
    branch derivative dA/dlambda = D_{x lambda} f + D_{xx} f [x0'(lambda), .]
    (equal to d|mu|/dlambda along the branch) and, for cross-checking
    against other implementations, the version using only the explicit
    part D_{x lambda} f.  Returns (total, explicit_only)."""
    d = coral.d
    x, lam, w, u, a, b, A_iv, phis, bx, q_vec = _ns_box_pieces(coral, box)
    ci = coral.ci
    _, g1, _, _ = coral.row1_gradient(x, ci)
    g2 = coral.row1_second(x, ci)
    # x0'(lambda) = -(A - I)^{-1} D_lambda f
    AmI = A_iv - np.eye(d)
    dlam_f = IVector.from_scalars([phis[0] * bx if i == 0 else Interval(0.0)
                                   for i in range(d)])
    x0p = verified_solve(AmI, dlam_f)
    x0p_s = [-s for s in x0p.to_scalars()]
    chain = []
    for j in range(d):
        acc = Interval(0.0)
        for k in range(d):
            acc = acc + lam * g2[k][j] * x0p_s[k]
        chain.append(acc)
    r = _normalized_p_row(coral, box)
    pref = CI(a, -b) * r[0]

    def contract(row: list[Interval]) -> Interval:
        s = CI(Interval(0.0), Interval(0.0))
        for j in range(d):
            s = s + CI(row[j] * q_vec[j].re, row[j] * q_vec[j].im)
        return (pref * s).re

    total = contract([g1[j] + chain[j] for j in range(d)])
    explicit = contract(list(g1))
    return total, explicit


def ns_condition_c(coral: CoralMap, box: IVector) -> Interval:
    """Transversality with the total branch derivative of A(lambda)."""
    return ns_condition_c_pair(coral, box)[0]


def ns_condition_d(coral: CoralMap, box: IVector) -> tuple[Interval, dict[str, bool]]:
    """Resonance exclusion: theta0 avoids the k-th roots of unity, k <= 4.

    Returns the enclosure of theta0 in degrees plus per-angle verdicts
    (0 and 180 follow from the verified sign of sin theta0)."""
    d = coral.d
    zs = box.to_scalars()
    a, b = zs[3 * d + 1], zs[3 * d + 2]
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


def ns_condition_e(coral: CoralMap, box: IVector) -> Interval:
    """Cubic normal-form coefficient (sign decides super/subcritical)."""
    d = coral.d
    x, lam, w, u, a, b, A_iv, phis, bx, q_vec = _ns_box_pieces(coral, box)
    ci = coral.ci

    def qdot(y: list[CI]) -> CI:
        return _cdot([qk for qk in ci.q], y)

    def bdot(y: list[CI]) -> CI:
        return _cdot([bk for bk in ci.b], y)

    def B1(y: list[CI], z: list[CI]) -> CI:
        qy, qz = qdot(y), qdot(z)
        by, bz = bdot(y), bdot(z)
        t = (qy * qz) * (phis[2] * bx) + (qy * bz + by * qz) * phis[1]
        return t * lam

    def C1(y: list[CI], z: list[CI], v: list[CI]) -> CI:
        qy, qz, qv = qdot(y), qdot(z), qdot(v)
        by, bz, bv = bdot(y), bdot(z), bdot(v)
        t = (qy * qz * qv) * (phis[3] * bx) \
            + (qy * qz * bv + qy * bz * qv + by * qz * qv) * phis[2]
        return t * lam

    qbar = [z.conj() for z in q_vec]
    term_c = C1(q_vec, q_vec, qbar)

    # (I - A)^{-1} B(q, qbar): real matrix, complex right-hand side
    ImA = IMatrix.identity(d) - A_iv
    beta1 = B1(q_vec, qbar)
    B_pre = np.linalg.inv(ImA.mid)
    e1 = np.zeros(d)
    e1[0] = 1.0
    z1_re = verified_solve(ImA, IVector.point(e1).scale(beta1.re), B_pre)
    z1_im = verified_solve(ImA, IVector.point(e1).scale(beta1.im), B_pre)
    z1 = [CI(Interval(z1_re.lo[i], z1_re.hi[i]), Interval(z1_im.lo[i], z1_im.hi[i]))
          for i in range(d)]
    term_b2 = B1(q_vec, z1)

    # (e^{2 i theta0} I - A)^{-1} B(q, q): genuinely complex solve
    mu2 = CI(a, b) * CI(a, b)
    beta2 = B1(q_vec, q_vec)
    re_m = -A_iv
    im_m = IMatrix(np.zeros((d, d)), np.zeros((d, d)))
    for i in range(d):
        re_m.set_entry(i, i, mu2.re - A_iv.entry(i, i))
        im_m.set_entry(i, i, mu2.im)
    rhs = [CI(0.0, 0.0) for _ in range(d)]
    rhs[0] = beta2
    z2 = verified_solve_complex(re_m, im_m, rhs)
    term_b3 = B1(qbar, z2)

    r = _normalized_p_row(coral, box)
    total = term_c + CI(2.0 * term_b2.re, 2.0 * term_b2.im) + term_b3
    val = CI(a, -b) * r[0] * total
    return val.re


def certify_ns(coral: CoralMap, anchor: np.ndarray | None = None,
               ell: float = 1e-6) -> BifCertificate:
    """Full Neimark-Sacker certification: CIFT zero of H_ns, verified
    spectrum count, and interval conditions (c), (d), (e)."""
    ns = NsSystem(coral)
    d = coral.d
    if anchor is None:
        anchor = find_ns_anchor(coral)
    elif isinstance(anchor, NsPoint):
        anchor = anchor.to_array()
    try:
        base = cift.validate_zero(ns, anchor, ell)
    except Exception as exc:
        raise CertificationFailed(f"stage cift: {exc}") from exc
    box = IVector.around(np.asarray(anchor, float), base.delta_accuracy)
    zs = box.to_scalars()
    a_iv, b_iv = zs[3 * d + 1], zs[3 * d + 2]
    if not b_iv.lo > 0.0:
        raise CertificationFailed("stage orientation: sin(theta0) not verified positive")
    circ = a_iv.sqr() + b_iv.sqr()
    if 1.0 not in circ:
        raise CertificationFailed("stage orientation: a^2 + b^2 enclosure misses 1")

    lam_iv = zs[d]
    x_box = IVector(box.lo[:d], box.hi[:d])
    A_iv = coral.jac_x_iv(lam_iv, x_box)
    try:
        spec = verified_spectrum_inside_disk(A_iv, exclude=2)
    except SpectrumInconclusive as exc:
        raise CertificationFailed(f"stage spectrum: {exc}") from exc
    if spec.count_inside != d - 2 or not spec.outliers_separated:
        raise CertificationFailed(
            f"stage spectrum: {spec.count_inside} eigenvalues inside, "
            f"separated={spec.outliers_separated}")

    try:
        cond_c, cond_c_explicit = ns_condition_c_pair(coral, box)
        theta, angle_checks = ns_condition_d(coral, box)
        cond_e = ns_condition_e(coral, box)
    except (ConditionInconclusive, NotInvertibleEvidence) as exc:
        raise CertificationFailed(f"stage conditions: {exc}") from exc
    if cond_c.contains_zero() or cond_c_explicit.contains_zero():
        raise CertificationFailed(f"stage condition (c): interval {cond_c} "
                                  f"or {cond_c_explicit} contains 0")
    if not all(angle_checks.values()):
        raise CertificationFailed(f"stage condition (d): {angle_checks}")
    if cond_e.contains_zero():
        raise CertificationFailed(f"stage condition (e): interval {cond_e} contains 0")

    x0 = np.asarray(anchor[:d], float)
    lam0 = float(anchor[d])
    P0 = float(coral.cf.q @ x0)
    summary = {
        "R": coral.cf.ba * lam0,
        "lambda": lam0,
        "x1": float(x0[0]),
        "P": P0,
        "theta0_deg": theta.mid,
        "rho": base.rho,
        "K": base.K,
        "L1": base.L1,
    }
    conditions = {
        "c_transversality_total": (cond_c.lo, cond_c.hi),
        "c_transversality": (cond_c_explicit.lo, cond_c_explicit.hi),
        "d_theta0_deg": (theta.lo, theta.hi),
        "e_normal_form": (cond_e.lo, cond_e.hi),
    }
    return BifCertificate(
        kind="neimark_sacker",
        anchor=tuple(float(v) for v in anchor),
        enclosure_lo=tuple(float(v) for v in box.lo),
        enclosure_hi=tuple(float(v) for v in box.hi),
        delta_accuracy=base.delta_accuracy,
        delta_uniqueness=base.delta_uniqueness,
        conditions=conditions,
        spectrum_inside=spec.count_inside,
        summary=summary,
        base=base,
    )


# ---------------------------------------------------------------------------
# saddle-node conditions and certification
# ---------------------------------------------------------------------------


def _sn_left_vector(coral: CoralMap, A_iv: IMatrix, v_mid: np.ndarray) -> IVector:
    """Enclosure of the left kernel vector p of (A - I), pinned by a
    numerical normalization row (callers renormalize to p^t q = 1)."""
    d = coral.d
    N_mid = A_iv.mid.T - np.eye(d)
    ev, vecs = np.linalg.eig(N_mid)
    k = int(np.argmin(np.abs(ev)))
    p0 = np.real(vecs[:, k])
    pin = p0 / float(p0 @ p0)
    n = d + 1
    lo = np.zeros((n, n))
    hi = np.zeros((n, n))
    M = IMatrix(lo, hi)
    for i in range(d):
        for j in range(d):
            e = A_iv.entry(j, i)          # transpose
            if i == j:
                e = e - Interval(1.0)
            M.set_entry(i, j, e)
        M.set_entry(i, d, Interval(float(v_mid[i])))
        M.set_entry(d, i, Interval(float(pin[i])))
    rhs = np.zeros(n)
    rhs[d] = 1.0
    sol = verified_solve(M, IVector.point(rhs))
    return IVector(sol.lo[:d], sol.hi[:d])


def sn_conditions(coral: CoralMap, box: IVector) -> tuple[Interval, Interval]:
    """(c) p^t D_lambda f and (d) p^t B(q, q) over the certified box, with
    q = v and p normalized so that p^t q = 1.

    The certified kernel vector fixes an arbitrary sign; the returned
    values use the orientation that makes (c) negative (only the product
    (c)*(d) is orientation invariant)."""
    d = coral.d
    zs = box.to_scalars()
    x, v, lam = zs[:d], zs[d:2 * d], zs[2 * d]
    x_box = IVector(box.lo[:d], box.hi[:d])
    A_iv = coral.jac_x_iv(zs[2 * d], x_box)
    phis = phi_derivs(polyp_density(x, coral.ci), coral.params, order=2)
    bx = sum((bk * xk for bk, xk in zip(coral.ci.b, x)), Interval(0.0))

    p_raw = _sn_left_vector(coral, A_iv, box.mid[d:2 * d])
    ps = p_raw.to_scalars()
    z = Interval(0.0)
    for pi, vi in zip(ps, v):
        z = z + pi * vi
    if z.contains_zero():
        raise ConditionInconclusive("p^t q enclosure touches zero")
    ps = [pi / z for pi in ps]

    cond_c = ps[0] * (phis[0] * bx)

    qv = Interval(0.0)
    bv = Interval(0.0)
    for qk, bk, vk in zip(coral.ci.q, coral.ci.b, v):
        qv = qv + qk * vk
        bv = bv + bk * vk
    B1 = lam * (phis[2] * bx * qv * qv + phis[1] * (qv * bv + bv * qv))
    cond_d = ps[0] * B1

    if cond_c.mid > 0.0:
        cond_c, cond_d = -cond_c, -cond_d
    return cond_c, cond_d


def certify_sn(coral: CoralMap, anchor: np.ndarray | None = None,
               ell: float = 1e-6) -> BifCertificate:
    """Saddle-node certification: CIFT zero of H_sn, simple-eigenvalue-1
    verification, and interval conditions (c), (d)."""
    sn = SnSystem(coral)
    d = coral.d
    if anchor is None:
        anchor = find_sn_anchor(coral)
    elif isinstance(anchor, SnPoint):
        anchor = anchor.to_array()
    try:
        base = cift.validate_zero(sn, anchor, ell)
    except Exception as exc:
        raise CertificationFailed(f"stage cift: {exc}") from exc
    box = IVector.around(np.asarray(anchor, float), base.delta_accuracy)
    zs = box.to_scalars()
    lam_iv = zs[2 * d]
    x_box = IVector(box.lo[:d], box.hi[:d])
    A_iv = coral.jac_x_iv(lam_iv, x_box)
    try:
        spec = verified_spectrum_inside_disk(A_iv, exclude=1)
    except SpectrumInconclusive as exc:
        raise CertificationFailed(f"stage spectrum: {exc}") from exc
    if spec.count_inside != d - 1 or not spec.outliers_separated:
        raise CertificationFailed(
            f"stage spectrum: {spec.count_inside} eigenvalues inside, "
            f"separated={spec.outliers_separated}")

    try:
        cond_c, cond_d = sn_conditions(coral, box)
    except (ConditionInconclusive, NotInvertibleEvidence) as exc:
        raise CertificationFailed(f"stage conditions: {exc}") from exc
    if cond_c.contains_zero():
        raise CertificationFailed(f"stage condition (c): interval {cond_c} contains 0")
    if cond_d.contains_zero():
        raise CertificationFailed(f"stage condition (d): interval {cond_d} contains 0")

    x0 = np.asarray(anchor[:d], float)
    lam0 = float(anchor[2 * d])
    summary = {
        "R": coral.cf.ba * lam0,
        "lambda": lam0,
        "x1": float(x0[0]),
        "P": float(coral.cf.q @ x0),
        "rho": base.rho,
        "K": base.K,
        "L1": base.L1,
    }
    return BifCertificate(
        kind="saddle_node",
        anchor=tuple(float(v) for v in anchor),
        enclosure_lo=tuple(float(v) for v in box.lo),
        enclosure_hi=tuple(float(v) for v in box.hi),
        delta_accuracy=base.delta_accuracy,
        delta_uniqueness=base.delta_uniqueness,
        conditions={"c_transversality": (cond_c.lo, cond_c.hi),
                    "d_nondegeneracy": (cond_d.lo, cond_d.hi)},
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
    v: np.ndarray                 # right eigenvector = survival products a
    w: np.ndarray                 # left eigenvector (backward recursion)
    nd1: Interval                 # w^t D_{x lambda} f v
    nd2: Interval                 # w^t D_{xx} f [v, v]
    eigvec_residual: float        # |(D_x f(lambda*, 0) - I) a|_inf / |a|_inf

    def to_json_dict(self) -> dict:
        return {
            "kind": "transcritical",
            "R_star": [repr(self.R_star.lo), repr(self.R_star.hi)],
            "lambda_star": [repr(self.lambda_star.lo), repr(self.lambda_star.hi)],
            "v": [repr(x) for x in self.v],
            "w": [repr(x) for x in self.w],
            "nd1": [repr(self.nd1.lo), repr(self.nd1.hi)],
            "nd2": [repr(self.nd2.lo), repr(self.nd2.hi)],
            "eigvec_residual": repr(self.eigvec_residual),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


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
    w = np.array([wi.mid for wi in w_iv])
    v = np.array(coral.cf.a, dtype=float)

    c_ratio = Interval(p.c1) / Interval(p.c2)
    nd1 = w_iv[0] * c_ratio * ci.ba
    nd2 = w_iv[0] * ((2.0 * (Interval(p.beta) - Interval(p.alpha)))
                     / Interval(p.omega)) * ci.sum_pa

    lam0 = float(p.c2 / p.c1 / coral.cf.ba)
    res = coral.jac_x(lam0, np.zeros(d)) - np.eye(d)
    resid = float(np.max(np.abs(res @ coral.cf.a)) / np.max(np.abs(coral.cf.a)))
    return TranscriticalResult(R_star=R_star, lambda_star=lam_star, v=v, w=w,
                               nd1=nd1, nd2=nd2, eigvec_residual=resid)


def trivial_branch_det_formula(lam: float, coral: CoralMap) -> float:
    """Closed form of det(D_x f(lambda, 0) - I): the zero sits at
    lambda* = c2/(c1 (b.a)); the leading factor makes it match the raw
    determinant, not just its zero set."""
    p = coral.params
    scale = p.c1 * coral.cf.ba / p.c2
    sign = 1.0 if coral.d % 2 == 0 else -1.0
    return sign * (1.0 - scale * lam)
