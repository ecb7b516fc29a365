"""Reference evaluations for the tests: the float map one state at a time
(step, map_F, jac_lam) and its orbits in plain renewal form
(renewal_orbit), and high-precision (mpmath) twins of the map
evaluations, used as independent oracles for the soundness checks: a
certificate claims a true zero within delta_accuracy of the anchor, and a
50+ digit Newton refinement must land inside that ball.  Also the plain
forms of optimised stages, which must give the same results: the stability
labels from LAPACK eigenvalues, the branch emitters that format box by
box, and the bounds on rows of floats as scalar `Interval` evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

from certibif.cli import _write_csv
from certibif.interval import Interval, up_dot, up_mul, up_sum
from certibif.model import CoralMap, derive_generic, phi, phi_derivs


def contains(iv: list, x) -> bool:
    """Every entry of the float vector x lies in the same entry of the
    list of Intervals iv."""
    x = np.asarray(x, dtype=float).tolist()
    return len(iv) == len(x) and all(v.lo <= xi <= v.hi for v, xi in zip(iv, x))


def assert_json_lossless(cert, blob: str) -> None:
    """The JSON text `blob` of the certificate dataclass `cert` loses
    nothing: every float field, nested ones too, equals float() of its
    string, every Interval field's [lo, hi] strings parse back to its
    endpoints, and the text is the canonical dump of its own parse."""
    def check(value, node):
        if isinstance(value, Interval):
            assert [float(s) for s in node] == [value.lo, value.hi]
        elif isinstance(value, (float, np.floating)):
            assert isinstance(node, str) and float(node) == value
        elif is_dataclass(value):
            for f in fields(value):
                check(getattr(value, f.name), node[f.name])
        elif isinstance(value, dict):
            assert sorted(node) == sorted(value)
            for k, v in value.items():
                check(v, node[k])
        elif isinstance(value, (tuple, list)):
            assert len(node) == len(value)
            for v, n in zip(value, node):
                check(v, n)
        else:
            assert node == value

    tree = json.loads(blob)
    check(cert, tree)
    assert json.dumps(tree, indent=2, sort_keys=True) == blob


def step(coral: CoralMap, lam: float, x: np.ndarray) -> np.ndarray:
    """f(lambda, x) for one float state, one component at a time."""
    x = np.asarray(x, dtype=float)
    P = float(coral.cf.q @ x)
    bx = float(coral.cf.b @ x)
    out = np.empty(coral.d)
    out[0] = lam * phi(P, coral.params) * bx
    out[1:] = np.array(coral.params.S, dtype=float) * x[:-1]
    return out


def map_F(coral: CoralMap, lam: float, x: np.ndarray) -> np.ndarray:
    """F = f(lambda, x) - x."""
    return step(coral, lam, x) - np.asarray(x, dtype=float)


def jac_lam(coral: CoralMap, lam: float, x: np.ndarray) -> np.ndarray:
    """D_lambda f: only recruitment depends on lambda."""
    x = np.asarray(x, dtype=float)
    P = float(coral.cf.q @ x)
    out = np.zeros(coral.d)
    out[0] = phi(P, coral.params) * float(coral.cf.b @ x)
    return out


def renewal_orbit(coral: CoralMap, lams: np.ndarray, x0s: np.ndarray, n: int,
                  skip: int) -> np.ndarray:
    """Iterates skip+1 .. skip+n (n, m, d) of the m orbits from the states
    x0s (m, d) with the lams (m,), in the renewal form of
    `dynamics.iterate` but without its blocks, buffers and fused kernel:
    rounds of two iterates, each taking q.x and b.x at t and t+1 from one
    (4, d) product of reversed q*a and b*a weights with the last d
    recruitments (plus what x0's older classes, aged by chained survival
    shifts, add over the first d - 1 iterates), and the recruits from
    lam * phi(P) * b.x; then x_{j+1}(t) = S_j x_j(t-1)."""
    d, cf = coral.d, coral.cf
    S = np.array(coral.params.S, dtype=float)
    qa, ba = cf.q * cf.a, cf.b * cf.a
    W = np.zeros((4, d))
    W[0], W[1, 1:], W[2], W[3, 1:] = qa[::-1], qa[:0:-1], ba[::-1], ba[:0:-1]
    qb = np.stack([cf.q, cf.b])
    older = np.zeros((d // 2, 4, len(lams)))
    y = x0s.T.copy()
    y[0] = 0.0
    for s in range(d - 1):
        older[s // 2, [s % 2, 2 + s % 2]] = qb @ y
        y[1:] = S[:, None] * y[:-1]
    H = np.zeros((skip + n + d + 2, len(lams)))    # H[d + t] is x_1(t)
    H[d] = x0s[:, 0]
    for t in range(0, skip + n, 2):
        Pb = W.dot(H[t + 1:t + d + 1])
        if t // 2 < len(older):
            Pb += older[t // 2]
        H[t + d + 1:t + d + 3] = lams * phi(Pb[:2], coral.params) * Pb[2:]
    X = np.empty((skip + n + 1, len(lams), d))
    X[0] = x0s
    X[1:, :, 0] = H[d + 1:skip + n + d + 1]
    for t in range(1, skip + n + 1):
        X[t, :, 1:] = S * X[t - 1, :, :-1]
    return X[skip + 1:]


def mp_coeffs(coral: CoralMap):
    """The derived coefficients in mpmath, to 60 digits whatever the
    caller's precision, so that a zero refined with them at 50 or 60 digits
    is a zero of the model to those digits."""
    with mp.workdps(60):
        return derive_generic(coral.params,
                              lift=lambda x: mp.mpf(x),
                              pow_=lambda k, r: mp.power(mp.mpf(k), mp.mpf(r)))


def mp_newton(value_fn, jac_fn, z0, steps: int = 30, dps: int = 60):
    """Newton iteration in mpmath; returns the refined zero as mp matrix."""
    with mp.workdps(dps):
        z = mp.matrix([mp.mpf(float(v)) for v in z0])
        for _ in range(steps):
            r = value_fn(z)
            J = jac_fn(z)
            dz = mp.lu_solve(J, -r)
            z = z + dz
            if max(abs(v) for v in dz) < mp.mpf(10) ** (-dps + 10):
                break
        return z


def mp_fd_jacobian(value_fn, z, h=None):
    """Central finite differences at working precision (adequate because
    the oracle only needs ~20 correct digits out of 60)."""
    n = len(z)
    m = len(value_fn(z))
    h = h or mp.mpf(10) ** -20
    J = mp.zeros(m, n)
    for j in range(n):
        zp = mp.matrix(z)
        zm = mp.matrix(z)
        zp[j] = zp[j] + h
        zm[j] = zm[j] - h
        fp = value_fn(zp)
        fm = value_fn(zm)
        for i in range(m):
            J[i, j] = (fp[i] - fm[i]) / (2 * h)
    return J


def mp_system_refine(system, coeffs, z0, dps: int = 60):
    """Refine a zero of an extended system (NsSystem/SnSystem) with the
    generic-scalar evaluation path at high precision."""
    def val(z):
        return mp.matrix(system.value_scalars(list(z), coeffs))

    def jac(z):
        return mp_fd_jacobian(val, z)

    return mp_newton(val, jac, z0, dps=dps)


def mp_branch_F(system, coeffs):
    """F(t, u) of the scaled branch system, in mpmath (lists in and out)."""
    s = [mp.mpf(float(si)) for si in system.s]
    rscale = mp.mpf(system.rscale)
    coral = system.coral

    def F(t, u):
        lam = rscale * t / coeffs.ba
        x = [si * ui for si, ui in zip(s, u)]
        f = coral.step_scalars(lam, x, coeffs)
        return [fi / si - ui for fi, si, ui in zip(f, s, u)]

    return F


def mp_branch_G(system, coeffs, t0, u0, mu, v):
    """G(alpha, (sigma, x)) for the scaled branch system, in mpmath."""
    mu_m = mp.mpf(float(mu))
    v_m = [mp.mpf(float(vi)) for vi in v]
    t0_m = mp.mpf(float(t0))
    u0_m = [mp.mpf(float(ui)) for ui in u0]
    F = mp_branch_F(system, coeffs)

    def G(alpha, z):
        sigma, xs = z[0], list(z[1:])
        first = mu_m * sigma + sum(vi * xi for vi, xi in zip(v_m, xs))
        rest = F(t0_m + alpha * mu_m + sigma,
                 [ui + alpha * vi + xi for ui, vi, xi in zip(u0_m, v_m, xs)])
        return mp.matrix([first] + rest)

    return G


def mp_refine_branch_point(system, coeffs, box, alpha, dps: int = 50):
    """Solve G(alpha, .) = 0 at high precision from the box anchor."""
    G = mp_branch_G(system, coeffs, box.t, box.u, box.mu, box.v)
    a = mp.mpf(float(alpha))

    def val(z):
        return G(a, z)

    def jac(z):
        return mp_fd_jacobian(val, z)

    z0 = np.zeros(system.d + 1)
    with mp.workdps(dps):
        return mp_newton(val, jac, z0, dps=dps)


def scalar_row1(coral, x: list):
    """phi..phi''', b.x, g and dg/dx over a box in scalar Interval
    arithmetic, in the k order the one-x jet promises."""
    ci = coral.ci
    P = ci.q[0] * x[0]
    for qk, xk in zip(ci.q[1:], x[1:]):
        P = P + qk * xk
    bx = 0.0 * P
    for bk, xk in zip(ci.b, x):
        bx = bx + bk * xk
    phis = phi_derivs(P, coral.params, order=3)
    g1 = [phis[1] * qk * bx + phis[0] * bk for qk, bk in zip(ci.q, ci.b)]
    return phis, bx, phis[0] * bx, g1


def leslie_matrices(row1: np.ndarray, sub) -> np.ndarray:
    """The dense (n, d, d) Leslie matrices of the first rows row1 (n, d) and
    the subdiagonal sub (d - 1,) or (n, d - 1)."""
    n, d = np.shape(row1)
    J = np.zeros((n, d, d))
    J[:, 0], J[:, np.arange(1, d), np.arange(d - 1)] = row1, sub
    return J


def leslie_pair(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first rows, subdiagonals) of a stack (n, d, d) of Leslie matrices."""
    return J[:, 0], np.diagonal(J, offset=-1, axis1=1, axis2=2)


def eigvals_labels(jac_x: np.ndarray):
    """`continuation.classify_stability` by LAPACK on the dense matrices:
    count the eigenvalues of each D_x f outside the unit circle."""
    ev = np.linalg.eigvals(jac_x)
    idx = (np.abs(ev) > 1.0).sum(axis=-1)
    label = lambda i: "stable" if i == 0 else f"unstable({i})"
    return label(int(idx)) if np.ndim(idx) == 0 else [label(i) for i in idx.tolist()]


def lipschitz_reference(T: np.ndarray, absB: np.ndarray) -> float:
    """`cift.lipschitz_from_tensor` with the whole (m, m, m) product bounded
    entry by entry (`up_dot`) before the max over k, the sum over j and the
    factor m."""
    inner = up_dot(absB, T).max(axis=1)
    return float(np.max(up_mul(float(T.shape[0]), up_sum(inner, axis=1))))


# ---------------------------------------------------------------------------
# scalar Interval references of the bounds on rows of floats: each formula
# as the two-sided interval evaluation whose end the stacked float code
# (`interval.add_hi`, `mul_hi`, `div_hi`) must give bit for bit
# ---------------------------------------------------------------------------


def special_stack(rng, n: int, lo: float = -300.0, hi: float = 300.0, inf: bool = True):
    """n nonnegative floats, log-uniform over [10^lo, 10^hi], about one in
    eight each an exact zero, a subnormal, a float near the largest one,
    and (with `inf`) +inf."""
    x = 10.0 ** rng.uniform(lo, hi, n)
    kind = rng.integers(0, 8, n)
    x[kind == 0] = 0.0
    x[kind == 1] = rng.integers(1, 2 ** 40, int((kind == 1).sum())) * 5e-324
    x[kind == 2] = 1.7976931348623157e308 * rng.uniform(0.5, 1.0, int((kind == 2).sum()))
    if inf:
        x[kind == 3] = math.inf
    return x


def extended_constants_reference(M, mu: float, v) -> tuple[float, float, float]:
    """L1, L2 and L4 of `continuation.derive_extended_constants` for one
    segment."""
    I = Interval
    M1, M2, M3, M4 = (I(m) for m in M)
    vn, am = I(float(np.max(np.abs(v)))), I(abs(mu))
    L1 = ((M1 + M3) + (M2 + M4)).hi
    L2 = ((M1 + M3) * vn + (M2 + M4) * am).hi
    L4 = ((M1 * vn + M2 * am) * vn + (M3 * vn + M4 * am) * am).hi
    return L1, L2, L4


def probe_reference(K, rho, L1, L2, L3, L4, da) -> tuple[float, ...]:
    """`cift._Probe.of` for one segment: the upper ends of the gate 4 K^2
    rho L1, the floor 2K rho + 2K L3 da + 2K L4 da^2, delta_min = 2K rho,
    2K L1 and 2K L2 da."""
    I = Interval
    K2 = 2.0 * I(K)
    K2rho = K2 * I(rho)
    gate = 4.0 * I(K) * I(K) * I(rho) * I(L1)
    floor = K2rho + K2 * I(L3) * da + K2 * I(L4) * da * da
    return gate.hi, floor.hi, K2rho.hi, (K2 * I(L1)).hi, (K2 * I(L2) * da).hi


def dx_ceiling_reference(K, L1, L2, da, ell_x) -> float:
    """`cift._dx_ceiling` for one segment: the lower end of min((1 - 2K L2
    da) / 2K L1, ell_x - da); 0 where L1 > 0 and the numerator's lower end
    is <= 0, -inf where the divisor's is (an interval division by a divisor
    containing 0)."""
    I = Interval
    K2 = 2.0 * I(K)
    num = I(1.0) - K2 * I(L2) * da
    if L1 > 0.0 and num.lo <= 0.0:
        return 0.0
    den = K2 * I(L1)
    quot = math.inf if L1 == 0.0 else -math.inf if den.lo <= 0.0 else (num / den).lo
    return min(quot, (I(ell_x) - I(da)).lo)


def link_sides_reference(norm1, norm2sq, alpha, corr_norm, slack, next_delta_min,
                         residual) -> tuple[float, float]:
    """The two left sides of `continuation.check_link` for one link, from
    |dir|_1 and the lower bound of |dir|_2^2: |alpha| + D and corr_norm +
    slack + delta_min' + D, D = (residual + |dir|_1 (slack + delta_min')) /
    |dir|_2^2."""
    I = Interval
    e = I(slack) + I(next_delta_min)
    D = (I(residual) + I(norm1) * e) / I(norm2sq)
    return (I(abs(alpha)) + D).hi, (I(corr_norm) + e + D).hi


def rounding_gap_reference(prev, alpha, tau, corr, new) -> float:
    """`continuation._anchor_rounding_gap` of one step: the largest
    magnitude of ((prev + alpha tau) + corr) - new over the components."""
    a = Interval(alpha)
    return max((Interval(p) + a * Interval(d) + Interval(c) - Interval(w)).mag
               for p, d, c, w in zip(prev.tolist(), tau.tolist(), corr.tolist(), new.tolist()))


def neumann_K_reference(rho1, rho2) -> float:
    """`cift.neumann_K` of one matrix from rho1 and the row-sum bound rho2
    of |B|: the upper end of rho2 / (1 - rho1)."""
    return (Interval(rho2) / (Interval(1.0) - Interval(rho1))).hi


def emit_branch_csv(path: Path, system, result) -> None:
    """branch.csv written box by box."""
    coral = system.coral

    def rows():
        for b in result.boxes:
            lam, x = system.lam_of_t(b.t), system.s * b.u
            yield ([system.R_of_t(b.t), lam] + list(x)
                   + [float(coral.cf.q @ x), b.delta_alpha, b.delta_u, b.delta_min,
                      b.stability])

    _write_csv(path, ["R", "lambda"] + [f"x{k+1}" for k in range(coral.d)]
               + ["P", "delta_alpha", "delta_u", "delta_min", "stability"], rows())


def emit_bifurcation_diagram(path: Path, system, result, trivial_points: int = 400) -> None:
    """bifurcation_diagram.csv written box by box, with one LAPACK
    eigenvalue call per point of the trivial branch."""
    coral = system.coral
    Rs = [system.R_of_t(b.t) for b in result.boxes]
    lo = min(Rs) if Rs else 1.0
    hi = max(Rs) if Rs else 300.0

    def rows():
        for R, b in zip(Rs, result.boxes):
            yield [R, float(coral.cf.q @ (system.s * b.u)), b.stability,
                   b.delta_u, "nontrivial"]
        for R in np.linspace(max(lo - 5.0, 1e-3), hi, trivial_points):
            lam = R / coral.cf.ba
            yield [float(R), 0.0,
                   eigvals_labels(coral.jac_x(lam, np.zeros(coral.d))),
                   "", "trivial"]

    _write_csv(path, ["R", "P", "stability", "delta_u", "branch"], rows())


def emit_certificate_chain(path: Path, system, res) -> None:
    """branch_certificates.json with one `json.dumps` per box record."""
    head = json.dumps({
        "stop_reason": res.stop_reason,
        "steps": len(res.boxes),
        "all_linked": res.all_linked(),
        "fold_index": res.fold_index,
        "delta_min_max": repr(max((b.delta_min for b in res.boxes), default=0.0)),
        "waves": res.waves,
        "replans": res.replans,
        "boxes_discarded": res.boxes_discarded,
    })
    with path.open("w") as fh:
        fh.write(head[:-1] + ', "boxes": [')
        for i, b in enumerate(res.boxes):
            if i:
                fh.write(", ")
            fh.write(json.dumps({
                "index": b.index,
                "R": repr(system.R_of_t(b.t)),
                "delta_alpha": repr(b.delta_alpha),
                "delta_u": repr(b.delta_u),
                "delta_min": repr(b.delta_min),
                "bound_by": b.bound_by,
                "d": repr(b.bounds.ell_x),
                "K": repr(b.bounds.K),
                "rho": repr(b.bounds.rho),
                "xi": repr(b.bounds.L3),
                "M1": repr(b.M[0]),
                "M2": repr(b.M[1]),
                "M3": repr(b.M[2]),
                "M4": repr(b.M[3]),
                "L1": repr(b.bounds.L1),
                "L2": repr(b.bounds.L2),
                "L4": repr(b.bounds.L4),
                "halvings": b.halvings,
                "linked": b.linked_to_previous,
            }))
        fh.write("]}")
