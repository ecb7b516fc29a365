import cmath
import math
import re
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from certibif import bifurcation
from certibif.bifurcation import (CI, NsSystem, SnSystem, _qb,
                                  atan2_enclosure, certify_ns, certify_sn, find_ns_anchor,
                                  find_sn_anchor, leslie_deflated, leslie_left,
                                  leslie_resolvent,
                                  ns_box_data, ns_condition_c_pair,
                                  ns_condition_d, ns_condition_e,
                                  transcritical_analysis,
                                  verified_spectrum_inside_disk)
from certibif.cift import certificate_json
from certibif.errors import DomainError, SpectrumInconclusive
from certibif.interval import Interval, around
from certibif.model import (CoralMap, CoralParams, FixedPointReduction, phi_derivs,
                            row1_d2)

from helpers import (assert_json_lossless, contains, lipschitz_reference, mp_coeffs,
                     mp_fd_jacobian, mp_system_refine, step)


# ---------------------------------------------------------------------------
# complex interval scalars and atan2
# ---------------------------------------------------------------------------


def test_ci_arithmetic_contains_complex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        za = CI(Interval(a), Interval(b))
        zb = CI(Interval(c), Interval(d))
        w = complex(a, b) * complex(c, d)
        prod = za * zb
        assert w.real in prod.re and w.imag in prod.im
        if abs(complex(c, d)) > 1e-3:
            q = complex(a, b) / complex(c, d)
            quot = za / zb
            assert q.real in quot.re and q.imag in quot.im


def test_ci_abs_bounds():
    """For z = 3 + 4i: |z|^2 = z conj(z) holds 25 with imaginary part 0, its
    square root holds |z| = 5, and z / z (whose denominator is |z|^2)
    holds 1."""
    z = CI(Interval(3.0), Interval(4.0))
    zz = z * z.conj()
    assert 25.0 in zz.re and zz.im.contains_zero()
    assert math.sqrt(zz.re.lo) <= 5.0 <= math.sqrt(zz.re.hi)
    one = z / z
    assert 1.0 in one.re and one.im.contains_zero()


def test_atan2_enclosure_corners():
    th = atan2_enclosure(Interval(0.9, 1.1), Interval(0.9, 1.1))
    assert th.lo <= math.pi / 4 <= th.hi
    for bb in (0.9, 1.1):
        for aa in (0.9, 1.1):
            assert math.atan2(bb, aa) in th


def test_atan2_enclosure_spanning_vertical():
    th = atan2_enclosure(Interval(1.0, 2.0), Interval(-0.5, 0.5))
    assert math.atan2(1.0, 0.0) in th
    assert th.hi < math.pi and th.lo > 0.0


def test_atan2_requires_positive_sine():
    with pytest.raises(DomainError):
        atan2_enclosure(Interval(-1.0, 1.0), Interval(1.0))


# ---------------------------------------------------------------------------
# extended systems
# ---------------------------------------------------------------------------


def test_hns_dimension_and_zero_residual(coral, ns_cert):
    ns = NsSystem(coral)
    assert ns.dim == 3 * 13 + 3 == 42
    z = np.array(ns_cert.anchor)
    assert np.max(np.abs(ns.value(z))) <= 1e-11


def test_hns_rows_are_real_imag_eigen_equation(coral):
    """Rows 2-3 encode D_xf (u + i w) = (a - i b)(u + i w)."""
    x, lam, w, u, a, b = NsSystem(coral).split(find_ns_anchor(coral))
    A = coral.jac_x(lam, x)
    zeta = u + 1j * w
    assert np.max(np.abs(A @ zeta - (a - 1j * b) * zeta)) <= 1e-11


def test_hns_value_on_synthetic_eigen_data():
    """The block formulas vanish for hand-built exact eigen data of a pure
    rotation: rows 2..3 evaluated directly, no map involved."""
    th = 0.7
    a, b = math.cos(th), math.sin(th)
    A = np.array([[a, -b], [b, a]])     # A (u + i w) = (a - i b)(u + i w)
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    r2 = A @ w - a * w + b * u
    r3 = A @ u - b * w - a * u
    assert np.max(np.abs(r2)) <= 1e-15 and np.max(np.abs(r3)) <= 1e-15
    assert abs(a * a + b * b - 1.0) <= 1e-15


def test_hns_interval_value_contains_float(coral):
    ns = NsSystem(coral)
    z = find_ns_anchor(coral)
    enc = ns.value_iv(around(z, 1e-9))
    assert contains(enc, ns.value(z))


def _assert_jac_iv_contains_mp_jacobian(coral, system, z, perturbed=2):
    """At z and at `perturbed` float points near it, the 50-digit
    finite-difference Jacobian of value_scalars lies inside jac_iv at the
    same point to within 1e-20 * max(1, |J|).  The tolerance is far below
    an ulp, so each entry that jac_iv takes from the float `jac` as exact
    has to be exact."""
    rng = np.random.default_rng(system.dim)
    points = [z] + [z * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, system.dim))
                    for _ in range(perturbed)]
    with mp.workdps(50):
        coeffs = mp_coeffs(coral)

        def val(zz):
            return mp.matrix(system.value_scalars(list(zz), coeffs))

        for pt in points:
            Jlo, Jhi = system.jac_iv(pt)
            J = mp_fd_jacobian(val, mp.matrix([mp.mpf(float(v)) for v in pt]))
            for i in range(system.dim):
                for j in range(system.dim):
                    tol = mp.mpf(1e-20) * max(1, abs(J[i, j]))
                    assert Jlo[i, j] - tol <= J[i, j] <= Jhi[i, j] + tol, (i, j)


def test_hns_jacobian_matches_finite_differences(coral):
    ns = NsSystem(coral)
    z = find_ns_anchor(coral)
    J = ns.jac(z)
    rng = np.random.default_rng(3)
    for j in rng.choice(42, size=10, replace=False):
        h = 1e-6 * max(1.0, abs(z[j]))
        e = np.zeros(42); e[j] = h
        col = (ns.value(z + e) - ns.value(z - e)) / (2 * h)
        assert np.allclose(J[:, int(j)], col, rtol=1e-6, atol=2e-4)
    _assert_jac_iv_contains_mp_jacobian(coral, ns, z)


def test_hsn_dimension_and_jacobian(coral):
    sn = SnSystem(coral)
    assert sn.dim == 2 * 13 + 1 == 27
    z = find_sn_anchor(coral)
    assert np.max(np.abs(sn.value(z))) <= 1e-11
    J = sn.jac(z)
    rng = np.random.default_rng(4)
    for j in rng.choice(27, size=8, replace=False):
        h = 1e-6 * max(1.0, abs(z[j]))
        e = np.zeros(27); e[j] = h
        col = (sn.value(z + e) - sn.value(z - e)) / (2 * h)
        assert np.allclose(J[:, int(j)], col, rtol=1e-6, atol=2e-4)
    _assert_jac_iv_contains_mp_jacobian(coral, sn, z)


@pytest.mark.parametrize("system_cls, find_anchor", [(NsSystem, find_ns_anchor),
                                                     (SnSystem, find_sn_anchor)],
                         ids=["NsSystem", "SnSystem"])
def test_hessian_sup_dominates_finite_differences(coral, system_cls, find_anchor):
    """T[i,k,j] must dominate |d2 H_i / dz_k dz_j| sampled at the anchor."""
    system = system_cls(coral)
    z = find_anchor(coral)
    m = system.dim
    T = system.hessian_sup(around(z, 1e-6))
    rng = np.random.default_rng(5)
    for _ in range(12):
        k, j = rng.integers(0, m, size=2)
        hk = 1e-5 * max(1.0, abs(z[k]))
        hj = 1e-5 * max(1.0, abs(z[j]))
        ek = np.zeros(m); ek[k] = hk
        ej = np.zeros(m); ej[j] = hj
        d2 = (system.value(z + ek + ej) - system.value(z + ek - ej)
              - system.value(z - ek + ej) + system.value(z - ek - ej)) / (4 * hk * hj)
        assert np.all(np.abs(d2) <= T[:, int(k), int(j)] + 1e-4)


def _seed0_system(coral, kind, sn_cert, ns_cert):
    """The seed-0 system of `kind`, its certificate and the certificate's
    preconditioner B = inv(jac(anchor))."""
    system, cert = (SnSystem(coral), sn_cert) if kind == "sn" else (NsSystem(coral), ns_cert)
    return system, cert, np.linalg.inv(system.jac(np.array(cert.anchor)))


@pytest.mark.parametrize("kind", ["sn", "ns"])
def test_lipschitz_from_tensor_equals_the_entrywise_bound_at_the_certificates(
        coral, sn_cert, ns_cert, kind):
    """At the seed-0 anchors, L1 from hessian_sup over z0 +- 1e-6 and |B|
    equals the bound taken entry by entry over the whole (m, m, m) product
    before the max over k, bit for bit, and is the certificate's L1."""
    from certibif.cift import lipschitz_from_tensor
    system, cert, B = _seed0_system(coral, kind, sn_cert, ns_cert)
    T = system.hessian_sup(around(cert.anchor, 1e-6))
    ref = lipschitz_reference(T, np.abs(B))
    L1 = lipschitz_from_tensor(T, np.abs(B))
    assert np.float64(L1).view(np.int64) == np.float64(ref).view(np.int64)
    assert L1 == cert.base.L1


@pytest.mark.parametrize("kind", ["sn", "ns"])
def test_L1_bounds_preconditioned_jacobian_changes_high_precision(
        coral, sn_cert, ns_cert, kind):
    """Soundness of (H3): between points z, z' of the certificate's box z0
    +- ell, the 50-digit change of B DH in max norm stays within L1 |z -
    z'|, DH the finite-difference Jacobian of value_scalars.  The sampled
    pairs come within a factor m of L1, so an L1 without its factor m
    fails."""
    system, cert, B = _seed0_system(coral, kind, sn_cert, ns_cert)
    z0, m, L1 = np.array(cert.anchor), system.dim, cert.base.L1
    r = cert.base.ell * (1.0 - 2.0 ** -20)
    rng = np.random.default_rng(20)
    pairs = [(z0 - r * w, z0 + r * w)
             for w in (np.ones(m), rng.choice([-1.0, 1.0], m), rng.choice([-1.0, 1.0], m))]
    pairs.append((z0, z0 + r * rng.uniform(-1.0, 1.0, m)))
    worst = 0.0
    with mp.workdps(50):
        coeffs = mp_coeffs(coral)
        Bm = mp.matrix(B.tolist())

        def jac(z):
            return mp_fd_jacobian(lambda w: mp.matrix(system.value_scalars(list(w), coeffs)),
                                  mp.matrix([mp.mpf(float(v)) for v in z]))

        for za, zb in pairs:
            D = Bm * (jac(zb) - jac(za))
            dz = max(abs(mp.mpf(float(x)) - mp.mpf(float(y))) for x, y in zip(zb, za))
            change = max(sum(abs(D[i, j]) for j in range(m)) for i in range(m))
            assert change <= L1 * dz + mp.mpf(10) ** -20
            worst = max(worst, float(change / (L1 * dz)))
    assert worst > 1.0 / m


# ---------------------------------------------------------------------------
# numerical anchors
# ---------------------------------------------------------------------------

# (c2, beta) of the benchmark's certify seeds 2 and 8 (perfbench/workloads.py);
# on seed 8 the NS Newton refinement once ran into its 50-step cap
_SEED_PARAMS = {"seed0": None,
                "seed2": (13011856.89106912, 0.003403045226912003),
                "seed8": (12992894.352343908, 0.003403143606243673)}


def _seed_coral(coral, name):
    pc = _SEED_PARAMS[name]
    return coral if pc is None else CoralMap(CoralParams(c2=pc[0], beta=pc[1]))


def _seeds(monkeypatch, coral) -> dict:
    """kind -> the seed that each find_*_anchor hands to its Newton refinement."""
    seen = {}
    refine = bifurcation._newton_refine

    def record(system, z0, *args, **kwargs):
        seen[system.kind] = np.array(z0)
        return refine(system, z0, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "_newton_refine", record)
    find_sn_anchor(coral)
    find_ns_anchor(coral)
    return seen


def _rel_eig_residual(A, v, mu) -> float:
    return np.linalg.norm(A @ v - mu * v) / (np.linalg.norm(A) * np.linalg.norm(v))


@pytest.mark.parametrize("name", _SEED_PARAMS)
def test_seed_eigenvectors_are_leslie_eigenvectors(coral, name, monkeypatch):
    """The seeds' eigenvectors come from the recursion v_1 = 1, v_{k+1} =
    S_k v_k / mu: at the SN seed v is the survival profile and mu = 1; at
    the NS seed u + iw is v for the crossing eigenvalue mu (Im mu < 0) of
    D_x f there, and (a, b) is (Re mu, -Im mu) / |mu|.  Both satisfy
    A v = mu v to 1e-12 relative."""
    c = _seed_coral(coral, name)
    seeds = _seeds(monkeypatch, c)
    x, v, lam = SnSystem(c).split(seeds["saddle_node"])
    assert np.allclose(v, c.cf.a / np.linalg.norm(c.cf.a), rtol=0, atol=1e-15)
    assert _rel_eig_residual(c.jac_x(lam, x), v, 1.0) <= 1e-12
    x, lam, w, u, a, b = NsSystem(c).split(seeds["neimark_sacker"])
    A = c.jac_x(lam, x)
    ev = np.linalg.eigvals(A)
    mu = min(ev[ev.imag < 0], key=lambda e: abs(e / abs(e) - (a - 1j * b)))
    assert abs(mu / abs(mu) - (a - 1j * b)) <= 1e-15
    assert _rel_eig_residual(A, u + 1j * w, mu) <= 1e-12
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-15 and abs(np.linalg.norm(w) - 1.0) <= 1e-15


@pytest.mark.parametrize("name", _SEED_PARAMS)
@pytest.mark.parametrize("system_cls, find_anchor", [(NsSystem, find_ns_anchor),
                                                     (SnSystem, find_sn_anchor)],
                         ids=["NsSystem", "SnSystem"])
def test_anchor_search_cost_and_residual(coral, name, system_cls, find_anchor, monkeypatch):
    """A seed costs at most 20 eigvals calls (one per evaluation of the
    spectral radius; none for SN), no eig call (its eigenvectors are
    closed-form) and at most 4 Newton steps (jac calls), and the anchor's
    residual is at most 1e-11."""
    c = _seed_coral(coral, name)
    calls = {"eigvals": 0, "eig": 0, "value": 0, "jac": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in ("eigvals", "eig"):
        monkeypatch.setattr(np.linalg, key, counted(key, getattr(np.linalg, key)))
    for key in ("value", "jac"):
        monkeypatch.setattr(system_cls, key, counted(key, getattr(system_cls, key)))
    z = find_anchor(c)
    assert calls["eigvals"] <= (20 if system_cls is NsSystem else 0) and calls["eig"] == 0
    assert calls["jac"] <= 4 and calls["value"] <= calls["jac"] + 1
    monkeypatch.undo()
    assert np.max(np.abs(system_cls(c).value(z))) <= 1e-11


def test_newton_refine_stops_at_the_rounding_floor(coral, ns_cert):
    """From an anchor already at the rounding floor the refinement stops
    within two evaluations and returns an iterate no worse than it; from a
    seed off by 1e-4 (relative, in every entry) it still converges."""
    ns = NsSystem(coral)
    z0 = np.array(ns_cert.anchor)
    evals = []

    class Counted:
        def value(self, z):
            evals.append(z)
            return ns.value(z)

        def jac(self, z):
            return ns.jac(z)

    res = lambda z: np.max(np.abs(ns.value(z)))
    z = bifurcation._newton_refine(Counted(), z0)
    assert len(evals) <= 2 and res(z) <= res(z0)
    rng = np.random.default_rng(11)
    off = z0 * (1.0 + 1e-4 * rng.choice([-1.0, 1.0], size=ns.dim))
    evals.clear()
    z = bifurcation._newton_refine(Counted(), off)
    assert res(z) <= 1e-11 and len(evals) <= 10


# ---------------------------------------------------------------------------
# verified spectrum
# ---------------------------------------------------------------------------


def _leslie_from_factors(*factors) -> tuple[list, list]:
    """Row 1 and survival products a_j = 2^-(j-1) (point Intervals) of the
    Leslie matrix whose characteristic polynomial is the product of the
    monic factors (descending dyadic coefficients), built exactly in
    Fractions: A1_j = -c_j / a_j."""
    c = [Fraction(1)]
    for f in factors:
        f = [Fraction(x) for x in f]
        c = [sum(c[i] * f[j - i] for i in range(len(c)) if 0 <= j - i < len(f))
             for j in range(len(c) + len(f) - 1)]
    a = [Fraction(1, 2 ** j) for j in range(len(c) - 1)]
    return ([Interval(float(-cj / aj)) for cj, aj in zip(c[1:], a)],
            [Interval(float(aj)) for aj in a])


def _widened(A1: list, rad: float) -> list:
    return [Interval(v.lo - rad, v.hi + rad) for v in A1]


def test_spectrum_diagonal_inside():
    """The Leslie matrix with the simple root 1 and the others 1/2, -1/4
    and 1/8: all three inside, on the point matrix and on an enclosure
    around it."""
    A1, a = _leslie_from_factors((1, -1), (1, -0.5), (1, 0.25), (1, -0.125))
    assert verified_spectrum_inside_disk(A1, a) == 3
    assert verified_spectrum_inside_disk(_widened(A1, 1e-12), a) == 3


def test_spectrum_rotation_on_circle():
    """The pair e^{+-i pi/3} (z^2 - z + 1, cos theta0 = 1/2) deflated, with
    1/2 and -1/4 inside; deflating at a cos theta0 that is not the pair's
    leaves a remainder that excludes 0."""
    A1, a = _leslie_from_factors((1, -1, 1), (1, -0.5), (1, 0.25))
    assert verified_spectrum_inside_disk(A1, a, Interval(0.5)) == 2
    assert verified_spectrum_inside_disk(_widened(A1, 1e-12), a, Interval(0.5 - 1e-12, 0.5)) == 2
    with pytest.raises(SpectrumInconclusive, match=r"^remainder r_1 = .* excludes 0$"):
        verified_spectrum_inside_disk(A1, a, Interval(0.25))
    with pytest.raises(SpectrumInconclusive, match=r"^remainder r_0 = .* excludes 0$"):
        verified_spectrum_inside_disk(A1, a)


def test_spectrum_too_many_outliers():
    """A root outside the disk besides 1 (here 3) fails the count and names
    the gamma whose sign differs from an all-inside quotient's; a double
    root 1 leaves it on the circle, where a gamma holds 0."""
    A1, a = _leslie_from_factors((1, -1), (1, -3), (1, 0.5))
    with pytest.raises(SpectrumInconclusive,
                       match=r"^1 of the 2 roots of the quotient inside the unit disk: "
                             r"gamma_2 > 0$"):
        verified_spectrum_inside_disk(A1, a)
    A1, a = _leslie_from_factors((1, -1), (1, -1), (1, 0.5))
    with pytest.raises(SpectrumInconclusive, match=r"^gamma_1 = .* holds 0$"):
        verified_spectrum_inside_disk(A1, a)


def _spectrum_args(coral, system, box) -> tuple:
    """Row 1 of D_x f over the box, the survival products and the shift,
    as `_certify` passes them."""
    x_box, lam_iv = system.x_lam(box)
    A1 = [g * lam_iv for g in coral.row1_jet(x_box, order=system.jet_order).g1]
    return A1, coral.ci.a, system._shift(system.split(box))


def test_spectrum_coral_ns(coral, ns_cert):
    assert verified_spectrum_inside_disk(*_spectrum_args(coral, NsSystem(coral), _box(ns_cert))) == 11


def test_spectrum_coral_sn(coral, sn_cert):
    assert verified_spectrum_inside_disk(*_spectrum_args(coral, SnSystem(coral), _box(sn_cert))) == 12


@pytest.mark.parametrize("name", ("sn", "ns"))
def test_spectrum_stage_fails_on_a_quotient_with_a_root_outside(coral, sn_cert, ns_cert,
                                                                 name, monkeypatch):
    """Row 1 of the certified box shifted by t z^(m-1) times the divisor,
    in characteristic-polynomial terms, keeps the root on the circle (the
    remainders still hold 0) but takes t from the quotient's z^(m-1)
    coefficient, which for t = 2 moves a pair of roots out of the disk
    (numpy.roots on the midpoints): the spectrum stage fails with the
    count and names a gamma."""
    from certibif.errors import CertificationFailed
    system, cert = (SnSystem(coral), sn_cert) if name == "sn" else (NsSystem(coral), ns_cert)
    A1, a, shift = _spectrum_args(coral, system, _box(cert))
    divisor = [Interval(1.0), Interval(-1.0)] if shift is None else \
        [Interval(1.0), -2.0 * shift, Interval(1.0)]

    def shifted(A1):
        return [v + 2.0 * dj / aj for v, dj, aj in zip(A1, divisor, a)] + A1[len(divisor):]

    q, rem = leslie_deflated(shifted(A1), a, shift)
    assert all(r.contains_zero() for r in rem.values())
    m, outside = len(q) - 1, int((np.abs(np.roots([v.mid for v in q])) > 1.0).sum())
    assert outside == 2
    message = (rf"{m - outside} of the {m} roots of the quotient inside the unit disk: "
               rf"gamma_\d+ [<>] 0$")
    with pytest.raises(SpectrumInconclusive, match="^" + message):
        verified_spectrum_inside_disk(shifted(A1), a, shift)
    stage = bifurcation.verified_spectrum_inside_disk
    monkeypatch.setattr(bifurcation, "verified_spectrum_inside_disk",
                        lambda A1, a, shift: stage(shifted(A1), a, shift))
    certify = certify_sn if name == "sn" else certify_ns
    with pytest.raises(CertificationFailed, match="^stage spectrum: " + message):
        certify(coral, anchor=np.array(cert.anchor))


def _random_real_polynomials(rng, count: int):
    """`count` monic real polynomials of degree 1..12 from random roots
    (real, or conjugate pairs) of modulus up to 1 or, as often, up to 2.5,
    kept when no root that numpy.roots finds lies within 0.05 of the unit
    circle: each as (descending coefficients, number of roots numpy.roots
    puts outside the disk)."""
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 13))
        pairs = int(rng.integers(0, n // 2 + 1))
        mods = rng.uniform(0.0, rng.choice([1.0, 2.5]), n - pairs)
        roots = list(mods[:pairs] * np.exp(1j * rng.uniform(0.0, np.pi, pairs)))
        roots += [np.conj(r) for r in roots]
        roots += list(mods[pairs:] * rng.choice([-1.0, 1.0], n - 2 * pairs))
        c = np.real(np.poly(roots))
        found = np.abs(np.roots(c))
        if np.min(np.abs(found - 1.0)) > 0.05:
            out.append((c, int((found > 1.0).sum())))
    return out


def test_schur_cohn_count_matches_numpy_roots():
    """On 1,000 seeded random real polynomials q of degree <= 12 with no
    root within 0.05 of the circle, the float recursion of the branch
    labels (on the Leslie matrix with unit survival rates) counts the
    roots outside as numpy.roots does.  The interval kernel, on (z - 1) q
    in point intervals, certifies every q with all roots inside; for every
    other q it fails, with numpy.roots' count wherever its gammas are
    decided, which is at least 95% of them (a Schur-Cohn step can cancel
    to within its enclosure's width when the roots straddle the circle)."""
    from certibif.continuation import _leslie_outside_counts
    polys = _random_real_polynomials(np.random.default_rng(20261020), 1000)
    counted = stable = 0
    for c, outside in polys:
        n = len(c) - 1
        J = np.zeros((1, n, n))
        J[0, 0] = -c[1:]
        J[0, np.arange(1, n), np.arange(n - 1)] = 1.0
        counts, ambiguous = _leslie_outside_counts(J)
        assert not ambiguous[0] and counts[0] == outside, (c, outside)
        q = [Interval(float(v)) for v in c]
        times_z_minus_1 = [q[0]] + [qj - qi for qj, qi in zip(q[1:], q)] + [-q[-1]]
        A1, a = [-v for v in times_z_minus_1[1:]], [Interval(1.0)] * (n + 1)
        if outside == 0:
            assert verified_spectrum_inside_disk(A1, a) == n, c
            stable += 1
            continue
        with pytest.raises(SpectrumInconclusive) as exc:
            verified_spectrum_inside_disk(A1, a)
        found = re.match(rf"^(\d+) of the {n} roots", str(exc.value))
        if found:
            assert int(found.group(1)) == n - outside, (c, outside)
            counted += 1
    assert stable >= 300 and counted >= 0.95 * (len(polys) - stable), (stable, counted)


# ---------------------------------------------------------------------------
# NS conditions against a floating-point oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ns_float_oracle(coral):
    z = find_ns_anchor(coral)
    x0, lam0, w0, u0, a0, b0 = NsSystem(coral).split(z)
    A = coral.jac_x(lam0, x0)
    mu = a0 + 1j * b0
    q = u0 - 1j * w0
    ev, vecs = np.linalg.eig(A.T)
    k = int(np.argmin(np.abs(ev - np.conj(mu))))
    p = vecs[:, k]
    p = p / np.conj(np.vdot(p, q))
    cf = coral.cf
    P = float(cf.q @ x0)
    bx = float(cf.b @ x0)
    ph, p1d, p2d, p3d = phi_derivs(P, coral.params, order=3)
    g1 = p1d * cf.q * bx + ph * cf.b
    g2 = p2d * bx * np.outer(cf.q, cf.q) + p1d * (np.outer(cf.q, cf.b)
                                                  + np.outer(cf.b, cf.q))

    def B(y, z2):
        out = np.zeros(13, dtype=complex)
        qy, qz = cf.q @ y, cf.q @ z2
        by, bz = cf.b @ y, cf.b @ z2
        out[0] = lam0 * (p2d * bx * qy * qz + p1d * (qy * bz + by * qz))
        return out

    def C(y, z2, v):
        out = np.zeros(13, dtype=complex)
        qy, qz, qv = cf.q @ y, cf.q @ z2, cf.q @ v
        by, bz, bv = cf.b @ y, cf.b @ z2, cf.b @ v
        out[0] = lam0 * (p3d * bx * qy * qz * qv
                         + p2d * (qy * qz * bv + qy * bz * qv + by * qz * qv))
        return out

    Dlamf = np.zeros(13)
    Dlamf[0] = ph * bx
    x0p = -np.linalg.solve(A - np.eye(13), Dlamf)
    dAdl_total = np.zeros((13, 13))
    dAdl_total[0] = g1 + lam0 * (g2 @ x0p)
    dAdl_expl = np.zeros((13, 13))
    dAdl_expl[0] = g1
    c_total = float(np.real(np.conj(mu) * np.vdot(p, dAdl_total @ q)))
    c_expl = float(np.real(np.conj(mu) * np.vdot(p, dAdl_expl @ q)))
    qb = np.conj(q)
    I13 = np.eye(13)
    e_val = float(np.real(np.conj(mu) * (
        np.vdot(p, C(q, q, qb))
        + 2 * np.vdot(p, B(q, np.linalg.solve(I13 - A, B(q, qb))))
        + np.vdot(p, B(qb, np.linalg.solve(mu ** 2 * I13 - A, B(q, q)))))))
    return dict(z=z, c_total=c_total, c_expl=c_expl, e=e_val, B=B, C=C,
                theta=math.degrees(cmath.phase(mu)))


def _ns_data(coral, box):
    ns = NsSystem(coral)
    x_box, lam_iv = ns.x_lam(box)
    jet = coral.row1_jet(x_box, order=ns.jet_order)
    return ns_box_data(coral, box, [g * lam_iv for g in jet.g1], jet)


def test_ns_condition_c_matches_oracle(coral, ns_cert, ns_float_oracle):
    box = _box(ns_cert)
    total, expl = ns_condition_c_pair(coral, _ns_data(coral, box))
    assert ns_float_oracle["c_total"] in total
    assert ns_float_oracle["c_expl"] in expl
    assert (total.hi - total.lo) <= 1e-4 * abs(ns_float_oracle["c_total"])


def test_ns_condition_c_total_equals_branch_eigen_slope(coral, ns_float_oracle):
    """The total-derivative transversality equals d|mu|/dlambda along the
    branch (independent finite-difference oracle)."""
    red = FixedPointReduction(coral)
    z = ns_float_oracle["z"]
    x0, lam0 = NsSystem(coral).x_lam(z)
    x1_0 = x0[0]

    def mumod(lam):
        x1 = x1_0
        for _ in range(60):
            h = 1e-7 * max(1.0, x1)
            r = red.branch_lambda(x1) - lam
            dr = (red.branch_lambda(x1 + h) - red.branch_lambda(x1 - h)) / (2 * h)
            x1 -= r / dr
        ev = np.linalg.eigvals(coral.jac_x(lam, red.full_point(x1)))
        return max(abs(e) for e in ev if abs(e.imag) > 1e-9)

    h = 1e-5
    slope = (mumod(lam0 + h) - mumod(lam0 - h)) / (2 * h)
    assert math.isclose(slope, ns_float_oracle["c_total"], rel_tol=1e-4)


def test_ns_condition_d_excludes_resonances(coral, ns_cert):
    box = _box(ns_cert)
    theta, checks = ns_condition_d(coral, box)
    assert all(checks.values())
    assert abs(theta.mid - 46.85) < 0.01
    assert (theta.hi - theta.lo) < 1e-6


def test_ns_condition_e_matches_oracle_and_sign(coral, ns_cert, ns_float_oracle):
    box = _box(ns_cert)
    val = ns_condition_e(coral, _ns_data(coral, box))
    assert ns_float_oracle["e"] in val
    assert val.hi < 0.0    # supercritical: stable invariant circles observed


def test_ns_condition_e_structured_vs_dense(coral, ns_float_oracle):
    """Rows 2..d of B vanish, so the structured evaluation must equal a
    dense tensor contraction."""
    rng = np.random.default_rng(6)
    x0, lam0 = NsSystem(coral).x_lam(ns_float_oracle["z"])
    y = rng.normal(size=13) + 1j * rng.normal(size=13)
    w = rng.normal(size=13) + 1j * rng.normal(size=13)
    got = ns_float_oracle["B"](y, w)
    # dense: finite-difference Hessian contraction of f_1
    h = 1e-3
    H = np.zeros((13, 13))
    for i in range(13):
        for j in range(13):
            ei = np.zeros(13); ei[i] = h
            ej = np.zeros(13); ej[j] = h
            H[i, j] = (step(coral, lam0, x0 + ei + ej)[0]
                       - step(coral, lam0, x0 + ei - ej)[0]
                       - step(coral, lam0, x0 - ei + ej)[0]
                       + step(coral, lam0, x0 - ei - ej)[0]) / (4 * h * h)
    dense = y @ H @ w
    assert abs(got[0] - dense) <= 1e-4 * max(1.0, abs(dense))
    assert np.all(got[1:] == 0.0)


def test_ns_condition_invariance_under_eigvec_phase(coral, ns_cert):
    """Rescaling q rotates w, u into another H_ns zero; conditions (c)
    and (e) must not change (checked through a second certified box)."""
    ns = NsSystem(coral)
    x0, lam0, w0, u0, a0, b0 = ns.split(np.array(ns_cert.anchor))
    # the (w, u) -> (-w, -u) symmetry gives another exact zero
    z2 = ns.join(x0, lam0, -w0, -u0, a0, b0)
    box2 = around(z2, ns_cert.delta_accuracy)
    data2 = _ns_data(coral, box2)
    total2, expl2 = ns_condition_c_pair(coral, data2)
    e2 = ns_condition_e(coral, data2)
    c_lo, c_hi = ns_cert.conditions["c_transversality"]
    e_lo, e_hi = ns_cert.conditions["e_normal_form"]
    assert abs(expl2.mid - 0.5 * (c_lo + c_hi)) <= 1e-6
    assert abs(e2.mid - 0.5 * (e_lo + e_hi)) <= 1e-9


# ---------------------------------------------------------------------------
# certification drivers
# ---------------------------------------------------------------------------


def test_certify_ns_summary(ns_cert):
    s = ns_cert.summary
    assert abs(s["R"] - 154.1) <= 0.5
    assert abs(s["lambda"] - 5.286) <= 0.02
    assert abs(s["x1"] - 1794.0) <= 5.0
    assert abs(s["P"] - 2689.0) <= 5.0
    assert ns_cert.spectrum_inside == 11
    assert ns_cert.delta_accuracy < ns_cert.delta_uniqueness


def test_certify_sn_summary(sn_cert):
    s = sn_cert.summary
    assert abs(s["R"] - 12.28) <= 0.05
    assert abs(s["lambda"] - 0.4213) <= 0.002
    assert abs(s["x1"] - 569.5) <= 1.0
    assert abs(s["P"] - 853.4) <= 1.0
    assert sn_cert.delta_accuracy <= 1e-10
    assert sn_cert.spectrum_inside == 12


def test_sn_conditions_product_orientation_invariant(coral, sn_cert):
    (c_lo, c_hi) = sn_cert.conditions["c_transversality"]
    (d_lo, d_hi) = sn_cert.conditions["d_nondegeneracy"]
    c_mid, d_mid = 0.5 * (c_lo + c_hi), 0.5 * (d_lo + d_hi)
    # fixed points exist for R above the fold, so the product is negative
    assert c_mid * d_mid < 0.0
    assert abs(abs(c_mid) - 353.4) <= 0.1
    assert abs(abs(d_mid) - 9.924e-4) <= 1e-6


def test_sn_left_vector_duality(coral, sn_cert):
    """p^t (A - I) encloses zero componentwise and p^t q = 1."""
    x, v, lam = SnSystem(coral).split(np.array([e.mid for e in _box(sn_cert)]))
    A = coral.jac_x(float(lam), x)
    ev, vecs = np.linalg.eig(A.T - np.eye(13))
    k = int(np.argmin(np.abs(ev)))
    p0 = np.real(vecs[:, k])
    p0 = p0 / (p0 @ v)
    resid = p0 @ (A - np.eye(13))
    assert np.max(np.abs(resid)) <= 1e-9
    assert abs(p0 @ v - 1.0) <= 1e-12


def test_sn_anchor_q_is_multiple_of_v(coral, sn_cert):
    x, v, lam = SnSystem(coral).split(np.array(sn_cert.anchor))
    A = coral.jac_x(lam, x)
    assert np.max(np.abs(A @ v - v)) <= 1e-10
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_certificates_refine_to_true_zero(refined_zeros):
    """Soundness: 60-digit Newton refinement lands inside delta_accuracy."""
    for cert, system, z_ref in refined_zeros.values():
        err = max(abs(float(z_ref[i]) - cert.anchor[i]) for i in range(system.dim))
        assert err <= cert.delta_accuracy


def test_bif_certificate_json_roundtrip(coral, sn_cert, ns_cert):
    for cert in (sn_cert, ns_cert, transcritical_analysis(coral)):
        assert_json_lossless(cert, certificate_json(cert))


# ---------------------------------------------------------------------------
# transcritical point
# ---------------------------------------------------------------------------


def test_transcritical_location(coral):
    from fractions import Fraction
    res = transcritical_analysis(coral)
    # true R* = c2/c1 = 650/9 exactly (the constants are exact floats)
    assert Fraction(res.R_star.lo) <= Fraction(650, 9) <= Fraction(res.R_star.hi)
    assert (res.R_star.hi - res.R_star.lo) <= 1e-10
    lam_expect = (1.3e7 / 1.8e5) / coral.cf.ba
    assert abs(res.lambda_star.mid - lam_expect) <= 1e-12


def test_transcritical_eigenvectors(coral):
    res = transcritical_analysis(coral)
    v, w = (np.array([iv.mid for iv in e]) for e in (res.v, res.w))
    assert np.allclose(v, coral.cf.a)
    assert res.eigvec_residual <= 1e-10
    # left eigenvector kills (A - I) too
    lam0 = res.lambda_star.mid
    A = coral.jac_x(lam0, np.zeros(13))
    assert np.max(np.abs(w @ (A - np.eye(13)))) <= 1e-10 * np.max(w)
    # recursion w_d = b_d, w_k = b_k + S_k w_{k+1}
    assert math.isclose(w[-1], coral.cf.b[-1], rel_tol=1e-14)
    assert math.isclose(w[0], coral.cf.ba, rel_tol=1e-14)


def test_transcritical_eigenvectors_enclose_high_precision(coral):
    """v and w enclose their 50-digit values: v = a, and the backward
    recursion w_d = b_d, w_k = b_k + S_k w_{k+1}, w_1 = b.a."""
    res = transcritical_analysis(coral)
    with mp.workdps(50):
        c = mp_coeffs(coral)
        w = [None] * 13
        w[12] = c.b[12]
        for k in range(11, 0, -1):
            w[k] = c.b[k] + mp.mpf(coral.params.S[k]) * w[k + 1]
        w[0] = c.ba
        for iv, ref in zip(res.v + res.w, c.a + w):
            assert mp.mpf(iv.lo) <= ref <= mp.mpf(iv.hi)


def test_transcritical_nondegeneracy_signs(coral):
    res = transcritical_analysis(coral)
    assert not res.nd1.contains_zero() and res.nd1.lo > 0.0
    assert not res.nd2.contains_zero() and res.nd2.lo > 0.0
    # nd2 sign = sign(beta - alpha) > 0


def test_transcritical_nd2_closed_form(coral):
    p = coral.params
    res = transcritical_analysis(coral)
    expect = coral.cf.ba * (2.0 * (p.beta - p.alpha) / p.omega) * coral.cf.sum_pa
    assert math.isclose(res.nd2.mid, expect, rel_tol=1e-12)


def test_bilinear_at_origin_matches_hand_formula(coral):
    p = coral.params
    lam0 = (p.c2 / p.c1) / coral.cf.ba
    phis = phi_derivs(0.0, p, order=2)
    qa, ba = float(coral.cf.q @ coral.cf.a), float(coral.cf.b @ coral.cf.a)
    got = lam0 * row1_d2(phis, 0.0, qa, ba, qa, ba)
    expect = (2.0 * (p.beta - p.alpha) / p.omega) * coral.cf.sum_pa
    assert math.isclose(got, expect, rel_tol=1e-10)


def test_trivial_branch_determinant_closed_form(coral):
    """det(D_x f(lambda, 0) - I) = (-1)^d (1 - lambda c1 (b.a) / c2): its
    zero is lambda* = c2 / (c1 (b.a)), and the factor matches the raw
    determinant, not just its zero set."""
    p = coral.params
    scale = p.c1 * coral.cf.ba / p.c2
    rng = np.random.default_rng(7)
    for lam in rng.uniform(0.1, 5.0, size=50):
        A = coral.jac_x(float(lam), np.zeros(13))
        det = float(np.linalg.det(A - np.eye(13)))
        expect = (-1.0) ** coral.d * (1.0 - scale * float(lam))
        assert math.isclose(det, expect, rel_tol=1e-10)


def test_eigenvalue_crossing_consistency(coral, branch_result,
                                         preconditioned_system, ns_cert,
                                         sn_cert):
    """The float spectral radius crosses 1 inside the NS enclosure's
    R-interval, and the fold tangent flips inside the SN enclosure's."""
    boxes = branch_result.boxes
    Rs = np.array([preconditioned_system.R_of_t(b.t) for b in boxes])
    rad = []
    for b in boxes:
        lam, x = preconditioned_system.lam_of_t(b.t), preconditioned_system.s * b.u
        ev = np.linalg.eigvals(coral.jac_x(lam, x))
        rad.append(max(abs(e) for e in ev))
    rad = np.array(rad)
    ns_R = ns_cert.summary["R"]
    cross = [i for i in range(len(boxes) - 1)
             if (rad[i] - 1.0) * (rad[i + 1] - 1.0) < 0]
    # the two boxes that straddle the float crossing bracket the certified
    # R, and the bracket is narrower than 1, so the nearer box lies within
    # 0.5 wherever the boxes fall
    assert any(min(Rs[i], Rs[i + 1]) <= ns_R <= max(Rs[i], Rs[i + 1])
               and abs(Rs[i] - Rs[i + 1]) < 1.0 for i in cross)
    mus = np.array([b.mu for b in boxes])
    flips = [i for i in range(len(boxes) - 1) if mus[i] * mus[i + 1] < 0]
    sn_R = sn_cert.summary["R"]
    assert any(abs(Rs[i] - sn_R) < 0.05 for i in flips)


def test_split_join_anchor_roundtrip(coral, sn_cert, ns_cert):
    sn, ns = SnSystem(coral), NsSystem(coral)
    zs = np.array(sn_cert.anchor)
    zn = np.array(ns_cert.anchor)
    assert np.array_equal(sn.join(*sn.split(zs)), zs)
    assert np.array_equal(ns.join(*ns.split(zn)), zn)
    x, v, lam = sn.split(zs)
    assert (len(x), len(v), lam) == (13, 13, zs[26])
    x, lam, w, u, a, b = ns.split(zn)
    assert (len(x), lam, len(w), len(u)) == (13, zn[13], 13, 13)
    assert abs(math.degrees(math.atan2(b, a)) - 46.85) < 0.01
    # an interval box splits into the same slots
    box = _box(ns_cert)
    x_box, lam_box, *_, b_box = ns.split(box)
    assert x_box == box[:13] and lam_box is box[13] and b_box is box[41]


def test_certificate_constants_at_table_scale(sn_cert, ns_cert):
    """The preconditioned hypothesis constants land at the expected scales
    (exact values depend on the box radius and preconditioner)."""
    assert sn_cert.summary["rho"] <= 1.653e-11           # x10 of 1.653e-12
    assert abs(sn_cert.summary["K"] - 1.0) <= 1e-6
    assert sn_cert.delta_accuracy <= 3.306e-11           # x10 of 3.306e-12
    assert 4.015e-7 / 2 <= sn_cert.delta_uniqueness <= 4.015e-7 * 2
    assert ns_cert.summary["rho"] <= 6.166e-10           # x10 of 6.166e-11
    assert abs(ns_cert.summary["K"] - 1.0) <= 1e-6
    assert ns_cert.delta_accuracy <= 1.473e-9
    assert 1.220e-8 / 2 <= ns_cert.delta_uniqueness <= 1.220e-8 * 2
    assert 4.097e6 <= ns_cert.summary["L1"] <= 4.097e8   # x10 of 4.097e7


def _left_residual(A1: list, S, r: list, mu) -> list:
    """r^t A - mu r^t for the Leslie matrix A with row 1 A1 and survival
    subdiagonal S, column by column (column j of r^t A is r_1 A1_j +
    r_{j+1} S_j, the last without S), for Interval or CI entries r and
    eigenvalue mu."""
    cols = []
    for j, a in enumerate(A1):
        col = r[0] * a
        if j < len(S):
            col = col + r[j + 1] * S[j]
        cols.append(col - mu * r[j])
    return cols


def _holds_zero(v) -> bool:
    return v.re.contains_zero() and v.im.contains_zero() if isinstance(v, CI) else v.contains_zero()


def _normalized(r: list, v: list) -> list:
    """r / (r^t v) for Interval entries."""
    rv = sum((ri * vi for ri, vi in zip(r, v)), Interval(0.0))
    assert not rv.contains_zero()
    return [ri / rv for ri in r]


def test_sn_left_vector_duality_rigorous(coral, sn_cert):
    """The left eigenvector from the Leslie recursion, normalized to
    p^t v = 1, satisfies p^t (A - I) = 0 over the certified box: every
    column's interval residual encloses 0, and p^t v encloses 1."""
    x_box, v_box, lam_iv = SnSystem(coral).split(_box(sn_cert))
    A1, S = [g * lam_iv for g in coral.row1_jet(x_box).g1], coral.params.S
    p = _normalized(leslie_left(A1, S), v_box)
    assert all(_holds_zero(c) for c in _left_residual(A1, S, p, Interval(1.0)))
    assert 1.0 in sum((pi * vi for pi, vi in zip(p, v_box)), Interval(0.0))


# ---------------------------------------------------------------------------
# the Leslie recursions against 50-digit linear algebra
# ---------------------------------------------------------------------------


def _box(cert) -> list[Interval]:
    return [Interval(lo, hi) for lo, hi in zip(cert.enclosure_lo, cert.enclosure_hi)]


@pytest.fixture(scope="module")
def leslie_cases(coral, refined_zeros):
    """name -> (coral, system, certified box, its zero refined to 50 or
    more digits): the seed-0 SN and NS certificates (`refined_zeros`), and
    both again at a weaker first-year survival S_1 = 0.80."""
    S = list(CoralParams().S)
    S[0] = 0.80
    pert = CoralMap(CoralParams(S=tuple(S)))
    cases = {name: (coral, system, _box(cert), z)
             for name, (cert, system, z) in refined_zeros.items()}
    for name, cert in (("sn-perturbed", certify_sn(pert)), ("ns-perturbed", certify_ns(pert))):
        system = (SnSystem if cert.kind == "saddle_node" else NsSystem)(pert)
        z = mp_system_refine(system, mp_coeffs(pert), np.array(cert.anchor), dps=50)
        cases[name] = (pert, system, _box(cert), z)
    return cases


def _mp_oracle(coral, system, z) -> dict:
    """At the 50-digit zero z (under workdps(50)): D_x f as a dense mpmath
    matrix, its eigenvalue mu on the unit circle, the left eigenvector r
    (r_1 = 1) from mpmath's eig of A^t, p = r / (r^t q), and for NS the
    solves x0'(lambda), (I - A)^{-1} B(q, qbar) e_1 and (mu^2 I - A)^{-1}
    B(q, q) e_1 by LU."""
    coeffs, d = mp_coeffs(coral), coral.d
    parts = system.split(list(z))
    x, lam = parts[system._x], parts[system._lam]
    P = sum(qk * xk for qk, xk in zip(coeffs.q, x))
    bx = sum(bk * xk for bk, xk in zip(coeffs.b, x))
    phis = phi_derivs(P, coral.params, order=2)
    A = mp.zeros(d, d)
    for j in range(d):
        A[0, j] = lam * (phis[1] * coeffs.q[j] * bx + phis[0] * coeffs.b[j])
    for k in range(d - 1):
        A[k + 1, k] = mp.mpf(coral.params.S[k])
    if isinstance(system, SnSystem):
        mu, q = mp.mpf(1), parts[1]
    else:
        *_, w, u, a, b = parts
        mu, q = mp.mpc(a, b), [ui - 1j * wi for ui, wi in zip(u, w)]
    E, ER = mp.eig(A.T)
    k = min(range(d), key=lambda i: abs(E[i] - mu))
    r = [ER[i, k] / ER[0, k] for i in range(d)]
    if isinstance(system, SnSystem):        # a real eigenvector, from complex eig
        assert all(abs(mp.im(ri)) <= mp.mpf(10) ** -40 for ri in r)
        r = [mp.re(ri) for ri in r]
    rq = sum(ri * qi for ri, qi in zip(r, q))
    out = {"r": r, "p": [ri / rq for ri in r]}
    if isinstance(system, NsSystem):
        e1 = lambda c: mp.matrix([c] + [0] * (d - 1))

        def B1(y, w):
            """Row 1 of B(y, w)."""
            qb = lambda v: [sum(ck * vk for ck, vk in zip(cs, v)) for cs in (coeffs.q, coeffs.b)]
            return lam * row1_d2(phis, bx, *qb(y), *qb(w))

        qbar = [mp.conj(qi) for qi in q]
        I = mp.eye(d)
        out["x0p"] = mp.lu_solve(I - A, e1(phis[0] * bx))
        out["z1"] = mp.lu_solve(I - A, e1(B1(q, qbar)))
        out["z2"] = mp.lu_solve(mu * mu * I - A, e1(B1(q, q)))
    return out


def _encloses(iv, v) -> bool:
    """The Interval or CI iv holds the mpmath number v."""
    if isinstance(iv, CI):
        return _encloses(iv.re, mp.re(v)) and _encloses(iv.im, mp.im(v))
    return mp.mpf(iv.lo) <= v <= mp.mpf(iv.hi)


def _box_data(coral, system, box):
    """The jet and row 1 of D_x f over the box, as the certification
    builds them (the rows below are the survival subdiagonal)."""
    x_box, lam_iv = system.x_lam(box)
    jet = coral.row1_jet(x_box, order=system.jet_order)
    return jet, [g * lam_iv for g in jet.g1]


_CASES = ("sn", "ns", "sn-perturbed", "ns-perturbed")


@pytest.mark.parametrize("name", _CASES)
def test_leslie_left_eigenvector_holds_50_digit_value(leslie_cases, name):
    """r (r_1 = 1) and p = r / (r^t q) over the certified box hold the left
    eigenvector that mpmath's eig gives at the true zero; for SN the
    recursion runs at mu = 1, for NS at a + ib."""
    coral, system, box, z = leslie_cases[name]
    jet, A1 = _box_data(coral, system, box)
    S = coral.params.S
    if isinstance(system, SnSystem):
        r = leslie_left(A1, S)
        p = _normalized(r, system.split(box)[1])
    else:
        *_, a, b = system.split(box)
        r = leslie_left([CI(aj) for aj in A1], S, CI(a, b))
        p = ns_box_data(coral, box, A1, jet).r
    with mp.workdps(50):
        oracle = _mp_oracle(coral, system, z)
        assert all(_encloses(ri, oi) for ri, oi in zip(r, oracle["r"]))
        assert all(_encloses(pi, oi) for pi, oi in zip(p, oracle["p"]))


@pytest.mark.parametrize("name", ("ns", "ns-perturbed"))
def test_leslie_resolvents_hold_50_digit_values(leslie_cases, name):
    """x0'(lambda) = (I - A)^{-1} (phi b.x) e_1 and the two solves of
    condition (e), (I - A)^{-1} B(q, qbar) e_1 and (e^{2 i theta0} I -
    A)^{-1} B(q, q) e_1, over the certified NS box hold their LU solutions
    at the true zero."""
    coral, system, box, z = leslie_cases[name]
    jet, A1 = _box_data(coral, system, box)
    data = ns_box_data(coral, box, A1, jet)
    S, Q, Qbar = coral.params.S, _qb(coral.ci, data.q), _qb(coral.ci, [qi.conj() for qi in data.q])
    B1 = lambda y, w: data.lam * row1_d2(data.phis, data.bx, *y, *w)
    mu2 = CI(data.a, data.b) * CI(data.a, data.b)
    got = {"x0p": leslie_resolvent(data.A1, S, data.phis[0] * data.bx),
           "z1": leslie_resolvent(data.A1, S, B1(Q, Qbar)),
           "z2": leslie_resolvent(data.A1, S, B1(Q, Q), mu2)}
    with mp.workdps(50):
        oracle = _mp_oracle(coral, system, z)
        for key, y in got.items():
            assert all(_encloses(yi, oi) for yi, oi in zip(y, oracle[key])), key


@pytest.mark.parametrize("name", _CASES)
def test_leslie_left_residual_encloses_zero(leslie_cases, name):
    """Over each certified box, r^t A - mu r^t (r from the recursion, mu =
    a + ib for NS) and p^t (A - I) (p normalized to p^t v = 1 for SN)
    enclose 0 in every column, A the Leslie form of D_x f over the box
    (its row-1 enclosure over the survival subdiagonal)."""
    coral, system, box, _ = leslie_cases[name]
    _, A1 = _box_data(coral, system, box)
    S = coral.params.S
    if isinstance(system, SnSystem):
        r, mu = leslie_left(A1, S), Interval(1.0)
        p = _normalized(r, system.split(box)[1])
        assert all(_holds_zero(c) for c in _left_residual(A1, S, p, mu))
    else:
        *_, a, b = system.split(box)
        mu = CI(a, b)
        r = leslie_left([CI(aj) for aj in A1], S, mu)
    assert all(_holds_zero(c) for c in _left_residual(A1, S, r, mu))


def _mp_deflated(coral, system, z) -> tuple[list, list]:
    """At the 50-digit zero z (under workdps(50)): det(zI - D_x f) divided
    by z - 1 (SN) or z^2 - 2a z + 1 (NS) by long division in mpmath, as
    (quotient, leading coefficient first; remainder r_1, r_0 or r_0)."""
    coeffs = mp_coeffs(coral)
    parts = system.split(list(z))
    x, lam = parts[system._x], parts[system._lam]
    P = sum(qk * xk for qk, xk in zip(coeffs.q, x))
    bx = sum(bk * xk for bk, xk in zip(coeffs.b, x))
    ph, ph1 = phi_derivs(P, coral.params, order=1)
    A1 = [lam * (ph1 * qj * bx + ph * bj) for qj, bj in zip(coeffs.q, coeffs.b)]
    r = [mp.mpf(1)] + [-(Aj * aj) for Aj, aj in zip(A1, coeffs.a)]
    divisor = [1, -1] if isinstance(system, SnSystem) else [1, -2 * parts[4], 1]
    quotient = []
    for i in range(len(r) - len(divisor) + 1):
        quotient.append(r[i])
        for j in range(1, len(divisor)):
            r[i + j] -= r[i] * divisor[j]
    return quotient, r[len(quotient):]


@pytest.mark.parametrize("name", _CASES)
def test_deflated_polynomial_holds_50_digit_quotient(leslie_cases, name):
    """Over each certified box, the interval quotient and remainders of the
    deflated characteristic polynomial hold those of the 50-digit zero's
    D_x f (whose remainder is 0 to about 50 digits), and the spectrum
    stage counts every quotient root inside."""
    coral, system, box, z = leslie_cases[name]
    A1, a, shift = _spectrum_args(coral, system, box)
    q, rem = leslie_deflated(A1, a, shift)
    with mp.workdps(50):
        q_mp, rem_mp = _mp_deflated(coral, system, z)
        assert len(q) == len(q_mp) and list(rem) == ["r_1", "r_0"][-len(rem_mp):]
        assert all(_encloses(qi, oi) for qi, oi in zip(q, q_mp))
        assert all(_encloses(ri, oi) for ri, oi in zip(rem.values(), rem_mp))
        assert max(abs(oi) for oi in rem_mp) < mp.mpf(10) ** -40
    assert verified_spectrum_inside_disk(A1, a, shift) == len(q) - 1


def test_a_divisor_holding_zero_fails_the_conditions_stage_by_name(coral, sn_cert, ns_cert,
                                                                   monkeypatch):
    """A divisor enclosure that holds 0 is a ConditionInconclusive naming
    the quantity (here x0'(lambda), over a row 1 wide enough to hold the
    eigenvalue 1), and `_certify` reports it as the conditions stage."""
    from certibif.errors import CertificationFailed, ConditionInconclusive
    box = _box(ns_cert)
    data = _ns_data(coral, box)
    wide = replace(data, A1=[Interval(-1e3, 1e3)] + data.A1[1:])
    with pytest.raises(ConditionInconclusive,
                       match=r"^x0'\(lambda\): division by interval containing zero"):
        ns_condition_c_pair(coral, wide)
    monkeypatch.setattr(bifurcation, "leslie_left",
                        lambda A1, S, mu=None: [Interval(-1.0, 1.0)] * len(A1))
    with pytest.raises(CertificationFailed, match=r"^stage conditions: p\^t q: division by"):
        certify_sn(coral, anchor=np.array(sn_cert.anchor))


def test_certification_follows_perturbed_parameters():
    """Nothing is baked in: perturbing a survival rate moves the certified
    fold while the extinction threshold R* = c2/c1 stays put."""
    from certibif.bifurcation import certify_sn
    from certibif.model import CoralMap, CoralParams
    base = CoralParams()
    S = list(base.S)
    S[0] = 0.80    # weaker first-year survival
    pert = CoralParams(S=tuple(S))
    coral_p = CoralMap(pert)
    cert = certify_sn(coral_p)
    # the fold's R is 1/max(phi) and depends only on the recruitment
    # constants, but lambda and x1 move with the survival table
    assert abs(cert.summary["R"] - 12.2786) < 0.01
    assert abs(cert.summary["lambda"] - 0.42125) > 0.005
    assert abs(cert.summary["x1"] - 569.46) > 1.0
    assert cert.delta_accuracy <= 1e-9
    res = transcritical_analysis(coral_p)
    assert abs(res.R_star.mid - 72.2222222222222) < 1e-9   # c2/c1 unchanged
    assert res.lambda_star.mid > 2.4778                    # smaller b.a


def test_certify_fails_cleanly_on_bad_anchor(coral, sn_cert):
    from certibif.bifurcation import certify_sn
    from certibif.errors import CertificationFailed
    sn = SnSystem(coral)
    x, v, lam = sn.split(np.array(sn_cert.anchor))
    bad = sn.join(1.05 * x, v, lam)     # push the fixed point off the zero set
    with pytest.raises(CertificationFailed) as exc:
        certify_sn(coral, anchor=bad)
    assert "stage" in str(exc.value)


def test_certify_lets_programming_errors_through(coral, sn_cert, monkeypatch):
    """Only hypothesis failures become "stage cift"; a bug such as a
    TypeError inside the CIFT stage propagates unchanged."""
    from certibif.bifurcation import certify_sn

    def broken(self, box):
        raise TypeError("broken hessian_sup")

    monkeypatch.setattr(SnSystem, "hessian_sup", broken)
    with pytest.raises(TypeError, match="broken hessian_sup"):
        certify_sn(coral, anchor=np.array(sn_cert.anchor))


def test_certify_ns_rejects_conjugate_orientation(coral):
    """(x, lambda, -w, u, a, -b) is a zero of H_ns as well, carrying the
    conjugate eigenvalue a - ib; certify_ns refuses it at the orientation
    stage, which runs after the CIFT stage and before the spectrum."""
    from certibif.bifurcation import certify_ns
    from certibif.errors import CertificationFailed
    ns = NsSystem(coral)
    x, lam, w, u, a, b = ns.split(find_ns_anchor(coral))
    conj = ns.join(x, lam, -w, u, a, -b)
    assert np.max(np.abs(ns.value(conj))) <= 1e-12
    with pytest.raises(CertificationFailed, match="stage orientation"):
        certify_ns(coral, anchor=conj)
