import numpy as np
import pytest

from certibif.bifurcation import NsSystem, SnSystem, certify_ns, certify_sn
from certibif.continuation import (CoralBranchSystem, branch_start,
                                   continue_branch, nontrivial_fixed_point)
from certibif.model import CoralMap

from helpers import mp_coeffs, mp_system_refine


@pytest.fixture(scope="session")
def coral() -> CoralMap:
    return CoralMap()


@pytest.fixture(scope="session")
def sn_cert(coral):
    return certify_sn(coral)


@pytest.fixture(scope="session")
def ns_cert(coral):
    return certify_ns(coral)


@pytest.fixture(scope="session")
def refined_zeros(coral, sn_cert, ns_cert):
    """"sn"/"ns" -> (certificate, system, zero): the zeros of H_sn and H_ns
    refined from the seed-0 certificates' anchors by 60-digit Newton
    (`mp_system_refine`), once for every test that compares with them."""
    coeffs = mp_coeffs(coral)
    return {name: (cert, system, mp_system_refine(system, coeffs, np.array(cert.anchor), dps=60))
            for name, cert, system in (("sn", sn_cert, SnSystem(coral)),
                                       ("ns", ns_cert, NsSystem(coral)))}


@pytest.fixture(scope="session")
def preconditioned_system(coral):
    return branch_start(coral, 300.0)[0]


@pytest.fixture(scope="session")
def branch_result(coral):
    """The full validated branch from R = 300 through the fold; shared by
    the continuation tests and the acceptance suite (about a minute)."""
    system, t0, u0 = branch_start(coral, 300.0)
    return continue_branch(system, t0, u0, to_R=72.0, max_steps=8000)


@pytest.fixture(scope="session")
def raw_branch_result(coral):
    """Twenty steps of the unscaled system for the preconditioning payoff
    comparison."""
    system = CoralBranchSystem(coral)
    t0, u0 = system.from_raw_R(300.0, nontrivial_fixed_point(coral, 300.0))
    return continue_branch(system, t0, u0, to_R=72.0, max_steps=20)
