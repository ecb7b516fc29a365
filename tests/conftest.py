import pytest

from certibif.bifurcation import certify_ns, certify_sn
from certibif.continuation import (ContinuationConfig, branch_start,
                                   continue_branch)
from certibif.model import CoralMap


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
def preconditioned_system(coral):
    return branch_start(coral, 300.0)[0]


@pytest.fixture(scope="session")
def branch_result(coral):
    """The full validated branch from R = 300 through the fold; shared by
    the continuation tests and the acceptance suite (about a minute)."""
    system, t0, u0 = branch_start(coral, 300.0)
    cfg = ContinuationConfig(from_R=300.0, to_R=72.0, max_steps=8000)
    return continue_branch(system, t0, u0, cfg)


@pytest.fixture(scope="session")
def raw_branch_result(coral):
    """Twenty steps of the unscaled system for the preconditioning payoff
    comparison."""
    system, t0, u0 = branch_start(coral, 300.0, precondition=False)
    cfg = ContinuationConfig(from_R=300.0, to_R=72.0, max_steps=20,
                             corrector_tol=1e-12)
    return continue_branch(system, t0, u0, cfg)
