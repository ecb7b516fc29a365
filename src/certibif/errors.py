"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An interval operation was applied outside its domain (e.g. division
    by an interval containing zero)."""


class ValidationFailed(Exception):
    """A hypothesis of the constructive implicit function theorem could not
    be verified.  The message names the inequality that broke."""


class NotInvertibleEvidence(ValidationFailed):
    """The Neumann-series inverse bound failed (``|I - BA| >= 1``); the
    matrix may still be invertible, but no certificate can be produced.
    For a stack of matrices, `index` is the first one that failed."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class CertificationFailed(Exception):
    """A bifurcation certification stage failed; the message names it."""


class ConditionInconclusive(CertificationFailed):
    """A transversality/nondegeneracy interval contains its forbidden value."""


class SpectrumInconclusive(CertificationFailed):
    """The deflated Schur-Cohn count could not show the other eigenvalues of
    D_x f inside the unit disk; the message names the remainder or gamma_k."""


class TangentUndefined(Exception):
    """The branch Jacobian has a null space of dimension != 1."""


class CorrectorFailed(Exception):
    """Newton corrector did not converge within the iteration budget."""


class OrbitDiverged(Exception):
    """Orbit iteration produced non-finite values, first in batch orbit `orbit`."""

    def __init__(self, message: str, orbit: int = 0):
        super().__init__(message)
        self.orbit = orbit


class RotationUndefined(Exception):
    """The projected orbit does not wind monotonically about the center;
    for a batch of orbits, `orbit` is the first that does not."""

    def __init__(self, message: str, orbit: int = 0):
        super().__init__(message)
        self.orbit = orbit
