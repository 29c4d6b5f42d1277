"""Exception types shared across the package."""


class LatticePathError(Exception):
    """Base class for all package-specific errors."""


class ModelFileError(LatticePathError):
    """A model file or model definition is malformed."""


class InvalidModelError(LatticePathError):
    """The operation needs a model satisfying the validity invariants."""


class PeriodicModelError(LatticePathError):
    """Asymptotics and limit laws need an aperiodic step polynomial."""


class NotLukasiewiczError(LatticePathError):
    """The operation is restricted to walks whose only down jump is -1."""


class BranchDegenerateError(LatticePathError):
    """Small and large kernel branches collide; z is at or beyond the singularity."""


class NumericalSingularityError(LatticePathError):
    """A linear system was singular or a root refinement failed to converge."""


class InconsistentCaseError(LatticePathError):
    """The regime's limit law cannot be fitted: ``laws.fit`` raises it for the
    discrete final-altitude law, which has no closed-form CDF."""
