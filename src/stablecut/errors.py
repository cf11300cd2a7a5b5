"""Exception types shared across the package."""


class StableCutError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstanceError(StableCutError):
    """Weight matrix violates the instance invariants."""


class InvalidCutError(StableCutError):
    """A cut must put at least one vertex on each side and match the instance's size."""


class SizeLimitError(StableCutError):
    """An exhaustive scan, the instance loader or the metric split, given n above its vertex cap."""


class ParameterError(StableCutError):
    """An argument is outside its documented domain."""


class DegenerateInstanceError(StableCutError):
    """Operation undefined for this instance (zero weight, zero degree...)."""


class PreconditionError(StableCutError):
    """A documented precondition of the operation does not hold."""


class SolverFailure(StableCutError):
    """The solver produced no valid cut; callers may retry with a new seed."""


class InvariantViolationError(StableCutError):
    """An internal guarantee failed; indicates a bug or an unstable input."""
