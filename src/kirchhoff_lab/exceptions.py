"""Exception types shared across the package."""


class KirchhoffLabError(Exception):
    """Base class for all package errors."""


class MeshError(KirchhoffLabError):
    """Bad mesh construction arguments."""


class MeshMismatchError(MeshError):
    """A field on another mesh, or an array of the wrong shape, was used."""


class RegimeError(KirchhoffLabError):
    """Exponent configuration outside the regime a routine supports."""


class NonMemberError(KirchhoffLabError):
    """Forcing fails the positive-witness membership test."""


class BarrierError(KirchhoffLabError):
    """No admissible supersolution cap exists for the requested data."""


class ConvergenceError(KirchhoffLabError):
    """An iterative routine failed to reach its tolerance."""


class ConfigError(KirchhoffLabError):
    """Experiment configuration is missing, malformed or contradictory."""
