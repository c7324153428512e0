"""Exception types shared across the package."""


class DeltawaveError(Exception):
    """Base class for all package-specific errors."""


class NotSolvableError(DeltawaveError):
    """A stationary-wave curve has no admissible solution for the given state."""


class VacuumError(DeltawaveError):
    """The Riemann pressure equation has no positive root (vacuum forms)."""


class RootBracketError(DeltawaveError):
    """A root finder could not bracket its target (diagnostic; should not occur
    for inputs that passed structure prediction)."""


class UnavailableFluxError(DeltawaveError):
    """The two-sided interface flux cannot be evaluated because a curve
    transformation is unsolvable and corrections are disabled."""


class ConfigError(DeltawaveError, ValueError):
    """Invalid run configuration (grid does not place the origin on an
    interface, unknown test id, malformed domain, CFL number or end time
    out of range, ...)."""


class SchemeError(DeltawaveError):
    """The time integration produced an inadmissible field."""
