"""Exception hierarchy shared by all starscatter modules."""


class StarScatterError(Exception):
    """Base class for all errors raised by this package."""


class ProfileValidityError(StarScatterError):
    """A line profile violates positivity or limit assumptions, or its
    sampled table is too coarse (fewer than 5 rows) for d2A/dx2."""


class DomainError(StarScatterError):
    """An operation was applied outside its domain (e.g. travel time of an
    infinite branch, Jost data at k = 0, or closed-form R1 at a pole of
    tan(k*tau))."""


class AccuracyError(StarScatterError):
    """An integrator failed to meet the requested tolerance, or the
    transformation kernel's fixed-point iteration did not converge."""


class ResonanceError(StarScatterError):
    """The node equation is singular at this frequency."""


class InsufficientDataError(StarScatterError):
    """Too few usable reflectogram samples for the requested estimate."""


class ConfigError(StarScatterError):
    """A network configuration file failed to parse or validate."""
