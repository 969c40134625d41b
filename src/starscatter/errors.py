"""Exception hierarchy shared by all starscatter modules."""


class StarScatterError(Exception):
    """Base class for all errors raised by this package."""


class ProfileValidityError(StarScatterError):
    """A line profile violates positivity or limit assumptions."""


class ResolutionError(StarScatterError):
    """A sampled table is too coarse for the requested derivative order."""


class DomainError(StarScatterError):
    """An operation was applied outside its domain (e.g. travel time of an
    infinite branch)."""


class SingularFrequencyError(StarScatterError):
    """k = 0 requested where the formulation is singular."""


class AccuracyError(StarScatterError):
    """An integrator failed to meet the requested tolerance."""


class NodeSingularityError(StarScatterError):
    """f(0, k) vanished; the log-derivative is undefined at this k."""


class ResonanceError(StarScatterError):
    """The node system is singular (or a(k) ~ 0) at this frequency."""


class DivergenceError(StarScatterError):
    """Fixed-point iteration for the transformation kernel did not converge."""


class PoleProximityError(StarScatterError):
    """Requested k is too close to a pole of tan(k*tau)."""


class InsufficientDataError(StarScatterError):
    """Too few usable reflectogram samples for the requested estimate."""


class ConfigError(StarScatterError):
    """A network configuration file failed to parse or validate.

    ``key`` names the offending JSON field when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
