"""Forward and inverse scattering for star-shaped LC transmission-line
networks: reflection/transmission coefficients seen from one infinite
branch, and recovery of the branch count and finite-branch travel times
from high-frequency reflection data."""

from .errors import AccuracyError, ConfigError, DomainError, \
    InsufficientDataError, ProfileValidityError, ResonanceError, \
    StarScatterError
from .inversion import InversionReport, estimate_m, estimate_taus
from .line_model import LineProfile
from .scattering import StarNetwork, reflectogram, solve_scattering

__version__ = "0.1.0"

__all__ = [
    "LineProfile", "StarNetwork", "reflectogram", "solve_scattering",
    "estimate_m", "estimate_taus", "InversionReport",
    "StarScatterError", "ConfigError", "ProfileValidityError",
    "DomainError", "ResonanceError", "AccuracyError",
    "InsufficientDataError",
]
