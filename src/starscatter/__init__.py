"""Forward and inverse scattering for star-shaped LC transmission-line
networks: reflection/transmission coefficients seen from one infinite
branch, and recovery of the branch count and finite-branch travel times
from high-frequency reflection data."""

from .errors import StarScatterError
from .inversion import InversionReport, ReflectogramSample, estimate_m, \
    estimate_taus, high_freq_reflection
from .jost import jost_at_origin
from .line_model import LineProfile, PotentialFn, liouville_coordinate, \
    travel_time
from .oracle import DiscreteGraphField, oracle_solve
from .scattering import ScatteringSweep, StarNetwork, reflectogram, \
    solve_scattering

__version__ = "0.1.0"

__all__ = [
    "DiscreteGraphField", "InversionReport", "LineProfile", "PotentialFn",
    "ReflectogramSample", "ScatteringSweep", "StarNetwork",
    "StarScatterError", "estimate_m", "estimate_taus",
    "high_freq_reflection", "jost_at_origin", "liouville_coordinate",
    "oracle_solve", "reflectogram", "solve_scattering", "travel_time",
]
