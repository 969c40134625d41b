"""Forward and inverse scattering for star-shaped LC transmission-line
networks: reflection/transmission coefficients seen from one infinite
branch, and recovery of the branch count and finite-branch travel times
from high-frequency reflection data."""

from .errors import StarScatterError
from .fundamental import FundamentalData, KernelTable, fundamental_at, \
    fundamental_via_kernel, solve_kernel
from .inversion import InversionReport, ReflectogramSample, estimate_m, \
    estimate_taus, high_freq_reflection
from .jost import JostData, jost_at_origin
from .line_model import BranchGeometry, LineProfile, PotentialFn, \
    branch_geometry, liouville_coordinate, potential_from_profile, \
    travel_time, voltage_from_field
from .oracle import DiscreteGraphField, oracle_solve
from .scattering import Branch, BranchKind, ScatteringCoefficients, \
    ScatteringSweep, StarNetwork, assemble_field, network_from_profiles, \
    reflectogram, solve_scattering

__version__ = "0.1.0"

__all__ = [
    "Branch", "BranchGeometry", "BranchKind", "DiscreteGraphField",
    "FundamentalData", "InversionReport", "JostData", "KernelTable",
    "LineProfile", "PotentialFn", "ReflectogramSample",
    "ScatteringCoefficients", "ScatteringSweep", "StarNetwork",
    "StarScatterError",
    "assemble_field", "branch_geometry", "estimate_m", "estimate_taus",
    "fundamental_at", "fundamental_via_kernel", "high_freq_reflection",
    "jost_at_origin", "liouville_coordinate", "network_from_profiles",
    "oracle_solve", "potential_from_profile", "reflectogram",
    "solve_kernel", "solve_scattering", "travel_time", "voltage_from_field",
]
