"""Physical LC line profiles and their reduction to Schrodinger form.

A lossless line is described by per-length inductance L(z) and capacitance
C(z) in the physical coordinate z (meters).  Everything downstream works in
the travel-time coordinate x(z) = int_0^z sqrt(L C) du (seconds), where the
frequency-domain voltage equation becomes y'' + (k^2 - V(x)) y = 0 with
V = A''/A and A = (C/L)^(1/4).  This module owns that conversion; all other
modules consume PotentialFn / BranchGeometry and never see z again.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import DomainError, ProfileValidityError, ResolutionError

TAIL_TOL = 1e-10


class ProfileFamily(enum.Enum):
    UNIFORM = "uniform"
    EXPONENTIAL_TAPER = "exponential_taper"
    SAMPLED_TABLE = "sampled_table"
    DIRECT_POTENTIAL = "direct_potential"


@dataclass(frozen=True, eq=False)
class LineProfile:
    """One branch's line description.

    ``length`` is in meters; ``math.inf`` marks an infinite branch.  Family
    parameters live in ``params`` (see the constructors below for keys).
    """

    family: ProfileFamily
    params: dict
    length: float

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, inductance: float, capacitance: float,
                length: float = math.inf) -> "LineProfile":
        if inductance <= 0 or capacitance <= 0:
            raise ProfileValidityError("L and C must be strictly positive")
        return cls(ProfileFamily.UNIFORM,
                   {"L": float(inductance), "C": float(capacitance)},
                   float(length))

    @classmethod
    def exponential_taper(cls, gamma: float, length: float,
                          slowness: float = 1.0,
                          scale: float = 1.0) -> "LineProfile":
        """Line with A(x) = scale * exp(gamma x) and constant sqrt(LC).

        ``slowness`` is sqrt(L C) (s/m); the taper must be finite since an
        unbounded A violates the positive-limit assumption on infinite
        branches.
        """
        if not math.isfinite(length):
            raise ProfileValidityError(
                "exponential taper is only defined on finite branches")
        if slowness <= 0 or scale <= 0:
            raise ProfileValidityError("slowness and scale must be positive")
        return cls(ProfileFamily.EXPONENTIAL_TAPER,
                   {"gamma": float(gamma), "slowness": float(slowness),
                    "scale": float(scale)},
                   float(length))

    @classmethod
    def sampled_table(cls, z: np.ndarray, inductance: np.ndarray,
                      capacitance: np.ndarray,
                      infinite: bool = False) -> "LineProfile":
        """Tabulated L(z), C(z) on a common strictly increasing z grid.

        For an infinite branch the last sample is taken as the limit value;
        beyond the table the line is treated as uniform.
        """
        z = np.asarray(z, dtype=float)
        L = np.asarray(inductance, dtype=float)
        C = np.asarray(capacitance, dtype=float)
        if z.ndim != 1 or z.shape != L.shape or z.shape != C.shape:
            raise ProfileValidityError("z, L, C tables must share one shape")
        if z.size < 5:
            raise ResolutionError(
                "sampled tables need at least 5 points to estimate d2A/dx2")
        if np.any(np.diff(z) <= 0):
            raise ProfileValidityError("z samples must be strictly increasing")
        if np.any(L <= 0) or np.any(C <= 0):
            raise ProfileValidityError("encountered non-positive L or C sample")
        length = math.inf if infinite else float(z[-1])
        return cls(ProfileFamily.SAMPLED_TABLE,
                   {"z": z, "L": L, "C": C}, length)

    @classmethod
    def sampled_table_from_csv(cls, inductance_path, capacitance_path,
                               infinite: bool = False) -> "LineProfile":
        zl, L = read_table_csv(inductance_path)
        zc, C = read_table_csv(capacitance_path)
        if zl.shape != zc.shape or not np.allclose(zl, zc):
            raise ProfileValidityError(
                "inductance and capacitance tables must share the z grid")
        return cls.sampled_table(zl, L, C, infinite=infinite)

    @classmethod
    def direct(cls, potential: Callable[[np.ndarray], np.ndarray],
               support_end: float, A0: float = 1.0, A0prime: float = 0.0,
               tau: Optional[float] = None,
               h: Optional[float] = None) -> "LineProfile":
        """Bypass the z-description: supply V(x) and node data directly.

        The profile lives in the Liouville coordinate already (z == x).
        Finite branches must give ``tau`` and ``h``; infinite ones must not.
        """
        if A0 <= 0:
            raise ProfileValidityError("A0 must be strictly positive")
        if tau is None:
            length = math.inf
            if h is not None:
                raise ProfileValidityError("h is only defined on finite branches")
        else:
            if tau <= 0:
                raise ProfileValidityError("tau must be positive")
            length = float(tau)
            h = 0.0 if h is None else float(h)
        return cls(ProfileFamily.DIRECT_POTENTIAL,
                   {"potential": potential, "support_end": float(support_end),
                    "A0": float(A0), "A0prime": float(A0prime),
                    "tau": tau, "h": h},
                   length)

    # -----------------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.length)


@dataclass(frozen=True, eq=False)
class PotentialFn:
    """Potential V(x) in the travel-time coordinate.

    ``evaluator`` is vectorized over x and returns 0 outside
    [0, support_end].  The Jost routes take V as 0 past ``truncation``,
    where int_truncation^support_end |V| < TAIL_TOL (0 when V = 0).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_end: float
    l1_norm: float
    truncation: float

    def __call__(self, x):
        return self.evaluator(x)


@dataclass(frozen=True)
class BranchGeometry:
    """Node-side data of one branch: A(0), A'(0), and for finite branches the
    travel time tau and the terminal log-derivative h = A'(tau)/A(tau)."""

    A0: float
    A0prime: float
    tau: Optional[float] = None
    h: Optional[float] = None

    def __post_init__(self):
        if self.A0 <= 0:
            raise ProfileValidityError("A0 must be strictly positive")
        if self.tau is not None and self.tau <= 0:
            raise ProfileValidityError("tau must be positive")


def read_table_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (z, value) CSV with a header line."""
    try:
        with warnings.catch_warnings():
            # a header-only table is reported below, not by numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ProfileValidityError(f"{path}: {exc}") from exc
    if data.size == 0:
        raise ProfileValidityError(f"{path}: table has no data rows")
    if data.shape[1] != 2:
        raise ProfileValidityError(f"{path}: expected two columns (z, value)")
    if not np.all(np.isfinite(data)):
        raise ProfileValidityError(f"{path}: NaN or infinite value")
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# internal per-family helpers
# ---------------------------------------------------------------------------

def _x_of_z(profile: LineProfile) -> Callable[[np.ndarray], np.ndarray]:
    """x(z) of a SAMPLED_TABLE profile, measured from the first row (the
    node): the antiderivative of a cubic spline of sqrt(L C), continued
    uniformly past the last row."""
    z, L, C = profile.params["z"], profile.params["L"], profile.params["C"]
    slowness = CubicSpline(z, np.sqrt(L * C))
    # each cubic piece is smallest at a (positive) knot or where its slope is 0
    crit = slowness.derivative().roots(extrapolate=False)
    if np.any(slowness(crit[np.isfinite(crit)]) <= 0):
        raise ProfileValidityError(
            "interpolated slowness sqrt(L*C) became non-positive")
    x_spline = slowness.antiderivative()
    z_end, s_end = z[-1], math.sqrt(L[-1] * C[-1])
    return lambda zq: (x_spline(np.minimum(zq, z_end))
                       + s_end * np.maximum(zq - z_end, 0.0))


def _a_spline(profile: LineProfile) -> tuple[CubicSpline, float]:
    """Natural cubic spline of A = (C/L)^(1/4) versus x, plus x(z_end).

    Only meaningful for SAMPLED_TABLE profiles.  Natural end conditions are
    part of the contract: tables rougher than C^2 are unsupported, and the
    forced zero curvature at the ends decays geometrically into the interior.
    """
    z, L, C = profile.params["z"], profile.params["L"], profile.params["C"]
    x_samples = _x_of_z(profile)(z)
    A_samples = (C / L) ** 0.25
    return CubicSpline(x_samples, A_samples, bc_type="natural"), float(x_samples[-1])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def liouville_coordinate(profile: LineProfile, z: float) -> float:
    """Travel-time coordinate x(z) = int_0^z sqrt(L C) du (from the first
    row of a sampled table)."""
    if z < 0 or z > profile.length:
        raise DomainError(f"z={z} outside [0, {profile.length}]")
    fam, p = profile.family, profile.params
    if fam is ProfileFamily.UNIFORM:
        return math.sqrt(p["L"] * p["C"]) * z
    if fam is ProfileFamily.EXPONENTIAL_TAPER:
        return p["slowness"] * z
    if fam is ProfileFamily.DIRECT_POTENTIAL:
        return float(z)
    return float(_x_of_z(profile)(z))


def travel_time(profile: LineProfile) -> float:
    """tau = x(length).  Only defined for finite branches."""
    if not profile.is_finite:
        raise DomainError("travel time of an infinite branch is undefined")
    return liouville_coordinate(profile, profile.length)


def _clipped(fn, lo, hi):
    """fn on [lo, hi] and 0 elsewhere; a float x costs one comparison and
    one call of fn."""
    def evaluator(x):
        if isinstance(x, float):
            return float(fn(x)) if lo <= x <= hi else 0.0
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        out = np.where(inside, fn(np.clip(x, lo, hi)), 0.0)
        return out if out.ndim else float(out)

    return evaluator


class TablePotential:
    """V from an (x, V) table: ``spline`` on [x0, x_end], 0 elsewhere.

    As the potential of a direct profile, its window is intersected with
    the branch's [0, support_end], so V is masked once, not twice.
    """

    def __init__(self, spline, x0: float, x_end: float):
        self.spline, self.x0, self.x_end = spline, float(x0), float(x_end)
        self._evaluator = _clipped(spline, self.x0, self.x_end)

    def __call__(self, x):
        return self._evaluator(x)


def _build_potential(evaluator, support_end, grid_step) -> PotentialFn:
    """PotentialFn of an arbitrary evaluator, its L1 norm and truncation
    point taken on a uniform grid of the given step."""
    if support_end <= 0.0:
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return PotentialFn(zero, 0.0, 0.0, 0.0)
    n = max(int(math.ceil(support_end / grid_step)), 16)
    xg = np.linspace(0.0, support_end, n + 1)
    absv = np.abs(np.asarray(evaluator(xg), dtype=float))
    cum = integrate.cumulative_trapezoid(absv, xg, initial=0.0)
    l1 = float(integrate.simpson(absv, x=xg))
    # on compact support a finite L1 norm is a finite first moment too
    if not math.isfinite(l1):
        raise ProfileValidityError("L1 norm of |V| is not finite")
    total = max(l1, cum[-1])
    # small slack absorbs trapezoid error so the bound stays a true bound
    tails = (total - cum) * (1.0 + 1e-6) + 1e-12
    tails = np.maximum.accumulate(tails[::-1])[::-1]
    below = np.flatnonzero(tails < TAIL_TOL)
    truncation = float(xg[below[0]]) if below.size else float(support_end)
    return PotentialFn(evaluator, float(support_end), l1, truncation)


def potential_from_profile(profile: LineProfile,
                           grid_step: float = 1e-3) -> PotentialFn:
    """V(x) = A''(x)/A(x) in the travel-time coordinate.

    Parametric families use analytic second derivatives; sampled tables go
    through a natural cubic spline of A on a uniform x-grid of the given
    spacing.
    """
    fam, p = profile.family, profile.params
    if fam is ProfileFamily.UNIFORM:
        return _build_potential(None, 0.0, grid_step)
    if fam is ProfileFamily.EXPONENTIAL_TAPER:
        tau = p["slowness"] * profile.length
        g2 = p["gamma"] ** 2
        return _build_potential(
            _clipped(lambda x: np.full_like(np.asarray(x, float), g2),
                     0.0, tau), tau, grid_step)
    if fam is ProfileFamily.DIRECT_POTENTIAL:
        fn, lo, hi = p["potential"], 0.0, p["support_end"]
        if isinstance(fn, TablePotential):
            fn, lo, hi = fn.spline, max(lo, fn.x0), min(hi, fn.x_end)
        return _build_potential(_clipped(fn, lo, hi), p["support_end"],
                                grid_step)

    # SAMPLED_TABLE
    if p["z"].size < 5:
        raise ResolutionError("need at least 5 samples for d2A/dx2")
    spline, x_end = _a_spline(profile)
    n = max(int(math.ceil(x_end / grid_step)), 16)
    xg = np.linspace(0.0, x_end, n + 1)
    a_vals = spline(xg)
    if np.any(a_vals <= 0):
        raise ProfileValidityError("A(x) interpolated to a non-positive value")
    v_grid = spline(xg, 2) / a_vals
    v_spline = CubicSpline(xg, v_grid, bc_type="natural")
    return _build_potential(_clipped(v_spline, 0.0, x_end), x_end, grid_step)


def branch_geometry(profile: LineProfile) -> BranchGeometry:
    """Node coefficients A(0), A'(0) plus (tau, h) on finite branches."""
    fam, p = profile.family, profile.params
    if fam is ProfileFamily.UNIFORM:
        a0 = (p["C"] / p["L"]) ** 0.25
        if profile.is_finite:
            return BranchGeometry(a0, 0.0, travel_time(profile), 0.0)
        return BranchGeometry(a0, 0.0)
    if fam is ProfileFamily.EXPONENTIAL_TAPER:
        a0, g = p["scale"], p["gamma"]
        return BranchGeometry(a0, g * a0, travel_time(profile), g)
    if fam is ProfileFamily.DIRECT_POTENTIAL:
        if profile.is_finite:
            return BranchGeometry(p["A0"], p["A0prime"], p["tau"], p["h"])
        return BranchGeometry(p["A0"], p["A0prime"])

    spline, x_end = _a_spline(profile)
    a0 = float(spline(0.0))
    a0p = float(spline(0.0, 1))
    if a0 <= 0:
        raise ProfileValidityError("A(0) must be strictly positive")
    if profile.is_finite:
        h = float(spline(x_end, 1) / spline(x_end))
        return BranchGeometry(a0, a0p, x_end, h)
    return BranchGeometry(a0, a0p)


def voltage_from_field(y: complex, A: float) -> complex:
    """Convert a Schrodinger-field sample back to physical voltage U = y/A."""
    if A <= 0:
        raise ProfileValidityError("A must be strictly positive")
    return y / A
