"""Physical LC line profiles and their reduction to Schrodinger form.

A lossless line is described by per-length inductance L(z) and capacitance
C(z) in the physical coordinate z (meters).  Everything downstream works in
the travel-time coordinate x(z) = int_0^z sqrt(L C) du (seconds), where the
frequency-domain voltage equation becomes y'' + (k^2 - V(x)) y = 0 with
V = A''/A and A = (C/L)^(1/4).  This module owns that conversion; all other
modules consume a LineProfile's PotentialFn and node data and never see z.

Each ``LineProfile`` constructor builds its branch once, as one record: the
potential V, the node data and the map x(z), fitting a sampled table's
splines once for all three.  ||V||_L1, the truncation point and a sampled
table's V spline are all taken on a uniform x-grid of spacing GRID_STEP,
which is refused before it is allocated if an array cannot hold it.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import DomainError, ProfileValidityError, ResolutionError
from .propagate import MAX_CELLS

TAIL_TOL = 1e-10
GRID_STEP = 1e-3  # x spacing of the grid behind ||V||_L1, truncation and V


@dataclass(frozen=True, eq=False)
class LineProfile:
    """One branch: its potential V(x), the map x(z), its length in meters
    (``math.inf`` on an infinite branch) and its node data: A(0), A'(0)
    and, exactly on a finite branch, tau and h = A'(tau)/A(tau).

    Parametric families use analytic second derivatives of A; a sampled
    table fits one natural cubic spline of A, takes V as its second
    derivative over A and reads A and A' off the same spline.
    """

    potential: PotentialFn
    x_of_z: Callable[[np.ndarray], np.ndarray]
    length: float
    A0: float
    A0prime: float
    tau: Optional[float] = None
    h: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.A0) and math.isfinite(self.A0prime)):
            raise ProfileValidityError(
                f"A(0)={self.A0} and A'(0)={self.A0prime} must be finite")
        if self.A0 <= 0:
            raise ProfileValidityError("A0 must be strictly positive")
        if (self.tau is None) != (self.h is None):
            raise ProfileValidityError(
                "tau and h come together (finite branch) or not at all")
        if self.tau is not None and self.tau <= 0:
            raise ProfileValidityError("tau must be positive")

    @property
    def is_finite(self) -> bool:
        return self.tau is not None

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, inductance: float, capacitance: float,
                length: float = math.inf) -> "LineProfile":
        _require_finite(L=inductance, C=capacitance)
        if inductance <= 0 or capacitance <= 0:
            raise ProfileValidityError("L and C must be strictly positive")
        if math.isnan(length):
            raise ProfileValidityError("length must not be NaN")
        if length <= 0:  # -inf would otherwise make an infinite branch
            raise ProfileValidityError(f"length must be > 0, got {length}")
        L, C, length = float(inductance), float(capacitance), float(length)
        slowness = math.sqrt(L * C)
        ends = (slowness * length, 0.0) if math.isfinite(length) else ()
        return cls(_build_potential(None, 0.0), lambda z: slowness * z,
                   length, (C / L) ** 0.25, 0.0, *ends)

    @classmethod
    def exponential_taper(cls, gamma: float, length: float,
                          slowness: float = 1.0,
                          scale: float = 1.0) -> "LineProfile":
        """Line with A(x) = scale * exp(gamma x) and constant sqrt(LC).

        ``slowness`` is sqrt(L C) (s/m); the taper must be finite since an
        unbounded A violates the positive-limit assumption on infinite
        branches.
        """
        if length <= 0:
            raise ProfileValidityError(f"length must be > 0, got {length}")
        if not math.isfinite(length):
            raise ProfileValidityError(
                "exponential taper is only defined on finite branches")
        _require_finite(gamma=gamma, slowness=slowness, scale=scale)
        if slowness <= 0 or scale <= 0:
            raise ProfileValidityError("slowness and scale must be positive")
        g, s, a0 = float(gamma), float(slowness), float(scale)
        tau, g2 = s * float(length), g ** 2
        potential = _build_potential(
            _clipped(lambda x: np.full_like(np.asarray(x, float), g2),
                     0.0, tau), tau)
        return cls(potential, lambda z: s * z, float(length), a0, g * a0,
                   tau, g)

    @classmethod
    def sampled_table(cls, z: np.ndarray, inductance: np.ndarray,
                      capacitance: np.ndarray,
                      infinite: bool = False) -> "LineProfile":
        """Tabulated L(z), C(z) on a common strictly increasing z grid.

        z is measured from the first row, the node, so a finite branch is
        z[-1] - z[0] long.  For an infinite branch the last sample is taken
        as the limit value; beyond the table the line is treated as uniform.
        Natural end conditions on A's spline are part of the contract:
        tables rougher than C^2 are unsupported, and the forced zero
        curvature at the ends decays geometrically into the interior.
        """
        z = np.asarray(z, dtype=float)
        L = np.asarray(inductance, dtype=float)
        C = np.asarray(capacitance, dtype=float)
        if z.ndim != 1 or z.shape != L.shape or z.shape != C.shape:
            raise ProfileValidityError("z, L, C tables must share one shape")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(L))
                and np.all(np.isfinite(C))):
            raise ProfileValidityError(
                "z, L, C tables must hold finite samples only")
        if z.size < 5:
            raise ResolutionError(
                "sampled tables need at least 5 points to estimate d2A/dx2")
        if np.any(np.diff(z) <= 0):
            raise ProfileValidityError("z samples must be strictly increasing")
        if np.any(L <= 0) or np.any(C <= 0):
            raise ProfileValidityError("encountered non-positive L or C sample")
        z = z - z[0]
        try:
            # near the float limit the spline fit of sqrt(L C) (scipy's
            # ValueError on non-finite slopes) or x itself overflows
            with np.errstate(over="ignore", invalid="ignore"):
                x_of_z = _x_of_z(z, L, C)
                x_samples = x_of_z(z)
            if not np.all(np.isfinite(x_samples)):
                raise ValueError
        except ValueError as exc:
            raise ProfileValidityError(
                f"travel time x(z) on [0, {z[-1]:.6g}] is not finite") from exc
        spline = CubicSpline(x_samples, (C / L) ** 0.25, bc_type="natural")
        x_end = float(x_samples[-1])
        xg = _grid(x_end)
        a_vals = spline(xg)
        if np.any(a_vals <= 0):
            raise ProfileValidityError(
                "A(x) interpolated to a non-positive value")
        v_spline = CubicSpline(xg, spline(xg, 2) / a_vals, bc_type="natural")
        potential = _build_potential(_clipped(v_spline, 0.0, x_end), x_end)
        ends = () if infinite else (
            x_end, float(spline(x_end, 1) / spline(x_end)))
        return cls(potential, x_of_z, math.inf if infinite else float(z[-1]),
                   float(spline(0.0)), float(spline(0.0, 1)), *ends)

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
        V is 0 past ``support_end``, so ``support_end = 0`` states V = 0,
        and a negative one, which would drop V without a word, is refused.
        """
        _require_finite(support_end=support_end, A0=A0, A0prime=A0prime)
        if support_end < 0:
            raise ProfileValidityError(
                f"support_end must be >= 0, got {support_end}")
        if tau is None and h is not None:
            raise ProfileValidityError("h is only defined on finite branches")
        if tau is not None:
            tau, h = float(tau), 0.0 if h is None else float(h)
            _require_finite(tau=tau, h=h)
        support_end = float(support_end)
        fn, lo, hi = potential, 0.0, support_end
        if isinstance(fn, TablePotential):
            fn, lo, hi = fn.spline, max(lo, fn.x0), min(hi, fn.x_end)
        return cls(_build_potential(_clipped(fn, lo, hi), support_end),
                   lambda z: z, math.inf if tau is None else tau, float(A0),
                   float(A0prime), tau, h)


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


def _require_finite(**values) -> None:
    """Reject NaN and infinite constructor arguments: NaN passes a
    ``<= 0`` test, and would surface later as a raw ValueError."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ProfileValidityError(f"{name} must be finite, got {value}")


def _x_of_z(z, L, C) -> Callable[[np.ndarray], np.ndarray]:
    """x(z) of a sampled table whose z starts at 0: the antiderivative of a
    cubic spline of sqrt(L C), continued uniformly past the last row."""
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


def liouville_coordinate(profile: LineProfile, z: float) -> float:
    """Travel-time coordinate x(z) = int_0^z sqrt(L C) du (z measured from
    the first row of a sampled table)."""
    if z < 0 or z > profile.length:
        raise DomainError(f"z={z} outside [0, {profile.length}]")
    return float(profile.x_of_z(z))


def travel_time(profile: LineProfile) -> float:
    """tau = x(length).  Only defined for finite branches."""
    if not profile.is_finite:
        raise DomainError("travel time of an infinite branch is undefined")
    return profile.tau


def _spline_at(spline: CubicSpline) -> Callable[[float], float]:
    """spline(x) for a float x on its knots, in Python floats: the piece is
    chosen as scipy's ``find_interval`` chooses it (x_i <= x < x_{i+1}, the
    last piece closed) and its power sum runs in ``evaluate_poly1``'s order,
    so the value is the array path's to the bit."""
    knots = spline.x.tolist()
    last = len(knots) - 2
    # per piece (c0, c1, c2, 0 + c3): the sum starts from 0.0 + c3, as there
    pieces = [(c0, c1, c2, 0.0 + c3) for c0, c1, c2, c3 in spline.c.T.tolist()]

    def value(x):
        i = min(bisect_right(knots, x) - 1, last)
        c0, c1, c2, c3 = pieces[i]
        s = x - knots[i]
        z = s * s
        return c3 + c2 * s + c1 * z + c0 * (z * s)

    return value


def _clipped(fn, lo, hi):
    """fn on [lo, hi] and 0 elsewhere.  A float x costs one comparison and
    one call of fn, or, when fn is a CubicSpline whose knots span [lo, hi],
    one numpy-free piece evaluation (``_spline_at``)."""
    if isinstance(fn, CubicSpline) and fn.x[0] <= lo and hi <= fn.x[-1]:
        scalar = _spline_at(fn)
    else:
        scalar = lambda x: float(fn(x))

    def evaluator(x):
        if isinstance(x, float):
            x = float(x)
            return scalar(x) if lo <= x <= hi else 0.0
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        out = np.where(inside, fn(np.clip(x, lo, hi)), 0.0)
        return out if out.ndim else float(out)

    return evaluator


class TablePotential:
    """V from an (x, V) table: a not-a-knot cubic ``spline`` through the
    rows on [x0, x_end], 0 elsewhere.

    As the potential of a direct profile, its window is intersected with
    the branch's [0, support_end], so V is masked once, not twice.
    """

    def __init__(self, x: np.ndarray, v: np.ndarray):
        self.spline = CubicSpline(x, v)
        self.x0, self.x_end = float(x[0]), float(x[-1])
        self._evaluator = _clipped(self.spline, self.x0, self.x_end)

    def __call__(self, x):
        return self._evaluator(x)


def _grid(x_end: float) -> np.ndarray:
    """The uniform grid on [0, x_end] of step at most GRID_STEP, at least
    16 cells; ProfileValidityError, before allocating, when it has more
    cells than an array can hold."""
    cells = x_end / GRID_STEP
    if cells > MAX_CELLS:
        raise ProfileValidityError(
            f"a grid of step {GRID_STEP} on [0, {x_end:.6g}] needs "
            f"{cells:.3g} cells, more than an array can hold")
    return np.linspace(0.0, x_end, max(math.ceil(cells), 16) + 1)


def _build_potential(evaluator, support_end) -> PotentialFn:
    """PotentialFn of an arbitrary evaluator, its L1 norm and truncation
    point taken on a uniform grid of step GRID_STEP."""
    if support_end <= 0.0:
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return PotentialFn(zero, 0.0, 0.0, 0.0)
    xg = _grid(support_end)
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
