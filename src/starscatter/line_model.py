"""Physical LC line profiles and their reduction to Schrodinger form.

A lossless line is described by per-length inductance L(z) and capacitance
C(z) in the physical coordinate z (meters).  Everything downstream works in
the travel-time coordinate x(z) = int_0^z sqrt(L C) du (seconds), where the
frequency-domain voltage equation becomes y'' + (k^2 - V(x)) y = 0 with
V = A''/A and A = (C/L)^(1/4).  This module owns that conversion; all other
modules consume a LineProfile's PotentialFn and node data and never see z.

Each ``LineProfile`` constructor builds its branch once, as one record: the
potential V, the node data and the map x(z), fitting a sampled table's
splines once for all three.  Each builds V by ``_build_potential``, as a
function on a window [lo, hi] of [0, support_end] and 0 off it; an (x, V)
table is its ``CubicSpline``, on its knots.  ||V||_L1, the truncation
point and a sampled table's V spline are all taken on a uniform x-grid of
spacing GRID_STEP, which is refused before it is allocated if an array
cannot hold it.  The cubic spline and the two quadratures
(``CubicSpline``, ``cumulative_trapezoid``, ``simpson``) are numpy ports
of scipy's, which the package does not import.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
        if self.tau is not None:
            _require_finite(tau=self.tau, h=self.h)
            if self.tau <= 0:
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
        return cls(_build_potential(None, 0, 0, 0), lambda z: slowness * z,
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
        tau, g2 = s * float(length), g * g  # g ** 2 raises on overflow
        potential = _build_potential(
            lambda x: np.full_like(np.asarray(x, float), g2), 0.0, tau, tau)
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
        what = "travel time x(z)"
        try:
            # near the float limit the spline fits of sqrt(L C), A and V (a
            # ValueError on non-finite values or slopes), x itself, C / L or
            # A'' overflow
            with np.errstate(over="ignore", invalid="ignore"):
                x_of_z = _x_of_z(z, L, C)
                x_samples = x_of_z(z)
                if not np.all(np.isfinite(x_samples)):
                    raise ValueError
                what = "the spline of A = (C/L)^(1/4) or of V = A''/A"
                spline = CubicSpline(x_samples, (C / L) ** 0.25,
                                     bc_type="natural")
                x_end = float(x_samples[-1])
                xg = _grid(x_end)
                a_vals = spline(xg)
                if np.any(a_vals <= 0):
                    raise ProfileValidityError(
                        "A(x) interpolated to a non-positive value")
                v_spline = CubicSpline(xg, spline(xg, 2) / a_vals,
                                       bc_type="natural")
        except ValueError as exc:
            raise ProfileValidityError(
                f"{what} on [0, {z[-1]:.6g}] is not finite") from exc
        potential = _build_potential(v_spline, 0.0, x_end, x_end)
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
        A ``CubicSpline`` potential is an (x, V) table, 0 off its knots.
        V is 0 past ``support_end``, so ``support_end = 0`` states V = 0,
        and a negative one, which would drop V without a word, is refused,
        as is a table that meets [0, support_end > 0] in at most a point or
        lies wholly at x <= 0.
        """
        _require_finite(support_end=support_end, A0=A0, A0prime=A0prime)
        if support_end < 0:
            raise ProfileValidityError(
                f"support_end must be >= 0, got {support_end}")
        if tau is None and h is not None:
            raise ProfileValidityError("h is only defined on finite branches")
        if tau is not None:
            tau, h = float(tau), 0.0 if h is None else float(h)
        lo, hi = 0.0, support_end
        if isinstance(potential, CubicSpline):  # a table: V is 0 off it
            x0, x_end = float(potential.x[0]), float(potential.x[-1])
            lo, hi = max(lo, x0), min(hi, x_end)
            # V would be 0; support_end = 0 says so on purpose only of a
            # table that reaches past the node
            if hi <= lo and (support_end > 0 or x_end <= 0):
                raise ProfileValidityError(
                    f"potential table on [{x0:.6g}, {x_end:.6g}] meets "
                    f"[0, {support_end:.6g}] in at most one point, so V "
                    f"would be 0")
        return cls(_build_potential(potential, lo, hi, support_end),
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
    # each cubic piece is smallest at a (positive) knot or where its slope
    # 3 c0 s^2 + 2 c1 s + c2 is 0: both zeros by the stable quadratic
    # formula (NaN where there is none, c2 / q alone on a linear slope)
    c0, c1, c2, _ = slowness.c
    a, b = 3.0 * c0, 2.0 * c1
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c2), b))
        s = np.stack([q / a, c2 / q])
    s = np.where((s >= 0.0) & (s <= np.diff(z)), s, 0.0)
    if np.any(_poly_at(slowness.c[:, None], s) <= 0):
        raise ProfileValidityError(
            "interpolated slowness sqrt(L*C) became non-positive")
    # the antiderivative's pieces, scipy's layout: c / (4, 3, 2, 1) above
    # the value at each knot, each piece's integral summed from z = 0
    prim = slowness.c / np.array([[4.0], [3.0], [2.0], [1.0]])
    width = _poly_at(np.vstack([prim, np.zeros(z.size - 1)]), np.diff(z))
    prim = np.vstack([prim, np.concatenate([[0.0], np.cumsum(width[:-1])])])
    z_end, s_end = z[-1], math.sqrt(L[-1] * C[-1])
    return lambda zq: (_ppoly_at(z, prim, np.minimum(zq, z_end))
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


class CubicSpline:
    """A cubic spline through (x, y), a float table on strictly increasing
    x, with 'not-a-knot' (the default) or 'natural' ends and at least 4
    rows: scipy's ``CubicSpline`` in numpy.

    The knot slopes solve scipy's tridiagonal equations in Python floats,
    by the elimination LAPACK's ``gtsv`` runs there, and ``c[:, i]`` holds
    piece i's power coefficients in s = x - x[i], highest first, as scipy
    lays them out; the spline is scipy's to the bit.  Non-finite rows or
    slopes raise ValueError, as there.
    """

    def __init__(self, x, y, bc_type: str = "not-a-knot"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise ValueError("a spline needs two 1-D tables of >= 4 rows")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline rows must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline knots must be strictly increasing")
        slope = np.diff(y) / dx
        s = _knot_slopes(x, dx, y, slope, bc_type)
        if not np.all(np.isfinite(s)):
            raise ValueError("spline slopes must be finite")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1],
                           y[:-1]])

    def __call__(self, x, nu: int = 0) -> np.ndarray:
        """The spline's nu-th derivative (nu = 0, 1, 2) at x, past the
        knots the end piece's polynomial."""
        return _ppoly_at(self.x, self.c, x, nu)


def _knot_slopes(x, dx, y, slope, bc_type) -> np.ndarray:
    """The knot slopes of scipy's ``CubicSpline``: its tridiagonal rows,
    sub-, main and super-diagonal dl, d, du and right side b, in Python
    floats, solved as ``gtsv`` solves them."""
    dl = dx[1:].tolist() + [0.0]
    d = [0.0] + (2 * (dx[:-1] + dx[1:])).tolist() + [0.0]
    du = [0.0] + dx[:-1].tolist()
    b = [0.0] + (3 * (dx[1:] * slope[:-1]
                      + dx[:-1] * slope[1:])).tolist() + [0.0]
    x, dx, y, slope = x.tolist(), dx.tolist(), y.tolist(), slope.tolist()
    if bc_type == "not-a-knot":
        d[0], du[0] = dx[1], x[2] - x[0]
        b[0] = ((dx[0] + 2 * du[0]) * dx[1] * slope[0]
                + dx[0] * dx[0] * slope[1]) / du[0]
        d[-1], dl[-1] = dx[-2], x[-1] - x[-3]
        b[-1] = (dx[-1] * dx[-1] * slope[-2]
                 + (2 * dl[-1] + dx[-1]) * dx[-2] * slope[-1]) / dl[-1]
    elif bc_type == "natural":
        d[0], du[0], b[0] = 2 * dx[0], dx[0], 3 * (y[1] - y[0])
        d[-1], dl[-1], b[-1] = 2 * dx[-1], dx[-1], 3 * (y[-1] - y[-2])
    else:
        raise ValueError(f"bc_type={bc_type!r} is not supported")
    # LAPACK gtsv's elimination with partial pivoting: a swap of rows i and
    # i + 1 leaves a second super-diagonal entry in dl[i]
    for i in range(len(d) - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("singular spline system")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < len(d) - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise ValueError("singular spline system")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(len(d) - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


def _poly_at(c, s, nu: int = 0):
    """The nu-th derivative of the power sum with coefficients c (highest
    first) at s, summed term by term from 0.0 and the lowest power up, in
    the order of scipy's ``evaluate_poly1``."""
    out = z = None
    for p in range(nu, len(c)):  # the term of s^(p - nu)
        term = c[-1 - p] if z is None else c[-1 - p] * z
        if math.perm(p, nu) > 1:
            term = term * float(math.perm(p, nu))
        out = 0.0 + term if out is None else out + term
        if p < len(c) - 1:
            z = s if z is None else z * s
    return out


def _ppoly_at(knots, c, x, nu: int = 0) -> np.ndarray:
    """The piecewise polynomial with pieces c[:, i] on [knots[i],
    knots[i+1]) at x: the piece chosen as scipy's ``find_interval`` chooses
    it (the last piece closed, the end pieces continued past the knots)."""
    x = np.asarray(x, dtype=float)
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0,
                knots.size - 2)
    return _poly_at(c[:, i], x - knots[i], nu)


def cumulative_trapezoid(y, x) -> np.ndarray:
    """scipy's ``cumulative_trapezoid(y, x, initial=0)`` for 1-D y and x,
    in its operation order."""
    steps = np.diff(x) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate([[0.0], np.cumsum(steps)])


def simpson(y, x) -> float:
    """scipy's ``simpson(y, x=x)`` for 1-D y on strictly increasing x, in
    its operation order: composite Simpson on pairs of intervals and, when
    N is even, Cartwright's correction for the last interval."""
    n = y.size
    end = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:end:2], h[1:end + 1:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:end:2] * (2.0 - 1.0 / ratio)
                                  + y[1:end + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:end + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        h0, h1 = h[-2], h[-1]
        alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        eta = (1 * h1 ** 3) / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def _spline_at(spline: CubicSpline) -> Callable[[float], float]:
    """spline(x) for a float x on its knots, in Python floats: the piece is
    chosen as ``_ppoly_at`` chooses it (x_i <= x < x_{i+1}, the last piece
    closed) and its power sum runs in ``_poly_at``'s order, so the value is
    the array path's to the bit."""
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


def _build_potential(fn, lo, hi, support_end) -> PotentialFn:
    """PotentialFn of V = fn on [lo, hi], a part of [0, support_end], and
    0 elsewhere, its L1 norm and truncation point taken on a uniform grid
    of step GRID_STEP.  A float x costs one comparison and one call of fn,
    or, when fn is a CubicSpline (its knots must span [lo, hi]), one
    numpy-free piece evaluation (``_spline_at``)."""
    if support_end <= 0.0:
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return PotentialFn(zero, 0.0, 0.0, 0.0)
    if isinstance(fn, CubicSpline):
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

    xg = _grid(support_end)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        absv = np.abs(np.asarray(evaluator(xg), dtype=float))
        cum = cumulative_trapezoid(absv, xg)
        l1 = float(simpson(absv, xg))
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
