"""Fundamental solution on finite branches, by RK45 and by its kernel.

omega(x,k;h,V) solves y'' = (V - k^2) y with omega(0) = 1, omega'(0) = h.
The network solver's ``propagate.sweep(V, 0, tau, k, 1, h)`` gives it over
an array of k, ``fundamental_at`` makes the same call on its RK45 twin
``jost.rk45_sweep``, and an independent route evaluates the integral
representation

    omega(x,k) = cos(kx) + h sin(kx)/k
                 + int_{-x}^{x} K(x,t) {cos(kt) + h sin(kt)/k} dt,

where the transformation kernel K solves a Goursat-type integral equation.
Both routes are test references, which check the solver and the
high-frequency asymptotics; no command runs either (``validate`` compares
the solver's node pairs with ``jost.rk45_sweep``), and ``import
starscatter`` does not load this module.  ``fundamental_at`` and
``solve_kernel`` stay in ``src`` because the benchmark's tracer resolves
them, until ROADMAP items 8 and 10.  The kernel route is second order on a
grid that ignores V's kinks and jumps.  Each takes a scalar or a 1-D array
of k and returns arrays with one entry per k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AccuracyError
from .jost import rk45_sweep
from .line_model import CubicSpline, PotentialFn, cumulative_trapezoid, \
    simpson


@dataclass(frozen=True, eq=False)
class KernelTable:
    """K(x,t) on the triangle |t| <= x <= tau.

    Internally stored in characteristic coordinates xi = (x+t)/2,
    eta = (x-t)/2 on a uniform square grid, where the Goursat equation
    becomes a pair of cumulative integrals.
    """

    tau: float
    xi: np.ndarray
    values: np.ndarray  # P[i, j] = K(xi_i + eta_j, xi_i - eta_j)


def fundamental_at(V: PotentialFn, tau: float, h: float, k):
    """(omega(tau), omega'(tau)) from omega(0) = 1, omega'(0) = h by RK45,
    two complex arrays over ``np.atleast_1d(k)``: exactly
    ``rk45_sweep(V, 0, tau, k, 1, h)``, the twin of ``propagate.sweep``."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return rk45_sweep(V, 0.0, tau, k, 1.0, h)


def solve_kernel(V: PotentialFn, tau: float) -> KernelTable:
    """Fixed-point solution of the kernel equation on the triangle, to a
    sup-norm change below 1e-10 within 200 sweeps.

    In xi = (x+t)/2, eta = (x-t)/2 the Goursat problem P_{xi eta} =
    V(xi+eta) P with P(xi,0) = 1/2 int_0^xi V and P(0,eta) = 0 integrates to

        P(xi, eta) = 1/2 int_0^xi V
                     + int_0^xi int_0^eta V(a+b) P(a,b) db da,

    which one cumulative integral per axis updates in O(N^2).  V is
    extended by zero outside [0, tau].  (Consistency of the double-integral
    coefficient was pinned down against the second-order Born term of the
    IVP for a constant well.)
    """
    # tau/400, capped absolutely so long branches do not lose the 1e-6
    # cross-representation agreement
    n = max(int(np.ceil(tau / min(tau / 400.0, 2.5e-3))), 8)
    xi = np.linspace(0.0, tau, n + 1)
    hstep = tau / n
    source = 0.5 * cumulative_trapezoid(np.asarray(V(xi), dtype=float), xi)
    # sample V at beta-cell midpoints: the zero extension of V jumps exactly
    # on grid nodes, and midpoint sampling keeps the quadrature second order
    # across that jump instead of degrading to first order.  V(xi_i + mid_j)
    # depends on i + j alone, so it is sampled once per diagonal, at
    # (i + j + 1/2) h, and read through a window: half_v[i, j] = V/2 there
    v_diag = np.asarray(V((np.arange(2 * n) + 0.5) * hstep), dtype=float)
    half_v = sliding_window_view(0.5 * v_diag, n)
    dxi = np.diff(xi)[:, None]
    P = np.tile(source[:, None], (1, n + 1))
    for _ in range(200):
        # inner[:, j] = h * sum_{b < j} V(mid) (P_b + P_{b+1}) / 2
        inner = np.zeros_like(P)
        inner[:, 1:] = np.cumsum((P[:, :-1] + P[:, 1:]) * half_v,
                                 axis=1) * hstep
        # new = source + the cumulative trapezoid of inner over xi
        new = np.zeros_like(P)
        new[1:] = np.cumsum((inner[1:] + inner[:-1]) * dxi / 2.0, axis=0)
        new += source[:, None]
        change = np.max(np.abs(new - P))
        P = new
        if change < 1e-10:
            return KernelTable(float(tau), xi, P)
    raise AccuracyError("kernel iteration did not reach 1e-10 in 200 sweeps")


def _cos_term(k, t, h: float) -> np.ndarray:
    """cos(kt) + h sin(kt)/k for k and t that broadcast, with the removable
    k -> 0 limit (h t) handled."""
    kt = np.multiply(k, t)
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0: replaced
        sinc = np.sin(kt) / k
    sinc = np.where(np.abs(kt) < 1e-4, t * (1.0 - kt * kt / 6.0), sinc)
    return np.cos(kt) + h * sinc


def fundamental_via_kernel(K: KernelTable, h: float, k) -> np.ndarray:
    """omega(tau, k) at tau = K.tau from the integral representation, a
    complex array over ``np.atleast_1d(k)``.

    At the edge x = tau the slice K(tau, .) lies on the anti-diagonal of the
    characteristic grid, so it is read off without interpolation, splined
    once, and integrated against each k's trig factor by Simpson on a grid
    fine enough for the oscillation (about 40 samples per period).
    """
    tau = K.tau
    k = np.atleast_1d(np.asarray(k, dtype=float))
    out = _cos_term(k, tau, h).astype(complex)
    spline = CubicSpline(2.0 * K.xi - tau, np.fliplr(K.values).diagonal())
    for i, q in enumerate(k.tolist()):
        # an odd point count, as Simpson's rule wants
        t = np.linspace(-tau, tau, max(4001, int(40.0 * abs(q) * tau) + 1) | 1)
        out[i] += simpson(spline(t) * _cos_term(q, t, h), t)
    return out
