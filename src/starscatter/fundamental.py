"""Fundamental solution on finite branches, with a kernel-based cross-check.

omega(x,k;h,V) solves y'' = (V - k^2) y with omega(0) = 1, omega'(0) = h.
``fundamental_batch`` takes it from the network solver's transfer matrix.
``fundamental_at`` integrates the IVP by adaptive RK45, and an independent
route evaluates the integral representation

    omega(x,k) = cos(kx) + h sin(kx)/k
                 + int_{-x}^{x} K(x,t) {cos(kt) + h sin(kt)/k} dt,

where the transformation kernel K solves a Goursat-type integral equation.
These two are references only: ``validate`` compares them on every finite
branch, and the tests check the solver and the high-frequency asymptotics
against them.

On a branch with V = 0 (support_end <= 0, as on every uniform line) omega
is cos(kx) + h sin(kx)/k exactly and K = 0, so ``fundamental_at`` returns
the closed form and ``solve_kernel`` the zero table, with no integration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from . import propagate
from .errors import DivergenceError
from .jost import _rk45
from .line_model import PotentialFn


@dataclass(frozen=True)
class FundamentalData:
    """Endpoint value and derivative of omega at one frequency."""

    k: float
    omega_tau: complex
    domega_tau: complex


@dataclass(frozen=True, eq=False)
class KernelTable:
    """K(x,t) on the triangle |t| <= x <= tau.

    Internally stored in characteristic coordinates xi = (x+t)/2,
    eta = (x-t)/2 on a uniform square grid, where the Goursat equation
    becomes a pair of cumulative integrals.
    """

    tau: float
    grid_step: float
    xi: np.ndarray
    values: np.ndarray  # P[i, j] = K(xi_i + eta_j, xi_i - eta_j)
    l1_norm: float

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        interp = RegularGridInterpolator((self.xi, self.xi), self.values,
                                         bounds_error=False, fill_value=None)
        pts = np.stack([(x + t) / 2.0, (x - t) / 2.0], axis=-1)
        out = interp(pts)
        return out if out.ndim else float(out)


def fundamental_at(V: PotentialFn, tau: float, h: float,
                   k: float) -> FundamentalData:
    """Integrate the IVP omega(0)=1, omega'(0)=h from 0 to tau; for V = 0
    the free solution is returned exactly."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if V.support_end <= 0.0:
        kt = k * tau
        return FundamentalData(float(k), complex(_cos_term(k, tau, h)),
                               complex(h * np.cos(kt) - k * np.sin(kt)))
    om, dom = _rk45(V, k, (0.0, tau), [1.0 + 0.0j, complex(h)],
                    max_step=tau)[:, -1]
    return FundamentalData(float(k), om, dom)


def fundamental_profile(V: PotentialFn, tau: float, h: float, k: float, xs):
    """omega and omega' sampled on xs in [0, tau]."""
    xs = np.asarray(xs, dtype=float)
    om, dom = _rk45(V, k, (0.0, tau), [1.0 + 0.0j, complex(h)], t_eval=xs,
                    max_step=tau)
    return om, dom


def fundamental_batch(V: PotentialFn, tau: float, h: float, k):
    """Vectorized (omega(tau), omega'(tau)) over an array of frequencies."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    ones = np.ones_like(k, dtype=complex)
    return propagate.sweep(V, 0.0, tau, k, ones, complex(h) * ones)


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
    grid_step = min(tau / 400.0, 2.5e-3)
    n = max(int(np.ceil(tau / grid_step)), 8)
    xi = np.linspace(0.0, tau, n + 1)
    if V.support_end <= 0.0:
        # V = 0: the kernel is 0, which is what the first sweep would give
        return KernelTable(float(tau), float(grid_step), xi,
                           np.zeros((n + 1, n + 1)), V.l1_norm)
    hstep = tau / n
    v_line = np.asarray(V(xi), dtype=float)
    source = 0.5 * cumulative_trapezoid(v_line, xi, initial=0.0)
    # sample V at beta-cell midpoints: the zero extension of V jumps exactly
    # on grid nodes, and midpoint sampling keeps the quadrature second order
    # across that jump instead of degrading to first order
    mids = 0.5 * (xi[:-1] + xi[1:])
    v_mid = np.asarray(V(xi[:, None] + mids[None, :]), dtype=float)
    P = np.tile(source[:, None], (1, n + 1))
    zeros = np.zeros((n + 1, 1))
    for _ in range(200):
        w_cell = v_mid * 0.5 * (P[:, :-1] + P[:, 1:])
        inner = np.concatenate(
            [zeros, np.cumsum(w_cell, axis=1) * hstep], axis=1)
        outer = cumulative_trapezoid(inner, xi, axis=0, initial=0.0)
        new = source[:, None] + outer
        change = np.max(np.abs(new - P))
        P = new
        if change < 1e-10:
            return KernelTable(float(tau), float(grid_step), xi, P, V.l1_norm)
    raise DivergenceError("kernel iteration did not reach 1e-10 in 200 sweeps")


def _cos_term(k: float, t: np.ndarray, h: float) -> np.ndarray:
    """cos(kt) + h sin(kt)/k with the removable k -> 0 limit handled."""
    t = np.asarray(t, dtype=float)
    kt = k * t
    if k == 0:
        return np.cos(kt) + h * t
    sinc = np.sin(kt) / k
    small = np.abs(kt) < 1e-4
    if np.any(small):
        sinc = np.where(small, t * (1.0 - kt * kt / 6.0), sinc)
    return np.cos(kt) + h * sinc


def fundamental_via_kernel(K: KernelTable, h: float, k: float) -> complex:
    """Evaluate omega(tau, k) at tau = K.tau from the integral representation.

    At the edge x = tau the slice K(tau, .) lies on the anti-diagonal of the
    characteristic grid, so it is read off without interpolation, splined,
    and integrated against the trig factor by Simpson on a grid fine enough
    for the oscillation (about 40 samples per period).
    """
    tau = K.tau
    n = K.values.shape[0] - 1
    idx = np.arange(n + 1)
    spline = CubicSpline(2.0 * K.xi - tau, K.values[idx, n - idx])
    n_quad = max(4001, int(40.0 * abs(k) * tau) + 1)
    if n_quad % 2 == 0:
        n_quad += 1
    t = np.linspace(-tau, tau, n_quad)
    integrand = spline(t) * _cos_term(k, t, h)
    integral = simpson(integrand, x=t)
    return complex(_cos_term(k, np.asarray(tau), h) + integral)
