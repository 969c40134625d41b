"""Jost solutions and half-line scattering data a(k), b(k).

f(x,k) is the solution of y'' = (V - k^2) y that tends to e^{ikx} at
infinity; ftilde is the solution with ftilde(0) = 1, ftilde'(0) = -ik, whose
far field a e^{-ikx} + b e^{ikx} carries the half-line transfer data.  (The
-ik initial slope is what the integral equation for ftilde implies.)

``jost_batch`` is the route the network solver uses: one vectorized
transfer-matrix pass per branch, whose (f0, df0) the sweep takes (a and b
only on request).  Two references check it: an adaptive RK45 integration
of the ODE form (``jost_at_origin``, ``jost_profile``), which ``validate``
and the tests use and which stays stable at high k, and a slow Volterra
successive-approximation solution used by tests at moderate k*X.
On V = 0 the batch and RK45 routes return e^{ikx} and e^{-ikx} exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from . import propagate
from .errors import AccuracyError, SingularFrequencyError
from .line_model import PotentialFn

RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class JostData:
    """Boundary values and asymptotic coefficients at one frequency."""

    k: float
    f0: complex
    df0: complex
    a: complex
    b: complex


def _rk45(V, k, t_span, u0, t_eval=None, max_step=np.inf):
    """Adaptive RK45 for y'' = (V(x) - k^2) y from (y, y') = u0 at
    t_span[0], in steps of at most max_step and, for k != 0, of
    1/STEPS_PER_WAVELENGTH of a wavelength.  Returns the rows (y, y') at
    t_eval, or at the solver's own steps (the endpoint last) without it."""
    if k != 0:
        max_step = min(max_step, (2.0 * np.pi / abs(k))
                       / propagate.STEPS_PER_WAVELENGTH)

    def rhs(x, u):
        return [u[1], (V(x) - k * k) * u[0]]

    sol = solve_ivp(rhs, t_span, u0, method="RK45", rtol=RTOL, atol=ATOL,
                    max_step=max_step, t_eval=t_eval)
    if not sol.success:
        raise AccuracyError(
            f"RK45 failed on [{t_span[0]}, {t_span[1]}]: {sol.message}")
    return sol.y


def jost_at_origin(V: PotentialFn, k: float) -> JostData:
    """f(0,k), f'(0,k) plus a(k), b(k) for one half-line potential.

    f is integrated backwards from the truncation point with exact free data;
    ftilde is integrated forwards from the node and matched to plane waves.
    """
    if k == 0:
        raise SingularFrequencyError("Jost data is singular at k = 0")
    X = V.truncation
    if X == 0.0:
        return JostData(k, 1.0 + 0.0j, 1j * k, 1.0 + 0.0j, 0.0j)
    eikX = np.exp(1j * k * X)
    f0, df0 = _rk45(V, k, (X, 0.0), [eikX, 1j * k * eikX])[:, -1]
    ft, dft = _rk45(V, k, (0.0, X), [1.0 + 0.0j, -1j * k])[:, -1]
    a = eikX * (1j * k * ft - dft) / (2j * k)
    b = (1j * k * ft + dft) / (2j * k * eikX)
    return JostData(float(k), f0, df0, a, b)


def jost_profile(V: PotentialFn, k: float, xs):
    """f and f' sampled on xs (ascending, within [0, X])."""
    if k == 0:
        raise SingularFrequencyError("Jost data is singular at k = 0")
    xs = np.asarray(xs, dtype=float)
    if V.support_end <= 0.0:
        f = np.exp(1j * k * xs)
        return f, 1j * k * f
    X = max(V.truncation, float(xs[-1]))
    eikX = np.exp(1j * k * X)
    f, df = _rk45(V, k, (X, 0.0), [eikX, 1j * k * eikX], t_eval=xs[::-1])
    return f[::-1], df[::-1]


def jost_tilde_profile(V: PotentialFn, k: float, xs):
    """ftilde and ftilde' sampled on xs (ascending, starting at 0)."""
    if k == 0:
        raise SingularFrequencyError("Jost data is singular at k = 0")
    xs = np.asarray(xs, dtype=float)
    if V.support_end <= 0.0:
        ft = np.exp(-1j * k * xs)
        return ft, -1j * k * ft
    ft, dft = _rk45(V, k, (0.0, float(xs[-1]) or 1e-9),
                    [1.0 + 0.0j, -1j * k], t_eval=xs)
    return ft, dft


def jost_batch(V: PotentialFn, k, with_ab: bool = False):
    """Vectorized (f0, df0[, a, b]) over an array of frequencies.

    One real transfer matrix over [0, X] gives both f and ftilde;
    cross-validated against ``jost_at_origin`` in the test suite.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k == 0):
        raise SingularFrequencyError("Jost data is singular at k = 0")
    X = V.truncation
    # one pass over [0, X]: ftilde(X) = M (1, -ik), f(0) = M^-1 f(X), where
    # M^-1 = [[m22, -m12], [-m21, m11]] because det M = 1; on V = 0, X = 0
    # and M is the identity
    m11, m12, m21, m22 = propagate.transfer_matrix(V, 0.0, X, k)
    ik = 1j * k
    eikX = np.exp(ik * X)
    f0 = (m22 - m12 * ik) * eikX
    df0 = (m11 * ik - m21) * eikX
    if not with_ab:
        return f0, df0, X
    ft = m11 - m12 * ik
    dft = m21 - m22 * ik
    a = eikX * (ik * ft - dft) / (2j * k)
    b = (ik * ft + dft) / (2j * k * eikX)
    return f0, df0, a, b, X


def jost_via_volterra(V: PotentialFn, k: float, n_grid: int = 4000):
    """Successive approximations for the Jost integral equations on
    [0, V.truncation]: at most 60 sweeps, stopping when a sweep
    moves the solution by less than 1e-12.

    Returns (x_grid, f, ftilde).  Slow reference path; accuracy degrades as
    k*X grows, so tests use it at moderate frequencies only.
    """
    if k == 0:
        raise SingularFrequencyError("Jost data is singular at k = 0")
    x = np.linspace(0.0, V.truncation, n_grid + 1)
    v = np.asarray(V(x), dtype=float)
    sin_kx, cos_kx = np.sin(k * x), np.cos(k * x)

    def forward_iterate(g0, weight):
        # int_0^x sin(k(x-y))/k w(y) dy via two cumulative trapezoids
        g = g0.copy()
        for _ in range(60):
            w = weight * g
            ic = cumulative_trapezoid(cos_kx * w, x, initial=0.0)
            is_ = cumulative_trapezoid(sin_kx * w, x, initial=0.0)
            new = g0 + (sin_kx * ic - cos_kx * is_) / k
            if np.max(np.abs(new - g)) < 1e-12:
                return new
            g = new
        return g

    def backward_iterate(g0, weight):
        g = g0.copy()
        for _ in range(60):
            w = weight * g
            tc = cumulative_trapezoid((cos_kx * w)[::-1], x, initial=0.0)[::-1]
            ts = cumulative_trapezoid((sin_kx * w)[::-1], x, initial=0.0)[::-1]
            new = g0 - (sin_kx * tc - cos_kx * ts) / k
            if np.max(np.abs(new - g)) < 1e-12:
                return new
            g = new
        return g

    ftilde = forward_iterate(np.exp(-1j * k * x), v)
    f = backward_iterate(np.exp(1j * k * x), v)
    return x, f, ftilde
