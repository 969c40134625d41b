"""Reference solutions that only the tests read.

Each is a slow or independent route to a quantity the package computes
another way: a Volterra successive-approximation Jost solution, omega
sampled along a finite branch by ``jost.rk45_sweep``, the Goursat kernel
interpolated off its characteristic grid, and the field on a branch
propagated out from a sweep's node values.
"""
import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import RegularGridInterpolator

from starscatter import propagate
from starscatter.errors import DomainError, SingularFrequencyError
from starscatter.fundamental import KernelTable
from starscatter.jost import rk45_sweep
from starscatter.line_model import PotentialFn
from starscatter.scattering import ScatteringSweep, StarNetwork


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


def fundamental_profile(V: PotentialFn, tau: float, h: float, k, xs):
    """omega and omega' sampled on ascending xs in [0, tau], two
    [len(xs), nk] arrays."""
    return rk45_sweep(V, 0.0, tau, k, 1.0, h, xs)


def kernel_at(K: KernelTable, x, t):
    """K(x, t) interpolated linearly off the table's characteristic grid."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    interp = RegularGridInterpolator((K.xi, K.xi), K.values,
                                     bounds_error=False, fill_value=None)
    pts = np.stack([(x + t) / 2.0, (x - t) / 2.0], axis=-1)
    out = interp(pts)
    return out if out.ndim else float(out)


def assemble_field(net: StarNetwork, sweep: ScatteringSweep,
                   branch_id: int, x: float, derivative: bool = False):
    """Field y (optionally (y, y')) on one branch at position x, at the
    frequency of the sweep's row 0.

    Propagates the stored node boundary values outward, so the result is
    consistent with the coefficients to solver accuracy.
    """
    if branch_id < 1 or branch_id > len(net.branches):
        raise DomainError(f"branch_id {branch_id} out of range")
    b = net.branches[branch_id - 1]
    if x < 0:
        raise DomainError("x must be nonnegative")
    if b.is_finite and x > b.geometry.tau + 1e-12:
        raise DomainError(f"x={x} beyond tau={b.geometry.tau}")
    y0, dy0 = sweep.node_values[0, branch_id - 1]
    y, dy = propagate.sweep(b.potential, 0.0, float(x), sweep.k[:1],
                            np.array([y0]), np.array([dy0]))
    if derivative:
        return complex(y[0]), complex(dy[0])
    return complex(y[0])
