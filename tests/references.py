"""Reference solutions that only the tests read.

Each is a slow or independent route to a quantity the package computes
another way: a Volterra successive-approximation Jost solution, omega
sampled along a finite branch by ``jost.rk45_sweep``, the Goursat kernel
interpolated off its characteristic grid, the field on a branch
propagated out from a sweep's node values, and the finite-difference
oracle's system solved by banded LU.
"""
import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded

from starscatter import oracle, propagate
from starscatter.errors import DomainError
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
        raise DomainError("Jost data is singular at k = 0")
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


def fundamental_profile(V: PotentialFn, h: float, k, xs):
    """omega and omega' (omega(0) = 1, omega'(0) = h) sampled on xs, two
    [len(xs), nk] arrays, each row one ``rk45_sweep`` call from 0 to its
    x."""
    rows = [rk45_sweep(V, 0.0, x, k, 1.0, h)
            for x in np.asarray(xs, dtype=float).tolist()]
    return tuple(np.array([r[i] for r in rows]) for i in (0, 1))


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
    if b.is_finite and x > b.tau + 1e-12:
        raise DomainError(f"x={x} beyond tau={b.tau}")
    y0, dy0 = sweep.node_values[0, branch_id - 1]
    y, dy = propagate.sweep(b.potential, 0.0, float(x), sweep.k[:1],
                            np.array([y0]), np.array([dy0]))
    if derivative:
        return complex(y[0]), complex(dy[0])
    return complex(y[0])


def banded_oracle_field(net: StarNetwork, k: float, dx: float,
                        X_trunc: float):
    """The finite-difference oracle's field on each branch's grid and its
    R1_est, from one banded LU solve per branch (``solve_banded``, 3 sub-
    and 1 super-diagonal) for the branch's source and its coupling to y_0,
    in place of ``oracle_solve``'s recurrence: (values, R1_est)."""
    A, saap = net.A, net.saap
    grids, parts = [], []
    for bi, b in enumerate(net.branches):
        L = b.tau if b.is_finite else X_trunc
        n = max(int(round(L / dx)), 8)
        g = np.linspace(0.0, L, n + 1)
        grids.append(g)
        d = g[-1] / n
        K2 = 2.0 * (1.0 - math.cos(k * d)) / (d * d)
        v_in = np.asarray(b.potential(g[1:n]), dtype=float)
        ab = np.zeros((5, n), dtype=complex)  # ab[1 + i - j, j] = a[i, j]
        ab[0, 1:] = ab[2, :n - 2] = 1.0 / d ** 2
        ab[1, :n - 1] = -2.0 / d ** 2 + (K2 - v_in)
        rhs = np.zeros((n, 2), dtype=complex)
        rhs[0, 1] = -1.0 / d ** 2
        if b.is_finite:  # y' = h y at the terminal, one-sided
            _, w = oracle._one_sided_end(n, d)
            ab[1, n - 1], ab[2, n - 2] = w[0] - b.h, w[1]
            ab[3, n - 3], ab[4, n - 4] = w[2], w[3]
        else:  # radiation closure
            ab[1, n - 1], ab[2, n - 2] = 1.0, -np.exp(1j * k * d)
            if bi == 0:  # the incoming wave e^{-ikx} on branch 1
                rhs[n - 1, 0] = (np.exp(-1j * k * g[-1])
                                 * (1.0 - np.exp(2j * k * d)))
        z = solve_banded((3, 1), ab, rhs)
        parts.append((z[:, 0], z[:, 1], oracle._one_sided_start(0, d)[1]))
    coef, const = -saap, 0.0
    for a, (za, zc, w) in zip(A.tolist(), parts):
        coef += a * a * (w[0] + w[1:] @ zc[:3])
        const += a * (w[1:] @ za[:3])
    ybar = -const / coef
    values = [np.concatenate([[a * ybar], za + (a * ybar) * zc])
              for a, (za, zc, _) in zip(A.tolist(), parts)]
    X = grids[0][-1]
    return values, complex((values[0][-1] - np.exp(-1j * k * X))
                           * np.exp(-1j * k * X))
