"""Brute-force finite-difference solver over the whole truncated graph.

Deliberately independent of the scattering module: each branch carries a
uniform grid, the Helmholtz-with-potential equation is discretized with a
second-order central stencil, node and terminal conditions become discrete
constraint rows, and infinite branches are closed with radiation rows.
The branches meet only at the node, so the system is solved as one banded
system per branch (``scipy.linalg.solve_banded``) for the branch's own
source and its coupling to the node value y_0, after which value
continuity and the node's derivative balance leave one scalar unknown.

Two accuracy choices keep the comparison against the constructed solution
honest at high k: the stencil uses the dispersion-corrected coefficient
K^2 = 2(1 - cos(k dx))/dx^2, which makes e^{+-ikx} an exact lattice
solution wherever V = 0 (so the radiation closures and the endpoint
projection are free of O(k^3 dx^2) phase drift), and the one-sided
derivative rows at the node/terminals are third order so they do not
dominate the O(dx^2) interior error.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .errors import DomainError, ResonanceError
from .scattering import StarNetwork


@dataclass(eq=False)
class DiscreteGraphField:
    """Discrete field on the truncated graph plus the extracted reflection."""

    k: float
    grids: list  # per-branch x arrays
    values: list  # per-branch complex field arrays
    R1_est: complex

    def node_values(self):
        return [v[0] for v in self.values]


def _one_sided_start(n0, dx):
    """Third-order y'(x_0): indices n0..n0+3, weights /(6 dx)."""
    idx = np.array([n0, n0 + 1, n0 + 2, n0 + 3])
    w = np.array([-11.0, 18.0, -9.0, 2.0]) / (6.0 * dx)
    return idx, w


def _one_sided_end(nN, dx):
    idx = np.array([nN, nN - 1, nN - 2, nN - 3])
    w = np.array([11.0, -18.0, 9.0, -2.0]) / (6.0 * dx)
    return idx, w


def oracle_solve(net: StarNetwork, k: float, dx: float,
                 X_trunc: float) -> DiscreteGraphField:
    """Solve the truncated discrete graph problem at one frequency.

    X_trunc must lie beyond every infinite-branch potential support; dx must
    resolve the oscillation (dx <= (2 pi / k)/20).
    """
    if dx > (2.0 * math.pi / k) / 20.0:
        raise DomainError("dx too coarse for this k (need 20 pts/wavelength)")
    for b in net.infinite_branches:
        if X_trunc < b.potential.support_end:
            raise DomainError("X_trunc inside a potential support")

    grids = []
    for j, b in enumerate(net.branches, start=1):
        L = b.tau if b.is_finite else X_trunc
        n = max(int(round(L / dx)), 8)
        if (L / n) ** 2 < sys.float_info.min:  # the stencil divides by it
            raise DomainError(f"branch {j}: grid step {L / n:.3g} is too "
                              f"small for the stencil")
        grids.append(np.linspace(0.0, L, n + 1))

    # Per branch the unknowns y_1..y_n meet n rows: the interior stencils
    # at x_1..x_{n-1} and the far-end row (terminal or radiation), a banded
    # system with 3 sub- and 1 super-diagonal.  y_0 enters only the first
    # stencil, so the branch solves for two right-hand sides, its source
    # and that coupling, and y = z_a + y_0 z_c.
    A, saap = net.A, net.saap
    parts = []
    for bi, (b, g) in enumerate(zip(net.branches, grids)):
        n = g.size - 1
        d = g[-1] / n
        K2 = 2.0 * (1.0 - math.cos(k * d)) / (d * d)
        v_in = np.asarray(b.potential(g[1:n]), dtype=float)
        ab = np.zeros((5, n), dtype=complex)  # ab[1 + i - j, j] = a[i, j]
        ab[0, 1:] = ab[2, :n - 2] = 1.0 / d ** 2
        ab[1, :n - 1] = -2.0 / d ** 2 + (K2 - v_in)
        rhs = np.zeros((n, 2), dtype=complex)
        rhs[0, 1] = -1.0 / d ** 2
        if b.is_finite:  # y' = h y at the terminal, one-sided
            _, w = _one_sided_end(n, d)
            ab[1, n - 1], ab[2, n - 2] = w[0] - b.h, w[1]
            ab[3, n - 3], ab[4, n - 4] = w[2], w[3]
        else:  # radiation closure, an exact lattice row
            ab[1, n - 1], ab[2, n - 2] = 1.0, -np.exp(1j * k * d)
            if bi == 0:  # the incoming wave e^{-ikx} on branch 1
                rhs[n - 1, 0] = (np.exp(-1j * k * g[-1])
                                 * (1.0 - np.exp(2j * k * d)))
        try:
            z = solve_banded((3, 1), ab, rhs, overwrite_ab=True,
                             overwrite_b=True)
        except LinAlgError as exc:
            raise ResonanceError(
                f"discrete system singular at k={k}") from exc
        parts.append((z[:, 0], z[:, 1], _one_sided_start(0, d)[1]))

    # continuity gives y_0 = A_j ybar on every branch, and the derivative
    # balance sum_j A_j y_j'(0) = saap ybar is then one scalar equation
    coef, const = -saap, 0.0
    for a, (za, zc, w) in zip(A.tolist(), parts):
        coef += a * a * (w[0] + w[1:] @ zc[:3])
        const += a * (w[1:] @ za[:3])
    ybar = -const / coef
    values = [np.concatenate([[a * ybar], za + (a * ybar) * zc])
              for a, (za, zc, _) in zip(A.tolist(), parts)]
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ResonanceError(f"discrete system singular at k={k}")
    X = grids[0][-1]
    yN = values[0][-1]
    R1_est = complex((yN - np.exp(-1j * k * X)) * np.exp(-1j * k * X))
    return DiscreteGraphField(float(k), grids, values, R1_est)
