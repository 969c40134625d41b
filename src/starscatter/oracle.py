"""Brute-force finite-difference solver over the whole truncated graph.

Deliberately independent of the scattering module: each branch carries a
uniform grid, the Helmholtz-with-potential equation is discretized with a
second-order central stencil, node and terminal conditions become discrete
constraint rows, and infinite branches are closed with radiation rows.
The branches meet only at the node.  On each branch the stencil rows are a
three-term recurrence with real coefficients, so one solution that meets
the far-end row (terminal or radiation) is swept back from the far end to
the node, and scaled to y_0 = 1 it is the branch's coupling to the node
value.  Branch 1's incoming wave is its conjugate, scaled, so it costs no
second sweep.  Value continuity and the node's derivative balance then
leave one scalar unknown.

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

from .errors import DomainError, ResonanceError
from .propagate import MAX_CELLS
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


def _sweep_back(c, y_prev, y_last) -> np.ndarray:
    """y_0..y_n of the lattice recurrence y_{i-1} = -c_i y_i - y_{i+1}
    (c = c_1..c_{n-1}), swept back from (y_{n-1}, y_n)."""
    ys = [y_last, y_prev]
    a, b = y_last, y_prev
    for ci in reversed(c.tolist()):
        a, b = b, -ci * b - a
        ys.append(b)
    return np.array(ys[::-1])


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
        if L / dx > MAX_CELLS:  # refused before it is allocated
            raise DomainError(f"branch {j}: {L / dx:.3g} grid cells on [0, "
                              f"{L:.6g}], more than an array can hold")
        n = max(int(round(L / dx)), 8)
        if (L / n) ** 2 < sys.float_info.min:  # the stencil divides by it
            raise DomainError(f"branch {j}: grid step {L / n:.3g} is too "
                              f"small for the stencil")
        grids.append(np.linspace(0.0, L, n + 1))

    # Per branch the unknowns y_1..y_n meet n rows: the stencils at
    # x_1..x_{n-1}, y_{i-1} + c_i y_i + y_{i+1} = 0, and the far-end row.
    # u, swept back from a start that meets the far-end row, solves them
    # with y_0 = u_0; zc = u / u_0 is the branch's coupling to y_0, and
    # branch 1's incoming wave (its radiation row's source) enters as
    # za = wave - wave_0 zc, so that the branch's field is y = za + y_0 zc.
    A, saap = net.A, net.saap
    parts = []
    for bi, (b, g) in enumerate(zip(net.branches, grids)):
        n = g.size - 1
        d = g[-1] / n
        K2 = 2.0 * (1.0 - math.cos(k * d)) / (d * d)
        c = -2.0 + d * d * (K2 - np.asarray(b.potential(g[1:n]),
                                            dtype=float))
        if b.is_finite:
            # y' = h y at the terminal, one-sided on y_n..y_{n-3}: the
            # stencils at x_{n-1} and x_{n-2} write y_{n-2} and y_{n-3} in
            # y_{n-1} and y_n, and the row then fixes y_{n-1} : y_n
            w0, w1, w2, w3 = _one_sided_end(n, d)[1].tolist()
            c1, c2 = float(c[-1]), float(c[-2])
            start = (b.h - w0 + w2 - w3 * c2,
                     w1 - w2 * c1 + w3 * (c2 * c1 - 1.0))
        else:  # radiation closure, an exact lattice row
            start = (1.0, complex(np.exp(1j * k * d)))
        u = _sweep_back(c, *start)
        if not (u[0] != 0 and np.isfinite(u[0])):
            raise ResonanceError(f"discrete system singular at k={k}")
        zc = u[1:] / u[0]
        za = np.zeros(n)
        if bi == 0:
            # conj(u) meets the stencils (c is real); scaled to
            # e^{-ik x_{n-1}} at x_{n-1} it is the incoming wave
            wave = u.conj() * np.exp(-1j * k * g[-2])
            za = wave[1:] - wave[0] * zc
        parts.append((za, zc, _one_sided_start(0, d)[1]))

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
