"""Brute-force finite-difference solver over the whole truncated graph.

Deliberately independent of the scattering module: each branch carries a
uniform grid, the Helmholtz-with-potential equation is discretized with a
second-order central stencil, node and terminal conditions become discrete
constraint rows, and infinite branches are closed with radiation rows.

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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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

    grids, dxs, offsets = [], [], []
    total = 0
    for j, b in enumerate(net.branches, start=1):
        L = b.tau if b.is_finite else X_trunc
        n = max(int(round(L / dx)), 8)
        if (L / n) ** 2 < sys.float_info.min:  # the stencil divides by it
            raise DomainError(f"branch {j}: grid step {L / n:.3g} is too "
                              f"small for the stencil")
        grids.append(np.linspace(0.0, L, n + 1))
        dxs.append(L / n)
        offsets.append(total)
        total += n + 1

    # COO triplets as one (rows, cols, vals) array triple per block, joined
    # once; repeated (row, col) pairs are summed in this order by csr_matrix
    parts = []
    rhs = np.zeros(total, dtype=complex)
    row = 0

    def add(r, c, v):
        parts.append((np.broadcast_to(r, np.shape(c)), c, v))

    # interior stencils, vectorized per branch
    for bi, b in enumerate(net.branches):
        g, d, off = grids[bi], dxs[bi], offsets[bi]
        n = g.size - 1
        K2 = 2.0 * (1.0 - math.cos(k * d)) / (d * d)
        v_in = np.asarray(b.potential(g[1:n]), dtype=float)
        i = np.arange(1, n)
        r = row + i - 1
        add(r, off + i - 1, np.full(n - 1, 1.0 / d ** 2))
        add(r, off + i + 1, np.full(n - 1, 1.0 / d ** 2))
        add(r, off + i, -2.0 / d ** 2 + (K2 - v_in))
        row += n - 1

    # node: value continuity against branch 1, then the derivative balance
    A, saap = net.A, net.saap
    for bi in range(1, len(net.branches)):
        add(row, [offsets[bi], offsets[0]], [1.0 / A[bi], -1.0 / A[0]])
        row += 1
    for bi, b in enumerate(net.branches):
        idx, w = _one_sided_start(offsets[bi], dxs[bi])
        add(row, idx, A[bi] * w)
    add(row, [offsets[0]], [-saap / A[0]])
    row += 1

    # terminal condition on finite branches: y' = h y
    for bi, b in enumerate(net.branches):
        if not b.is_finite:
            continue
        nN = offsets[bi] + grids[bi].size - 1
        idx, w = _one_sided_end(nN, dxs[bi])
        add(row, np.append(idx, nN), np.append(w, -b.h))
        row += 1

    # radiation closures at infinite-branch truncations (exact lattice rows)
    for bi, b in enumerate(net.branches):
        if b.is_finite:
            continue
        d = dxs[bi]
        nN = offsets[bi] + grids[bi].size - 1
        add(row, [nN, nN - 1], [1.0, -np.exp(1j * k * d)])
        if bi == 0:
            X = grids[bi][-1]
            rhs[row] = np.exp(-1j * k * X) * (1.0 - np.exp(2j * k * d))
        row += 1

    assert row == total, (row, total)
    rows, cols, vals = (np.concatenate(c) for c in zip(*parts))
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(total, total),
                        dtype=complex)
    sol = spla.spsolve(mat, rhs)
    if not np.all(np.isfinite(sol)):
        raise ResonanceError(f"discrete system singular at k={k}")

    values = []
    for bi in range(len(net.branches)):
        off = offsets[bi]
        values.append(sol[off:off + grids[bi].size])
    X = grids[0][-1]
    yN = values[0][-1]
    R1_est = complex((yN - np.exp(-1j * k * X)) * np.exp(-1j * k * X))
    return DiscreteGraphField(float(k), grids, values, R1_est)
