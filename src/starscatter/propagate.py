"""Fast propagation of y'' = (V(x) - k^2) y, vectorized over k.

The interval is cut into ``step_count`` cells and V is taken constant at
each cell midpoint.  On a cell of length dx the exact constant-potential
transfer matrix is

    [y ]       [ cos(q dx)        sin(q dx)/q ] [y ]
    [y']  <-   [ -q sin(q dx)     cos(q dx)   ] [y'],   q = sqrt(k^2 - V),

which continues analytically to k^2 < V (cosh/sinh).  Since V and k are
real, the product of these cells is one real 2x2 matrix per frequency,
with unit determinant, so Wronskians and flux balances are preserved to
rounding regardless of step size.  ``transfer_matrix`` builds it and
``sweep`` applies it to (y, y').

Adjacent cells with the same midpoint V are merged into one cell of the
summed length.  The midpoint scheme already treats V as constant there, so
merging changes the product only by rounding: uniform lines, exponential
tapers and the V = 0 stretch past a potential's support each cost a single
cell.  The scheme is second order in dx for smooth V.  Signed dx gives
backward propagation (cos is even, sin(q dx)/q is odd).

On a fixed partition the product is an entire function of k of exponential
type |x_to - x_from|, so n + 1 Chebyshev points of [k_min, k_max], with
n = ceil(|x_to - x_from| (k_max - k_min) / 2) + NODE_MARGIN, determine it to
rounding.  When both the grid and the merged cell count exceed n + 1, the
cell product is taken on those nodes and its four entries are carried to
the grid by barycentric interpolation (Berrut & Trefethen, SIAM Review 46,
2004), at a cost of about cells x nodes + nodes x (number of frequencies).
The partition is the one the grid's k_max gives, and k_max is a node.  The
interpolant is checked against the direct product at a few off-node grid
k; an error above CHECK_TOL of an entry's largest value sends the whole
grid to the direct product.  A short grid or a branch of few cells takes
the direct product, at (cells) x (number of frequencies).
"""
from __future__ import annotations

import math

import numpy as np

STEPS_PER_WAVELENGTH = 20
DX_MAX = 2e-3
NODE_MARGIN = 60  # Chebyshev nodes beyond |length| (k_max - k_min) / 2
N_CHECKS = 5  # off-node grid k where the interpolant is checked
CHECK_TOL = 1e-12  # largest check error, relative to the entry's largest value


def step_count(length: float, k_max: float) -> int:
    if length <= 0:
        return 0
    dx = DX_MAX
    if k_max > 0:
        dx = min(dx, 2.0 * math.pi / (STEPS_PER_WAVELENGTH * k_max))
    return max(int(math.ceil(length / dx)), 1)


def _step_factors(s: np.ndarray, dx: float):
    """(c, sl) with c = cos(q dx), sl = sin(q dx)/q for s = q^2 of any sign."""
    small = np.abs(s) * dx * dx < 1e-14
    if np.all(s > 0):
        q = np.sqrt(s)
        arg = q * dx
        c = np.cos(arg)
        with np.errstate(invalid="ignore", divide="ignore"):
            sl = np.sin(arg) / q
    else:
        q = np.sqrt(np.abs(s))
        arg = q * dx
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(s >= 0, np.cos(arg), np.cosh(arg))
            sl = np.where(s >= 0, np.sin(arg), np.sinh(arg)) / q
    if np.any(small):
        c = np.where(small, 1.0 - 0.5 * s * dx * dx, c)
        sl = np.where(small, dx * (1.0 - s * dx * dx / 6.0), sl)
    return c, sl


def _cell_product(k: np.ndarray, v_runs: np.ndarray, widths: np.ndarray):
    """Product of the constant-V cell matrices (one per run) at each k."""
    k2 = k * k
    m11, m12 = np.ones_like(k2), np.zeros_like(k2)
    m21, m22 = np.zeros_like(k2), np.ones_like(k2)
    for v, w in zip(v_runs, widths):
        s = k2 - v
        c, sl = _step_factors(s, w)
        qs = s * sl  # q sin(q dx): the cell's lower-left entry, negated
        m11, m21 = c * m11 + sl * m21, c * m21 - qs * m11
        m12, m22 = c * m12 + sl * m22, c * m22 - qs * m12
    return m11, m12, m21, m22


def _chebyshev_nodes(k_min: float, k_max: float, n: int):
    """n + 1 Chebyshev points of the second kind on [k_min, k_max], in
    ascending order with both ends exact, and their barycentric weights."""
    x = np.sin(np.pi * (2.0 * np.arange(n + 1) - n) / (2 * n))
    nodes = 0.5 * (k_max + k_min) + 0.5 * (k_max - k_min) * x
    nodes[0], nodes[-1] = k_min, k_max
    weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    return nodes, weights


def _barycentric(k: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                 values):
    """Evaluate the interpolants through (nodes, values[e]) at k, for
    ascending nodes.

    Sums node by node so memory stays O(len(k)); a k equal to a node gets
    that node's value.
    """
    num = [np.zeros_like(k) for _ in values]
    den = np.zeros_like(k)
    d = np.empty_like(k)
    term = np.empty_like(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, (kj, wj) in enumerate(zip(nodes, weights)):
            np.subtract(k, kj, out=d)
            np.divide(wj, d, out=d)
            den += d
            for acc, f in zip(num, values):
                np.multiply(d, f[j], out=term)
                acc += term
        for acc in num:
            acc /= den
    pos = np.minimum(np.searchsorted(nodes, k), nodes.size - 1)
    hit = nodes[pos] == k
    for acc, f in zip(num, values):
        acc[hit] = f[pos[hit]]
    return num


def transfer_matrix(potential, x_from: float, x_to: float, k: np.ndarray):
    """Real transfer matrix (m11, m12, m21, m22) from x_from to x_to.

    ``potential`` is a vectorized map x -> V(x).  Each entry is an array
    over k; (y, y')(x_to) = M (y, y')(x_from) and det M = 1.  On a long
    grid the entries are interpolated from Chebyshev nodes (module
    docstring).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    length = x_to - x_from
    if length == 0.0:
        return (np.ones_like(k), np.zeros_like(k),
                np.zeros_like(k), np.ones_like(k))
    n_steps = step_count(abs(length), float(np.max(np.abs(k))))
    dx = length / n_steps
    mids = x_from + (np.arange(n_steps) + 0.5) * dx
    v_mid = np.asarray(potential(mids), dtype=float)
    starts = np.flatnonzero(np.r_[True, v_mid[1:] != v_mid[:-1]])
    v_runs = v_mid[starts]
    widths = np.diff(np.r_[starts, n_steps]) * dx
    k_min, k_max = float(np.min(k)), float(np.max(k))
    n = math.ceil(abs(length) * (k_max - k_min) / 2) + NODE_MARGIN
    if k.size <= n + 1 or v_runs.size <= n + 1:
        return _cell_product(k, v_runs, widths)
    nodes, weights = _chebyshev_nodes(k_min, k_max, n)
    off = k[~np.isin(k, nodes)]
    checks = off[np.linspace(0, off.size - 1, N_CHECKS + 2)[1:-1]
                 .round().astype(int)] if off.size else off
    direct = _cell_product(np.r_[nodes, checks], v_runs, widths)
    at_nodes = [e[:n + 1] for e in direct]
    at_checks = _barycentric(checks, nodes, weights, at_nodes)
    for e, p in zip(direct, at_checks):
        err = np.max(np.abs(p - e[n + 1:]), initial=0.0)
        if not err <= CHECK_TOL * np.max(np.abs(e[:n + 1])):
            return _cell_product(k, v_runs, widths)
    return tuple(_barycentric(k, nodes, weights, at_nodes))


def sweep(potential, x_from: float, x_to: float, k: np.ndarray,
          y: np.ndarray, dy: np.ndarray):
    """Propagate (y, y') from x_from to x_to; k, y, dy broadcast together.

    Returns the endpoint pair (y, y') as new complex arrays.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=complex), k.shape)
    dy = np.broadcast_to(np.asarray(dy, dtype=complex), k.shape)
    m11, m12, m21, m22 = transfer_matrix(potential, x_from, x_to, k)
    return m11 * y + m12 * dy, m21 * y + m22 * dy
