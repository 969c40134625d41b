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
cell.  A V = 0 potential is not sampled at all, so it costs one cell at any
k; any other partition too large for an array raises DomainError.  The
scheme is second order in dx for smooth V.  Signed dx gives backward
propagation (cos is even, sin(q dx)/q is odd).

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

Both loops are blocked array operations of at most BLOCK elements a block,
so memory stays O(BLOCK + number of frequencies).  The cell product takes
the cells a power of two at a time, as many as BLOCK allows at the grid's
size: one vectorized call gives a block's cell matrices, a pairwise (tree)
product of log2(cells) levels reduces them, and the result is folded into
the running product.  A long grid thus takes a block of one or two cells,
and the nodes a few hundred.  The interpolant is one matrix product per
block of grid points: the node values times the block's [nodes, points]
barycentric weights.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

STEPS_PER_WAVELENGTH = 20
DX_MAX = 2e-3
NODE_MARGIN = 60  # Chebyshev nodes beyond |length| (k_max - k_min) / 2
N_CHECKS = 5  # off-node grid k where the interpolant is checked
# largest check error, relative to the entry's largest value: R1 amplifies
# entry error about 50x, so 1e-11 / 50 keeps R1 within 1e-11 of the direct
# product
CHECK_TOL = 2e-13
BLOCK = 1 << 16  # elements per block of the blocked array operations


def step_count(length: float, k_max: float) -> int:
    if length <= 0:
        return 0
    dx = DX_MAX
    if k_max > 0:
        dx = min(dx, 2.0 * math.pi / (STEPS_PER_WAVELENGTH * k_max))
    return max(int(math.ceil(length / dx)), 1)


def _step_factors(s: np.ndarray, dx):
    """(c, sl) with c = cos(q dx), sl = sin(q dx)/q for s = q^2 of any sign;
    dx broadcasts against s."""
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


_EYE = (1.0, 0.0, 0.0, 1.0)


def _times(b, a):
    """The 2x2 product b @ a of matrices given as (m11, m12, m21, m22)
    tuples of arrays that broadcast together."""
    b11, b12, b21, b22 = b
    a11, a12, a21, a22 = a
    return (b11 * a11 + b12 * a21, b11 * a12 + b12 * a22,
            b21 * a11 + b22 * a21, b21 * a12 + b22 * a22)


def _block_product(s: np.ndarray, dx: np.ndarray):
    """Product of the [cells, nk] cell matrices of s = k^2 - V and widths
    dx[cells, 1], by pairs (a tree), later cells on the left; an odd level
    is padded with the identity.  Overwrites s, whose block is the largest
    array here."""
    c, sl = _step_factors(s, dx)
    s *= sl
    m = (c, sl, np.negative(s, out=s), c)  # -q sin(q dx)
    while m[0].shape[0] > 1:
        if m[0].shape[0] % 2:
            m = tuple(np.concatenate([e, np.full_like(e[:1], i)])
                      for e, i in zip(m, _EYE))
        m = _times(tuple(e[1::2] for e in m), tuple(e[0::2] for e in m))
    return tuple(e[0] for e in m)


def _cell_product(k: np.ndarray, v_runs: np.ndarray, widths: np.ndarray):
    """Product of the constant-V cell matrices (one per run) at each k.

    The runs are taken in blocks of at most BLOCK (run, k) elements, a power
    of two runs each so that only the last block pads.  A block's cells cost
    one _step_factors call and are reduced by pairs, and the block's product
    is folded into the running one.  Memory stays O(BLOCK + len(k)).
    """
    k2 = k * k
    total = _EYE
    step = 1 << max(1, BLOCK // k.size).bit_length() - 1
    for lo in range(0, v_runs.size, step):
        total = _times(_block_product(k2 - v_runs[lo:lo + step, None],
                                      widths[lo:lo + step, None]), total)
    return total


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

    Takes k in blocks of BLOCK // len(nodes) points.  With a block's
    [nodes, points] matrix d = weights / (k - nodes), one product F @ d
    gives every numerator and, from F's last row of ones, the denominator,
    where F stacks the values.  Memory stays O(BLOCK + len(k)); a k equal
    to a node gets that node's value.
    """
    F = np.vstack([*values, np.ones_like(nodes)])
    out = np.empty((len(values), k.size))
    step = max(1, BLOCK // nodes.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, k.size, step):
            d = k[lo:lo + step] - nodes[:, None]
            np.divide(weights[:, None], d, out=d)
            num = F @ d
            out[:, lo:lo + step] = num[:-1] / num[-1]
    pos = np.minimum(np.searchsorted(nodes, k), nodes.size - 1)
    hit = nodes[pos] == k
    out[:, hit] = F[:-1, pos[hit]]
    return list(out)


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
    if getattr(potential, "support_end", 1.0) <= 0.0:
        # V = 0 (a PotentialFn without support): one run, not sampled
        v_runs, widths = np.zeros(1), np.array([n_steps * dx])
    elif n_steps > np.iinfo(np.intp).max // 8:
        raise DomainError(f"k = {np.max(np.abs(k)):.6g} needs {n_steps:.3g} "
                          f"cells over length {abs(length):.6g}, more than "
                          f"an array can hold")
    else:
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
