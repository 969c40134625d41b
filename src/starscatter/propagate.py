"""Fast propagation of y'' = (V(x) - k^2) y, vectorized over k.

The interval is cut into ``step_count`` cells and V is taken constant at
each cell midpoint.  On a cell of length dx the exact constant-potential
transfer matrix is

    [y ]       [ cos(q dx)        sin(q dx)/q ] [y ]
    [y']  <-   [ -q sin(q dx)     cos(q dx)   ] [y'],   q = sqrt(k^2 - V),

which continues analytically to k^2 < V (cosh/sinh).  Since V and k are
real, the product of these cells is one real 2x2 matrix per frequency,
with unit determinant, so Wronskians and flux balances are preserved to
rounding regardless of step size.  The kernel's one entry, the pair
``plan_sweep`` and ``sweep_block`` (below), applies it to the start pair
(y, y') of every leg of a star, one block of frequencies at a time;
``sweep_legs`` is the whole grid in one call and ``sweep`` its one-leg call.

Adjacent cells with the same midpoint V are merged into one cell of the
summed length.  The midpoint scheme already treats V as constant there, so
merging changes the product only by rounding: uniform lines, exponential
tapers and the V = 0 stretch past a potential's support each cost a single
cell.  A V = 0 potential is not sampled at all, so it costs one cell at any
k; any other partition too large for an array raises DomainError.  An
empty span (x_from = x_to) is one cell of width 0, whose matrix is exactly
the identity (1, 0, 0, 1).  The scheme is second order in dx for smooth V.
Signed dx gives backward propagation (cos is even, sin(q dx)/q is odd).

On a fixed partition the product is an entire function of k of exponential
type |x_to - x_from|, so n + 1 Chebyshev points of [k_min, k_max], with
n = ceil(|x_to - x_from| (k_max - k_min) / 2) + NODE_MARGIN, determine it to
rounding.  The legs of one call share one node set, with n the largest
over the legs, so it determines every leg's product.  When both the grid
and a leg's merged cell count exceed n + 1, that leg's cell product is
taken on the nodes and its four entries are carried to the grid by
barycentric interpolation (Berrut & Trefethen, SIAM Review 46, 2004).
The barycentric weights serve every function sampled on the same nodes,
so all interpolated legs share one pass over the grid: a call costs about
sum(cells) x nodes + nodes x (number of frequencies), not one such pass
per leg.  The partition is the one the grid's k_max gives, and k_max is a
node.  Each leg's interpolant is checked against its direct product at
the same few off-node grid k; an error above CHECK_TOL of an entry's
largest value sends that leg alone, over the whole grid, to the direct
product.  A short grid or a leg of few cells takes the direct product, at
(cells) x (number of frequencies).  A one-leg call (``sweep``) thus takes
the nodes of that leg alone.

Both loops are blocked array operations of at most BLOCK elements a block,
so memory stays O(BLOCK + number of frequencies).  The cell product takes
the cells a power of two at a time, as many as BLOCK allows at the grid's
size: one vectorized call gives a block's cell matrices, a pairwise (tree)
product of log2(cells) levels reduces them, and the result is folded into
the running product.  A long grid thus takes a block of one or two cells,
and the nodes a few hundred.  The interpolant is one matrix product per
block of grid points: the node values of every interpolated leg's four
entries, stacked, times the block's [nodes, points] barycentric weights,
which are computed once.

A sweep is streamed one block of rows at a time.  ``plan_sweep`` does the
once-per-grid work, all from the whole grid: each leg's partition at the
grid's largest |k|, the shared nodes, node products and off-node checks,
each leg's direct-or-interpolated choice, and the direct product's cells
per block.  ``sweep_block`` then carries one block of rows from the legs'
start pairs to their end pairs, [rows, legs] arrays; the direct legs of
one run (uniform lines, stubs, empty spans) take one cell product
together.  A block has about ROW_BLOCK // legs rows, rounded down to a
whole number of barycentric blocks (at least one), so its arrays stay
O(BLOCK), and each row is computed as a one-block sweep of the whole grid
computes it: the results do not depend on the block length.
``sweep_legs`` writes the blocks in turn into whole-grid outputs, from
start pairs (y, dy) that broadcast against the whole grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
ROW_BLOCK = BLOCK // 4  # (row, leg) pairs per block of a streamed sweep
MAX_CELLS = np.iinfo(np.intp).max // 8  # most cells of a partition or grid


def step_count(length: float, k_max: float) -> int:
    if length <= 0:
        return 0
    dx = DX_MAX
    if k_max > 0:
        dx = min(dx, 2.0 * math.pi / (STEPS_PER_WAVELENGTH * k_max))
    return max(int(math.ceil(length / dx)), 1)


def _step_factors(s: np.ndarray, dx):
    """(c, sl) with c = cos(q dx), sl = sin(q dx)/q for s = q^2 of any sign;
    dx broadcasts against s.  A cell of width 0 is (1, 0) on either
    branch, except at s = 0, where q = 0 leaves only the Taylor one."""
    small = (np.abs(s) * dx * dx < 1e-14) & ((dx != 0) | (s == 0))
    if np.all(s > 0):
        q = np.sqrt(s)
        arg = q * dx
        c = np.cos(arg)
        sl = np.sin(arg) / q
    else:
        q = np.sqrt(np.abs(s))
        arg = q * dx
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


def _cells_per_block(nk: int) -> int:
    """Cells per block of the cell product on a grid of nk points: the
    largest power of two whose block holds at most BLOCK (cell, k)
    elements, and at least one cell."""
    return 1 << max(1, BLOCK // nk).bit_length() - 1


def _cell_product(k: np.ndarray, v_runs: np.ndarray, widths: np.ndarray,
                  step: int | None = None):
    """Product of the constant-V cell matrices (one per run) at each k.

    The runs are taken in blocks of ``step`` runs (``_cells_per_block`` of
    len(k) by default), a power of two each so that only the last block
    pads.  A block's cells cost one _step_factors call and are reduced by
    pairs, and the block's product is folded into the running one.  Memory
    stays O(step x len(k) + len(k)).  The grouping sets the rounding, so a
    block of a grid's rows takes the whole grid's step.  [runs, legs]
    arrays of runs give every leg's product at once, [legs, nk] entries,
    each the one-leg product to the bit.
    """
    k2 = k * k
    total = _EYE
    step = step or _cells_per_block(k.size)
    # sin(q dx)/q divides by q = 0 where k^2 = V, s dx^2 overflows on a
    # long cell (not small then), and cosh overflows where V >> k^2: an inf
    # or NaN entry is for the node solve to flag, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(v_runs), step):
            total = _times(_block_product(
                k2 - v_runs[lo:lo + step, ..., None],
                widths[lo:lo + step, ..., None]), total)
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
                 F: np.ndarray):
    """Yield (s, e) over blocks s of k, e[i] the interpolant through
    (nodes, F[i]) at k[s], for ascending nodes and F's last row all ones.

    Takes k in blocks of BLOCK // len(nodes) points.  With a block's
    [nodes, points] matrix d = weights / (k - nodes), one product F @ d
    gives every numerator and, from F's last row of ones, the denominator.
    Every block's d fills one buffer of O(BLOCK) elements, so a pass makes
    one such allocation; a k equal to a node gets that node's value.
    """
    step = max(1, BLOCK // nodes.size)
    buf = np.empty(nodes.size * min(step, k.size))
    for lo in range(0, k.size, step):
        s = slice(lo, lo + step)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = buf[:nodes.size * k[s].size].reshape(nodes.size, -1)
            np.subtract(k[s], nodes[:, None], out=d)
            np.divide(weights[:, None], d, out=d)
            num = F @ d
            e = num[:-1] / num[-1]
        pos = np.minimum(np.searchsorted(nodes, k[s]), nodes.size - 1)
        hit = nodes[pos] == k[s]
        e[:, hit] = F[:-1, pos[hit]]
        yield s, e


def _runs(potential, x_from: float, x_to: float, k_top: float):
    """The merged partition (v_runs, widths) of [x_from, x_to] that the
    grid's largest |k| gives; an empty span is one run of width 0, whose
    cell matrix is exactly the identity."""
    length = x_to - x_from
    if length == 0.0:
        return np.zeros(1), np.zeros(1)
    n_steps = step_count(abs(length), k_top)
    dx = length / n_steps
    if getattr(potential, "support_end", 1.0) <= 0.0:
        # V = 0 (a PotentialFn without support): one run, not sampled
        return np.zeros(1), np.array([n_steps * dx])
    if n_steps > MAX_CELLS:
        raise DomainError(f"k = {k_top:.6g} needs {n_steps:.3g} cells over "
                          f"length {abs(length):.6g}, more than an array "
                          f"can hold")
    mids = x_from + (np.arange(n_steps) + 0.5) * dx
    v_mid = np.asarray(potential(mids), dtype=float)
    starts = np.flatnonzero(np.r_[True, v_mid[1:] != v_mid[:-1]])
    return v_mid[starts], np.diff(np.r_[starts, n_steps]) * dx


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """The once-per-grid part of a sweep of legs over the grid k (module
    docstring); ``sweep_block`` carries one block of its rows."""

    k: np.ndarray
    legs: int
    # the direct legs, in groups that share one cell product: (legs,
    # v_runs, widths), with [runs, legs] arrays
    direct: tuple
    interp: tuple  # the legs the barycentric pass carries
    nodes: np.ndarray | None  # the shared Chebyshev nodes, if any leg is
    weights: np.ndarray | None  # interpolated, and their weights
    F: np.ndarray | None  # the interp legs' entries at the nodes, then ones
    cells: int  # cells per block of the direct product, from len(k)
    rows: int  # rows per block of the grid

    @property
    def blocks(self) -> list[slice]:
        return [slice(lo, lo + self.rows)
                for lo in range(0, self.k.size, self.rows)]


def plan_sweep(paths, k: np.ndarray) -> SweepPlan:
    """The plan of a sweep of each leg path (potential, x_from, x_to) over
    the grid k: the partitions at the grid's largest |k|, the one node set
    with each interpolated leg's node products and off-node check, and the
    block sizes.  Only the node products and checks take cell blocks."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    k_top = float(np.max(np.abs(k)))
    runs = [_runs(p, x_from, x_to, k_top) for p, x_from, x_to in paths]
    k_min, k_max = float(np.min(k)), float(np.max(k))
    n = max(math.ceil(abs(x_to - x_from) * (k_max - k_min) / 2)
            for _, x_from, x_to in paths) + NODE_MARGIN
    interp = [j for j, r in enumerate(runs)
              if k.size > n + 1 and r[0].size > n + 1]
    nodes = weights = F = None
    if interp:
        nodes, weights = _chebyshev_nodes(k_min, k_max, n)
        off = k[~np.isin(k, nodes)]
        checks = off[np.linspace(0, off.size - 1, N_CHECKS + 2)[1:-1]
                     .round().astype(int)] if off.size else off
        exact = np.vstack([np.vstack(_cell_product(np.r_[nodes, checks],
                                                   *runs[j]))
                           for j in interp])
        F = np.vstack([exact[:, :n + 1], np.ones_like(nodes)])
        at_checks = exact[:, n + 1:]
        err = np.zeros(len(F) - 1)  # np.maximum keeps a NaN, which fails
        for s, e in _barycentric(checks, nodes, weights, F):
            err = np.maximum(err, np.max(np.abs(e - at_checks[:, s]), axis=1))
        passed = (err <= CHECK_TOL * np.max(np.abs(F[:-1]), axis=1)
                  ).reshape(-1, 4).all(axis=1)
        F = F[np.r_[np.repeat(passed, 4), True]]
        interp = [j for j, ok in zip(interp, passed) if ok]
    # the direct legs of one run (a uniform line or stub, an empty span)
    # share one cell product, [1, legs] elements a row; the others take
    # one each
    direct = [j for j in range(len(runs)) if j not in interp]
    single = [j for j in direct if runs[j][0].size == 1]
    groups = [[j] for j in direct if j not in single]
    if single:
        groups.append(single)
    # whole barycentric blocks, so that a block's pass is the grid's
    step = BLOCK // nodes.size if interp else 1
    rows = max(1, ROW_BLOCK // len(runs) // step) * step
    return SweepPlan(
        k, len(runs),
        tuple((tuple(g), np.column_stack([runs[j][0] for j in g]),
               np.column_stack([runs[j][1] for j in g])) for g in groups),
        tuple(interp), nodes, weights, F if interp else None,
        _cells_per_block(k.size), rows)


def _ends(m, y, dy):
    """The end pair (val, der) of the start pair (y, dy) under the
    matrix m = (m11, m12, m21, m22)."""
    m11, m12, m21, m22 = m
    return m11 * y + m12 * dy, m21 * y + m22 * dy


def sweep_block(plan: SweepPlan, s: slice, starts):
    """Carry the block k[s] of the plan's grid: starts holds each leg's
    start pair (y, dy), each a scalar or an array over k[s].

    Returns the end pairs as two complex [rows, legs] arrays (val, der),
    one column per leg: each group of direct legs takes its cell product
    over the block, and the barycentric pass applies each of its blocks of
    every interpolated leg's entries as it comes, so no [4 legs, rows]
    array is held.
    """
    k = plan.k[s]
    starts = [tuple(np.asarray(a, dtype=complex) for a in start)
              for start in starts]
    val = np.empty((k.size, plan.legs), dtype=complex)
    der = np.empty_like(val)
    for legs, v_runs, widths in plan.direct:
        m = _cell_product(k, v_runs, widths, plan.cells)
        for i, j in enumerate(legs):
            val[:, j], der[:, j] = _ends([e[i] for e in m], *starts[j])
    if plan.interp:
        for t, e in _barycentric(k, plan.nodes, plan.weights, plan.F):
            for i, j in enumerate(plan.interp):
                val[t, j], der[t, j] = _ends(
                    e[4 * i:4 * i + 4],
                    *(a[t] if a.ndim else a for a in starts[j]))
    return val, der


def sweep_legs(legs, k: np.ndarray):
    """Propagate each leg (potential, x_from, x_to, y, dy) from x_from to
    x_to on the grid k, where y and dy broadcast against k.

    Returns the endpoint pairs as two complex [nk, legs] arrays (val, der),
    one column per leg: the plan's blocks, written into the outputs in
    turn.  The plan comes first, so its cell blocks are freed before the
    outputs are allocated.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    plan = plan_sweep([leg[:3] for leg in legs], k)
    starts = [tuple(np.broadcast_to(np.asarray(a, dtype=complex), k.shape)
                    for a in leg[3:]) for leg in legs]
    val = np.empty((k.size, len(legs)), dtype=complex)
    der = np.empty_like(val)
    for s in plan.blocks:
        val[s], der[s] = sweep_block(plan, s, [(y[s], dy[s])
                                                for y, dy in starts])
    return val, der


def sweep(potential, x_from: float, x_to: float, k: np.ndarray,
          y: np.ndarray, dy: np.ndarray):
    """Propagate (y, y') from x_from to x_to; k, y, dy broadcast together.

    Returns the endpoint pair (y, y') as new complex arrays: the one-leg
    ``sweep_legs``.
    """
    val, der = sweep_legs([(potential, x_from, x_to, y, dy)], k)
    return val[:, 0], der[:, 0]
