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
cell.  The cost of a pass is therefore (cells where V varies) x (number of
frequencies).  The scheme is second order in dx for smooth V.  Signed dx
gives backward propagation (cos is even, sin(q dx)/q is odd).
"""
from __future__ import annotations

import math

import numpy as np

STEPS_PER_WAVELENGTH = 20
DX_MAX = 2e-3


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


def transfer_matrix(potential, x_from: float, x_to: float, k: np.ndarray):
    """Real transfer matrix (m11, m12, m21, m22) from x_from to x_to.

    ``potential`` is a vectorized map x -> V(x).  Each entry is an array
    over k; (y, y')(x_to) = M (y, y')(x_from) and det M = 1.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    k2 = k * k
    m11, m12 = np.ones_like(k2), np.zeros_like(k2)
    m21, m22 = np.zeros_like(k2), np.ones_like(k2)
    length = x_to - x_from
    if length == 0.0:
        return m11, m12, m21, m22
    n_steps = step_count(abs(length), float(np.max(np.abs(k))))
    dx = length / n_steps
    mids = x_from + (np.arange(n_steps) + 0.5) * dx
    v_mid = np.asarray(potential(mids), dtype=float)
    starts = np.flatnonzero(np.r_[True, v_mid[1:] != v_mid[:-1]])
    cells = np.diff(np.r_[starts, n_steps])
    for v, n in zip(v_mid[starts], cells):
        s = k2 - v
        c, sl = _step_factors(s, n * dx)
        qs = s * sl  # q sin(q dx): the cell's lower-left entry, negated
        m11, m21 = c * m11 + sl * m21, c * m21 - qs * m11
        m12, m22 = c * m12 + sl * m22, c * m22 - qs * m12
    return m11, m12, m21, m22


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
