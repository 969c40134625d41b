"""Central-node equation and the full scattering solution.

A unit wave e^{-ikx} comes in on branch 1.  For real V and k it is
conj(f_1) = f_1(., -k), so the solution is written as

    branch 1          y_1 = conj(f_1) + R1 f_1
    branches 2..m     y_j = T_j f_j
    finite branches   y_j = alpha_j u_j

Value continuity at the node makes every y_j(0) = A_j ybar, so the
derivative balance sum_j A_j y_j'(0) = (sum_j A_j A_j') ybar is one scalar
equation per k in the branches' log-derivatives l_j = y_j'(0)/y_j(0)
(df0_j/f0_j on infinite branches, u_j'(0)/u_j(0) on finite ones).  Each
branch enters only through its node pair, and W(conj f_1, f_1) = 2ik, so

    D = sum_j A_j^2 l_j - sum_j A_j A_j'
    ybar = 2ik A_1 / (f0_1 D)
    R1 = (A_1 ybar - conj f0_1) / f0_1,   T_j or alpha_j = A_j ybar / y_j(0)

On a star of uniform lines D = ik (m - i S) with the paper's
S = sum tan(k tau_j).  At a stub's embedded eigenvalue u_j(0) is rounding
noise, yet alpha_j stays accurate: D holds A_j^2 u_j'(0)/u_j(0), so
D u_j(0) = A_j^2 u_j'(0) + u_j(0) (D - A_j^2 l_j) to rounding, and the
noise cancels.  ybar must come from D for this; taken from R1 as
(conj f0_1 + f0_1 R1)/A_1 it is a difference of O(1) numbers, and alpha_j
is off by O(1).  An exact u_j(0) = 0 makes l_j infinite; that row is
solved in the limit, ybar = 0, where stub j alone balances branch 1's
current: R1 = -conj(f0_1)/f0_1 and alpha_j = 2ik A_1 / (f0_1 A_j u_j'(0)).
Only two branches decoupling at once leave the amplitudes non-unique,
which the condition proxy flags.

u_j is the solution with u_j(tau_j) = 1, u_j'(tau_j) = h_j, which satisfies
the terminal condition y'(tau) = h y(tau).  It is propagated from the
terminal end back to the node in the branch's own coordinate, so its node
data (u_j(0), u_j'(0)) enter the equation with no sign change.  The tests
check it against the same leg on ``jost.rk45_sweep``, the uniform closed
form and the finite-difference oracle.

``branch_leg`` gives each branch's leg, the start pair at its far end and
the span back to the node: (V, tau, 0, 1, h) on a finite branch, and on
an infinite one ``jost.jost_leg``, the plane wave (e^{ikX}, ik e^{ikX})
at X = ``V.truncation``.  A solve is streamed one block of frequencies at
a time (``propagate`` module docstring).  One ``propagate.plan_sweep`` per
solve, one leg path per branch, gives the legs one Chebyshev node set;
then each block's node pairs come from one ``propagate.sweep_block`` call,
from the legs' start pairs over that block, and the node equation is
solved on the block alone.  ``reflectogram_blocks`` yields the blocks'
ScatteringSweeps in order, for a caller that writes each one as it comes;
``reflectogram`` and ``solve_scattering_batch`` join them, and a thread
pool solves the same blocks, so every path gives the same rows to the bit.

A StarNetwork holds LineProfiles in a tuple ordered infinite first, so the
columns 0..m-1 of every per-branch array are the infinite branches, and
builds the node data once in that order: ``A`` (A_j(0)) and ``saap``
(sum_j A_j A_j').  Every solve returns ScatteringSweeps, arrays with one
row per k; ``solve_scattering`` is the one-row case.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import jost, propagate
from .errors import DomainError, ProfileValidityError, ResonanceError
from .line_model import LineProfile

K_FLOOR = 0.5  # smallest frequency a sweep accepts
K_CEIL = math.sqrt(sys.float_info.max)  # largest k whose k^2 is finite
A5_TOLERANCE = 1e-6  # relative spread of A(0) allowed across branches
COND_WARN = 1e12


@dataclass(frozen=True, eq=False)
class StarNetwork:
    """Branches around the central node, held as a tuple infinite first as
    the node solve needs, each group in the order given: branch j is
    ``branches[j - 1]``, 1..m infinite and m+1..m+n finite.  Branch 1
    measures.  The A(0) check, against the first infinite profile, names
    a profile by its position in the list given."""

    branches: tuple[LineProfile, ...]
    A: np.ndarray = field(init=False, repr=False)  # A_j(0), branch order
    saap: float = field(init=False, repr=False)  # sum_j A_j(0) A_j'(0)

    def __post_init__(self):
        given = tuple(self.branches)
        ref = next((i for i, b in enumerate(given) if not b.is_finite), None)
        if ref is None:  # also an empty list
            raise ProfileValidityError("branch 1 must be infinite")
        a0_ref = given[ref].A0
        for i, b in enumerate(given):
            if abs(b.A0 - a0_ref) > A5_TOLERANCE * a0_ref:
                raise ProfileValidityError(
                    f"A(0)={b.A0} of branches[{i}] breaks the "
                    f"matched-node assumption (ref {a0_ref} of "
                    f"branches[{ref}], rel tol {A5_TOLERANCE})")
        branches = tuple(sorted(given, key=lambda b: b.is_finite))
        A = np.array([b.A0 for b in branches])
        A.flags.writeable = False  # the star is frozen, and so is A
        saap = sum(b.A0 * b.A0prime for b in branches)
        for name, value in (("branches", branches), ("A", A), ("saap", saap)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return sum(not b.is_finite for b in self.branches)

    @property
    def n(self) -> int:
        return len(self.branches) - self.m

    @property
    def infinite_branches(self) -> tuple[LineProfile, ...]:
        return self.branches[:self.m]

    @property
    def finite_branches(self) -> tuple[LineProfile, ...]:
        return self.branches[self.m:]


@dataclass(eq=False)
class ScatteringSweep:
    """Solution of the node conditions over an array of frequencies, one
    row per k.

    A row where the node equation's denominator D vanishes holds NaN and is
    flagged by ``resonant``.
    """

    k: np.ndarray  # [nk]
    R1: np.ndarray  # [nk]
    T: np.ndarray  # [nk, m-1], infinite branches 2..m
    alpha: np.ndarray  # [nk, n], finite branches m+1..m+n
    ybar: np.ndarray  # [nk]
    # [nk]: second-largest |l_j|/k over branches 2..N, 0 with fewer than
    # two; unbounded where two branches decouple from the node at once
    # (amplitudes not unique), ill-conditioned above COND_WARN
    cond: np.ndarray
    # [nk, N]: each branch's own node pair (y(0), y'(0)), f_j or u_j
    val: np.ndarray = field(repr=False)
    der: np.ndarray = field(repr=False)

    @property
    def resonant(self) -> np.ndarray:
        return ~np.isfinite(self.R1)

    @property
    def node_values(self) -> np.ndarray:
        """[nk, N, 2]: the solution's (y(0), y'(0)) per branch, the branch's
        own pair times its amplitude, plus the incoming wave on branch 1."""
        amps = np.column_stack([self.R1, self.T, self.alpha])
        node_values = np.stack([amps * self.val, amps * self.der], axis=-1)
        node_values[:, 0] += np.column_stack(
            [self.val[:, 0], self.der[:, 0]]).conj()
        return node_values

    def __len__(self) -> int:
        return self.k.size


def branch_leg(b: LineProfile, k: np.ndarray):
    """Branch b's leg (potential, x_from, x_to, y, dy) over k, which the
    ``propagate`` kernel and ``jost.rk45_sweep`` carry to the node pair
    (y(0), y'(0)): on a finite branch u_j with u_j(tau) = 1 and
    u_j'(tau) = h, on an infinite one f_j from ``jost.jost_leg``."""
    if b.is_finite:
        return b.potential, b.tau, 0.0, 1.0, b.h
    return jost.jost_leg(b.potential, k)


def _plan(net: StarNetwork, k) -> propagate.SweepPlan:
    """The plan of the star's sweep over k (all k in [K_FLOOR, K_CEIL]):
    one ``propagate.plan_sweep`` over every branch's leg."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim > 1:
        raise DomainError("frequency grid must be one-dimensional")
    if k.size == 0:
        raise DomainError("empty frequency grid")
    # k <= K_CEIL, not k * k, so the test itself cannot overflow
    if not np.all((k >= K_FLOOR) & (k <= K_CEIL)):
        raise DomainError(f"k must be finite and in [{K_FLOOR}, {K_CEIL:.6g}]"
                          f", where its square is finite")
    # a leg's path (potential, x_from, x_to) does not depend on k
    return propagate.plan_sweep([branch_leg(b, k[:1])[:3]
                                 for b in net.branches], k)


def _branch_data(net: StarNetwork, plan: propagate.SweepPlan, s: slice):
    """Node pairs (val, der) = (y(0), y'(0)) over the block k[s] of the
    plan's grid, two [rows, N] arrays with one column per branch: every
    ``branch_leg``'s start over the block in one ``propagate.sweep_block``
    call."""
    k = plan.k[s]
    return propagate.sweep_block(plan, s, [branch_leg(b, k)[3:]
                                           for b in net.branches])


def _node_solve(net: StarNetwork, k: np.ndarray, val: np.ndarray,
                der: np.ndarray) -> ScatteringSweep:
    """The node equation on one block: frequencies k and the branches'
    node pairs (val, der) there, [rows, N] each."""
    m = net.m
    f0_1 = val[:, 0]
    A, saap = net.A, net.saap
    # branch 1's incoming wave conj(f_1), whose Wronskian with f_1 is 2ik
    w = 2j * k * A[0] / f0_1

    with np.errstate(divide="ignore", invalid="ignore"):
        # rows with D = 0 are set to NaN below
        ell = der / val
        ybar = w / ((A ** 2 * ell).sum(axis=1) - saap)
        # a stub with u_j(0) = 0 exactly decouples from the node value:
        # ybar = 0, so R1 = -conj(f0_1)/f0_1, the other amplitudes are 0,
        # and alpha_j carries branch 1's current; with two such stubs the
        # row stays NaN
        zero = val[:, m:] == 0
        rows = np.flatnonzero(zero.sum(axis=1) == 1)
        ybar[rows] = 0.0
        # amplitude per branch: R1, then T_j or alpha_j = A_j ybar / y_j(0)
        amps = A * ybar[:, None] / val
        amps[:, 0] = (A[0] * ybar - f0_1.conj()) / f0_1
        if rows.size:
            j = m + np.argmax(zero[rows], axis=1)
            amps[rows, j] = w[rows] / (A[j] * der[rows, j])
    bad = ~np.isfinite(ybar)
    amps[bad] = ybar[bad] = np.nan
    # two branches decoupling at once leave the amplitudes non-unique
    ratio = np.abs(ell[:, 1:]) / k[:, None]
    cond = (np.partition(ratio, -2, axis=1)[:, -2] if ratio.shape[1] > 1
            else np.zeros_like(k))
    return ScatteringSweep(k=k, R1=amps[:, 0], T=amps[:, 1:m],
                           alpha=amps[:, m:], ybar=ybar, cond=cond,
                           val=val, der=der)


def _solve_blocks(net: StarNetwork, k, threads: int = 1):
    """One ScatteringSweep per block of the star's plan over k, in order;
    with threads > 1 the blocks are solved in a pool of that many."""
    plan = _plan(net, k)

    def solve(s):
        return _node_solve(net, plan.k[s], *_branch_data(net, plan, s))

    if threads > 1 and len(plan.blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(solve, plan.blocks)
    else:
        yield from map(solve, plan.blocks)


def _join(parts) -> ScatteringSweep:
    """The blocks of a sweep, joined field by field."""
    return ScatteringSweep(*(np.concatenate([getattr(p, f.name)
                                             for p in parts])
                             for f in fields(ScatteringSweep)))


def solve_scattering_batch(net: StarNetwork, k) -> ScatteringSweep:
    """Solve the node conditions for every k in an array (all k in
    [K_FLOOR, K_CEIL]): the star's blocks, joined.

    A k where the node equation is singular comes back as a NaN row flagged
    by ``resonant``; the other rows are unaffected.
    """
    return _join(list(_solve_blocks(net, k)))


def solve_scattering(net: StarNetwork, k: float) -> ScatteringSweep:
    """The one-row sweep at a single frequency (k >= K_FLOOR).

    Raises ResonanceError where ``solve_scattering_batch`` flags the row.
    """
    sweep = solve_scattering_batch(net, float(k))
    if sweep.resonant[0]:
        raise ResonanceError(f"node equation singular at k={float(k)}")
    return sweep


def reflectogram_blocks(net: StarNetwork, k_grid, threads: int = 1):
    """Yield the sweep over a strictly increasing frequency grid (a scalar
    is a one-row grid) one block of rows at a time, each a ScatteringSweep.

    The once-per-grid work comes first (``propagate.plan_sweep``); then
    each block is propagated and solved at the node.  Singular frequencies
    are NaN rows flagged by ``resonant`` instead of aborting the sweep.
    With threads > 1 the blocks are solved in a thread pool; every row is
    the serial one to the bit.
    """
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if np.any(np.diff(k_grid) <= 0):
        raise DomainError("frequency grid must be strictly increasing")
    yield from _solve_blocks(net, k_grid, threads)


def reflectogram(net: StarNetwork, k_grid,
                 threads: int = 1) -> ScatteringSweep:
    """``reflectogram_blocks`` joined into one sweep."""
    return _join(list(reflectogram_blocks(net, k_grid, threads)))
