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
check it against the same call on ``jost.rk45_sweep``, the uniform closed
form and the finite-difference oracle.

A StarNetwork holds LineProfiles in a tuple ordered infinite first, so the
columns 0..m-1 of every per-branch array are the infinite branches, and
builds the node geometry once in that order: ``A`` (A_j(0)) and ``saap``
(sum_j A_j A_j').  Every solve returns one ScatteringSweep, arrays with
one row per k; ``solve_scattering`` is the one-row case.
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
        a0_ref = given[ref].geometry.A0
        for i, b in enumerate(given):
            if abs(b.geometry.A0 - a0_ref) > A5_TOLERANCE * a0_ref:
                raise ProfileValidityError(
                    f"A(0)={b.geometry.A0} of branches[{i}] breaks the "
                    f"matched-node assumption (ref {a0_ref} of "
                    f"branches[{ref}], rel tol {A5_TOLERANCE})")
        branches = tuple(sorted(given, key=lambda b: b.is_finite))
        A = np.array([b.geometry.A0 for b in branches])
        A.flags.writeable = False  # the star is frozen, and so is A
        saap = sum(b.geometry.A0 * b.geometry.A0prime for b in branches)
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
    node_values: np.ndarray = field(repr=False)  # [nk, N, 2]: y(0), y'(0)

    @property
    def resonant(self) -> np.ndarray:
        return ~np.isfinite(self.R1)

    def __len__(self) -> int:
        return self.k.size


def _branch_data(net: StarNetwork, k: np.ndarray):
    """Node pairs (val, der) = (y(0), y'(0)) over k, two [nk, N] arrays with
    one column per branch: f_j on infinite branches, and on finite ones the
    solution u_j with u_j(tau) = 1, u_j'(tau) = h."""
    val, der = zip(*(propagate.sweep(b.potential, b.geometry.tau, 0.0, k,
                                     1.0, b.geometry.h)
                     if b.is_finite else
                     jost.jost_batch(b.potential, k)
                     for b in net.branches))
    return np.stack(val, axis=1), np.stack(der, axis=1)


def solve_scattering_batch(net: StarNetwork, k) -> ScatteringSweep:
    """Solve the node conditions for every k in an array (all k in
    [K_FLOOR, K_CEIL]).

    A k where the node equation is singular comes back as a NaN row flagged
    by ``resonant``; the other rows are unaffected.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim > 1:
        raise DomainError("frequency grid must be one-dimensional")
    if k.size == 0:
        raise DomainError("empty frequency grid")
    # k <= K_CEIL, not k * k, so the test itself cannot overflow
    if not np.all((k >= K_FLOOR) & (k <= K_CEIL)):
        raise DomainError(f"k must be finite and in [{K_FLOOR}, {K_CEIL:.6g}]"
                          f", where its square is finite")
    val, der = _branch_data(net, k)
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

    # (y(0), y'(0)) per branch: the branch's own solution times its
    # amplitude, plus the incoming wave on branch 1
    node_values = np.stack([amps * val, amps * der], axis=-1)
    node_values[:, 0] += np.column_stack([f0_1, der[:, 0]]).conj()
    # two branches decoupling at once leave the amplitudes non-unique
    ratio = np.abs(ell[:, 1:]) / k[:, None]
    cond = (np.partition(ratio, -2, axis=1)[:, -2] if ratio.shape[1] > 1
            else np.zeros_like(k))
    return ScatteringSweep(k=k, R1=amps[:, 0], T=amps[:, 1:m],
                           alpha=amps[:, m:], ybar=ybar, cond=cond,
                           node_values=node_values)


def solve_scattering(net: StarNetwork, k: float) -> ScatteringSweep:
    """The one-row sweep at a single frequency (k >= K_FLOOR).

    Raises ResonanceError where ``solve_scattering_batch`` flags the row.
    """
    sweep = solve_scattering_batch(net, float(k))
    if sweep.resonant[0]:
        raise ResonanceError(f"node equation singular at k={float(k)}")
    return sweep


def reflectogram(net: StarNetwork, k_grid,
                 threads: int = 1) -> ScatteringSweep:
    """``solve_scattering_batch`` over a strictly increasing frequency grid
    (a scalar is a one-row grid).

    Singular frequencies are NaN rows flagged by ``resonant`` instead of
    aborting the sweep.  With threads > 1 the grid is split into that many
    chunks, solved in a thread pool and joined field by field.
    """
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if np.any(np.diff(k_grid) <= 0):
        raise DomainError("frequency grid must be strictly increasing")
    if threads > 1 and k_grid.size > 2 * threads:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda chunk: solve_scattering_batch(
                net, chunk), np.array_split(k_grid, threads)))
        return ScatteringSweep(*(
            np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(ScatteringSweep)))
    return solve_scattering_batch(net, k_grid)
