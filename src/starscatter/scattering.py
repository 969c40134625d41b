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
data (u_j(0), u_j'(0)) enter the equation with no sign change.  In the
reversed coordinate s = tau_j - x, u_j is the fundamental solution omega_j
with omega_j(0) = 1, omega_j'(0) = -h_j, and u_j'(0) = -omega_j'(tau_j).
This convention is checked against the uniform closed form and the
finite-difference oracle.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import jost, propagate
from .errors import DomainError, ProfileValidityError, ResonanceError
from .line_model import BranchGeometry, LineProfile, PotentialFn, \
    branch_model

K_FLOOR = 0.5  # smallest frequency a sweep accepts
A5_TOLERANCE = 1e-6  # relative spread of A(0) allowed across branches
COND_WARN = 1e12


class BranchKind(enum.Enum):
    INFINITE = "infinite"
    FINITE = "finite"


@dataclass(frozen=True, eq=False)
class Branch:
    id: int  # 1-based; branch 1 is the measurement branch
    kind: BranchKind
    potential: PotentialFn
    geometry: BranchGeometry

    def __post_init__(self):
        if self.kind is BranchKind.FINITE:
            if self.geometry.tau is None or self.geometry.h is None:
                raise ProfileValidityError(
                    f"branch {self.id}: finite branches need tau and h")
        else:
            if self.geometry.tau is not None or self.geometry.h is not None:
                raise ProfileValidityError(
                    f"branch {self.id}: infinite branches carry no tau or h")


@dataclass(eq=False)
class StarNetwork:
    """Ordered branches around the central node; branch 1 measures."""

    branches: list[Branch]

    def __post_init__(self):
        if not self.branches:
            raise ProfileValidityError("network needs at least one branch")
        if self.branches[0].kind is not BranchKind.INFINITE:
            raise ProfileValidityError("branch 1 must be infinite")
        a0_ref = self.branches[0].geometry.A0
        for b in self.branches:
            if abs(b.geometry.A0 - a0_ref) > A5_TOLERANCE * a0_ref:
                raise ProfileValidityError(
                    f"branch {b.id}: A(0)={b.geometry.A0} breaks the "
                    f"matched-node assumption (ref {a0_ref}, "
                    f"rel tol {A5_TOLERANCE})")

    @property
    def m(self) -> int:
        return sum(1 for b in self.branches if b.kind is BranchKind.INFINITE)

    @property
    def n(self) -> int:
        return sum(1 for b in self.branches if b.kind is BranchKind.FINITE)

    @property
    def infinite_branches(self) -> list[Branch]:
        return [b for b in self.branches if b.kind is BranchKind.INFINITE]

    @property
    def finite_branches(self) -> list[Branch]:
        return [b for b in self.branches if b.kind is BranchKind.FINITE]


def network_from_profiles(profiles: Sequence[tuple[str, LineProfile]]
                          ) -> StarNetwork:
    """Build a StarNetwork from ("infinite"|"finite", LineProfile) pairs.

    Infinite branches are sorted first so that branch numbering follows the
    usual convention (1..m infinite, m+1..m+n finite); order within each
    group is preserved.
    """
    tagged = []
    for kind_name, profile in profiles:
        kind = BranchKind(kind_name)
        if (kind is BranchKind.FINITE) != profile.is_finite:
            raise ProfileValidityError(
                f"{kind.value} branch built from a profile of length "
                f"{profile.length}")
        tagged.append((kind, profile))
    tagged.sort(key=lambda t: 0 if t[0] is BranchKind.INFINITE else 1)
    return StarNetwork([Branch(i, kind, *branch_model(profile))
                        for i, (kind, profile) in enumerate(tagged, start=1)])


@dataclass(eq=False)
class ScatteringCoefficients:
    """Solution of the node conditions at one frequency."""

    k: float
    R1: complex
    T: list  # transmission onto infinite branches 2..m
    alpha: list  # finite-branch amplitudes, branches m+1..m+n
    ybar: complex
    # second-largest |l_j|/k over branches 2..N (0 with fewer than two): it
    # grows without bound where two branches decouple from the node at once,
    # an embedded eigenvalue at which the amplitudes are not unique; above
    # COND_WARN the row is ill-conditioned
    condition_number: float
    node_values: list = field(repr=False, default_factory=list)  # (y(0), y'(0)) per branch


@dataclass(eq=False)
class ScatteringSweep:
    """Solution of the node conditions over an array of frequencies, one
    row per k.

    A row where the node equation's denominator D vanishes holds NaN and is
    flagged by ``resonant``.
    ``sweep[i]`` is the ScatteringCoefficients of row i.
    """

    k: np.ndarray  # [nk]
    R1: np.ndarray  # [nk]
    T: np.ndarray  # [nk, m-1], infinite branches 2..m
    alpha: np.ndarray  # [nk, n], finite branches m+1..m+n
    ybar: np.ndarray  # [nk]
    cond: np.ndarray  # [nk], condition_number of each row
    node_values: np.ndarray = field(repr=False)  # [nk, N, 2]: y(0), y'(0)

    @property
    def resonant(self) -> np.ndarray:
        return ~np.isfinite(self.R1)

    def __len__(self) -> int:
        return self.k.size

    def __getitem__(self, i) -> ScatteringCoefficients:
        return ScatteringCoefficients(
            k=float(self.k[i]), R1=complex(self.R1[i]),
            T=self.T[i].tolist(), alpha=self.alpha[i].tolist(),
            ybar=complex(self.ybar[i]), condition_number=float(self.cond[i]),
            node_values=[tuple(v) for v in self.node_values[i].tolist()])


def _branch_data(net: StarNetwork, k: np.ndarray):
    """Node pairs (val, der) = (y(0), y'(0)) over k, two [nk, N] arrays with
    one column per branch: f_j on infinite branches, and on finite ones the
    solution u_j with u_j(tau) = 1, u_j'(tau) = h."""
    val, der = zip(*(jost.jost_batch(b.potential, k)[:2]
                     if b.kind is BranchKind.INFINITE else
                     propagate.sweep(b.potential, b.geometry.tau, 0.0, k,
                                     1.0, b.geometry.h)
                     for b in net.branches))
    return np.stack(val, axis=1), np.stack(der, axis=1)


def solve_scattering_batch(net: StarNetwork, k) -> ScatteringSweep:
    """Solve the node conditions for every k in an array (all k >= K_FLOOR).

    A k where the node equation is singular comes back as a NaN row flagged
    by ``resonant``; the other rows are unaffected.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim > 1:
        raise DomainError("frequency grid must be one-dimensional")
    if k.size == 0:
        raise DomainError("empty frequency grid")
    if np.any(k < K_FLOOR):
        raise DomainError(f"k below the k floor {K_FLOOR}")
    val, der = _branch_data(net, k)
    m = net.m
    f0_1 = val[:, 0]
    A = np.array([b.geometry.A0 for b in net.branches])
    saap = sum(b.geometry.A0 * b.geometry.A0prime for b in net.branches)
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


def solve_scattering(net: StarNetwork, k: float) -> ScatteringCoefficients:
    """Scattering coefficients at a single frequency (k >= K_FLOOR).

    Raises ResonanceError where ``solve_scattering_batch`` flags the row.
    """
    sweep = solve_scattering_batch(net, float(k))
    if sweep.resonant[0]:
        raise ResonanceError(f"node equation singular at k={float(k)}")
    return sweep[0]


def assemble_field(net: StarNetwork, coeffs: ScatteringCoefficients,
                   branch_id: int, x: float, derivative: bool = False):
    """Field y (optionally (y, y')) on one branch at position x.

    Propagates the stored node boundary values outward, so the result is
    consistent with the coefficients to solver accuracy.
    """
    if branch_id < 1 or branch_id > len(net.branches):
        raise DomainError(f"branch_id {branch_id} out of range")
    b = net.branches[branch_id - 1]
    if x < 0:
        raise DomainError("x must be nonnegative")
    if b.kind is BranchKind.FINITE and x > b.geometry.tau + 1e-12:
        raise DomainError(f"x={x} beyond tau={b.geometry.tau}")
    y0, dy0 = coeffs.node_values[branch_id - 1]
    k = np.array([coeffs.k])
    y, dy = propagate.sweep(b.potential, 0.0, float(x), k,
                            np.array([y0]), np.array([dy0]))
    if derivative:
        return complex(y[0]), complex(dy[0])
    return complex(y[0])


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
