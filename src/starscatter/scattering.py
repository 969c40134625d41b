"""Central-node linear system and the full scattering solution.

A unit wave e^{-ikx} comes in on branch 1.  The solution is written as

    branch 1          y_1 = (1/a) ftilde + (R1 - b/a) f
    branches 2..m     y_j = T_j f_j
    finite branches   y_j = alpha_j u_j

and the node conditions (scaled value continuity plus the derivative
balance) give an (m+n) x (m+n) system in (R1, T_j, alpha_j) after the
common node value ybar is eliminated through branch 1.

u_j is the solution with u_j(tau_j) = 1, u_j'(tau_j) = h_j, which satisfies
the terminal condition y'(tau) = h y(tau).  It is propagated from the
terminal end back to the node in the branch's own coordinate, so its node
data (u_j(0), u_j'(0)) enter the system with no sign change.  In the
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
    branch_geometry, potential_from_profile

K_FLOOR = 0.5
A_RESONANCE_TOL = 1e-12
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
    a5_tolerance: float = 1e-6
    k_floor: float = K_FLOOR

    def __post_init__(self):
        if not self.branches:
            raise ProfileValidityError("network needs at least one branch")
        if self.branches[0].kind is not BranchKind.INFINITE:
            raise ProfileValidityError("branch 1 must be infinite")
        a0_ref = self.branches[0].geometry.A0
        for b in self.branches:
            if abs(b.geometry.A0 - a0_ref) > self.a5_tolerance * a0_ref:
                raise ProfileValidityError(
                    f"branch {b.id}: A(0)={b.geometry.A0} breaks the "
                    f"matched-node assumption (ref {a0_ref}, "
                    f"rel tol {self.a5_tolerance})")

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


def network_from_profiles(profiles: Sequence[tuple[str, LineProfile]],
                          a5_tolerance: float = 1e-6,
                          k_floor: float = K_FLOOR) -> StarNetwork:
    """Build a StarNetwork from ("infinite"|"finite", LineProfile) pairs.

    Infinite branches are sorted first so that branch numbering follows the
    usual convention (1..m infinite, m+1..m+n finite); order within each
    group is preserved.
    """
    tagged = []
    for kind_name, profile in profiles:
        kind = BranchKind(kind_name)
        if kind is BranchKind.FINITE and not profile.is_finite:
            raise ProfileValidityError("finite branch built from an "
                                       "infinite-length profile")
        tagged.append((kind, profile))
    tagged.sort(key=lambda t: 0 if t[0] is BranchKind.INFINITE else 1)
    branches = []
    for i, (kind, profile) in enumerate(tagged, start=1):
        pot = potential_from_profile(profile)
        geo = branch_geometry(profile)
        if kind is BranchKind.INFINITE and profile.is_finite:
            raise ProfileValidityError(
                f"branch {i}: infinite branch with finite profile")
        branches.append(Branch(i, kind, pot, geo))
    return StarNetwork(branches, a5_tolerance, k_floor)


@dataclass(eq=False)
class ScatteringCoefficients:
    """Solution of the node system at one frequency."""

    k: float
    R1: complex
    T: list  # transmission onto infinite branches 2..m
    alpha: list  # finite-branch amplitudes, branches m+1..m+n
    ybar: complex
    condition_number: float
    node_values: list = field(repr=False, default_factory=list)  # (y(0), y'(0)) per branch
    warnings: list = field(default_factory=list)


@dataclass(eq=False)
class ScatteringSweep:
    """Solution of the node system over an array of frequencies, one row
    per k.

    A row where the node system is singular, or where a(k) ~ 0 on the
    measurement branch, holds NaN and is flagged by ``resonant``.
    ``sweep[i]`` is the ScatteringCoefficients of row i.
    """

    k: np.ndarray  # [nk]
    R1: np.ndarray  # [nk]
    T: np.ndarray  # [nk, m-1], infinite branches 2..m
    alpha: np.ndarray  # [nk, n], finite branches m+1..m+n
    ybar: np.ndarray  # [nk]
    cond: np.ndarray  # [nk], condition number of the node matrix
    node_values: np.ndarray = field(repr=False)  # [nk, N, 2]: y(0), y'(0)

    @property
    def resonant(self) -> np.ndarray:
        return ~np.isfinite(self.R1)

    def __len__(self) -> int:
        return self.k.size

    def __getitem__(self, i) -> ScatteringCoefficients:
        cond = float(self.cond[i])
        warns = []
        if cond > COND_WARN:
            warns.append(f"node system ill-conditioned (cond={cond:.3e})")
        return ScatteringCoefficients(
            k=float(self.k[i]), R1=complex(self.R1[i]),
            T=self.T[i].tolist(), alpha=self.alpha[i].tolist(),
            ybar=complex(self.ybar[i]), condition_number=cond,
            node_values=[tuple(v) for v in self.node_values[i].tolist()],
            warnings=warns)


def _branch_data(net: StarNetwork, k: np.ndarray):
    """Per-branch node data arrays over k.

    Infinite branches yield (f0, df0, a, b); finite branches yield
    (u(0), u'(0)) for the solution with u(tau) = 1, u'(tau) = h.
    """
    data = {}
    for b in net.branches:
        if b.kind is BranchKind.INFINITE:
            f0, df0, a, bb, _ = jost.jost_batch(b.potential, k, with_ab=True)
            data[b.id] = (f0, df0, a, bb)
        else:
            data[b.id] = propagate.sweep(b.potential, b.geometry.tau, 0.0, k,
                                         1.0, b.geometry.h)
    return data


def _node_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M[i] x[i] = rhs[i] for every k; an exactly singular M[i]
    leaves a NaN row instead of failing the batch."""
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole batched call, so solve the
        # node systems one k at a time
        sol = np.full_like(rhs, np.nan)
        for i in range(len(M)):
            try:
                sol[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return sol


def solve_scattering_batch(net: StarNetwork, k) -> ScatteringSweep:
    """Solve the node system for every k in an array (all k >= k_floor).

    A k where the node system is singular, or where a(k) ~ 0 on the
    measurement branch, comes back as a NaN row flagged by ``resonant``;
    the other rows are unaffected.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim > 1:
        raise DomainError("frequency grid must be one-dimensional")
    if k.size == 0:
        raise DomainError("empty frequency grid")
    if np.any(k < net.k_floor):
        raise DomainError(f"k below the k_floor {net.k_floor}")
    data = _branch_data(net, k)
    N = len(net.branches)
    nk = k.size
    b1 = net.branches[0]
    f0_1, df0_1, a1, bb1 = data[b1.id]
    A1 = b1.geometry.A0
    saap = sum(b.geometry.A0 * b.geometry.A0prime for b in net.branches)

    with np.errstate(divide="ignore", invalid="ignore"):
        # rows with a(k) ~ 0 are set to NaN after the solve
        c0 = 1.0 / a1 - (bb1 / a1) * f0_1
        d0 = -1j * k / a1 - (bb1 / a1) * df0_1

    # unknown column per branch: R1 for branch 1, then T_j / alpha_j in order
    val_coeff = np.zeros((nk, N), dtype=complex)
    der_coeff = np.zeros((nk, N), dtype=complex)
    val_coeff[:, 0] = f0_1
    der_coeff[:, 0] = df0_1
    for idx, b in enumerate(net.branches[1:], start=1):
        val_coeff[:, idx], der_coeff[:, idx] = data[b.id][:2]

    M = np.zeros((nk, N, N), dtype=complex)
    rhs = np.zeros((nk, N), dtype=complex)
    for idx, b in enumerate(net.branches[1:], start=1):
        Aj = b.geometry.A0
        M[:, idx - 1, idx] = val_coeff[:, idx] / Aj
        M[:, idx - 1, 0] = -f0_1 / A1
        rhs[:, idx - 1] = c0 / A1
    Acol = np.array([b.geometry.A0 for b in net.branches])
    M[:, N - 1, :] = der_coeff * Acol[None, :]
    M[:, N - 1, 0] += -saap * f0_1 / A1
    rhs[:, N - 1] = -A1 * d0 + saap * c0 / A1

    cond = np.linalg.cond(M)
    sol = _node_solve(M, rhs)
    sol[np.abs(a1) < A_RESONANCE_TOL] = np.nan

    # (y(0), y'(0)) per branch: u_j times its column, except on branch 1,
    # where the incoming and reflected waves add
    y1 = c0 + f0_1 * sol[:, 0]
    node_values = np.stack([sol * val_coeff, sol * der_coeff], axis=-1)
    node_values[:, 0, 0] = y1
    node_values[:, 0, 1] = d0 + df0_1 * sol[:, 0]
    m = net.m
    return ScatteringSweep(k=k, R1=sol[:, 0], T=sol[:, 1:m],
                           alpha=sol[:, m:], ybar=y1 / A1, cond=cond,
                           node_values=node_values)


def solve_scattering(net: StarNetwork, k: float) -> ScatteringCoefficients:
    """Scattering coefficients at a single frequency (k >= k_floor).

    Raises ResonanceError where ``solve_scattering_batch`` flags the row.
    """
    sweep = solve_scattering_batch(net, float(k))
    if sweep.resonant[0]:
        raise ResonanceError(
            f"node system singular or a(k) ~ 0 at k={float(k)}")
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
