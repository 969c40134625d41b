"""Finite-difference graph oracle versus the constructed solution."""
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from starscatter import oracle
from starscatter.errors import DomainError
from starscatter.line_model import LineProfile
from starscatter.oracle import oracle_solve
from starscatter.scattering import StarNetwork, solve_scattering

from conftest import direct_network, sin2_bump, uniform_network, \
    zero_potential
from references import assemble_field, banded_oracle_field


SMOOTH_NET = direct_network(
    [(sin2_bump(0.6, 0.9), 0.9), (sin2_bump(-0.3, 0.8), 0.8)],
    [(sin2_bump(0.4, 0.7), 0.7, 1.2, 0.15)])


class TestOracleSolve:
    def test_matched_line(self):
        net = uniform_network(2)
        field = oracle_solve(net, 10.0, 1e-3, 1.0)
        assert abs(field.R1_est) < 1e-5

    def test_three_way_junction(self):
        net = uniform_network(3)
        field = oracle_solve(net, 10.0, 1e-3, 1.0)
        assert abs(field.R1_est + 1.0 / 3.0) < 1e-5

    def test_smooth_network_cross_check(self):
        k = 20.0
        field = oracle_solve(SMOOTH_NET, k, 1e-3, 1.4)
        r1 = solve_scattering(SMOOTH_NET, k).R1[0]
        rel = abs(r1 - field.R1_est) / (abs(field.R1_est) + 1e-9)
        assert rel < 1e-3

    def test_convergence_on_dx_halving(self):
        k = 20.0
        r1 = solve_scattering(SMOOTH_NET, k).R1[0]
        gap = [abs(r1 - oracle_solve(SMOOTH_NET, k, dx, 1.4).R1_est)
               for dx in (1e-3, 5e-4)]
        assert gap[0] / gap[1] >= 3.0

    def test_field_agreement(self):
        k = 14.0
        field = oracle_solve(SMOOTH_NET, k, 1e-3, 1.4)
        c = solve_scattering(SMOOTH_NET, k)
        for bi, g in enumerate(field.grids):
            for frac in (0.25, 0.7):
                idx = int(frac * (g.size - 1))
                y_direct = assemble_field(SMOOTH_NET, c, bi + 1,
                                          float(g[idx]))
                y_oracle = field.values[bi][idx]
                assert abs(y_direct - y_oracle) / (abs(y_oracle) + 1e-9) < 1e-3

    def test_discrete_flux(self):
        k = 20.0
        field = oracle_solve(SMOOTH_NET, k, 1e-3, 1.4)
        # outgoing amplitude on each infinite branch endpoint
        flux = abs(field.R1_est) ** 2
        for bi, b in enumerate(SMOOTH_NET.branches[1:], start=1):
            if b.is_finite:
                continue
            flux += abs(field.values[bi][-1]) ** 2
        assert abs(flux - 1.0) < 1e-3

    def test_node_continuity_of_discrete_field(self):
        field = oracle_solve(SMOOTH_NET, 14.0, 1e-3, 1.4)
        nodes = [v[0] for v in field.values]
        A = [b.A0 for b in SMOOTH_NET.branches]
        ref = nodes[0] / A[0]
        for v, a in zip(nodes[1:], A[1:]):
            assert abs(v / a - ref) < 1e-10 * (abs(ref) + 1.0)

    def test_preconditions(self):
        net = uniform_network(2)
        with pytest.raises(DomainError):
            oracle_solve(net, 100.0, 1e-2, 1.0)  # too coarse for this k
        with pytest.raises(DomainError):
            oracle_solve(SMOOTH_NET, 10.0, 1e-3, 0.5)  # inside support

    @pytest.mark.parametrize("name, k, dx, X_trunc", [
        ("dx", 10.0, -1e-3, 1.0), ("dx", 10.0, 0.0, 1.0),
        ("dx", 10.0, math.nan, 1.0), ("dx", 10.0, math.inf, 1.0),
        ("k", 0.0, 1e-3, 1.0), ("k", -10.0, 1e-3, 1.0),
        ("k", math.nan, 1e-3, 1.0), ("k", math.inf, 1e-3, 1.0),
        ("X_trunc", 10.0, 1e-3, math.nan), ("X_trunc", 10.0, 1e-3, -1.0),
        ("X_trunc", 10.0, 1e-3, 0.0), ("X_trunc", 10.0, 1e-3, math.inf),
    ])
    def test_refuses_an_argument_not_finite_and_positive(self, monkeypatch,
                                                         name, k, dx,
                                                         X_trunc):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        net = uniform_network(2, taus=[1.0])
        monkeypatch.setattr(oracle.np, "linspace", no_grid)
        with pytest.raises(DomainError, match=f"^{name} must be finite and "
                                              f"positive"):
            oracle_solve(net, k, dx, X_trunc)

    def test_v_zero_rows_take_no_loop_step(self, monkeypatch):
        # every row of a uniform line, and every row past an infinite
        # branch's support, goes to the closed form
        calls = []
        real = oracle._sweep_back

        def spy(c, y_prev, y_last, zeros):
            calls.append((c.size, zeros))
            return real(c, y_prev, y_last, zeros)

        monkeypatch.setattr(oracle, "_sweep_back", spy)
        oracle_solve(uniform_network(2, taus=[1.0]), 10.0, 1e-3, 1.0)
        assert calls == [(999, 999)] * 3
        calls.clear()
        oracle_solve(SMOOTH_NET, 10.0, 1e-3, 1.4)
        # the rows past each bump's support, give or take its end point
        for (size, zeros), b in zip(calls, SMOOTH_NET.branches):
            past = size - round(b.potential.support_end / 1e-3)
            assert abs(zeros - past) <= 1


def chebyshev_case(kdx, n):
    """The oracle's V = 0 stencil coefficient at k dx on a unit-free grid
    (dx = 1e-3), repeated over the n - 1 rows of an n-cell branch."""
    d = 1e-3
    K2 = 2.0 * (1.0 - math.cos(kdx)) / (d * d)
    return np.full(n - 1, -2.0 + d * d * K2)


def sweep_start(kind, kdx):
    """A terminal-like real start, or the radiation closure's complex one:
    (y_{n-1}, y_n)."""
    return (0.7, 1.0) if kind == "real" else (complex(np.exp(1j * kdx)), 1.0)


# at k dx = 1e-9, 1 - cos(k dx) rounds to 0: c_0 = -2, theta = 0, and the
# rows y_{i-1} = 2 y_i - y_{i+1} are solved by U_{m-1} = m
@pytest.mark.parametrize("kdx", [1e-9, 5e-4, 0.01, 0.3])
@pytest.mark.parametrize("n", [200, 2000, 20000])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_closed_form_sweep_matches_the_loop(kdx, n, kind):
    c = chebyshev_case(kdx, n)
    start = sweep_start(kind, kdx)
    loop = oracle._sweep_back(c, *start, 0)
    closed = oracle._sweep_back(c, *start, n - 1)
    assert closed.dtype == loop.dtype and closed.shape == (n + 1,)
    assert closed[-1] == start[1] and closed[-2] == start[0]
    assert np.max(np.abs(closed - loop)) <= 1e-10 * np.max(np.abs(loop))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_closed_form_tail_meets_a_looped_head(kind):
    # V != 0 on the first 599 rows, 0 on the last 1 400
    d, k = 1e-3, 10.0
    x = np.arange(1, 2000) * d
    v = np.where(x < 0.6, 40.0 * np.sin(math.pi * x / 0.6) ** 2, 0.0)
    K2 = 2.0 * (1.0 - math.cos(k * d)) / (d * d)
    c = -2.0 + d * d * (K2 - v)
    start = sweep_start(kind, k * d)
    loop = oracle._sweep_back(c, *start, 0)
    mixed = oracle._sweep_back(c, *start, 1400)
    assert mixed.dtype == loop.dtype
    assert np.max(np.abs(mixed - loop)) <= 1e-10 * np.max(np.abs(loop))


def list_built_matrix(net, k, dx, X_trunc):
    """The oracle's discrete system as one sparse matrix over every branch's
    y_0..y_n, built one Python list entry per COO triplet, and its
    right-hand side: (CSR matrix, rhs)."""
    grids, dxs, offsets, total = [], [], [], 0
    for b in net.branches:
        L = b.tau if b.is_finite else X_trunc
        n = max(int(round(L / dx)), 8)
        grids.append(np.linspace(0.0, L, n + 1))
        dxs.append(L / n)
        offsets.append(total)
        total += n + 1
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    row = 0
    for g, d, off, b in zip(grids, dxs, offsets, net.branches):
        n = g.size - 1
        K2 = 2.0 * (1.0 - math.cos(k * d)) / (d * d)
        v_in = np.asarray(b.potential(g[1:n]), dtype=float)
        i = np.arange(1, n)
        r = row + i - 1
        for col, val in ((off + i - 1, np.full(n - 1, 1.0 / d ** 2)),
                         (off + i + 1, np.full(n - 1, 1.0 / d ** 2)),
                         (off + i, -2.0 / d ** 2 + (K2 - v_in))):
            rows.extend(r)
            cols.extend(col)
            vals.extend(val)
        row += n - 1
    A = [b.A0 for b in net.branches]
    saap = sum(b.A0 * b.A0prime for b in net.branches)
    for bi in range(1, len(net.branches)):
        add(row, offsets[bi], 1.0 / A[bi])
        add(row, offsets[0], -1.0 / A[0])
        row += 1
    for bi in range(len(net.branches)):
        idx, w = oracle._one_sided_start(offsets[bi], dxs[bi])
        for i, wi in zip(idx, w):
            add(row, i, A[bi] * wi)
    add(row, offsets[0], -saap / A[0])
    row += 1
    for bi, b in enumerate(net.branches):
        if b.is_finite:
            nN = offsets[bi] + grids[bi].size - 1
            idx, w = oracle._one_sided_end(nN, dxs[bi])
            for i, wi in zip(idx, w):
                add(row, i, wi)
            add(row, nN, -b.h)
            row += 1
    rhs = np.zeros(total, dtype=complex)
    for bi, b in enumerate(net.branches):
        if not b.is_finite:
            nN = offsets[bi] + grids[bi].size - 1
            add(row, nN, 1.0)
            add(row, nN - 1, -np.exp(1j * k * dxs[bi]))
            if bi == 0:
                X = grids[0][-1]
                rhs[row] = (np.exp(-1j * k * X)
                            * (1.0 - np.exp(2j * k * dxs[bi])))
            row += 1
    return sp.csr_matrix((vals, (rows, cols)), shape=(total, total),
                         dtype=complex), rhs


# h != 0 stubs listed before the infinite lines, which the star sorts
# first, and A'(0) != 0, so the node row carries a sum_j A_j A_j' term
STUBS_FIRST_NET = StarNetwork([
    LineProfile.direct(sin2_bump(0.4, 0.7), 0.7, A0prime=-0.2, tau=1.2,
                       h=0.3),
    LineProfile.direct(zero_potential, 0.0, tau=0.8, h=-0.25),
    LineProfile.direct(sin2_bump(0.6, 0.9), 0.9, A0prime=0.5),
    LineProfile.direct(sin2_bump(-0.3, 0.8), 0.8)])


@pytest.mark.parametrize("net, k, X_trunc", [
    (SMOOTH_NET, 14.0, 1.4),
    (uniform_network(2, taus=[0.6, 1.3]), 29.0, 1.0),
    (STUBS_FIRST_NET, 17.3, 1.4),
])
def test_banded_field_solves_the_list_built_system(net, k, X_trunc):
    """The per-branch recurrence answers the whole sparse system: its
    field's normwise backward error there is at rounding level, and its
    R1_est is the sparse LU's."""
    field = oracle_solve(net, k, 1e-3, X_trunc)
    mat, rhs = list_built_matrix(net, k, 1e-3, X_trunc)
    y = np.concatenate(field.values)
    residual = np.max(np.abs(mat @ y - rhs))
    scale = (spla.norm(mat, np.inf) * np.max(np.abs(y))
             + np.max(np.abs(rhs)))
    assert residual <= 1e-10 * scale
    sol = spla.spsolve(mat, rhs)
    X = field.grids[0][-1]
    yN = sol[field.grids[0].size - 1]
    r1 = (yN - np.exp(-1j * k * X)) * np.exp(-1j * k * X)
    assert abs(field.R1_est - r1) <= 1e-10


# one h = gamma = 50 taper stub: omega grows like e^49 along it, so the
# recurrence swept back from its terminal meets a mode that decays there
TAPER_NET = StarNetwork([LineProfile.uniform(1.0, 1.0),
                         LineProfile.exponential_taper(50.0, 1.0)])


@pytest.mark.parametrize("net, k, X_trunc", [
    (SMOOTH_NET, 10.0, 1.4), (SMOOTH_NET, 14.0, 1.4), (SMOOTH_NET, 20.0, 1.4),
    (uniform_network(2), 10.0, 1.0), (uniform_network(3), 29.0, 1.0),
    (uniform_network(2, taus=[0.6, 1.3]), 29.0, 1.0),
    (STUBS_FIRST_NET, 17.3, 1.4), (TAPER_NET, 10.0, 1.5),
    (TAPER_NET, 29.0, 1.5),
    (uniform_network(3, taus=[0.37, 0.52, 0.61, 0.83, 0.97, 1.13, 1.41]),
     17.3, 1.0),
    (uniform_network(2, taus=[7.3]), 29.0, 1.0), (SMOOTH_NET, 0.5, 1.4),
], ids=["smooth-10", "smooth-14", "smooth-20", "matched-10", "three-29",
        "stubs-29", "stubs-first-17.3", "taper-10", "taper-29",
        "wide-17.3", "long-stub-29", "smooth-0.5"])
def test_recurrence_matches_banded_lu(net, k, X_trunc):
    field = oracle_solve(net, k, 1e-3, X_trunc)
    values, r1 = banded_oracle_field(net, k, 1e-3, X_trunc)
    assert abs(field.R1_est - r1) <= 1e-9
    for got, ref in zip(field.values, values):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
