"""The transfer-matrix kernel: merged constant runs, the blocked pairwise
cell product, Chebyshev-node interpolation, closed forms, cost.

The reference for the merged kernel is a plain per-cell product written
here with complex square roots, so it shares no code with the kernel.  The
reference for the Chebyshev-node interpolant is the kernel's own direct
product on the full grid.  The kernel's one entry is the pair
``propagate.plan_sweep`` and ``propagate.sweep_block``, which
``propagate.sweep_legs`` runs over a whole grid; ``matrix`` reads the full
matrix off that.
"""
import math
import tracemalloc

import numpy as np
import pytest

from starscatter import config, jost, propagate, scattering
from starscatter.errors import DomainError
from starscatter.line_model import LineProfile

from conftest import branch_data, direct_network, jost_ab, run_leg, \
    sin2_bump, smooth_demo_star, write_sin2_table

KS = np.linspace(60.0, 160.0, 11)
FINE = 60.0 + 0.005 * np.arange(20001)  # the benchmark's grid


def plateau_bump(x):
    """Plateaus (0, 1.5, -0.8, 0) around a smooth bump on [0.7, 1.2]."""
    x = np.asarray(x, dtype=float)
    bump = 3.0 * np.sin(np.pi * (x - 0.7) / 0.5) ** 2
    return np.select([x < 0.3, x < 0.7, x < 1.2, x < 1.5],
                     [0.0, 1.5, bump, -0.8], 0.0)


def barrier_bump(x):
    """plateau_bump plus a 4000 sin^2 barrier on [1.6, 1.67]: k^2 < V on
    eight cells at k = 60, and 295 runs, 7 past a multiple of 8."""
    x = np.asarray(x, dtype=float)
    inside = (x > 1.6) & (x < 1.67)
    return plateau_bump(x) + np.where(
        inside, 4000.0 * np.sin(np.pi * (x - 1.6) / 0.07) ** 2, 0.0)


def matrix(potential, x_from, x_to, k):
    """The transfer matrix (m11, m12, m21, m22) from x_from to x_to: one
    ``sweep_legs`` call on the unit starts (1, 0) and (0, 1), whose
    endpoint pairs are the matrix's columns.  It runs two legs, so
    call-count and memory tests use the one-leg ``sweep`` instead."""
    (m11, m12), (m21, m22) = (a.T.real for a in propagate.sweep_legs(
        [(potential, x_from, x_to, 1.0, 0.0),
         (potential, x_from, x_to, 0.0, 1.0)], k))
    return m11, m12, m21, m22


def run_count(potential, x_from, x_to, k):
    """Merged constant-V runs of the kernel's partition."""
    n = propagate.step_count(abs(x_to - x_from), float(np.max(k)))
    dx = (x_to - x_from) / n
    v = potential(x_from + (np.arange(n) + 0.5) * dx)
    return 1 + int(np.count_nonzero(v[1:] != v[:-1]))


def naive_matrix(potential, x_from, x_to, k):
    """Per-cell product of the midpoint matrices, one cell at a time."""
    n = propagate.step_count(abs(x_to - x_from), float(np.max(k)))
    dx = (x_to - x_from) / n
    k2 = k * k
    m = np.broadcast_to(np.eye(2), k.shape + (2, 2)).copy()
    for i in range(n):
        s = k2 - float(potential(np.array([x_from + (i + 0.5) * dx]))[0])
        q = np.sqrt(s.astype(complex))
        c = np.cos(q * dx).real
        sl = (np.sin(q * dx) / q).real
        cell = np.stack([np.stack([c, sl], -1),
                         np.stack([-s * sl, c], -1)], -2)
        m = cell @ m
    return m


def as_array(m):
    m11, m12, m21, m22 = m
    return np.stack([np.stack([m11, m12], -1),
                     np.stack([m21, m22], -1)], -2)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("x_from, x_to", [(0.0, 2.0), (2.0, 0.0)])
def test_merged_kernel_matches_per_cell_product(x_from, x_to):
    got = as_array(matrix(plateau_bump, x_from, x_to, KS))
    want = naive_matrix(plateau_bump, x_from, x_to, KS)
    for i in range(2):
        for j in range(2):
            assert rel_err(got[..., i, j], want[..., i, j]) < 1e-12


@pytest.mark.parametrize("block", [None, 4 * KS.size, 8 * KS.size])
@pytest.mark.parametrize("x_from, x_to", [(0.0, 2.0), (2.0, 0.0)])
def test_pairwise_product_through_a_barrier(x_from, x_to, block,
                                            monkeypatch):
    # 295 runs: every block size leaves a last block with odd levels
    if block is not None:
        monkeypatch.setattr(propagate, "BLOCK", block)
    got = as_array(matrix(barrier_bump, x_from, x_to, KS))
    want = naive_matrix(barrier_bump, x_from, x_to, KS)
    for i in range(2):
        for j in range(2):
            assert rel_err(got[..., i, j], want[..., i, j]) < 1e-12
    det = got[..., 0, 0] * got[..., 1, 1] - got[..., 0, 1] * got[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-12


def test_backward_matrix_inverts_forward():
    fwd = as_array(matrix(plateau_bump, 0.0, 2.0, KS))
    bwd = as_array(matrix(plateau_bump, 2.0, 0.0, KS))
    prod = bwd @ fwd
    scale = np.max(np.abs(fwd), axis=(-2, -1)) ** 2
    assert np.max(np.abs(prod - np.eye(2)) / scale[:, None, None]) < 1e-12
    det = fwd[..., 0, 0] * fwd[..., 1, 1] - fwd[..., 0, 1] * fwd[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-12


@pytest.mark.parametrize("profile, v", [
    (LineProfile.uniform(1.0, 1.0, length=2.0), 0.0),
    (LineProfile.exponential_taper(0.7, 2.0), 0.49),
])
def test_constant_stub_matches_closed_form(profile, v):
    # k^2 > V, and on the taper k^2 < V (s < 0) and k^2 = V (s = 0 at
    # k = 0.7), in one cell product with an empty span at x = 1: one cell
    # of width 0, at s = k^2 >= 0, which gives its start back bit for bit
    k, tau = np.array([0.0, 0.3, 0.7, 160.0]), 2.0
    V = profile.potential
    y0, dy0 = 0.3 - 0.2j, 40.0 + 7.0j
    (y, y1), (dy, dy1) = (a.T for a in propagate.sweep_legs(
        [(V, 0.0, tau, y0, dy0), (V, 1.0, 1.0, y0, dy0)], k))
    assert np.all(y1 == y0) and np.all(dy1 == dy0)
    s = k * k - v
    q = np.sqrt(s.astype(complex))
    c = np.cos(q * tau).real
    sl = np.where(s == 0, tau, (np.sin(q * tau) / np.where(s == 0, 1, q)).real)
    want_y, want_dy = c * y0 + sl * dy0, -s * sl * y0 + c * dy0
    assert np.all(np.abs(y - want_y) < 1e-12 * abs(dy0) / np.maximum(k, 1))
    assert np.all(np.abs(dy - want_dy) < 1e-12 * abs(dy0))


def count_step_factors(monkeypatch):
    """Record the (cell, frequency) evaluations of each _step_factors
    call."""
    calls = []
    real = propagate._step_factors

    def counted(s, dx):
        calls.append(s.size)
        return real(s, dx)

    monkeypatch.setattr(propagate, "_step_factors", counted)
    return calls


def test_uniform_stub_is_one_cell(monkeypatch):
    # one cell, so one evaluation per frequency, in one call per block
    V = LineProfile.uniform(1.0, 1.0, length=1.7).potential
    for k in (KS, FINE):
        calls = count_step_factors(monkeypatch)
        propagate.sweep(V, 0.0, 1.7, k, 1.0, 0.0)
        assert calls == [k[s].size for s in propagate.plan_sweep(
            [(V, 0.0, 1.7)], k).blocks]
        monkeypatch.undo()


def test_free_line_is_one_cell_at_any_k(monkeypatch):
    # V = 0 is not sampled, so a partition of 3e25 cells costs one
    V = LineProfile.uniform(1.0, 1.0, length=1.7).potential
    k = np.array([1e25])
    calls = count_step_factors(monkeypatch)
    propagate.sweep(V, 0.0, 1.7, k, 1.0, 0.0)
    assert calls == [1]
    m11, m12, m21, m22 = matrix(V, 0.0, 1.7, k)
    assert abs(m11[0] * m22[0] - m12[0] * m21[0] - 1.0) < 1e-12


def test_partition_past_array_size_raises():
    # raised before any array of the partition is allocated
    V = LineProfile.direct(sin2_bump(0.5, 0.8), 0.8).potential
    with pytest.raises(DomainError, match="more than an array can hold"):
        propagate.sweep(V, 0.0, 0.8, np.array([1e25]), 1.0, 0.0)


@pytest.fixture
def table_stub(tmp_path):
    """The smooth-sweep stub: a 161-row x,V table of 0.4 sin^2(pi x / 0.6),
    on a branch of tau = 1."""
    table = tmp_path / "fin1.csv"
    write_sin2_table(table, 0.4, 0.6)
    return LineProfile.direct(config._spline_potential(table, "fin1"),
                              0.6).potential


def test_smooth_stub_costs_its_support_cells_plus_one(table_stub,
                                                     monkeypatch):
    tau, support, bump = 1.0, 0.6, table_stub

    def reversed_bump(s):
        return bump(tau - np.asarray(s, dtype=float))

    n = propagate.step_count(tau, float(KS.max()))
    mids = (np.arange(n) + 0.5) * (tau / n)
    support_cells = int(np.count_nonzero(mids < support))
    for potential in (bump, reversed_bump):
        calls = count_step_factors(monkeypatch)
        propagate.sweep(potential, 0.0, tau, KS, 1.0, -0.12)
        assert sum(calls) == (support_cells + 1) * KS.size
        monkeypatch.undo()


def test_jost_batch_matches_two_sweeps():
    V = LineProfile.direct(sin2_bump(0.5, 0.8), 0.8).potential
    f0, df0 = jost.jost_batch(V, KS)
    X = V.truncation
    a, b = jost_ab(V, KS)
    eikX = np.exp(1j * KS * X)
    g0, dg0 = propagate.sweep(V, X, 0.0, KS, eikX, 1j * KS * eikX)
    ft, dft = propagate.sweep(V, 0.0, X, KS, 1.0, -1j * KS)
    a_ref = eikX * (1j * KS * ft - dft) / (2j * KS)
    b_ref = (1j * KS * ft + dft) / (2j * KS * eikX)
    assert rel_err(f0, g0) < 1e-12
    assert rel_err(df0, dg0) < 1e-12
    assert rel_err(a, a_ref) < 1e-12
    assert np.max(np.abs(b - b_ref)) < 1e-12


def direct_matrix(monkeypatch, potential, x_from, x_to, k):
    """``matrix`` with more Chebyshev nodes than any grid has points, so it
    takes the direct cell product at every k."""
    with monkeypatch.context() as mp:
        mp.setattr(propagate, "NODE_MARGIN", 10 ** 9)
        return matrix(potential, x_from, x_to, k)


def test_interpolated_matches_direct(table_stub, monkeypatch):
    for potential, x_from, x_to in [
            (plateau_bump, 0.0, 2.0), (plateau_bump, 2.0, 0.0),
            (table_stub, 0.0, 1.0), (table_stub, 1.0, 0.0)]:
        want = direct_matrix(monkeypatch, potential, x_from, x_to, FINE)
        got = matrix(potential, x_from, x_to, FINE)
        calls = count_step_factors(monkeypatch)
        propagate.sweep(potential, x_from, x_to, FINE, 1.0, 0.0)
        monkeypatch.undo()
        # the cells were multiplied out on the nodes and the checks only
        n = (math.ceil(abs(x_to - x_from) * (FINE[-1] - FINE[0]) / 2)
             + propagate.NODE_MARGIN)
        runs = run_count(potential, x_from, x_to, FINE)
        assert sum(calls) == runs * (n + 1 + propagate.N_CHECKS)
        assert max(calls) <= propagate.BLOCK
        for g, w in zip(got, want):
            assert rel_err(g, w) <= 1e-12
        assert np.max(np.abs(got[0] * got[3] - got[1] * got[2] - 1)) <= 1e-12


def test_grid_containing_the_nodes(monkeypatch):
    length, k_min, k_max = 2.0, 60.0, 160.0
    n = math.ceil(length * (k_max - k_min) / 2) + propagate.NODE_MARGIN
    nodes, _ = propagate._chebyshev_nodes(k_min, k_max, n)
    k = np.union1d(FINE, nodes)
    got = matrix(plateau_bump, 0.0, length, k)
    want = direct_matrix(monkeypatch, plateau_bump, 0.0, length, k)
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g))
        assert rel_err(g, w) <= 1e-12


def test_short_grid_takes_the_direct_product(monkeypatch):
    # n + 1 = 161 nodes on [60, 160] for length 2: 161 points stay direct
    k = np.linspace(60.0, 160.0, 161)
    got = matrix(plateau_bump, 0.0, 2.0, k)
    want = direct_matrix(monkeypatch, plateau_bump, 0.0, 2.0, k)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_interpolation_memory_is_linear_in_the_grid():
    # any n_k x nodes array (3.2e6 doubles here) would blow this bound
    propagate.sweep(plateau_bump, 0.0, 2.0, FINE, 1.0, 0.0)
    tracemalloc.start()
    try:
        propagate.sweep(plateau_bump, 0.0, 2.0, FINE, 1.0, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * FINE.size * 8


def test_direct_product_memory_is_linear_in_the_grid():
    # 258 runs on 20 001 k: blocks of cells, never all the cells at once
    runs = propagate._runs(plateau_bump, 0.0, 2.0, float(FINE[-1]))
    assert runs[0].size == run_count(plateau_bump, 0.0, 2.0, FINE) > 200
    propagate._cell_product(FINE, *runs)
    tracemalloc.start()
    try:
        propagate._cell_product(FINE, *runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * FINE.size * 8


def test_few_frequencies_cost_a_call_per_branch(table_stub, monkeypatch):
    # validate's solve at k = 10, 17.3, 29 on a star of smooth table
    # potentials: hundreds of cells per branch, one _step_factors call
    net = direct_network([(table_stub, 0.6), (table_stub, 0.6)],
                         [(table_stub, 0.6, 1.0, 0.12)])
    calls = count_step_factors(monkeypatch)
    sweep = scattering.solve_scattering_batch(net, [10.0, 17.3, 29.0])
    assert not sweep.resonant.any()
    assert 0 < len(calls) <= len(net.branches)
    assert sum(calls) > 3 * 250 * len(net.branches)


# One node set and one barycentric pass per star: the columns of
# sweep_legs against one-leg calls, and the pass's cost.

def count_grid_rows(monkeypatch, name):
    """Record the size of the grid rows each call of propagate's ``name``
    takes: the first argument, when it is a run of the benchmark's grid
    (a block), not the nodes."""
    calls = []
    real = getattr(propagate, name)

    def spy(grid, *args):
        if np.isin(grid, FINE).all():
            calls.append(grid.size)
        return real(grid, *args)

    monkeypatch.setattr(propagate, name, spy)
    return calls


def block_sizes(legs, k):
    return [k[s].size for s in propagate.plan_sweep(
        [leg[:3] for leg in legs], k).blocks]


def test_star_columns_match_the_per_leg_direct_product(tmp_path,
                                                       monkeypatch):
    net = smooth_demo_star(tmp_path)
    legs = [scattering.branch_leg(b, FINE) for b in net.branches]
    blocks = block_sizes(legs, FINE)
    bary = count_grid_rows(monkeypatch, "_barycentric")
    cells = count_grid_rows(monkeypatch, "_cell_product")
    val, der = branch_data(net, FINE)
    # the off-node checks, then every branch shares each block's one pass,
    # and none is direct
    assert (bary, cells) == ([propagate.N_CHECKS, *blocks], [])
    monkeypatch.undo()
    with monkeypatch.context() as mp:
        mp.setattr(propagate, "NODE_MARGIN", 10 ** 9)
        for j, leg in enumerate(legs):
            want_val, want_der = run_leg(propagate.sweep, leg, FINE)
            assert rel_err(val[:, j], want_val) <= 1e-12
            assert rel_err(der[:, j], want_der) <= 1e-12
    # det M = 1 on every path, from the unit start pairs in one pass
    paths = [leg[:3] for leg in legs]
    (m11, m21), (m12, m22) = (
        propagate.sweep_legs([p + starts for p in paths], FINE)
        for starts in ((1.0, 0.0), (0.0, 1.0)))
    assert np.max(np.abs(m11 * m22 - m12 * m21 - 1.0)) <= 1e-12


def test_mixed_star_columns_match_one_leg_calls(table_stub, monkeypatch):
    free = LineProfile.uniform(1.0, 1.0, length=1.5).potential
    legs = [(free, 1.5, 0.0, 1.0, 0.3),  # V = 0: one run, direct
            (plateau_bump, 0.0, 2.0, 0.5 - 0.2j, 40.0),
            (table_stub, 1.0, 0.0, 1.0, -0.12),
            (barrier_bump, 2.0, 0.0, 1.0, 60j)]  # its check is made to fail
    real_cells = propagate._cell_product

    def spoilt(k, v_runs, widths, *step):
        m11, m12, m21, m22 = real_cells(k, v_runs, widths, *step)
        # the barrier's products at the nodes and checks
        if not np.isin(k, FINE).all() and v_runs.max() > 1000.0:
            m11 = m11.copy()
            m11[-propagate.N_CHECKS:] *= 1.0 + 1e-9
        return m11, m12, m21, m22

    blocks = block_sizes(legs, FINE)
    monkeypatch.setattr(propagate, "_cell_product", spoilt)
    cells = count_grid_rows(monkeypatch, "_cell_product")
    val, der = propagate.sweep_legs(legs, FINE)
    # the barrier leg, then the free one, block by block
    assert cells == [n for n in blocks for _ in range(2)]
    for j, leg in enumerate(legs):
        want_val, want_der = run_leg(propagate.sweep, leg, FINE)
        if j in (0, 3):  # the direct product, on its own
            assert np.array_equal(val[:, j], want_val)
            assert np.array_equal(der[:, j], want_der)
        else:
            assert rel_err(val[:, j], want_val) <= 1e-12
            assert rel_err(der[:, j], want_der) <= 1e-12


def test_star_memory_holds_no_array_per_entry(tmp_path):
    # val and der are 4N doubles a frequency, and the Jost starts 4 more
    # per infinite branch; a [4N, nk] array of the matrix entries would
    # add 4N more
    net = smooth_demo_star(tmp_path)
    branch_data(net, FINE)
    tracemalloc.start()
    try:
        branch_data(net, FINE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (4 * len(net.branches) + 20) * FINE.size * 8
