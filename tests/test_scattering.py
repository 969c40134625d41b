"""Node system assembly and the constructed scattering solution."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starscatter import jost, propagate, scattering
from starscatter.errors import DomainError, ProfileValidityError, \
    ResonanceError
from starscatter.line_model import LineProfile
from starscatter.scattering import ScatteringSweep, StarNetwork, \
    reflectogram, solve_scattering, solve_scattering_batch

from conftest import closed_form_r1, direct_network, fake_singular_stub, \
    jost_ab, random_smooth_network, run_leg, sin2_bump, smooth_demo_star, \
    uniform_network
from references import assemble_field, fundamental_profile


def adaptive_branch_data(net, plan, s):
    """``scattering._branch_data`` on the RK45 references: the same node
    pairs (val, der) over the block k[s] of the plan's grid, each
    ``branch_leg`` on ``jost.rk45_sweep``."""
    k = plan.k[s]
    val, der = zip(*(run_leg(jost.rk45_sweep, scattering.branch_leg(b, k), k)
                     for b in net.branches))
    return np.stack(val, axis=1), np.stack(der, axis=1)


class TestUniformJunctions:
    def test_matched_line(self):
        net = uniform_network(2)
        c = solve_scattering(net, 13.0)
        assert abs(c.R1[0]) < 1e-12
        assert abs(c.T[0, 0] - 1.0) < 1e-12

    def test_three_way_junction(self):
        net = uniform_network(3)
        for k in (5.0, 40.0):
            c = solve_scattering(net, k)
            assert abs(c.R1[0] + 1.0 / 3.0) < 1e-12
            assert abs(c.T[0, 0] - 2.0 / 3.0) < 1e-12
            assert abs(c.T[0, 1] - 2.0 / 3.0) < 1e-12

    def test_stub_at_its_eigenvalue(self):
        # u(0) = cos(3 pi / 2) is 1.8e-16 of rounding noise; one decoupled
        # stub leaves alpha unique and must not raise a warning
        net = uniform_network(2, taus=[1.0])
        c = solve_scattering(net, 1.5 * math.pi)
        assert abs(c.R1[0] + 1.0) < 1e-12
        assert abs(c.alpha[0, 0] + 2j) < 1e-12
        assert c.cond[0] <= scattering.COND_WARN

    def test_single_stub_full_reflection(self):
        net = uniform_network(1, taus=[1.0])
        r1 = solve_scattering(net, math.pi / 4.0).R1[0]
        assert abs(abs(r1) - 1.0) < 1e-12
        assert abs(r1 - 1.0j) < 1e-10  # phase from the closed form

    @pytest.mark.parametrize("m,taus", [(1, [1.0]), (2, [0.7, 1.3]),
                                        (3, [2.0])])
    def test_closed_form(self, m, taus):
        net = uniform_network(m, taus=taus)
        for k in (5.0, 17.0, 63.0):
            if any(abs(math.cos(k * t)) < 0.05 for t in taus):
                continue
            r1 = solve_scattering(net, k).R1[0]
            assert abs(r1 - closed_form_r1(m, taus, k)) < 1e-10


class TestInvariants:
    def test_flux_conservation_random_networks(self, rng):
        for _ in range(8):
            net = random_smooth_network(rng)
            for k in rng.uniform(5.0, 100.0, size=3):
                c = solve_scattering(net, float(k))
                flux = abs(c.R1[0]) ** 2 + sum(abs(t) ** 2 for t in c.T[0])
                assert abs(flux - 1.0) < 1e-8

    def test_node_residuals(self, rng):
        net = random_smooth_network(rng)
        c = solve_scattering(net, 23.0)
        vals = [y / b.A0
                for (y, _), b in zip(c.node_values[0], net.branches)]
        scale = max(abs(v) for v in vals)
        assert max(abs(v - vals[0]) for v in vals) / scale < 1e-10
        lhs = sum(b.A0 * dy
                  for (_, dy), b in zip(c.node_values[0], net.branches))
        saap = sum(b.A0 * b.A0prime for b in net.branches)
        assert abs(lhs - saap * c.ybar[0]) / (abs(lhs) + c.k[0]) < 1e-10

    def test_uniqueness_under_branch_reordering(self):
        specs = [(sin2_bump(0.5, 0.8), 0.8, 1.1, 0.2),
                 (sin2_bump(-0.4, 0.6), 0.6, 1.9, -0.1)]
        net_a = direct_network([(sin2_bump(0.3, 0.7), 0.7)], specs)
        net_b = direct_network([(sin2_bump(0.3, 0.7), 0.7)], specs[::-1])
        for k in (9.0, 31.0):
            ca = solve_scattering(net_a, k)
            cb = solve_scattering(net_b, k)
            assert abs(ca.R1[0] - cb.R1[0]) < 1e-12
            assert abs(sorted(ca.alpha[0], key=abs)[0]
                       - sorted(cb.alpha[0], key=abs)[0]) < 1e-10

    def test_transfer_matches_adaptive(self, rng, monkeypatch):
        # the seeded random star has no stub, so a fixed one with two
        # stubs (h of both signs) covers the finite-branch reference
        stubbed = direct_network(
            [(sin2_bump(0.3, 0.7), 0.7), (sin2_bump(-0.4, 0.5), 0.5)],
            [(sin2_bump(0.5, 0.8), 0.8, 1.1, 0.2),
             (sin2_bump(-0.6, 0.6), 0.6, 1.7, -0.3)])
        for net in (random_smooth_network(rng), stubbed):
            ct = solve_scattering_batch(net, (7.0, 29.0))
            with monkeypatch.context() as mp:
                mp.setattr(scattering, "_branch_data", adaptive_branch_data)
                ca = solve_scattering_batch(net, (7.0, 29.0))
            assert np.all(np.abs(ct.R1 - ca.R1) < 1e-6)

    def test_wronskian_constant_on_finite_branch(self):
        V = LineProfile.direct(sin2_bump(0.8, 1.0), 1.0, tau=1.3,
                               h=0.2).potential
        xs = np.linspace(0.0, 1.3, 10)
        y1, dy1 = fundamental_profile(V, 0.2, 11.0, xs)
        y2, dy2 = fundamental_profile(V, 1.7, 11.0, xs)
        w = y1 * dy2 - dy1 * y2
        assert np.max(np.abs(w - w[0])) / abs(w[0]) < 1e-8

    def test_k_floor_enforced(self):
        net = uniform_network(2)
        with pytest.raises(DomainError):
            solve_scattering(net, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_k_rejected(self, bad):
        net = uniform_network(2, [1.0])
        for solve, k in ((solve_scattering, bad),
                         (solve_scattering_batch, [10.0, bad]),
                         (reflectogram, [10.0, bad])):
            with pytest.raises(DomainError, match="finite"):
                solve(net, k)

    @pytest.mark.parametrize("big", [1.5e154, 1e200, 1.5e308])
    def test_k_whose_square_overflows_rejected(self, big):
        # before the check, the stub's partition divided by zero or asked
        # numpy for an array past its size limit
        net = uniform_network(2, [1.0])
        assert scattering.K_CEIL ** 2 < math.inf
        with pytest.raises(DomainError, match="square is finite"):
            solve_scattering_batch(net, [10.0, big])

    def test_a5_violation_rejected(self):
        profs = [LineProfile.uniform(1.0, 1.0), LineProfile.uniform(1.0, 2.0)]
        with pytest.raises(ProfileValidityError):
            StarNetwork(profs)


class TestBranchTag:
    """A branch is finite exactly when its profile carries tau."""

    def test_infinite_profiles_numbered_first(self):
        infinite = [LineProfile.direct(sin2_bump(0.3, w), w)
                    for w in (0.4, 0.6)]
        finite = [LineProfile.direct(sin2_bump(0.2, 0.5), 0.5, tau=tau, h=0.1)
                  for tau in (1.3, 0.8)]
        net = StarNetwork([finite[0], infinite[0], finite[1], infinite[1]])
        assert net.branches == (infinite[0], infinite[1], finite[0],
                                finite[1])
        assert [b.potential.support_end for b in net.branches[:2]] == \
            [0.4, 0.6]
        assert [b.tau for b in net.branches[2:]] == [1.3, 0.8]

    def test_counts_follow_geometry(self):
        given = [LineProfile.uniform(1.0, 1.0),
                 LineProfile.uniform(1.0, 1.0, length=1.2),
                 LineProfile.uniform(1.0, 1.0)]
        net = StarNetwork(given)
        assert [b.is_finite for b in net.branches] == [False, False, True]
        assert (net.m, net.n) == (2, 1)
        assert net.infinite_branches == (given[0], given[2])
        assert net.finite_branches == (given[1],)

    def test_interleaved_order_solves_as_infinite_first(self):
        # the node solve reads columns 0..m-1 as the infinite branches
        inf = [LineProfile.direct(sin2_bump(a, 0.6), 0.6) for a in (0.4, -0.3)]
        fin = LineProfile.direct(sin2_bump(0.5, 0.8), 0.8, tau=1.1, h=0.25)
        want = solve_scattering(StarNetwork([inf[0], inf[1], fin]), 10.0)
        got = solve_scattering(StarNetwork([inf[0], fin, inf[1]]), 10.0)
        for name in ("R1", "T", "alpha"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        flux = abs(got.R1[0]) ** 2 + np.sum(np.abs(got.T[0]) ** 2)
        assert abs(flux - 1.0) <= 1e-12

    def test_branches_cannot_be_appended_to(self):
        # an appended infinite line would sit after the stub, in a column
        # the node solve reads as finite
        net = StarNetwork([LineProfile.uniform(1.0, 1.0),
                           LineProfile.uniform(1.0, 1.0, length=1.0)])
        with pytest.raises(AttributeError):
            net.branches.append(LineProfile.uniform(1.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.branches = [LineProfile.uniform(1.0, 4.0)]
        assert net.m == 1 and net.n == 1

    def test_node_geometry_follows_branch_order(self):
        # A and sum A A' are built once, in the sorted order every per-branch
        # array uses
        given = [LineProfile.direct(sin2_bump(0.2, 0.5), 0.5, A0=2.0000001,
                                    A0prime=-0.3, tau=1.1, h=0.1),
                 LineProfile.direct(sin2_bump(0.3, 0.4), 0.4, A0=2.0,
                                    A0prime=0.7)]
        net = StarNetwork(given)
        np.testing.assert_array_equal(net.A, [2.0, 2.0000001])
        assert net.saap == 2.0 * 0.7 + 2.0000001 * -0.3
        with pytest.raises(ValueError, match="read-only"):
            net.A[0] = 1.0

    def test_all_finite_star_rejected(self):
        stubs = [LineProfile.uniform(1.0, 1.0, length=t) for t in (1.0, 1.7)]
        with pytest.raises(ProfileValidityError,
                           match="branch 1 must be infinite"):
            StarNetwork(stubs)


class TestAssembleField:
    def test_matched_line_is_incoming_wave(self):
        net = uniform_network(2)
        c = solve_scattering(net, 5.0)
        for x in (0.0, 0.4, 1.1):
            y = assemble_field(net, c, 1, x)
            assert abs(y - np.exp(-5.0j * x)) < 1e-10

    def test_node_continuity(self, rng):
        net = random_smooth_network(rng)
        c = solve_scattering(net, 15.0)
        for j, b in enumerate(net.branches, start=1):
            y = assemble_field(net, c, j, 0.0)
            assert abs(y - b.A0 * c.ybar[0]) < 1e-9

    def test_bad_branch_id(self):
        net = uniform_network(2)
        c = solve_scattering(net, 5.0)
        with pytest.raises(DomainError):
            assemble_field(net, c, 7, 0.1)

    def test_finite_branch_terminal_condition(self):
        net = direct_network([(sin2_bump(0.3, 0.7), 0.7)],
                             [(sin2_bump(0.5, 0.8), 0.8, 1.1, 0.25)])
        c = solve_scattering(net, 12.0)
        fin = net.finite_branches[0]
        y, dy = assemble_field(net, c, net.m + 1, fin.tau,
                               derivative=True)
        assert abs(dy - 0.25 * y) < 1e-7 * max(abs(y), 1.0)


class TestReflectogram:
    def test_three_way_grid(self):
        net = uniform_network(3)
        sweep = reflectogram(net, [10.0, 20.0, 30.0])
        assert sweep.k.tolist() == [10.0, 20.0, 30.0]
        assert np.max(np.abs(sweep.R1 + 1.0 / 3.0)) < 1e-12

    def test_matched_line_zeros(self):
        net = uniform_network(2)
        sweep = reflectogram(net, np.linspace(5.0, 6.0, 11))
        assert len(sweep) == 11 and np.max(np.abs(sweep.R1)) < 1e-12

    def test_singular_node_solve_flags_only_its_k(self, monkeypatch):
        net = uniform_network(2, taus=[1.0])
        want = reflectogram(net, [10.0, 20.0, 30.0])
        fake_singular_stub(monkeypatch, lambda k: np.abs(k - 20.0) < 1e-9)
        batch = solve_scattering_batch(net, [10.0, 20.0, 30.0])
        assert batch.resonant.tolist() == [False, True, False]
        sweep = reflectogram(net, [10.0, 20.0, 30.0])
        assert sweep.resonant.tolist() == [False, True, False]
        assert np.isnan(sweep.R1[1]) and np.all(np.isnan(sweep.alpha[1]))
        # the neighbouring rows stay finite and untouched
        assert sweep.R1[[0, 2]].tolist() == want.R1[[0, 2]].tolist()
        with pytest.raises(ResonanceError):
            solve_scattering(net, 20.0)

    def test_grid_validation(self):
        net = uniform_network(2)
        stub = uniform_network(1, taus=[1.0])
        for n in (net, stub):
            for bad in ([], [[5.0, 6.0], [7.0, 8.0]]):
                with pytest.raises(DomainError):
                    reflectogram(n, bad)
                with pytest.raises(DomainError):
                    solve_scattering_batch(n, bad)
        with pytest.raises(DomainError):
            reflectogram(net, [5.0, 4.0])
        with pytest.raises(DomainError):
            reflectogram(net, [0.1, 5.0])
        one = reflectogram(stub, 5.0)
        assert len(one) == 1
        assert one.R1.tolist() == solve_scattering(stub, 5.0).R1.tolist()

    def test_threaded_matches_serial(self, tmp_path):
        # the pool solves the serial sweep's blocks, which share one plan,
        # so every field is the serial one to the bit
        net = smooth_demo_star(tmp_path)
        grid = 60.0 + 0.005 * np.arange(20001)
        serial = reflectogram(net, grid, threads=1)
        threaded = reflectogram(net, grid, threads=4)
        assert len(scattering._plan(net, grid).blocks) > 4
        for f in dataclasses.fields(ScatteringSweep):
            assert np.array_equal(getattr(threaded, f.name),
                                  getattr(serial, f.name)), f.name


def test_batch_solver_matches_scalar(rng):
    # solve_scattering is the one-row sweep: every field has the batch's
    # row shape and values
    net = random_smooth_network(rng)
    ks = np.array([6.0, 18.5, 44.0])
    batch = solve_scattering_batch(net, ks)
    for i, k in enumerate(ks):
        single = solve_scattering(net, float(k))
        assert len(single) == 1
        for f in dataclasses.fields(ScatteringSweep):
            one, row = getattr(single, f.name), getattr(batch, f.name)
            assert one.shape == (1, *row.shape[1:])
            np.testing.assert_allclose(one[0], row[i], rtol=0, atol=1e-13)


def matrix_node_solve(net, k):
    """Reference for the scalar node equation: the node conditions as one
    N x N linear system per k in (R1, T_j, alpha_j), solved by
    np.linalg.solve, with branch 1's incoming wave (ftilde - b f)/a built
    from a(k) and b(k) instead of conj(f).  Returns (R1, T, alpha, ybar,
    node_values)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    # unknown column per branch: R1 for branch 1, then T_j / alpha_j in order
    # the solver's node pairs over the whole grid, as one block
    val_coeff, der_coeff = scattering._branch_data(
        net, scattering._plan(net, k), slice(None))
    N = len(net.branches)
    nk = k.size
    b1 = net.branches[0]
    f0_1, df0_1 = val_coeff[:, 0], der_coeff[:, 0]
    a1, bb1 = jost_ab(b1.potential, k)
    A1 = b1.A0
    saap = sum(b.A0 * b.A0prime for b in net.branches)
    c0 = 1.0 / a1 - (bb1 / a1) * f0_1
    d0 = -1j * k / a1 - (bb1 / a1) * df0_1

    M = np.zeros((nk, N, N), dtype=complex)
    rhs = np.zeros((nk, N), dtype=complex)
    for idx, b in enumerate(net.branches[1:], start=1):
        M[:, idx - 1, idx] = val_coeff[:, idx] / b.A0
        M[:, idx - 1, 0] = -f0_1 / A1
        rhs[:, idx - 1] = c0 / A1
    Acol = np.array([b.A0 for b in net.branches])
    M[:, N - 1, :] = der_coeff * Acol[None, :]
    M[:, N - 1, 0] += -saap * f0_1 / A1
    rhs[:, N - 1] = -A1 * d0 + saap * c0 / A1
    sol = np.linalg.solve(M, rhs[..., None])[..., 0]

    y1 = c0 + f0_1 * sol[:, 0]
    node_values = np.stack([sol * val_coeff, sol * der_coeff], axis=-1)
    node_values[:, 0, 0] = y1
    node_values[:, 0, 1] = d0 + df0_1 * sol[:, 0]
    m = net.m
    return sol[:, 0], sol[:, 1:m], sol[:, m:], y1 / A1, node_values


def test_smooth_stub_at_its_eigenvalue():
    # bisect k until the stub's u(0) is rounding noise; ybar taken from R1
    # as (conj f0_1 + f0_1 R1) / A_1 cancels there and misses alpha by O(1)
    net = direct_network([(sin2_bump(0.3, 0.7), 0.7),
                          (sin2_bump(-0.2, 0.5), 0.5)],
                         [(sin2_bump(0.5, 0.8), 0.8, 1.1, 0.25),
                          (sin2_bump(0.2, 0.4), 0.4, 0.7, 0.0)])
    stub = net.finite_branches[0]

    def u0(k):
        return propagate.sweep(stub.potential, stub.tau, 0.0, k, 1.0,
                               stub.h)[0][0].real

    lo, hi = 12.5, 13.0
    assert u0(lo) > 0 > u0(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if u0(mid) > 0 else (lo, mid)
    k = np.array([lo])
    assert abs(u0(lo)) < 1e-14
    got = solve_scattering_batch(net, k)
    R1, T, alpha, _, _ = matrix_node_solve(net, k)
    for a, b in ((got.R1, R1), (got.T, T), (got.alpha, alpha)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    assert got.cond[0] <= scattering.COND_WARN


def zero_stub_value(monkeypatch, stubs, at_k):
    """Set u_j(0) to exactly 0 on the given stubs at the frequency at_k."""
    real = scattering._branch_data

    def zeroed(net, plan, s):
        val, der = real(net, plan, s)
        val[np.ix_(plan.k[s] == at_k,
                   [net.branches.index(b) for b in stubs])] = 0.0
        return val, der

    monkeypatch.setattr(scattering, "_branch_data", zeroed)


def test_exact_zero_stub_value_decouples(monkeypatch):
    net = random_smooth_network(np.random.default_rng(0))
    assert net.n == 2
    stub = net.finite_branches[0]
    k = np.array([12.84, 13.0])
    zero_stub_value(monkeypatch, [stub], 12.84)
    got = solve_scattering_batch(net, k)
    R1, T, alpha, ybar, node_values = matrix_node_solve(net, k)
    assert not got.resonant.any()
    assert got.ybar[0] == 0.0
    assert not got.T[0].any() and got.alpha[0, 1] == 0.0
    for a, b in ((got.R1, R1), (got.T, T), (got.alpha, alpha),
                 (got.ybar, ybar), (got.node_values, node_values)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_two_exact_zero_stub_values_stay_resonant(monkeypatch):
    net = random_smooth_network(np.random.default_rng(0))
    k = np.array([12.84, 13.0])
    want = solve_scattering_batch(net, k)
    zero_stub_value(monkeypatch, net.finite_branches, 12.84)
    got = solve_scattering_batch(net, k)
    assert got.resonant.tolist() == [True, False]
    assert got.R1[1] == want.R1[1]


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.floats(1.0, 60.0))
@settings(max_examples=40, deadline=None)
def test_node_equation_matches_matrix_solve(seed, k):
    net = random_smooth_network(np.random.default_rng(seed))
    ks = np.array([k, k + 0.37])
    got = solve_scattering_batch(net, ks)
    R1, T, alpha, ybar, node_values = matrix_node_solve(net, ks)
    for a, b in ((got.R1, R1), (got.T, T), (got.alpha, alpha),
                 (got.ybar, ybar), (got.node_values, node_values)):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


def test_interpolant_check_holds_the_csv_gate(tmp_path, monkeypatch):
    # with 40 spare Chebyshev nodes, not 60, the tau = 1.7 stub's
    # interpolant is off by about 6e-13 of an entry, which R1 amplifies
    # about 50x; the check must send that branch to the direct product
    net = smooth_demo_star(tmp_path)
    k = 60.0 + 0.005 * np.arange(20001)
    want = solve_scattering_batch(net, k)
    monkeypatch.setattr(propagate, "NODE_MARGIN", 40)
    got = solve_scattering_batch(net, k)
    assert np.max(np.abs(got.R1 - want.R1)) <= 1e-11


def test_interpolated_sweep_matches_direct(tmp_path, monkeypatch):
    net = smooth_demo_star(tmp_path)
    k = 60.0 + 0.005 * np.arange(20001)
    got = solve_scattering_batch(net, k)
    # more Chebyshev nodes than grid points: every branch is direct
    monkeypatch.setattr(propagate, "NODE_MARGIN", 10 ** 9)
    want = solve_scattering_batch(net, k)
    assert np.max(np.abs(got.R1 - want.R1)) <= 1e-11
    flux = np.abs(got.R1) ** 2 + np.sum(np.abs(got.T) ** 2, axis=1)
    assert np.max(np.abs(flux - 1.0)) <= 1e-8


# One leg per branch: every route to a branch's node pair runs the leg
# that ``branch_leg`` gives.

CHECK_KS = np.array([10.0, 17.3, 29.0])  # validate's check frequencies


def star_with_free_line(tmp_path):
    """The smooth demo star and one V = 0 infinite line."""
    branches = smooth_demo_star(tmp_path).branches
    return StarNetwork([*branches, LineProfile.uniform(1.0, 1.0)])


def test_branch_leg_starts(tmp_path):
    net = star_with_free_line(tmp_path)
    for b in net.branches:
        V, x_from, x_to, y, dy = scattering.branch_leg(b, CHECK_KS)
        assert (V, x_to) == (b.potential, 0.0)
        if b.is_finite:
            assert (x_from, y, dy) == (b.tau, 1.0, b.h)
        else:
            # the plane wave f is past X = V.truncation; X = 0 on V = 0
            assert x_from == V.truncation
            np.testing.assert_allclose(y, np.exp(1j * CHECK_KS * x_from),
                                       rtol=1e-15)
            np.testing.assert_allclose(dy, 1j * CHECK_KS * y, rtol=1e-15)
    assert net.branches[net.m - 1].potential.truncation == 0.0


@pytest.mark.parametrize("k", [CHECK_KS, 60.0 + 0.005 * np.arange(20001)],
                         ids=["check", "benchmark"])
def test_jost_batch_is_the_branch_leg_on_sweep(tmp_path, k):
    for b in star_with_free_line(tmp_path).infinite_branches:
        got = jost.jost_batch(b.potential, k)
        want = run_leg(propagate.sweep, scattering.branch_leg(b, k), k)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_jost_at_origin_is_the_branch_leg_on_rk45(tmp_path):
    for b in star_with_free_line(tmp_path).infinite_branches:
        got = jost.jost_at_origin(b.potential, CHECK_KS)
        want = run_leg(jost.rk45_sweep, scattering.branch_leg(b, CHECK_KS),
                       CHECK_KS)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_branch_data_columns_are_one_leg_sweeps(tmp_path):
    # on a short grid every leg takes the direct product, alone or in the
    # solver's call, so the solver's node pairs are the one-leg sweeps bit
    # for bit
    net = star_with_free_line(tmp_path)
    sweep = scattering.solve_scattering_batch(net, CHECK_KS)
    for j, b in enumerate(net.branches):
        y, dy = run_leg(propagate.sweep, scattering.branch_leg(b, CHECK_KS),
                        CHECK_KS)
        assert np.array_equal(sweep.val[:, j], y)
        assert np.array_equal(sweep.der[:, j], dy)
