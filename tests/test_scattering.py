"""Node system assembly and the constructed scattering solution."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starscatter import jost, propagate, scattering
from starscatter.config import load_network
from starscatter.errors import DomainError, ProfileValidityError, \
    ResonanceError
from starscatter.fundamental import fundamental_at, fundamental_profile
from starscatter.line_model import LineProfile, potential_from_profile
from starscatter.scattering import BranchKind, assemble_field, \
    network_from_profiles, reflectogram, solve_scattering, \
    solve_scattering_batch

from conftest import closed_form_r1, direct_network, fake_singular_stub, \
    random_smooth_network, sin2_bump, uniform_network, write_sin2_table


def adaptive_branch_data(net, k):
    """Reference node data from adaptive RK45, one frequency at a time, in
    the (val, der) layout of ``scattering._branch_data``."""
    val = np.empty((k.size, len(net.branches)), dtype=complex)
    der = np.empty_like(val)
    for j, b in enumerate(net.branches):
        if b.kind is BranchKind.INFINITE:
            rows = [jost.jost_at_origin(b.potential, float(kk)) for kk in k]
            val[:, j] = [r.f0 for r in rows]
            der[:, j] = [r.df0 for r in rows]
        else:
            # u(x) = omega(tau - x) for omega on the reversed potential with
            # omega(0) = 1, omega'(0) = -h, so (u(0), u'(0)) = (omega, -omega')
            tau, V = b.geometry.tau, b.potential
            rows = [fundamental_at(lambda s: V(tau - np.asarray(s, float)),
                                   tau, -b.geometry.h, float(kk))
                    for kk in k]
            val[:, j] = [r.omega_tau for r in rows]
            der[:, j] = [-r.domega_tau for r in rows]
    return val, der


class TestUniformJunctions:
    def test_matched_line(self):
        net = uniform_network(2)
        c = solve_scattering(net, 13.0)
        assert abs(c.R1) < 1e-12
        assert abs(c.T[0] - 1.0) < 1e-12

    def test_three_way_junction(self):
        net = uniform_network(3)
        for k in (5.0, 40.0):
            c = solve_scattering(net, k)
            assert abs(c.R1 + 1.0 / 3.0) < 1e-12
            assert abs(c.T[0] - 2.0 / 3.0) < 1e-12
            assert abs(c.T[1] - 2.0 / 3.0) < 1e-12

    def test_stub_at_its_eigenvalue(self):
        # u(0) = cos(3 pi / 2) is 1.8e-16 of rounding noise; one decoupled
        # stub leaves alpha unique and must not raise a warning
        net = uniform_network(2, taus=[1.0])
        c = solve_scattering(net, 1.5 * math.pi)
        assert abs(c.R1 + 1.0) < 1e-12
        assert abs(c.alpha[0] + 2j) < 1e-12
        assert c.condition_number <= scattering.COND_WARN

    def test_single_stub_full_reflection(self):
        net = uniform_network(1, taus=[1.0])
        c = solve_scattering(net, math.pi / 4.0)
        assert abs(abs(c.R1) - 1.0) < 1e-12
        assert abs(c.R1 - 1.0j) < 1e-10  # phase from the closed form

    @pytest.mark.parametrize("m,taus", [(1, [1.0]), (2, [0.7, 1.3]),
                                        (3, [2.0])])
    def test_closed_form(self, m, taus):
        net = uniform_network(m, taus=taus)
        for k in (5.0, 17.0, 63.0):
            if any(abs(math.cos(k * t)) < 0.05 for t in taus):
                continue
            c = solve_scattering(net, k)
            assert abs(c.R1 - closed_form_r1(m, taus, k)) < 1e-10


class TestInvariants:
    def test_flux_conservation_random_networks(self, rng):
        for _ in range(8):
            net = random_smooth_network(rng)
            for k in rng.uniform(5.0, 100.0, size=3):
                c = solve_scattering(net, float(k))
                flux = abs(c.R1) ** 2 + sum(abs(t) ** 2 for t in c.T)
                assert abs(flux - 1.0) < 1e-8

    def test_node_residuals(self, rng):
        net = random_smooth_network(rng)
        c = solve_scattering(net, 23.0)
        vals = [y / b.geometry.A0
                for (y, _), b in zip(c.node_values, net.branches)]
        scale = max(abs(v) for v in vals)
        assert max(abs(v - vals[0]) for v in vals) / scale < 1e-10
        lhs = sum(b.geometry.A0 * dy
                  for (_, dy), b in zip(c.node_values, net.branches))
        saap = sum(b.geometry.A0 * b.geometry.A0prime for b in net.branches)
        assert abs(lhs - saap * c.ybar) / (abs(lhs) + c.k) < 1e-10

    def test_uniqueness_under_branch_reordering(self):
        specs = [(sin2_bump(0.5, 0.8), 0.8, 1.1, 0.2),
                 (sin2_bump(-0.4, 0.6), 0.6, 1.9, -0.1)]
        net_a = direct_network([(sin2_bump(0.3, 0.7), 0.7)], specs)
        net_b = direct_network([(sin2_bump(0.3, 0.7), 0.7)], specs[::-1])
        for k in (9.0, 31.0):
            ca = solve_scattering(net_a, k)
            cb = solve_scattering(net_b, k)
            assert abs(ca.R1 - cb.R1) < 1e-12
            assert abs(sorted(ca.alpha, key=abs)[0]
                       - sorted(cb.alpha, key=abs)[0]) < 1e-10

    def test_transfer_matches_adaptive(self, rng, monkeypatch):
        net = random_smooth_network(rng)
        for k in (7.0, 29.0):
            ct = solve_scattering(net, k)
            with monkeypatch.context() as mp:
                mp.setattr(scattering, "_branch_data", adaptive_branch_data)
                ca = solve_scattering(net, k)
            assert abs(ct.R1 - ca.R1) < 1e-6

    def test_wronskian_constant_on_finite_branch(self):
        V = potential_from_profile(
            LineProfile.direct(sin2_bump(0.8, 1.0), 1.0, tau=1.3, h=0.2))
        xs = np.linspace(0.0, 1.3, 10)
        y1, dy1 = fundamental_profile(V, 1.3, 0.2, 11.0, xs)
        y2, dy2 = fundamental_profile(V, 1.3, 1.7, 11.0, xs)
        w = y1 * dy2 - dy1 * y2
        assert np.max(np.abs(w - w[0])) / abs(w[0]) < 1e-8

    def test_k_floor_enforced(self):
        net = uniform_network(2)
        with pytest.raises(DomainError):
            solve_scattering(net, 0.1)

    def test_a5_violation_rejected(self):
        profs = [("infinite", LineProfile.uniform(1.0, 1.0)),
                 ("infinite", LineProfile.uniform(1.0, 2.0))]
        with pytest.raises(ProfileValidityError):
            network_from_profiles(profs)


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
        for b in net.branches:
            y = assemble_field(net, c, b.id, 0.0)
            assert abs(y - b.geometry.A0 * c.ybar) < 1e-9

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
        y, dy = assemble_field(net, c, fin.id, fin.geometry.tau,
                               derivative=True)
        assert abs(dy - 0.25 * y) < 1e-7 * max(abs(y), 1.0)


class TestReflectogram:
    def test_three_way_grid(self):
        net = uniform_network(3)
        entries = reflectogram(net, [10.0, 20.0, 30.0])
        assert [e.k for e in entries] == [10.0, 20.0, 30.0]
        for e in entries:
            assert abs(e.R1 + 1.0 / 3.0) < 1e-12

    def test_matched_line_zeros(self):
        net = uniform_network(2)
        for e in reflectogram(net, np.linspace(5.0, 6.0, 11)):
            assert abs(e.R1) < 1e-12

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
        assert one[0].R1 == solve_scattering(stub, 5.0).R1

    def test_threaded_matches_serial(self):
        net = uniform_network(1, taus=[1.0])
        grid = np.linspace(10.0, 12.0, 101)
        serial = reflectogram(net, grid, threads=1)
        threaded = reflectogram(net, grid, threads=4)
        for a, b in zip(serial, threaded):
            assert a.k == b.k
            assert abs(a.R1 - b.R1) < 1e-14


def test_batch_solver_matches_scalar(rng):
    net = random_smooth_network(rng)
    ks = np.array([6.0, 18.5, 44.0])
    batch = solve_scattering_batch(net, ks)
    for i, k in enumerate(ks):
        single = solve_scattering(net, float(k))
        assert abs(batch[i].R1 - single.R1) < 1e-13


def matrix_node_solve(net, k):
    """Reference for the scalar node equation: the node conditions as one
    N x N linear system per k in (R1, T_j, alpha_j), solved by
    np.linalg.solve, with branch 1's incoming wave (ftilde - b f)/a built
    from a(k) and b(k) instead of conj(f).  Returns (R1, T, alpha, ybar,
    node_values)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    # unknown column per branch: R1 for branch 1, then T_j / alpha_j in order
    val_coeff, der_coeff = scattering._branch_data(net, k)
    N = len(net.branches)
    nk = k.size
    b1 = net.branches[0]
    f0_1, df0_1 = val_coeff[:, 0], der_coeff[:, 0]
    _, _, a1, bb1, _ = jost.jost_batch(b1.potential, k, with_ab=True)
    A1 = b1.geometry.A0
    saap = sum(b.geometry.A0 * b.geometry.A0prime for b in net.branches)
    c0 = 1.0 / a1 - (bb1 / a1) * f0_1
    d0 = -1j * k / a1 - (bb1 / a1) * df0_1

    M = np.zeros((nk, N, N), dtype=complex)
    rhs = np.zeros((nk, N), dtype=complex)
    for idx, b in enumerate(net.branches[1:], start=1):
        M[:, idx - 1, idx] = val_coeff[:, idx] / b.geometry.A0
        M[:, idx - 1, 0] = -f0_1 / A1
        rhs[:, idx - 1] = c0 / A1
    Acol = np.array([b.geometry.A0 for b in net.branches])
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
        return propagate.sweep(stub.potential, stub.geometry.tau, 0.0, k,
                               1.0, stub.geometry.h)[0][0].real

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
    assert got[0].condition_number <= scattering.COND_WARN


def zero_stub_value(monkeypatch, stubs, at_k):
    """Set u_j(0) to exactly 0 on the given stubs at the frequency at_k."""
    real = scattering._branch_data

    def branch_data(net, k):
        val, der = real(net, k)
        val[np.ix_(k == at_k, [b.id - 1 for b in stubs])] = 0.0
        return val, der

    monkeypatch.setattr(scattering, "_branch_data", branch_data)


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


def smooth_demo_star(workdir):
    """The demo star from 161-row sin^2 tables: two infinite branches and
    stubs of tau 1 and 1.7, as in the benchmark's smooth-sweep."""
    branches = []
    for i, (amp, width) in enumerate(((0.5, 0.8), (-0.35, 0.7))):
        write_sin2_table(workdir / f"inf{i}.csv", amp, width)
        branches.append({"kind": "infinite",
                         "direct": {"potential_table_path": f"inf{i}.csv"}})
    for i, (amp, width, tau, h) in enumerate(((0.4, 0.6, 1.0, 0.12),
                                              (-0.3, 0.9, 1.7, -0.1))):
        write_sin2_table(workdir / f"fin{i}.csv", amp, width)
        branches.append({"kind": "finite",
                         "direct": {"potential_table_path": f"fin{i}.csv",
                                    "tau": tau, "h": h}})
    path = workdir / "net.json"
    path.write_text(json.dumps({"schema_version": 1, "branches": branches}))
    return load_network(path)[0]


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
