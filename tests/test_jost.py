"""Jost solutions, half-line transfer data a(k), b(k), and the RK45 twin
of the sweep.

The square-well oracle used throughout is the two-region closed form: with
q = sqrt(k^2 - v0), the field inside [0, w] is a cos/sin combination matched
to plane waves at x = w.  It is independent of every code path under test.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from starscatter import jost, propagate
from starscatter.errors import SingularFrequencyError
from starscatter.jost import jost_at_origin, jost_batch, jost_profile, \
    jost_tilde_profile, rk45_sweep
from starscatter.line_model import LineProfile

from conftest import jost_ab, sin2_bump, smooth_demo_star, square_well
from references import jost_via_volterra


def make_potential(fn, support_end):
    prof = LineProfile.direct(fn, support_end)
    return prof.potential


def well_oracle(v0, w, k):
    """Closed-form (f0, df0, a, b) for a square well of height v0 on [0, w]."""
    q = cmath.sqrt(k * k - v0)
    eikw = cmath.exp(1j * k * w)
    cq, sq = cmath.cos(q * w), cmath.sin(q * w) / q
    # backward from (e^{ikw}, ik e^{ikw}) to x=0
    f0 = cq * eikw - sq * (1j * k * eikw)
    df0 = q * q * sq * eikw + cq * (1j * k * eikw)
    # forward from (1, -ik) to x=w, then plane-wave projection
    ft = cq - 1j * k * sq
    dft = -q * q * sq - 1j * k * cq
    a = eikw * (1j * k * ft - dft) / (2j * k)
    b = (1j * k * ft + dft) / (2j * k * eikw)
    return f0, df0, a, b


WELL = make_potential(square_well(1.0, 1.0), 1.0)


def rk45_data(V, k):
    """(f0, df0, a, b) from the RK45 references alone."""
    return (*jost_at_origin(V, k), *jost_ab(V, k, rk45_sweep))


def no_solve_ivp(*args, **kwargs):
    raise AssertionError("RK45 called on V = 0")


class TestJostAtOrigin:
    def test_free_potential(self, monkeypatch):
        # V = 0 without support, and with a support but X = 0: no span to
        # integrate either way
        monkeypatch.setattr(jost, "solve_ivp", no_solve_ivp)
        for support_end in (0.0, 1.0):
            V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)),
                               support_end)
            f0, df0, a, b = rk45_data(V, (3.0, 5.0))
            np.testing.assert_array_equal(f0, [1.0, 1.0])
            np.testing.assert_array_equal(df0, [3.0j, 5.0j])
            np.testing.assert_array_equal(a, [1.0, 1.0])
            np.testing.assert_array_equal(b, [0.0, 0.0])

    def test_square_well_against_closed_form(self):
        got = rk45_data(WELL, 5.0)
        for (d,), want in zip(got, well_oracle(1.0, 1.0, 5.0)):
            assert abs(d - want) < 1e-8

    @pytest.mark.parametrize("k", [5.0, [5.0], (3.0, 5.0, 12.0)],
                             ids=["scalar", "one", "three"])
    def test_arrays_over_k(self, k):
        got = rk45_data(WELL, k)
        assert [(e.shape, e.dtype) for e in got] == \
            [((np.size(k),), np.dtype(complex))] * 4
        # one system for all k takes its steps from the largest; f' carries
        # a factor k
        for i, kk in enumerate(np.atleast_1d(k)):
            for d, want in zip(got, well_oracle(1.0, 1.0, kk)):
                assert abs(d[i] - want) < 1e-8 * kk

    def test_gaussian_bump_a_asymptotics(self):
        # scale a Gaussian bump so int V = 0.5; then a(100) ~ 1 - 0.0025i
        raw = lambda x: np.exp(-(((np.asarray(x, float)) - 1.0) / 0.3) ** 2)
        mass, _ = integrate.quad(lambda x: float(raw(x)), 0.0, 2.0)
        c = 0.5 / mass
        V = make_potential(lambda x: c * raw(x), 2.0)
        (a,), _ = jost_ab(V, 100.0, rk45_sweep)
        # first Born term of the ftilde integral equation (ftilde'(0) = -ik)
        # gives a = 1 - int V/(2ik) = 1 + i int V / (2k)
        assert abs(a - (1.0 + 0.0025j)) <= 5e-4
        assert abs(abs(a - 1.0) - 0.0025) <= 5e-4

    def test_zero_frequency_rejected(self):
        with pytest.raises(SingularFrequencyError):
            jost_at_origin(WELL, 0.0)

    def test_zero_among_frequencies_rejected(self):
        with pytest.raises(SingularFrequencyError):
            jost_at_origin(WELL, [4.0, 0.0])

    def test_truncation_point_compact_support(self):
        assert WELL.truncation == pytest.approx(1.0, abs=1e-6)


class TestLogDerivative:
    def test_free(self):
        V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        f0, df0 = jost_at_origin(V, 7.0)
        assert df0 / f0 == 7.0j

    @pytest.mark.parametrize("k", [50.0, 200.0])
    def test_stays_near_ik(self, k):
        f0, df0 = jost_at_origin(WELL, k)
        assert abs(df0 / f0 - 1j * k) <= 2.0


class TestJostProfileBounds:
    @pytest.mark.parametrize("k", [3.0, 12.0])
    def test_f_close_to_plane_wave(self, k):
        xs = np.linspace(0.0, 1.0, 21)
        f, df = jost_profile(WELL, k, xs)
        for x, fx, dfx in zip(xs, f, df):
            tail, _ = integrate.quad(lambda u: abs(float(WELL(u))), x, 1.0)
            bound = math.exp(tail / k) - 1.0
            assert abs(fx - np.exp(1j * k * x)) <= bound + 1e-9
            assert abs(dfx - 1j * k * np.exp(1j * k * x)) <= \
                k * bound + 1e-9

    def test_free_profiles_in_closed_form(self, monkeypatch):
        monkeypatch.setattr(jost, "solve_ivp", no_solve_ivp)
        V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        k, xs = 17.3, np.linspace(0.0, 0.5, 10)
        f, df = jost_profile(V, k, xs)
        ft, dft = jost_tilde_profile(V, k, xs)
        e = np.exp(1j * k * xs)
        np.testing.assert_allclose(f, e, rtol=1e-15)
        np.testing.assert_allclose(df, 1j * k * e, rtol=1e-15)
        np.testing.assert_allclose(ft, e.conj(), rtol=1e-15)
        np.testing.assert_allclose(dft, -1j * k * e.conj(), rtol=1e-15)

    def test_wronskian_constancy(self):
        k = 17.3
        xs = np.linspace(0.0, 1.0, 10)
        f, df = jost_profile(WELL, k, xs)
        ft, dft = jost_tilde_profile(WELL, k, xs)
        w = f * dft - df * ft
        assert np.max(np.abs(w - w[0])) / abs(w[0]) < 1e-8


class TestTransferInvariants:
    def test_a_to_one_bound(self):
        ks = np.array([5.0, 10.0, 25.0, 50.0, 100.0])
        a, b = jost_ab(WELL, ks)
        l1 = WELL.l1_norm
        bound = l1 / (2.0 * ks) * np.exp(l1 / ks)
        assert np.all(np.abs(a - 1.0) <= bound + 1e-10)

    def test_b_decay_dyadic_ladder(self):
        ks = np.array([25.0, 50.0, 100.0, 200.0])
        _, b = jost_ab(WELL, ks)
        scaled = np.abs(b) * ks
        C = 2.0 * scaled[0] + 0.1
        assert np.all(scaled <= C)

    def test_batch_matches_adaptive(self):
        ks = np.array([4.0, 21.0])
        f0_ref, df0_ref, a_ref, b_ref = rk45_data(WELL, ks)
        f0, df0 = jost_batch(WELL, ks)
        a, b = jost_ab(WELL, ks)
        assert np.all(np.abs(f0 - f0_ref) < 1e-7)
        assert np.all(np.abs(df0 - df0_ref) < 1e-6 * ks)
        assert np.all(np.abs(a - a_ref) < 1e-7)
        assert np.all(np.abs(b - b_ref) < 1e-7)

    @given(v0=st.floats(-2.0, 2.0), w=st.floats(0.2, 1.5),
           k=st.floats(2.0, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_unimodularity(self, v0, w, k):
        V = make_potential(square_well(v0, w), w)
        f0, df0 = jost_batch(V, np.array([k]))
        a, b = jost_ab(V, k)
        assert abs(abs(a[0]) ** 2 - abs(b[0]) ** 2 - 1.0) < 1e-9
        # ftilde = a conj(f) + b f, the identity behind the node solve's
        # incoming wave conj(f) on branch 1
        np.testing.assert_allclose(np.conj(f0), (1.0 - b * f0) / a,
                                   rtol=1e-12)
        np.testing.assert_allclose(np.conj(df0), (-1j * k - b * df0) / a,
                                   rtol=1e-12)

    def test_unimodularity_smooth_bump(self):
        V = make_potential(sin2_bump(0.8, 1.2), 1.2)
        ks = np.array([3.0, 9.0, 27.0])
        a, b = jost_ab(V, ks)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0)) < 1e-9


class TestVolterraReference:
    def test_agrees_with_ode_path(self):
        k = 4.0
        x, f, ftilde = jost_via_volterra(WELL, k, n_grid=6000)
        (f0,), _ = jost_at_origin(WELL, k)
        assert abs(f[0] - f0) < 1e-5
        ft, _ = jost_tilde_profile(WELL, k, x[[0, -1]])
        assert abs(ftilde[0] - 1.0) < 1e-12
        f0o, _, _, _ = well_oracle(1.0, 1.0, k)
        assert abs(f[0] - f0o) < 1e-5


def assert_free_pair(got, want, ks, length):
    """(y, y') within 1e-14 per radian of phase k |length| (at least one):
    both routes take cos and sin of k times a rounded length.  y' carries
    a factor k."""
    tol = 1e-14 * np.maximum(1.0, ks * abs(length))
    assert np.all(np.abs(got[0] - want[0]) <= tol)
    assert np.all(np.abs(got[1] - want[1]) <= tol * ks)


class TestRK45Sweep:
    """``rk45_sweep`` takes ``propagate.sweep``'s arguments and returns its
    arrays, so each reference computes what the solver computes."""

    @pytest.mark.parametrize("backward", [False, True],
                             ids=["outward", "inward"])
    def test_matches_sweep_on_smooth_sweep_branches(self, tmp_path,
                                                    backward):
        ks = np.array([7.0, 29.0])
        for b in smooth_demo_star(tmp_path).branches:
            V = b.potential
            if b.is_finite:
                end, y, dy = b.geometry.tau, 1.0, b.geometry.h
            else:
                end = V.truncation
                eikX = np.exp(1j * ks * end)
                y, dy = (eikX, 1j * ks * eikX) if backward else (1.0,
                                                                 -1j * ks)
            span = (end, 0.0) if backward else (0.0, end)
            got = rk45_sweep(V, *span, ks, y, dy)
            want = propagate.sweep(V, *span, ks, y, dy)
            assert [(e.shape, e.dtype) for e in got] == \
                [((2,), np.dtype(complex))] * 2
            assert np.all(np.abs(got[0] - want[0]) < 1e-6)
            assert np.all(np.abs(got[1] - want[1]) < 1e-6 * ks)

    def test_free_line_is_the_sweep_without_integration(self, monkeypatch):
        monkeypatch.setattr(jost, "solve_ivp", no_solve_ivp)
        V = LineProfile.uniform(1.0, 1.0, length=1.7).potential
        ks = np.array([0.5, 7.0, 29.0, 160.0])
        y, dy = 0.3 - 0.2j, 4.0 + 7.0j
        xs = np.linspace(0.0, 1.7, 6)
        for span in ((0.0, 1.7), (1.7, 0.0), (0.4, 1.1)):
            assert_free_pair(rk45_sweep(V, *span, ks, y, dy),
                             propagate.sweep(V, *span, ks, y, dy), ks,
                             span[1] - span[0])
        for x_from in (0.0, 1.7):
            rows = rk45_sweep(V, x_from, 1.7 - x_from, ks, y, dy, xs)
            for i, x in enumerate(xs):
                assert_free_pair([r[i] for r in rows],
                                 propagate.sweep(V, x_from, x, ks, y, dy),
                                 ks, x - x_from)

    def test_profile_rows_match_endpoint_calls(self):
        ks = np.array([3.0, 11.0])
        xs = np.linspace(0.0, 1.0, 5)
        for x_from, x_to in ((0.0, 1.0), (1.0, 0.0)):
            y, dy = rk45_sweep(WELL, x_from, x_to, ks, 1.0, 0.5, xs)
            assert y.shape == dy.shape == (xs.size, ks.size)
            (y_end, dy_end) = rk45_sweep(WELL, x_from, x_to, ks, 1.0, 0.5)
            i = -1 if x_to else 0
            assert np.all(np.abs(y[i] - y_end) < 1e-12)
            assert np.all(np.abs(dy[i] - dy_end) < 1e-12 * ks)
            j = 0 if x_to else -1
            np.testing.assert_array_equal(y[j], 1.0)
            np.testing.assert_array_equal(dy[j], 0.5)
