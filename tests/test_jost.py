"""Jost solutions and half-line transfer data a(k), b(k).

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

from starscatter import jost
from starscatter.errors import SingularFrequencyError
from starscatter.jost import jost_at_origin, jost_batch, jost_profile, \
    jost_tilde_profile, jost_via_volterra
from starscatter.line_model import LineProfile, potential_from_profile

from conftest import sin2_bump, square_well


def make_potential(fn, support_end):
    prof = LineProfile.direct(fn, support_end)
    return potential_from_profile(prof)


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


class TestJostAtOrigin:
    def test_free_potential(self):
        V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        d = jost_at_origin(V, 3.0)
        assert d.f0 == 1.0
        assert d.df0 == 3.0j
        assert d.a == 1.0
        assert d.b == 0.0

    def test_square_well_against_closed_form(self):
        d = jost_at_origin(WELL, 5.0)
        f0, df0, a, b = well_oracle(1.0, 1.0, 5.0)
        assert abs(d.f0 - f0) < 1e-8
        assert abs(d.df0 - df0) < 1e-8
        assert abs(d.a - a) < 1e-8
        assert abs(d.b - b) < 1e-8

    def test_gaussian_bump_a_asymptotics(self):
        # scale a Gaussian bump so int V = 0.5; then a(100) ~ 1 - 0.0025i
        raw = lambda x: np.exp(-(((np.asarray(x, float)) - 1.0) / 0.3) ** 2)
        mass, _ = integrate.quad(lambda x: float(raw(x)), 0.0, 2.0)
        c = 0.5 / mass
        V = make_potential(lambda x: c * raw(x), 2.0)
        d = jost_at_origin(V, 100.0)
        # first Born term of the ftilde integral equation (ftilde'(0) = -ik)
        # gives a = 1 - int V/(2ik) = 1 + i int V / (2k)
        assert abs(d.a - (1.0 + 0.0025j)) <= 5e-4
        assert abs(abs(d.a - 1.0) - 0.0025) <= 5e-4

    def test_zero_frequency_rejected(self):
        with pytest.raises(SingularFrequencyError):
            jost_at_origin(WELL, 0.0)

    def test_truncation_point_compact_support(self):
        assert WELL.truncation == pytest.approx(1.0, abs=1e-6)


class TestLogDerivative:
    def test_free(self):
        V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        d = jost_at_origin(V, 7.0)
        assert d.df0 / d.f0 == 7.0j

    @pytest.mark.parametrize("k", [50.0, 200.0])
    def test_stays_near_ik(self, k):
        d = jost_at_origin(WELL, k)
        assert abs(d.df0 / d.f0 - 1j * k) <= 2.0


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
        def no_rk45(*args, **kwargs):
            raise AssertionError("RK45 called on V = 0")

        monkeypatch.setattr(jost, "_rk45", no_rk45)
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
        _, _, a, b, _ = jost_batch(WELL, ks, with_ab=True)
        l1 = WELL.l1_norm
        bound = l1 / (2.0 * ks) * np.exp(l1 / ks)
        assert np.all(np.abs(a - 1.0) <= bound + 1e-10)

    def test_b_decay_dyadic_ladder(self):
        ks = np.array([25.0, 50.0, 100.0, 200.0])
        _, _, _, b, _ = jost_batch(WELL, ks, with_ab=True)
        scaled = np.abs(b) * ks
        C = 2.0 * scaled[0] + 0.1
        assert np.all(scaled <= C)

    def test_batch_matches_adaptive(self):
        for k in (4.0, 21.0):
            d = jost_at_origin(WELL, k)
            f0, df0, a, b, _ = jost_batch(WELL, np.array([k]), with_ab=True)
            assert abs(f0[0] - d.f0) < 1e-7
            assert abs(df0[0] - d.df0) < 1e-6 * k
            assert abs(a[0] - d.a) < 1e-7
            assert abs(b[0] - d.b) < 1e-7

    @given(v0=st.floats(-2.0, 2.0), w=st.floats(0.2, 1.5),
           k=st.floats(2.0, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_unimodularity(self, v0, w, k):
        V = make_potential(square_well(v0, w), w)
        f0, df0, a, b, _ = jost_batch(V, np.array([k]), with_ab=True)
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
        _, _, a, b, _ = jost_batch(V, ks, with_ab=True)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0)) < 1e-9


class TestVolterraReference:
    def test_agrees_with_ode_path(self):
        k = 4.0
        x, f, ftilde = jost_via_volterra(WELL, k, n_grid=6000)
        d = jost_at_origin(WELL, k)
        assert abs(f[0] - d.f0) < 1e-5
        ft, _ = jost_tilde_profile(WELL, k, x[[0, -1]])
        assert abs(ftilde[0] - 1.0) < 1e-12
        f0o, _, _, _ = well_oracle(1.0, 1.0, k)
        assert abs(f[0] - f0o) < 1e-5
