"""Fundamental solution omega, transformation kernel, and asymptotics."""
import cmath
import dataclasses
import math

import numpy as np
import pytest

from starscatter import fundamental
from starscatter.fundamental import fundamental_at, fundamental_batch, \
    fundamental_via_kernel, solve_kernel
from starscatter.jost import _rk45
from starscatter.line_model import LineProfile, potential_from_profile

from conftest import sin2_bump, square_well


def make_potential(fn, support_end):
    prof = LineProfile.direct(fn, support_end)
    return potential_from_profile(prof)


ZERO = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
WELL = make_potential(square_well(1.0, 1.0), 1.0)
BUMP = make_potential(sin2_bump(1.2, 1.4), 1.4)  # ||V||_L1 = 0.84


class TestFundamentalAt:
    def test_free_full_period(self):
        d = fundamental_at(ZERO, math.pi, 0.0, 2.0)
        assert abs(d.omega_tau - 1.0) < 1e-9
        assert abs(d.domega_tau) < 1e-8

    def test_free_with_slope(self):
        d = fundamental_at(ZERO, 1.0, 0.5, 2.0)
        expect = math.cos(2.0) + 0.25 * math.sin(2.0)
        assert abs(d.omega_tau - expect) < 1e-9

    # fundamental_at answers V = 0 in closed form, so these two twins keep
    # the RK45 wrapper's accuracy on the free equation covered
    def test_rk45_free_full_period(self):
        om, dom = _rk45(ZERO, 2.0, (0.0, math.pi), [1.0 + 0.0j, 0.0j],
                        max_step=math.pi)[:, -1]
        assert abs(om - 1.0) < 1e-9
        assert abs(dom) < 1e-8

    def test_rk45_free_with_slope(self):
        om, _ = _rk45(ZERO, 2.0, (0.0, 1.0), [1.0 + 0.0j, 0.5 + 0.0j],
                      max_step=1.0)[:, -1]
        assert abs(om - (math.cos(2.0) + 0.25 * math.sin(2.0))) < 1e-9

    def test_free_stub_is_closed_form(self, monkeypatch):
        def no_rk45(*args, **kwargs):
            raise AssertionError("RK45 called on V = 0")

        monkeypatch.setattr(fundamental, "_rk45", no_rk45)
        for tau, h, k in ((1.3, 0.0, 6.0), (0.7, -0.4, 14.0),
                          (2.1, 0.25, 0.0)):
            d = fundamental_at(ZERO, tau, h, k)
            sinc = math.sin(k * tau) / k if k else tau
            assert d.k == k
            assert d.omega_tau == pytest.approx(
                math.cos(k * tau) + h * sinc, abs=1e-15)
            assert d.domega_tau == pytest.approx(
                -k * math.sin(k * tau) + h * math.cos(k * tau), abs=1e-14)

    def test_square_well_shifted_wavenumber(self):
        q = math.sqrt(16.0 - 1.0)
        d = fundamental_at(WELL, 1.0, 0.0, 4.0)
        assert abs(d.omega_tau - math.cos(q)) < 1e-8
        assert abs(d.domega_tau + q * math.sin(q)) < 1e-7

    def test_real_for_real_data(self):
        d = fundamental_at(BUMP, 1.4, 0.3, 9.0)
        assert abs(d.omega_tau.imag) < 1e-10
        assert abs(d.domega_tau.imag) < 1e-9

    def test_batch_matches_adaptive(self):
        ks = np.array([3.0, 11.0, 37.0])
        om, dom = fundamental_batch(BUMP, 1.4, 0.3, ks)
        for i, k in enumerate(ks):
            d = fundamental_at(BUMP, 1.4, 0.3, float(k))
            assert abs(om[i] - d.omega_tau) < 1e-7
            assert abs(dom[i] - d.domega_tau) < 1e-6 * max(k, 1.0)


class TestSolveKernel:
    def test_zero_potential(self):
        K = solve_kernel(ZERO, 1.0)
        assert np.max(np.abs(K.values)) == 0.0

    def test_zero_potential_is_not_evaluated(self):
        def no_call(x):
            raise AssertionError("V evaluated on a V = 0 branch")

        K = solve_kernel(dataclasses.replace(ZERO, evaluator=no_call), 1.3)
        assert K.values.shape == (K.xi.size, K.xi.size)
        assert not K.values.any()

    def test_first_order_constant_well(self):
        v0 = 1e-3
        V = make_potential(square_well(v0, 1.0), 1.0)
        K = solve_kernel(V, 1.0)
        xs = np.linspace(0.05, 0.95, 10)
        for x in xs:
            ts = np.linspace(-x + 0.01, x - 0.01, 9)
            vals = K(np.full_like(ts, x), ts)
            assert np.max(np.abs(vals - v0 * (x + ts) / 4.0)) < 1e-6

    def test_sup_bound(self):
        # ||V||_L1 = 0.8 bump: |K| <= 0.4 e^{0.8} everywhere on the table
        V = make_potential(sin2_bump(1.6, 1.0), 1.0)
        assert V.l1_norm == pytest.approx(0.8, rel=1e-6)
        K = solve_kernel(V, 1.0)
        assert np.max(np.abs(K.values)) <= 0.4 * math.exp(0.8)

    def test_derivative_bounds(self):
        V = BUMP
        tau, l1 = 1.4, V.l1_norm
        K = solve_kernel(V, tau)
        d = 2.0 * K.grid_step
        xs = np.linspace(0.2, tau - 0.2, 6)
        for x in xs:
            ts = np.linspace(-x + 0.1, x - 0.1, 7)
            kx = (K(np.full_like(ts, x + d), ts)
                  - K(np.full_like(ts, x - d), ts)) / (2 * d)
            kt = (K(np.full_like(ts, x), ts + d)
                  - K(np.full_like(ts, x), ts - d)) / (2 * d)
            bound = 0.25 * np.abs(V((x + ts) / 2.0)) \
                + 0.5 * l1 ** 2 * math.exp(x * l1)
            slack = 0.05 * (l1 + l1 ** 2) + 10.0 * d
            assert np.all(np.abs(kx) <= bound + slack)
            assert np.all(np.abs(kt) <= bound + slack)


class TestViaKernel:
    def test_zero_kernel_reduces_to_cosine(self):
        K = solve_kernel(ZERO, 1.3)
        val = fundamental_via_kernel(K, 0.0, 5.0)
        assert abs(val - math.cos(5.0 * 1.3)) < 1e-12

    def test_zero_kernel_with_slope(self):
        K = solve_kernel(ZERO, math.pi / 2.0)
        val = fundamental_via_kernel(K, 1.0, 1.0)
        assert abs(val - 1.0) < 1e-12

    def test_zero_kernel_is_the_closed_form(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("spline or quadrature on a zero kernel")

        monkeypatch.setattr(fundamental, "CubicSpline", no_call)
        monkeypatch.setattr(fundamental, "simpson", no_call)
        for tau, h, k in ((1.3, 0.0, 6.0), (0.7, -0.4, 14.0),
                          (2.1, 0.25, 0.0)):
            val = fundamental_via_kernel(solve_kernel(ZERO, tau), h, k)
            assert val == fundamental_at(ZERO, tau, h, k).omega_tau

    def test_square_well_cross_validation(self):
        K = solve_kernel(WELL, 1.0)
        ivp = fundamental_at(WELL, 1.0, 0.0, 6.0)
        assert abs(fundamental_via_kernel(K, 0.0, 6.0) - ivp.omega_tau) < 1e-6

    def test_smooth_cross_validation_sweep(self):
        # ||V||_L1 <= 2, tau <= 3, k in [1, 50]
        V = make_potential(sin2_bump(1.5, 2.5), 2.5)
        tau, h = 2.8, 0.4
        K = solve_kernel(V, tau)
        for k in (1.0, 4.0, 13.0, 27.0, 50.0):
            ivp = fundamental_at(V, tau, h, k)
            ker = fundamental_via_kernel(K, h, k)
            assert abs(ker - ivp.omega_tau) < 1e-6

    def test_k_zero_limit(self):
        K = solve_kernel(WELL, 1.0)
        val = fundamental_via_kernel(K, 0.7, 0.0)
        # omega(tau, 0) from the IVP at k=0
        ivp = fundamental_at(WELL, 1.0, 0.7, 0.0)
        assert abs(val - ivp.omega_tau) < 1e-6


class TestHighFrequency:
    TAU, H = 1.4, 0.3

    def window_max(self, k_center, fn):
        ks = np.linspace(k_center - 1.0, k_center + 1.0, 81)
        om, dom = fundamental_batch(BUMP, self.TAU, self.H, ks)
        return np.max(fn(ks, om, dom))

    def test_value_asymptotics(self):
        scaled = lambda ks, om, dom: np.abs(om - np.cos(ks * self.TAU)) * ks
        c25 = self.window_max(25.0, scaled)
        for kc in (50.0, 100.0, 200.0):
            assert self.window_max(kc, scaled) <= 1.5 * c25 + 1e-6

    def test_derivative_asymptotics(self):
        scaled = lambda ks, om, dom: np.abs(dom + ks * np.sin(ks * self.TAU))
        c25 = self.window_max(25.0, scaled)
        for kc in (50.0, 100.0, 200.0):
            assert self.window_max(kc, scaled) <= 1.5 * c25 + 1e-6

    def test_log_derivative_lemma(self):
        # away from zeros of cos(k tau), omega'/omega + k tan(k tau) stays
        # bounded as k grows
        ks = np.linspace(20.0, 220.0, 4001)
        om, dom = fundamental_batch(BUMP, self.TAU, self.H, ks)
        mask = np.abs(np.cos(ks * self.TAU)) > 0.3
        resid = np.abs(dom / om + ks * np.tan(ks * self.TAU))[mask]
        lo = resid[ks[mask] < 70.0]
        hi = resid[ks[mask] > 170.0]
        assert np.max(hi) <= 1.5 * np.max(lo) + 0.1
