"""Fundamental solution omega, transformation kernel, and asymptotics."""
import math

import numpy as np
import pytest

from starscatter import fundamental, jost, propagate
from starscatter.fundamental import fundamental_at, \
    fundamental_via_kernel, solve_kernel
from starscatter.jost import rk45_sweep
from starscatter.line_model import CubicSpline, LineProfile

from conftest import sin2_bump, square_well
from references import kernel_at


def make_potential(fn, support_end):
    prof = LineProfile.direct(fn, support_end)
    return prof.potential


ZERO = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
# V = 0 given a support, so that RK45 integrates it
ZERO_SUPPORTED = make_potential(
    lambda x: np.zeros_like(np.asarray(x, float)), math.pi)
WELL = make_potential(square_well(1.0, 1.0), 1.0)
BUMP = make_potential(sin2_bump(1.2, 1.4), 1.4)  # ||V||_L1 = 0.84
# the benchmark's tau = 1.7 stub: a 161-row x,V table of -0.3 sin^2 on
# [0, 0.9], the spline its config route builds
_X = np.linspace(0.0, 0.9, 161)
TABLE = make_potential(
    CubicSpline(_X, -0.3 * np.sin(np.pi * _X / 0.9) ** 2), 0.9)


def count_dp45(monkeypatch):
    """Record the span (x0, x1) of each RK45 run behind ``rk45_sweep``."""
    calls, real = [], jost._dp45

    def counted(V, k2, x0, x1, y, dy, max_step):
        calls.append((x0, x1))
        return real(V, k2, x0, x1, y, dy, max_step)

    monkeypatch.setattr(jost, "_dp45", counted)
    return calls


class TestFundamentalAt:
    def test_free_full_period(self):
        (om,), (dom,) = fundamental_at(ZERO, math.pi, 0.0, 2.0)
        assert abs(om - 1.0) < 1e-9
        assert abs(dom) < 1e-8

    def test_free_with_slope(self):
        (om,), _ = fundamental_at(ZERO, 1.0, 0.5, 2.0)
        expect = math.cos(2.0) + 0.25 * math.sin(2.0)
        assert abs(om - expect) < 1e-9

    # rk45_sweep answers support_end <= 0 in closed form, so these two
    # twins give the free equation a support and keep RK45's accuracy on it
    # covered
    def test_integrated_free_full_period(self, monkeypatch):
        calls = count_dp45(monkeypatch)
        (om,), (dom,) = rk45_sweep(ZERO_SUPPORTED, 0.0, math.pi, 2.0, 1.0,
                                   0.0)
        assert calls == [(0.0, math.pi)]
        assert abs(om - 1.0) < 1e-9
        assert abs(dom) < 1e-8

    def test_integrated_free_with_slope(self, monkeypatch):
        calls = count_dp45(monkeypatch)
        (om,), _ = rk45_sweep(ZERO_SUPPORTED, 0.0, 1.0, 2.0, 1.0, 0.5)
        assert calls == [(0.0, 1.0)]
        assert abs(om - (math.cos(2.0) + 0.25 * math.sin(2.0))) < 1e-9

    def test_free_stub_is_closed_form(self, monkeypatch):
        def no_dp45(*args):
            raise AssertionError("RK45 called on V = 0")

        monkeypatch.setattr(jost, "_dp45", no_dp45)
        for tau, h, k in ((1.3, 0.0, 6.0), (0.7, -0.4, 14.0),
                          (2.1, 0.25, 0.0)):
            (om,), (dom,) = fundamental_at(ZERO, tau, h, k)
            sinc = math.sin(k * tau) / k if k else tau
            assert om == pytest.approx(
                math.cos(k * tau) + h * sinc, abs=1e-15)
            assert dom == pytest.approx(
                -k * math.sin(k * tau) + h * math.cos(k * tau), abs=1e-14)

    def test_square_well_shifted_wavenumber(self):
        q = math.sqrt(16.0 - 1.0)
        (om,), (dom,) = fundamental_at(WELL, 1.0, 0.0, 4.0)
        assert abs(om - math.cos(q)) < 1e-8
        assert abs(dom + q * math.sin(q)) < 1e-7

    def test_real_for_real_data(self):
        (om,), (dom,) = fundamental_at(BUMP, 1.4, 0.3, 9.0)
        assert abs(om.imag) < 1e-10
        assert abs(dom.imag) < 1e-9

    def test_joint_free_stub_is_per_k_closed_form(self):
        ks = np.array([0.0, 6.0, 14.0])
        om, dom = fundamental_at(ZERO, 1.3, 0.25, ks)
        for i, k in enumerate(ks):
            np.testing.assert_array_equal(
                (om[i:i + 1], dom[i:i + 1]),
                fundamental_at(ZERO, 1.3, 0.25, k))

    @pytest.mark.parametrize("V", [ZERO, BUMP], ids=["free", "bump"])
    @pytest.mark.parametrize("k", [9.0, [9.0], (3.0, 9.0)],
                             ids=["scalar", "one", "two"])
    def test_shape_is_the_sweeps(self, V, k):
        got = fundamental_at(V, 1.4, 0.3, k)
        want = propagate.sweep(V, 0.0, 1.4, k, 1.0, 0.3)
        assert [(a.shape, a.dtype) for a in got] == \
            [(a.shape, a.dtype) for a in want] == [((np.size(k),),
                                                    np.dtype(complex))] * 2

    def test_batch_matches_adaptive(self):
        ks = np.array([3.0, 11.0, 37.0])
        om, dom = propagate.sweep(BUMP, 0.0, 1.4, ks, 1.0, 0.3)
        om_ref, dom_ref = fundamental_at(BUMP, 1.4, 0.3, ks)
        assert np.all(np.abs(om - om_ref) < 1e-7)
        assert np.all(np.abs(dom - dom_ref) < 1e-6 * np.maximum(ks, 1.0))


class TestSolveKernel:
    def test_zero_potential(self):
        K = solve_kernel(ZERO, 1.0)
        assert np.max(np.abs(K.values)) == 0.0

    def test_first_order_constant_well(self):
        v0 = 1e-3
        V = make_potential(square_well(v0, 1.0), 1.0)
        K = solve_kernel(V, 1.0)
        xs = np.linspace(0.05, 0.95, 10)
        for x in xs:
            ts = np.linspace(-x + 0.01, x - 0.01, 9)
            vals = kernel_at(K, np.full_like(ts, x), ts)
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
        d = 2.0 * K.xi[1]  # two grid steps
        xs = np.linspace(0.2, tau - 0.2, 6)
        for x in xs:
            ts = np.linspace(-x + 0.1, x - 0.1, 7)
            kx = (kernel_at(K, np.full_like(ts, x + d), ts)
                  - kernel_at(K, np.full_like(ts, x - d), ts)) / (2 * d)
            kt = (kernel_at(K, np.full_like(ts, x), ts + d)
                  - kernel_at(K, np.full_like(ts, x), ts - d)) / (2 * d)
            bound = 0.25 * np.abs(V((x + ts) / 2.0)) \
                + 0.5 * l1 ** 2 * math.exp(x * l1)
            slack = 0.05 * (l1 + l1 ** 2) + 10.0 * d
            assert np.all(np.abs(kx) <= bound + slack)
            assert np.all(np.abs(kt) <= bound + slack)


class TestViaKernel:
    def test_zero_kernel_reduces_to_cosine(self):
        K = solve_kernel(ZERO, 1.3)
        (val,) = fundamental_via_kernel(K, 0.0, 5.0)
        assert abs(val - math.cos(5.0 * 1.3)) < 1e-12

    def test_zero_kernel_with_slope(self):
        K = solve_kernel(ZERO, math.pi / 2.0)
        (val,) = fundamental_via_kernel(K, 1.0, 1.0)
        assert abs(val - 1.0) < 1e-12

    def test_zero_kernel_is_the_closed_form(self):
        for tau, h, k in ((1.3, 0.0, 6.0), (0.7, -0.4, 14.0),
                          (2.1, 0.25, 0.0)):
            val = fundamental_via_kernel(solve_kernel(ZERO, tau), h, k)
            np.testing.assert_array_equal(
                val, fundamental_at(ZERO, tau, h, k)[0])

    def test_square_well_cross_validation(self):
        K = solve_kernel(WELL, 1.0)
        omega, _ = fundamental_at(WELL, 1.0, 0.0, 6.0)
        assert np.abs(fundamental_via_kernel(K, 0.0, 6.0) - omega) < 1e-6

    def test_smooth_cross_validation_sweep(self):
        # ||V||_L1 <= 2, tau <= 3, k in [1, 50]; and the tau = 1.7 stub, a
        # spline V whose zero extension starts inside the branch
        for V, tau, h, ks in ((make_potential(sin2_bump(1.5, 2.5), 2.5),
                               2.8, 0.4, (1.0, 4.0, 13.0, 27.0, 50.0)),
                              (TABLE, 1.7, -0.1, (6.0, 14.0, 33.0))):
            omega, _ = fundamental_at(V, tau, h, ks)
            ker = fundamental_via_kernel(solve_kernel(V, tau), h, ks)
            assert np.all(np.abs(ker - omega) < 1e-6)

    def test_one_spline_serves_every_k(self, monkeypatch):
        # each k keeps its own Simpson grid, so the array is the per-k
        # values to the bit
        K = solve_kernel(BUMP, 1.4)
        ks = (0.0, 6.0, 14.0, 120.0)
        per_k = [fundamental_via_kernel(K, 0.3, k)[0] for k in ks]
        fits = []
        spline = fundamental.CubicSpline
        monkeypatch.setattr(fundamental, "CubicSpline",
                            lambda *a: fits.append(1) or spline(*a))
        got = fundamental_via_kernel(K, 0.3, ks)
        assert len(fits) == 1 and got.shape == (4,)
        np.testing.assert_array_equal(got, per_k)

    def test_k_zero_limit(self):
        K = solve_kernel(WELL, 1.0)
        val = fundamental_via_kernel(K, 0.7, 0.0)
        # omega(tau, 0) from the IVP at k=0
        omega, _ = fundamental_at(WELL, 1.0, 0.7, 0.0)
        assert np.abs(val - omega) < 1e-6


class TestHighFrequency:
    TAU, H = 1.4, 0.3

    def window_max(self, k_center, fn):
        ks = np.linspace(k_center - 1.0, k_center + 1.0, 81)
        om, dom = propagate.sweep(BUMP, 0.0, self.TAU, ks, 1.0, self.H)
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
        om, dom = propagate.sweep(BUMP, 0.0, self.TAU, ks, 1.0, self.H)
        mask = np.abs(np.cos(ks * self.TAU)) > 0.3
        resid = np.abs(dom / om + ks * np.tan(ks * self.TAU))[mask]
        lo = resid[ks[mask] < 70.0]
        hi = resid[ks[mask] > 170.0]
        assert np.max(hi) <= 1.5 * np.max(lo) + 0.1
