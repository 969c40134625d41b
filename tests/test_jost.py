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
from starscatter.errors import AccuracyError, DomainError
from starscatter.jost import jost_batch, jost_leg, jost_profile, rk45_sweep
from starscatter.line_model import LineProfile, PotentialFn

from conftest import jost_ab, run_leg, sin2_bump, smooth_demo_star, \
    square_well
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


def tilde_profile(V, k, xs):
    """ftilde and ftilde' (ftilde(0) = 1, ftilde'(0) = -ik) sampled on xs,
    each by one ``rk45_sweep`` call from 0 to its x."""
    ft, dft = zip(*(rk45_sweep(V, 0.0, x, k, 1.0, -1j * k) for x in xs))
    return np.concatenate(ft), np.concatenate(dft)


def rk45_data(V, k):
    """(f0, df0, a, b) from the RK45 references alone: the Jost leg and
    ftilde's, each on ``rk45_sweep``."""
    k = np.asarray(k, dtype=float)
    return (*run_leg(rk45_sweep, jost_leg(V, k), k),
            *jost_ab(V, k, rk45_sweep))


def no_dp45(*args):
    raise AssertionError("RK45 called on V = 0")


class TestJostAtOrigin:
    def test_free_potential(self, monkeypatch):
        # V = 0 without support, and with a support but X = 0: no span to
        # integrate either way
        monkeypatch.setattr(jost, "_dp45", no_dp45)
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
        # f' carries a factor k
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
        with pytest.raises(DomainError, match="singular at k = 0"):
            jost_batch(WELL, 0.0)

    def test_zero_among_frequencies_rejected(self):
        with pytest.raises(DomainError, match="singular at k = 0"):
            jost_batch(WELL, [4.0, 0.0])

    def test_truncation_point_compact_support(self):
        assert WELL.truncation == pytest.approx(1.0, abs=1e-6)


class TestLogDerivative:
    def test_free(self):
        V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        f0, df0 = run_leg(rk45_sweep, jost_leg(V, 7.0), 7.0)
        assert df0 / f0 == 7.0j

    @pytest.mark.parametrize("k", [50.0, 200.0])
    def test_stays_near_ik(self, k):
        f0, df0 = run_leg(rk45_sweep, jost_leg(WELL, k), k)
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
        monkeypatch.setattr(jost, "_dp45", no_dp45)
        V = make_potential(lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        k, xs = 17.3, np.linspace(0.0, 0.5, 10)
        f, df = jost_profile(V, k, xs)
        ft, dft = tilde_profile(V, k, xs)
        e = np.exp(1j * k * xs)
        np.testing.assert_allclose(f, e, rtol=1e-15)
        np.testing.assert_allclose(df, 1j * k * e, rtol=1e-15)
        np.testing.assert_allclose(ft, e.conj(), rtol=1e-15)
        np.testing.assert_allclose(dft, -1j * k * e.conj(), rtol=1e-15)

    def test_wronskian_constancy(self):
        k = 17.3
        xs = np.linspace(0.0, 1.0, 10)
        f, df = jost_profile(WELL, k, xs)
        ft, dft = tilde_profile(WELL, k, xs)
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
        (f0,), _ = run_leg(rk45_sweep, jost_leg(WELL, k), k)
        assert abs(f[0] - f0) < 1e-5
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


def scipy_twin(V, x_from, x_to, ks, y, dy, method="RK45", **tol):
    """``rk45_sweep``'s one-k systems, one per k, solved by scipy's
    ``solve_ivp``: the same rhs and, unless ``tol`` overrides them, the
    same RTOL, ATOL and max_step."""
    ends = []
    for kk, y0, dy0 in zip(ks, *np.broadcast_arrays(y, dy, ks)[:2]):
        def rhs(x, u, k2=kk * kk):
            return [u[1], (V(x) - k2) * u[0]]

        opts = {"rtol": jost.RTOL, "atol": jost.ATOL, "max_step": min(
            abs(x_to - x_from),
            2.0 * np.pi / kk / propagate.STEPS_PER_WAVELENGTH), **tol}
        sol = integrate.solve_ivp(rhs, (x_from, x_to),
                                  np.array([y0, dy0], dtype=complex),
                                  method=method, **opts)
        assert sol.success, sol.message
        ends.append(sol.y[:, -1])
    return tuple(np.array(ends).T)


def pair_gap(got, want, ks):
    """max(|dy|, |dy'|/k) / max(|y|, |y'|/k), the worst over k."""
    gap = np.maximum(np.abs(got[0] - want[0]), np.abs(got[1] - want[1]) / ks)
    size = np.maximum(np.abs(want[0]), np.abs(want[1]) / ks)
    return float(np.max(gap / size))


def both_ways(prof, ks):
    """The arguments (V, x_from, x_to, k, y, dy) of a branch swept out and
    back: a stub from (1, h) either way, an infinite line from (1, -ik) at
    0 and from the plane wave at X = ``V.truncation``."""
    V = prof.potential
    if prof.is_finite:
        return [(V, 0.0, prof.tau, ks, 1.0, prof.h),
                (V, prof.tau, 0.0, ks, 1.0, prof.h)]
    X = V.truncation
    eikX = np.exp(1j * ks * X)
    return [(V, 0.0, X, ks, 1.0, -1j * ks),
            (V, X, 0.0, ks, eikX, 1j * ks * eikX)]


CHECK_KS = [0.5, 10.0, 29.0, (0.5, 10.0, 29.0)]


class TestRK45Sweep:
    """``rk45_sweep`` takes ``propagate.sweep``'s arguments and returns its
    arrays, so each reference computes what the solver computes."""

    @pytest.mark.parametrize("backward", [False, True],
                             ids=["outward", "inward"])
    def test_matches_sweep_on_smooth_sweep_branches(self, tmp_path,
                                                    backward):
        ks = np.array([7.0, 29.0])
        for b in smooth_demo_star(tmp_path).branches:
            leg = both_ways(b, ks)[backward]
            got, want = rk45_sweep(*leg), propagate.sweep(*leg)
            assert [(e.shape, e.dtype) for e in got] == \
                [((2,), np.dtype(complex))] * 2
            assert np.all(np.abs(got[0] - want[0]) < 1e-6)
            assert np.all(np.abs(got[1] - want[1]) < 1e-6 * ks)

    def test_free_line_is_the_sweep_without_integration(self, monkeypatch):
        monkeypatch.setattr(jost, "_dp45", no_dp45)
        V = LineProfile.uniform(1.0, 1.0, length=1.7).potential
        ks = np.array([0.5, 7.0, 29.0, 160.0])
        y, dy = 0.3 - 0.2j, 4.0 + 7.0j
        xs = np.linspace(0.0, 1.7, 6)
        for span in ((0.0, 1.7), (1.7, 0.0), (0.4, 1.1)):
            assert_free_pair(rk45_sweep(V, *span, ks, y, dy),
                             propagate.sweep(V, *span, ks, y, dy), ks,
                             span[1] - span[0])
        for x_from in (0.0, 1.7):
            for x in xs:
                assert_free_pair(rk45_sweep(V, x_from, x, ks, y, dy),
                                 propagate.sweep(V, x_from, x, ks, y, dy),
                                 ks, x - x_from)

    def test_each_k_is_its_one_k_call(self, tmp_path):
        # each k is its own RK45 run, so a k's pair does not depend on the
        # other k of the call.  Omega's legs from (1, h) on a well and a
        # bump stub join the demo star's, which hold the tau = 1.7 table
        # stub's (h = -0.1)
        ks = np.array([0.5, 10.0, 29.0])
        legs = [leg for b in smooth_demo_star(tmp_path).branches
                for leg in both_ways(b, ks)]
        legs += [(WELL, 0.0, 1.0, ks, 1.0, 0.0),
                 (make_potential(sin2_bump(1.2, 1.4), 1.4), 0.0, 1.4, ks,
                  1.0, 0.3)]
        for V, x_from, x_to, _, y, dy in legs:
            got = rk45_sweep(V, x_from, x_to, ks, y, dy)
            for i, (k, yk, dyk) in enumerate(
                    zip(ks, *np.broadcast_arrays(y, dy, ks)[:2])):
                (y_k,), (dy_k,) = rk45_sweep(V, x_from, x_to, k, yk, dyk)
                assert (got[0][i], got[1][i]) == (y_k, dy_k)

    def test_real_start_gives_the_complex_start_bits(self, tmp_path):
        # a stub's real start (1, h) runs in floats, to the same bits
        ks = np.array([0.5, 10.0, 29.0])
        for b in smooth_demo_star(tmp_path).finite_branches:
            for V, x_from, x_to, _, y, dy in both_ways(b, ks):
                got = rk45_sweep(V, x_from, x_to, ks, y, dy)
                want = rk45_sweep(V, x_from, x_to, ks, complex(y),
                                  complex(dy))
                assert [(e.shape, e.dtype) for e in got] == \
                    [((3,), np.dtype(complex))] * 2
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_profile_rows_match_endpoint_calls(self):
        # jost_profile's row at x is rk45_sweep on jost_leg's start, to x;
        # at X it is the start itself
        k = 11.0
        X = WELL.truncation
        xs = np.r_[np.linspace(0.0, 1.0, 5), X]
        f, df = jost_profile(WELL, k, xs)
        assert f.shape == df.shape == (xs.size,)
        V, x_from, _, y, dy = jost_leg(WELL, np.array([k]))
        for i, x in enumerate(xs):
            (y_x,), (dy_x,) = rk45_sweep(V, x_from, x, k, y, dy)
            assert (f[i], df[i]) == (y_x, dy_x)
        assert (f[-1], df[-1]) == (y[0], dy[0])


class TestDormandPrince:
    """``rk45_sweep``'s own Dormand-Prince loop takes scipy RK45's steps."""

    @pytest.mark.parametrize("k", CHECK_KS, ids=["0.5", "10", "29", "three"])
    def test_matches_scipy_rk45(self, tmp_path, k):
        ks = np.atleast_1d(np.asarray(k, dtype=float))
        profiles = [*smooth_demo_star(tmp_path).branches,
                    LineProfile.exponential_taper(0.2, 1.3),
                    LineProfile.exponential_taper(50.0, 1.0),
                    LineProfile.direct(square_well(1.0, 1.0), 1.0)]
        for prof in profiles:
            for leg in both_ways(prof, ks):
                gap = pair_gap(rk45_sweep(*leg), scipy_twin(*leg), ks)
                assert gap <= 1e-12

    @pytest.mark.parametrize("k", CHECK_KS, ids=["0.5", "10", "29", "three"])
    def test_sampled_table_stub_as_accurate_as_scipy_rk45(self, k):
        # the spline V of a sampled table is kinked, so a rounding-level
        # flip of one step's acceptance moves either engine by about 1e-7;
        # both are held to a tight DOP853 solution instead of each other
        ks = np.atleast_1d(np.asarray(k, dtype=float))
        z = np.linspace(0.0, 1.3, 201)
        prof = LineProfile.sampled_table(z, 1.0 + 0.3 * np.sin(2.0 * z) ** 2,
                                         1.0 + 0.2 * z * (1.3 - z))
        for leg in both_ways(prof, ks):
            exact = scipy_twin(*leg, method="DOP853", rtol=1e-13, atol=1e-16)
            assert pair_gap(rk45_sweep(*leg), exact, ks) <= \
                3.0 * pair_gap(scipy_twin(*leg), exact, ks)

    def test_step_below_ten_spacings_raises(self):
        # V is NaN past 0.5: every step across it fails its error test, so
        # the step shrinks onto x = 0.5 until it is below 10 spacings of x
        V = PotentialFn(lambda x: 0.3 if x < 0.5 else math.nan, 1.0, 0.3, 1.0)
        with pytest.raises(AccuracyError, match="RK45 failed on"):
            rk45_sweep(V, 0.0, 1.0, 10.0, 1.0, 0.0)
