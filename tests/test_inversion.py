"""Closed-form high-frequency reflection and topology recovery."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starscatter.errors import InsufficientDataError, PoleProximityError
from starscatter.inversion import ReflectogramSample, detect_poles, \
    estimate_m, estimate_taus, high_freq_reflection
from starscatter.scattering import reflectogram

from conftest import direct_network, sin2_bump


def synth_rows(m, taus, ks):
    """Closed-form reflectogram on a k grid, without the pole guard, as an
    [n, 2] array of (k, R1) rows."""
    S = np.zeros_like(ks)
    for tau in taus:
        S = S + np.tan(ks * tau)
    return np.column_stack([ks, (-(m - 2) + 1j * S) / (m - 1j * S)])


def synth_samples(m, taus, ks):
    """The same rows as a list of ReflectogramSample."""
    return [ReflectogramSample(float(k.real), complex(r))
            for k, r in synth_rows(m, taus, ks)]


def in_form(m, taus, ks, form):
    return synth_rows(m, taus, ks) if form == "array" \
        else synth_samples(m, taus, ks)


class TestClosedForm:
    def test_matched(self):
        assert high_freq_reflection(2, [], 13.7) == 0.0

    def test_three_way(self):
        assert high_freq_reflection(3, [], 4.2) == \
            pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_single_stub_quarter_wave(self):
        val = high_freq_reflection(1, [1.0], math.pi / 4.0)
        assert abs(val - 1.0j) < 1e-14

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            high_freq_reflection(1, [1.0], math.pi / 2.0)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            high_freq_reflection(0, [], 5.0)

    @given(m=st.integers(1, 10),
           taus=st.lists(st.floats(0.3, 3.0), max_size=4, unique=True),
           k=st.floats(5.0, 200.0))
    @settings(max_examples=200, deadline=None)
    def test_m_recovery_identity(self, m, taus, k):
        # 1/(1+R1) = (m - iS)/2, so 2 Re recovers m exactly
        if any(abs(math.cos(k * tau)) < 1e-2 for tau in taus):
            return
        r1 = high_freq_reflection(m, taus, k)
        assert 2.0 * (1.0 / (1.0 + r1)).real == pytest.approx(m, abs=1e-12)


class TestEstimateM:
    def test_all_zero(self):
        samples = [ReflectogramSample(10.0 + i, 0.0) for i in range(12)]
        m_hat, diag = estimate_m(samples)
        assert m_hat == 2
        assert diag["retained"] == 12

    def test_all_one(self):
        samples = [ReflectogramSample(10.0 + i, 1.0 + 0.0j) for i in range(12)]
        assert estimate_m(samples)[0] == 1

    def test_near_pole_samples_excluded(self):
        good = [ReflectogramSample(10.0 + i, 0.0) for i in range(12)]
        bad = [ReflectogramSample(30.0 + i, -0.99 + 0.001j) for i in range(3)]
        m_hat, diag = estimate_m(good + bad)
        assert m_hat == 2
        assert diag["retained"] == 12

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            estimate_m([ReflectogramSample(10.0, 0.0)] * 5)

    def test_subsampling_invariance(self):
        ks = np.arange(60.0, 110.0, 0.01)
        samples = synth_samples(3, [1.3], ks)
        full, _ = estimate_m(samples)
        half, _ = estimate_m(samples[::2])
        assert full == half == 3


class TestEstimateTaus:
    def test_single_tau_pole_positions(self):
        ks = np.arange(50.0, 60.0, 0.002)
        report = estimate_taus(synth_samples(1, [1.0], ks))
        assert report.m_hat == 1
        assert len(report.taus) == 1
        assert abs(report.taus[0] - 1.0) < 1e-3
        for p in report.poles:
            frac = p / math.pi - 0.5
            assert abs(frac - round(frac)) < 1e-3

    def test_two_taus(self):
        ks = np.arange(60.0, 160.0, 0.005)
        report = estimate_taus(synth_samples(2, [1.0, 1.7], ks))
        assert report.m_hat == 2
        assert len(report.taus) == 2
        assert abs(report.taus[0] - 1.0) < 0.01
        assert abs(report.taus[1] - 1.7) < 0.017

    def test_two_taus_array_input(self):
        ks = np.arange(60.0, 160.0, 0.005)
        report = estimate_taus(synth_rows(2, [1.0, 1.7], ks))
        assert report.m_hat == 2
        assert len(report.taus) == 2
        assert abs(report.taus[0] - 1.0) < 0.01
        assert abs(report.taus[1] - 1.7) < 0.017
        # rows reach the inversion as the same floats in either form
        listed = estimate_taus(synth_samples(2, [1.0, 1.7], ks))
        assert report.taus == listed.taus
        assert report.poles == listed.poles

    def test_forward_solver_data(self):
        net = direct_network([(sin2_bump(0.4, 0.8), 0.8)],
                             [(sin2_bump(0.3, 0.6), 0.6, 1.2, 0.1)])
        ks = np.arange(60.0, 100.0, 0.005)
        sweep = reflectogram(net, ks)
        ok = ~sweep.resonant
        samples = [ReflectogramSample(k, r) for k, r in
                   zip(sweep.k[ok].tolist(), sweep.R1[ok].tolist())]
        report = estimate_taus(samples)
        assert report.m_hat == 1
        assert len(report.taus) == 1
        assert abs(report.taus[0] - 1.2) / 1.2 < 0.01

    def test_sign_robustness(self):
        ks = np.arange(60.0, 160.0, 0.005)
        plus = estimate_taus(synth_samples(2, [1.0, 1.7], ks))
        flipped = [ReflectogramSample(s.k, s.R1.conjugate())
                   for s in synth_samples(2, [1.0, 1.7], ks)]
        minus = estimate_taus(flipped)
        assert len(plus.taus) == len(minus.taus)
        for a, b in zip(plus.taus, minus.taus):
            assert abs(a - b) < 1e-9
        assert minus.poles == estimate_taus(
            synth_rows(2, [1.0, 1.7], ks).conj()).poles

    def test_sign_robustness_array_input(self):
        ks = np.arange(60.0, 160.0, 0.005)
        plus = estimate_taus(synth_rows(2, [1.0, 1.7], ks))
        minus = estimate_taus(synth_rows(2, [1.0, 1.7], ks).conj())
        assert len(plus.taus) == len(minus.taus)
        for a, b in zip(plus.taus, minus.taus):
            assert abs(a - b) < 1e-9

    def test_no_poles_warning(self):
        ks = np.arange(60.0, 70.0, 0.01)
        report = estimate_taus(synth_samples(2, [], ks))
        assert report.m_hat == 2
        assert report.taus == []
        assert any("no poles" in w for w in report.warnings)

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_rejected(self, max_n):
        samples = synth_samples(2, [1.0], np.arange(60.0, 70.0, 0.01))
        with pytest.raises(ValueError):
            estimate_taus(samples, expected_max_n=max_n)

    @pytest.mark.parametrize("form", ["list", "array"])
    def test_nonpositive_k_rejected(self, form):
        ks = np.arange(60.0, 70.0, 0.01)
        ks[5] = 0.0
        with pytest.raises(ValueError, match="k must be positive"):
            estimate_taus(in_form(2, [1.0], ks, form))

    @pytest.mark.parametrize("bad", [np.zeros((5, 3)), np.ones(4),
                                     [(60.0, 0.0, 0.0)] * 4])
    def test_rows_must_be_pairs(self, bad):
        with pytest.raises(ValueError, match="rows"):
            estimate_taus(bad)

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2))])
    def test_empty_input_is_too_few_samples(self, empty):
        with pytest.raises(InsufficientDataError):
            estimate_taus(empty)

    def test_nonuniform_grid_rejected(self):
        samples = synth_samples(2, [1.0], np.array([60.0, 60.01, 60.5, 61.7]))
        with pytest.raises(InsufficientDataError):
            estimate_taus(samples)

    def test_near_degenerate_does_not_crash(self):
        ks = np.arange(60.0, 160.0, 0.005)
        report = estimate_taus(synth_samples(2, [1.0, 1.004], ks))
        assert report.m_hat == 2
        assert any(abs(t - 1.0) < 0.02 for t in report.taus)


def loop_reference(samples):
    """Per-sample loops of estimate_m's median and detect_poles, in Python
    complex arithmetic, as the array code replaced them."""
    vals = [2.0 * (1.0 / (1.0 + s.R1)).real for s in samples
            if abs(1.0 + s.R1) > 0.1]
    g = [2.0 * (1.0 / (1.0 + s.R1)).imag for s in samples]
    poles = []
    for i in range(len(samples) - 1):
        if abs(g[i]) > 10.0 and abs(g[i + 1]) > 10.0 \
                and (g[i] > 0) != (g[i + 1] > 0):
            k0, k1 = samples[i].k, samples[i + 1].k
            f0, f1 = 1.0 / g[i], 1.0 / g[i + 1]
            poles.append(k0 - f0 * (k1 - k0) / (f1 - f0))
    return float(np.median(vals)), len(vals), poles


class TestDetectPoles:
    def test_matches_loop_reference(self):
        # numpy's complex division may round the last bit apart from
        # Python's, so agreement is to a few ulps, not exact
        samples = synth_samples(3, [1.0, 1.7], np.arange(60.0, 90.0, 0.005))
        median, retained, poles = loop_reference(samples)
        _, diag = estimate_m(samples)
        assert diag["median"] == pytest.approx(median, rel=1e-12)
        assert diag["retained"] == retained
        assert detect_poles(samples) == pytest.approx(poles, rel=1e-12)
        assert len(poles) > 20

    def test_sign_flip_required(self):
        # large |g| without a sign change is not a pole
        ks = np.arange(50.0, 51.0, 0.01)
        big = [ReflectogramSample(float(k), complex(-0.95, 0.001))
               for k in ks]
        assert detect_poles(big) == []
