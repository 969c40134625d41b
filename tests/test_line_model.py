"""Profile ingestion and the reduction to Schrodinger form."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from starscatter import config, line_model
from starscatter.errors import DomainError, ProfileValidityError, \
    ResolutionError
from starscatter.line_model import LineProfile, branch_geometry, \
    liouville_coordinate, potential_from_profile, read_table_csv, \
    travel_time, voltage_from_field


def table_profile_for_A(a_fn, z_end, n, infinite=False):
    """SampledTable realizing A(x)=a_fn(x) with unit slowness: C=A^2, L=A^-2."""
    z = np.linspace(0.0, z_end, n)
    a = a_fn(z)
    return LineProfile.sampled_table(z, a ** -2.0, a ** 2.0, infinite=infinite)


class TestLiouvilleCoordinate:
    def test_uniform_unit(self):
        p = LineProfile.uniform(1.0, 1.0, length=5.0)
        assert liouville_coordinate(p, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_scaled(self):
        p = LineProfile.uniform(4.0, 1.0, length=5.0)
        assert liouville_coordinate(p, 3.0) == pytest.approx(6.0, abs=1e-12)

    def test_linear_inductance_closed_form(self):
        # L(z)=1+z, C=1: x(1) = int_0^1 sqrt(1+u) du = (2/3)(2 sqrt(2) - 1)
        z = np.linspace(0.0, 1.0, 2001)
        p = LineProfile.sampled_table(z, 1.0 + z, np.ones_like(z))
        expect = (2.0 / 3.0) * (2.0 * math.sqrt(2.0) - 1.0)
        assert liouville_coordinate(p, 1.0) == pytest.approx(expect, abs=1e-8)

    def test_out_of_domain(self):
        p = LineProfile.uniform(1.0, 1.0, length=1.0)
        with pytest.raises(DomainError):
            liouville_coordinate(p, 2.0)

    def test_monotone_and_derivative(self):
        z = np.linspace(0.0, 2.0, 801)
        Lz = 1.0 + 0.3 * np.sin(z)
        p = LineProfile.sampled_table(z, Lz, np.ones_like(z))
        zs = np.linspace(0.1, 1.9, 7)
        xs = [liouville_coordinate(p, zz) for zz in zs]
        assert np.all(np.diff(xs) > 0)
        eps = 1e-5
        for zz in zs:
            fd = (liouville_coordinate(p, zz + eps)
                  - liouville_coordinate(p, zz - eps)) / (2 * eps)
            expect = math.sqrt(1.0 + 0.3 * math.sin(zz))
            assert fd == pytest.approx(expect, rel=1e-6)

    def test_rejects_nonpositive_samples(self):
        z = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ProfileValidityError):
            LineProfile.sampled_table(z, np.linspace(1.0, -0.1, 11),
                                      np.ones_like(z))


class TestTravelTime:
    def test_uniform(self):
        assert travel_time(LineProfile.uniform(1.0, 1.0, 1.5)) == \
            pytest.approx(1.5, abs=1e-12)

    def test_uniform_scaled(self):
        assert travel_time(LineProfile.uniform(0.25, 1.0, 2.0)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_linear_inductance(self):
        z = np.linspace(0.0, 1.0, 2001)
        p = LineProfile.sampled_table(z, 1.0 + z, np.ones_like(z))
        expect = (2.0 / 3.0) * (2.0 * math.sqrt(2.0) - 1.0)
        assert travel_time(p) == pytest.approx(expect, abs=1e-8)

    def test_infinite_rejected(self):
        with pytest.raises(DomainError):
            travel_time(LineProfile.uniform(1.0, 1.0))


class TestPotentialFromProfile:
    def test_uniform_zero(self):
        V = potential_from_profile(LineProfile.uniform(2.0, 0.5, 3.0))
        xs = np.linspace(-1.0, 4.0, 50)
        assert np.all(V(xs) == 0.0)
        assert V.l1_norm == 0.0

    def test_exponential_taper_constant(self):
        V = potential_from_profile(LineProfile.exponential_taper(0.3, 2.0))
        xs = np.linspace(0.0, 2.0, 41)
        assert np.max(np.abs(V(xs) - 0.09)) < 1e-9
        assert V.l1_norm == pytest.approx(0.18, rel=1e-9)

    def test_table_matches_symbolic_second_derivative(self):
        # A(x) = 1 + 0.1 exp(-(x-1)^2); A''(1) = -0.2 so V(1) = -0.2/1.1
        a_fn = lambda x: 1.0 + 0.1 * np.exp(-(x - 1.0) ** 2)
        p = table_profile_for_A(a_fn, 2.0, 4001)
        V = potential_from_profile(p, grid_step=5e-4)
        assert float(V(1.0)) == pytest.approx(-0.2 / 1.1, abs=1e-6)

    def test_table_too_coarse(self):
        z = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ResolutionError):
            LineProfile.sampled_table(z, np.ones(4), np.ones(4))

    def test_truncation_drops_at_most_tail_tol(self):
        # a Gaussian whose tail falls below TAIL_TOL well before the support
        # ends, so the truncation point lies inside it
        gauss = lambda x: np.exp(-((np.asarray(x, float) - 1.0) / 0.15) ** 2)
        V = potential_from_profile(LineProfile.direct(gauss, 3.0))
        assert 1.0 < V.truncation < V.support_end
        tail, _ = integrate.quad(lambda x: abs(float(V(x))), V.truncation,
                                 V.support_end, limit=200)
        assert tail <= line_model.TAIL_TOL

    def test_smooth_table_builds_without_warnings(self):
        # ||V||_L1 comes from the tail grid, so no adaptive quadrature can
        # warn about roundoff on a smooth spline potential
        z = np.linspace(0.0, 1.3, 201)
        p = LineProfile.sampled_table(z, 1.0 + 0.3 * np.sin(2.0 * z) ** 2,
                                      1.0 + 0.2 * z * (1.3 - z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V = potential_from_profile(p)
        assert V.l1_norm > 0.0


class TestTerminalH:
    def test_uniform(self):
        assert branch_geometry(LineProfile.uniform(1.0, 3.0, 1.0)).h == 0.0

    def test_exponential(self):
        assert branch_geometry(LineProfile.exponential_taper(0.3, 2.0)).h \
            == pytest.approx(0.3, abs=1e-12)

    def test_linear_A(self):
        # A(x) = 1 + 0.1 x on [0,2]: h = 0.1/1.2
        p = table_profile_for_A(lambda x: 1.0 + 0.1 * x, 2.0, 2001)
        assert branch_geometry(p).h == pytest.approx(0.1 / 1.2, abs=1e-6)


class TestBranchGeometry:
    def test_uniform_a0(self):
        g = branch_geometry(LineProfile.uniform(1.0, 16.0))
        assert g.A0 == pytest.approx(2.0)
        assert g.A0prime == 0.0
        assert g.tau is None

    def test_taper_geometry(self):
        g = branch_geometry(LineProfile.exponential_taper(0.3, 2.0, scale=1.5))
        assert g.A0 == pytest.approx(1.5)
        assert g.A0prime == pytest.approx(0.45)
        assert g.tau == pytest.approx(2.0)
        assert g.h == pytest.approx(0.3)

    def test_table_tau_equals_travel_time(self):
        # one x(z) serves both: a coarse table must not give two taus
        z = np.linspace(0.0, 1.0, 11)
        p = LineProfile.sampled_table(z, 1.0 + z, np.ones_like(z))
        assert branch_geometry(p).tau == travel_time(p)
        assert liouville_coordinate(p, 1.0) == travel_time(p)

    def test_table_with_negative_interpolated_slowness_rejected(self):
        # all samples positive, but the spline of sqrt(LC) dips below zero
        z = np.linspace(0.0, 1.0, 6)
        p = LineProfile.sampled_table(z, [1.0, 1e-4, 1.0, 1e-4, 1.0, 1.0],
                                      np.ones(6))
        for fn in (branch_geometry, travel_time,
                   lambda q: liouville_coordinate(q, 0.5)):
            with pytest.raises(ProfileValidityError):
                fn(p)

    def test_table_with_slowness_constant_to_rounding_accepted(self):
        # sqrt(LC) samples are 1 or 1 + 2^-52, so the spline's pieces carry
        # cubic coefficients near 1e-231 that must not read as sign changes
        p = table_profile_for_A(
            lambda z: 1.0 + 0.05 * np.exp(-((z - 1.0) / 0.15) ** 2), 3.0, 3001)
        assert branch_geometry(p).tau == pytest.approx(3.0, rel=1e-12)
        assert potential_from_profile(p).truncation == pytest.approx(3.0)


class TestVoltageFromField:
    def test_identity(self):
        assert voltage_from_field(1.0 + 0.0j, 1.0) == 1.0 + 0.0j

    def test_scaled(self):
        assert voltage_from_field(2.0j, 2.0) == 1.0j

    @given(re=st.floats(-1e6, 1e6), im=st.floats(-1e6, 1e6),
           A=st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, re, im, A):
        U = complex(re, im)
        assert voltage_from_field(A * U, A) == pytest.approx(U, abs=1e-9)

    def test_rejects_nonpositive_A(self):
        with pytest.raises(ProfileValidityError):
            voltage_from_field(1.0, 0.0)


def test_read_table_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("z,L\n0.0,1.0\n0.5,1.25\n1.0,2e0\n")
    z, v = read_table_csv(path)
    assert np.allclose(z, [0.0, 0.5, 1.0])
    assert np.allclose(v, [1.0, 1.25, 2.0])


def test_read_table_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,V\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProfileValidityError, match="no data rows"):
            read_table_csv(path)


# (x0, x_end) of the x,V tables behind direct potentials: starting at the
# node, inside the branch, and before it
TABLE_WINDOWS = ((0.0, 0.9), (0.25, 1.1), (-0.2, 0.7))


@pytest.fixture(scope="module")
def table_potentials(tmp_path_factory):
    """config's table potential of 0.4 sin^2 over each window's rows."""
    out = []
    for i, (x0, x_end) in enumerate(TABLE_WINDOWS):
        x = np.linspace(x0, x_end, 61)
        path = tmp_path_factory.mktemp("tables") / f"V{i}.csv"
        np.savetxt(path, np.column_stack(
            [x, 0.4 * np.sin(np.pi * (x - x0) / (x_end - x0)) ** 2 + 0.1]),
            delimiter=",", header="x,V", comments="", fmt="%.17g")
        out.append(config._spline_potential(path, f"V{i}")[0])
    return out


def double_clip(spline, x0, x_end, support_end):
    """V as composed before the single mask: the table's own mask over
    [x0, x_end], called inside the branch's mask over [0, support_end]."""
    def table(xx):
        xx = np.asarray(xx, dtype=float)
        inside = (xx >= x0) & (xx <= x_end)
        return np.where(inside, spline(np.clip(xx, x0, x_end)), 0.0)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= support_end)
        out = np.where(inside, table(np.clip(x, 0.0, support_end)), 0.0)
        return out if out.ndim else float(out)

    return evaluator


@given(which=st.integers(0, len(TABLE_WINDOWS) - 1),
       support_end=st.one_of(st.floats(0.05, 1.5),
                             st.sampled_from([0.7, 0.9, 1.1])),
       xs=st.lists(st.floats(-0.5, 2.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_single_mask_matches_double_clip(table_potentials, which,
                                         support_end, xs):
    table = table_potentials[which]
    V = potential_from_profile(LineProfile.direct(table, support_end))
    want = double_clip(table.spline, table.x0, table.x_end, support_end)
    edges = [table.x0, table.x_end, 0.0, -0.0, support_end,
             np.nextafter(table.x_end, 2.0), np.nextafter(support_end, 2.0)]
    for x in xs + edges:
        for arg in (float(x), np.float64(x)):
            got, ref = V(arg), want(arg)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    arr = np.array(xs + edges)
    for arg in (arr, arr.reshape(-1, 1)):
        got = V(arg)
        assert got.shape == arg.shape
        assert got.tobytes() == want(arg).tobytes()


class CountingNumpy:
    """Stands in for a module's ``np`` and records each attribute used."""

    def __init__(self):
        self.used = []

    def __getattr__(self, name):
        self.used.append(name)
        return getattr(np, name)


def test_scalar_table_potential_is_one_spline_call(tmp_path, monkeypatch):
    calls = []

    class CountedSpline(config.CubicSpline):
        def __call__(self, x, *args, **kwargs):
            calls.append(np.ndim(x))
            return super().__call__(x, *args, **kwargs)

    monkeypatch.setattr(config, "CubicSpline", CountedSpline)
    path = tmp_path / "V.csv"
    x = np.linspace(0.0, 0.6, 41)
    np.savetxt(path, np.column_stack([x, np.sin(5.0 * x) ** 2]),
               delimiter=",", header="x,V", comments="", fmt="%.17g")
    table, _ = config._spline_potential(path, "V")
    V = potential_from_profile(LineProfile.direct(table, 0.5))
    counting = CountingNumpy()
    monkeypatch.setattr(line_model, "np", counting)
    for arg, calls_made in ((0.3, 1), (np.float64(0.45), 1), (0.55, 0),
                            (-0.1, 0)):
        calls.clear()
        V(arg)
        assert calls == [0] * calls_made
    assert counting.used == []
