"""Profile ingestion and the reduction to Schrodinger form."""
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, interpolate

from starscatter import config, line_model
from starscatter.errors import DomainError, ProfileValidityError, \
    ResolutionError
from starscatter.line_model import LineProfile, liouville_coordinate, \
    read_table_csv, travel_time
from starscatter.scattering import StarNetwork

from conftest import CountingNumpy


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

    @pytest.mark.parametrize("n", [5, 40, 201, 2001])
    def test_matches_scipy_antiderivative(self, n):
        # x(z) sums each piece's integral by cumsum, where scipy adds the
        # piece's terms to the running value one by one
        rng = np.random.default_rng(n)
        z = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
        L, C = 1.0 + 0.3 * np.sin(z) ** 2, 1.0 + 0.2 * np.cos(3.0 * z) ** 2
        p = LineProfile.sampled_table(z, L, C)
        zq = np.concatenate([z, rng.uniform(0.0, 1.1 * z[-1], 300)])
        s_end = math.sqrt(L[-1] * C[-1])
        ref = (interpolate.CubicSpline(z, np.sqrt(L * C)).antiderivative()(
            np.minimum(zq, z[-1])) + s_end * np.maximum(zq - z[-1], 0.0))
        assert np.max(np.abs(p.x_of_z(zq) - ref)) <= 64 * np.spacing(ref[-1])

    @pytest.mark.parametrize("dip", [0.02, 0.05])
    def test_rejects_slowness_spline_below_zero_between_rows(self, dip):
        # every row is positive, but the slowness spline dips below 0
        # between them, where its slope is 0
        s = np.array([1.0, dip, 1.0, dip, 1.0, 1.0])
        assert interpolate.CubicSpline(np.arange(6.0), s)(
            np.linspace(0.0, 5.0, 501)).min() < 0
        with pytest.raises(ProfileValidityError, match="non-positive"):
            LineProfile.sampled_table(np.arange(6.0), s, s)
        # lifted, the same shape passes
        LineProfile.sampled_table(np.arange(6.0), s + 0.2, s + 0.2)


def spline_tables():
    """(x, y) tables: a uniform grid as the configs' tables have, an
    irregular one on which LAPACK's gtsv swaps rows, and four rows."""
    rng = np.random.default_rng(26)
    x = np.linspace(-0.4, 2.9, 161)
    irregular = np.cumsum(rng.uniform(0.05, 1.0, 60))
    return {"uniform": (x, np.sin(3.0 * x)),
            "irregular": (irregular, rng.normal(size=60)),
            "four-rows": (np.array([0.0, 0.3, 1.1, 1.5]),
                          np.array([1.0, -0.5, 2.0, 0.25]))}


class TestScipyReference:
    """The numpy spline and quadratures against scipy's, their reference."""

    @pytest.mark.parametrize("table", sorted(spline_tables()))
    @pytest.mark.parametrize("bc_type", ["not-a-knot", "natural"])
    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_spline_matches_scipy(self, table, bc_type, nu):
        x, y = spline_tables()[table]
        rng = np.random.default_rng(nu)
        xq = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 400)])
        got = line_model.CubicSpline(x, y, bc_type=bc_type)(xq, nu)
        ref = interpolate.CubicSpline(x, y, bc_type=bc_type)(xq, nu)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 4 * np.spacing(np.abs(ref).max())

    def test_spline_of_a_scalar_is_a_0d_array(self):
        x, y = spline_tables()["uniform"]
        got = line_model.CubicSpline(x, y)(0.7)
        assert got.shape == () and got == line_model.CubicSpline(x, y)(
            np.array([0.7]))[0]

    @pytest.mark.parametrize("x, y, bc_type, message", [
        ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], "natural", ">= 4 rows"),
        ([0.0, 1.0, 2.0, math.nan], [1.0] * 4, "natural", "finite"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, math.inf, 0.0, 1.0], "natural",
         "finite"),
        ([0.0, 1.0, 1.0, 3.0], [1.0] * 4, "natural", "increasing"),
        ([0.0, 1.0, 2.0, 3.0], [1.0] * 4, "clamped", "not supported"),
        ([0.0, 1.0, 2.0, 1e308], [1.0, 2.0, 3.0, 4.0], "not-a-knot",
         "slopes must be finite")])
    def test_spline_refusals_are_value_errors(self, x, y, bc_type, message):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                line_model.CubicSpline(x, y, bc_type=bc_type)

    @pytest.mark.parametrize("n", [17, 18, 161, 1300, 1301])
    @pytest.mark.parametrize("spacing", ["uniform", "irregular"])
    def test_quadratures_are_scipy_to_the_bit(self, n, spacing):
        rng = np.random.default_rng(n)
        x = (np.linspace(0.0, 1.3, n) if spacing == "uniform"
             else np.cumsum(rng.uniform(0.1, 1.0, n)))
        y = np.abs(rng.normal(size=n))
        np.testing.assert_array_equal(
            line_model.cumulative_trapezoid(y, x),
            integrate.cumulative_trapezoid(y, x, initial=0.0))
        assert (np.float64(line_model.simpson(y, x)).tobytes()
                == np.float64(integrate.simpson(y, x=x)).tobytes())


BAD = (math.nan, math.inf, -math.inf)


class TestConstructorsRejectNonFinite:
    """NaN passes every ``<= 0`` test; each constructor rejects it (and
    infinities) before it can reach the solver."""

    @pytest.mark.parametrize("bad", BAD)
    def test_uniform(self, bad):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ProfileValidityError, match="finite"):
                LineProfile.uniform(*args, length=1.0)
        with pytest.raises(ProfileValidityError, match="NaN"):
            LineProfile.uniform(1.0, 1.0, length=math.nan)

    @pytest.mark.parametrize("bad", BAD)
    def test_exponential_taper(self, bad):
        for kwargs in ({"gamma": bad}, {"slowness": bad}, {"scale": bad}):
            kwargs = {"gamma": 0.3, **kwargs}
            with pytest.raises(ProfileValidityError, match="finite"):
                LineProfile.exponential_taper(length=1.0, **kwargs)

    @pytest.mark.parametrize("bad", BAD)
    def test_sampled_table(self, bad):
        for column in range(3):
            table = [np.linspace(0.0, 1.0, 11), np.ones(11), np.ones(11)]
            table[column][4] = bad
            with pytest.raises(ProfileValidityError, match="finite"):
                LineProfile.sampled_table(*table)

    @pytest.mark.parametrize("bad", BAD)
    def test_direct(self, bad):
        good = {"support_end": 0.5, "A0": 1.0, "A0prime": 0.0, "tau": 1.0,
                "h": 0.1}
        for name in good:
            with pytest.raises(ProfileValidityError,
                               match=f"^{name} must be finite"):
                LineProfile.direct(sin2_table_potential(),
                                   **{**good, name: bad})


@pytest.mark.parametrize("length", [-1.0, 0.0, -math.inf])
def test_non_positive_length_rejected(length):
    # -inf would otherwise make an infinite uniform line
    message = re.escape(f"length must be > 0, got {length}")
    with pytest.raises(ProfileValidityError, match=message):
        LineProfile.uniform(1.0, 1.0, length=length)
    with pytest.raises(ProfileValidityError, match=message):
        LineProfile.exponential_taper(0.3, length)


@pytest.mark.parametrize("support_end", [-1.0, -1e-300])
@pytest.mark.parametrize("tau", [None, 1.0])
def test_negative_support_end_rejected(support_end, tau):
    # V is 0 past support_end, so a negative one would drop V silently
    message = re.escape(f"support_end must be >= 0, got {support_end}")
    with pytest.raises(ProfileValidityError, match=message):
        LineProfile.direct(sin2_table_potential(), support_end, tau=tau)
    # support_end = 0 states V = 0 on purpose
    V = LineProfile.direct(sin2_table_potential(), 0.0, tau=tau).potential
    assert (V.support_end, V.l1_norm) == (0.0, 0.0)


@pytest.mark.parametrize("x0, x_end, support_end", [
    (1.0, 2.0, 0.5), (0.5, 1.0, 0.5), (-1.0, 0.0, 0.7), (-1.0, 0.0, 0.0)])
def test_table_outside_its_window_rejected(x0, x_end, support_end):
    # the table and [0, support_end] share at most a point, so V would be
    # 0; support_end = 0 says so on purpose only of a table past the node
    x = np.linspace(x0, x_end, 41)
    table = line_model.CubicSpline(x, 0.4 * np.sin(np.pi * (x - x0)) ** 2)
    message = re.escape(f"potential table on [{x0:.6g}, {x_end:.6g}]")
    with pytest.raises(ProfileValidityError, match=message):
        LineProfile.direct(table, support_end)


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

    def test_table_measured_from_first_row(self):
        z = np.linspace(0.5, 1.5, 11)
        p = LineProfile.sampled_table(z, np.ones(11), np.ones(11))
        assert p.length == 1.0
        assert travel_time(p) == 1.0
        assert liouville_coordinate(p, 0.2) == 0.2
        with pytest.raises(DomainError):
            liouville_coordinate(p, 1.2)

    def test_table_on_negative_z(self):
        z = np.linspace(-2.0, -1.0, 11)
        p = LineProfile.sampled_table(z, np.ones(11), np.ones(11))
        assert p.length == p.tau == travel_time(p) == 1.0
        assert liouville_coordinate(p, 1.0) == 1.0


class TestPotentialFromProfile:
    def test_uniform_zero(self):
        V = LineProfile.uniform(2.0, 0.5, 3.0).potential
        xs = np.linspace(-1.0, 4.0, 50)
        assert np.all(V(xs) == 0.0)
        assert V.l1_norm == 0.0

    def test_exponential_taper_constant(self):
        V = LineProfile.exponential_taper(0.3, 2.0).potential
        xs = np.linspace(0.0, 2.0, 41)
        assert np.max(np.abs(V(xs) - 0.09)) < 1e-9
        assert V.l1_norm == pytest.approx(0.18, rel=1e-9)

    def test_table_matches_symbolic_second_derivative(self):
        # A(x) = 1 + 0.1 exp(-(x-1)^2); A''(1) = -0.2 so V(1) = -0.2/1.1
        a_fn = lambda x: 1.0 + 0.1 * np.exp(-(x - 1.0) ** 2)
        p = table_profile_for_A(a_fn, 2.0, 4001)
        V = p.potential
        assert float(V(1.0)) == pytest.approx(-0.2 / 1.1, abs=1e-6)

    def test_table_too_coarse(self):
        z = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ResolutionError):
            LineProfile.sampled_table(z, np.ones(4), np.ones(4))

    def test_truncation_drops_at_most_tail_tol(self):
        # a Gaussian whose tail falls below TAIL_TOL well before the support
        # ends, so the truncation point lies inside it
        gauss = lambda x: np.exp(-((np.asarray(x, float) - 1.0) / 0.15) ** 2)
        V = LineProfile.direct(gauss, 3.0).potential
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
            V = p.potential
        assert V.l1_norm > 0.0


class TestTerminalH:
    def test_uniform(self):
        assert LineProfile.uniform(1.0, 3.0, 1.0).h == 0.0

    def test_exponential(self):
        assert LineProfile.exponential_taper(0.3, 2.0).h \
            == pytest.approx(0.3, abs=1e-12)

    def test_linear_A(self):
        # A(x) = 1 + 0.1 x on [0,2]: h = 0.1/1.2
        p = table_profile_for_A(lambda x: 1.0 + 0.1 * x, 2.0, 2001)
        assert p.h == pytest.approx(0.1 / 1.2, abs=1e-6)


class TestBranchGeometry:
    """The node data a LineProfile carries: A(0), A'(0), tau and h."""

    def test_uniform_a0(self):
        p = LineProfile.uniform(1.0, 16.0)
        assert p.A0 == pytest.approx(2.0)
        assert p.A0prime == 0.0
        assert p.tau is None

    def test_taper_geometry(self):
        p = LineProfile.exponential_taper(0.3, 2.0, scale=1.5)
        assert p.A0 == pytest.approx(1.5)
        assert p.A0prime == pytest.approx(0.45)
        assert p.tau == pytest.approx(2.0)
        assert p.h == pytest.approx(0.3)

    def test_table_tau_equals_travel_time(self):
        # one x(z) serves both: a coarse table must not give two taus
        z = np.linspace(0.0, 1.0, 11)
        p = LineProfile.sampled_table(z, 1.0 + z, np.ones_like(z))
        assert p.tau == travel_time(p)
        assert liouville_coordinate(p, 1.0) == travel_time(p)

    def test_table_with_negative_interpolated_slowness_rejected(self):
        # all samples positive, but the spline of sqrt(LC) dips below zero
        z = np.linspace(0.0, 1.0, 6)
        with pytest.raises(ProfileValidityError, match="slowness"):
            LineProfile.sampled_table(z, [1.0, 1e-4, 1.0, 1e-4, 1.0, 1.0],
                                      np.ones(6))

    def test_table_with_slowness_constant_to_rounding_accepted(self):
        # sqrt(LC) samples are 1 or 1 + 2^-52, so the spline's pieces carry
        # cubic coefficients near 1e-231 that must not read as sign changes
        p = table_profile_for_A(
            lambda z: 1.0 + 0.05 * np.exp(-((z - 1.0) / 0.15) ** 2), 3.0, 3001)
        assert p.tau == pytest.approx(3.0, rel=1e-12)
        assert p.potential.truncation == pytest.approx(3.0)

    # z to 1e308: the spline fit of sqrt(LC) overflows; L C = 1e600
    # overflows before it; on z to 4e154 with slowness 1e154 the fit holds
    # and x(z[-1]) = 4e308 overflows
    @pytest.mark.parametrize("z, lc", [
        ([0.0, 1.0, 2.0, 3.0, 1e308], 100.0),
        ([0.0, 1.0, 2.0, 3.0, 1e100], 1e300),
        ([0.0, 1e154, 2e154, 3e154, 4e154], 1e154)])
    def test_table_whose_travel_time_overflows_rejected(self, z, lc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProfileValidityError,
                               match=r"x\(z\) .* is not finite"):
                LineProfile.sampled_table(z, np.full(5, lc), np.full(5, lc))

    @pytest.mark.parametrize("ends", [{"tau": 1.0}, {"h": 0.1}])
    def test_tau_and_h_come_together(self, ends):
        with pytest.raises(ProfileValidityError, match="tau and h"):
            replace(LineProfile.uniform(1.0, 1.0), **ends)


def sampled_line(infinite=False):
    """A 201-row table on [0, 1.3] with L = 1 + 0.3 sin^2(2z) and
    C = 1 + 0.2 z (1.3 - z), so A(0) = 1."""
    z = np.linspace(0.0, 1.3, 201)
    return LineProfile.sampled_table(z, 1.0 + 0.3 * np.sin(2.0 * z) ** 2,
                                     1.0 + 0.2 * z * (1.3 - z),
                                     infinite=infinite)


def sin2_table_potential():
    x = np.linspace(0.0, 0.6, 161)
    return line_model.CubicSpline(x, 0.4 * np.sin(np.pi * x / 0.6) ** 2)


# one profile of each family, and both kinds where a family has both
FAMILY_PROFILES = {
    "uniform_finite": lambda: LineProfile.uniform(2.0, 0.5, 1.7),
    "uniform_infinite": lambda: LineProfile.uniform(0.3, 3.0),
    "taper": lambda: LineProfile.exponential_taper(0.3, 2.0, slowness=1.3,
                                                   scale=1.5),
    "table_finite": sampled_line,
    "table_infinite": lambda: sampled_line(infinite=True),
    "direct_table": lambda: LineProfile.direct(sin2_table_potential(), 0.5,
                                               tau=1.0, h=0.12),
    "direct_callable": lambda: LineProfile.direct(
        lambda x: np.exp(-((np.asarray(x, float) - 1.0) / 0.15) ** 2), 3.0,
        A0=1.2, A0prime=0.1),
}


@pytest.mark.parametrize("family", sorted(FAMILY_PROFILES))
def test_branch_model_is_both_halves(family):
    # V is zero off [0, support_end]; the profile carries (tau, h) exactly
    # when it is finite, which is how the kinds are told apart
    p = FAMILY_PROFILES[family]()
    V = p.potential
    xs = np.linspace(-0.5, 4.0, 901)
    assert not V(xs)[(xs < 0.0) | (xs > V.support_end)].any()
    assert 0.0 <= V.truncation <= V.support_end
    assert (p.tau is not None) == (p.h is not None) == p.is_finite
    if p.is_finite:
        assert p.tau == travel_time(p) == liouville_coordinate(p, p.length)


def test_network_build_fits_each_table_spline_once(monkeypatch):
    fits = []

    class CountedSpline(line_model.CubicSpline):
        def __init__(self, *args, **kwargs):
            fits.append(args[0].size)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(line_model, "CubicSpline", CountedSpline)
    StarNetwork([LineProfile.uniform(1.0, 1.0), sampled_line()])
    # the slowness on the rows, A on the rows, V on the GRID_STEP grid
    assert len(fits) == 3


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
    """config's table spline of 0.4 sin^2 over each window's rows."""
    out = []
    for i, (x0, x_end) in enumerate(TABLE_WINDOWS):
        x = np.linspace(x0, x_end, 61)
        path = tmp_path_factory.mktemp("tables") / f"V{i}.csv"
        np.savetxt(path, np.column_stack(
            [x, 0.4 * np.sin(np.pi * (x - x0) / (x_end - x0)) ** 2 + 0.1]),
            delimiter=",", header="x,V", comments="", fmt="%.17g")
        out.append(config._spline_potential(path, f"V{i}"))
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


@pytest.fixture(scope="module")
def sampled_v():
    """The sampled-table V spline of ``sampled_line`` and its knots, the
    GRID_STEP grid on [0, x_end]."""
    V = sampled_line().potential
    n = max(int(math.ceil(V.support_end / line_model.GRID_STEP)), 16)
    return V, np.linspace(0.0, V.support_end, n + 1).tolist()


def assert_float_path_is_array_path(V, points):
    """V at each point, given as a float or an np.float64, is a float and,
    to the bit, the array path's value there."""
    ref = V(np.array(points)).tolist()
    for x, want in zip(points, ref):
        for arg in (float(x), np.float64(x)):
            got = V(arg)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(which=st.integers(0, len(TABLE_WINDOWS) - 1),
       support_end=st.one_of(st.floats(0.05, 1.5),
                             st.sampled_from([0.7, 0.9, 1.1])),
       xs=st.lists(st.floats(-0.5, 2.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_single_mask_matches_double_clip(table_potentials, sampled_v, which,
                                         support_end, xs):
    table = table_potentials[which]
    x0, x_end = table.x[0], table.x[-1]
    if min(support_end, x_end) <= max(0.0, x0):
        # the table's window and [0, support_end] share at most a point
        with pytest.raises(ProfileValidityError, match="at most one point"):
            LineProfile.direct(table, support_end)
        return
    V = LineProfile.direct(table, support_end).potential
    want = double_clip(table, x0, x_end, support_end)
    edges = [x0, x_end, 0.0, -0.0, support_end,
             np.nextafter(x_end, 2.0), np.nextafter(support_end, 2.0)]
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
    # a float takes the numpy-free piece evaluation: the array path's value
    # to the bit on the table's knots and the cut, for the direct table and
    # for a sampled table's V spline
    assert_float_path_is_array_path(V, xs + edges + table.x.tolist())
    sampled, knots = sampled_v
    x_end = sampled.support_end
    assert_float_path_is_array_path(sampled, xs + knots + [
        -0.0, np.nextafter(0.0, -1.0), np.nextafter(x_end, 2.0),
        np.nextafter(x_end, 0.0)])


def test_scalar_table_potential_makes_no_spline_or_numpy_call(tmp_path,
                                                              monkeypatch):
    calls = []

    class CountedSpline(line_model.CubicSpline):
        def __call__(self, x, *args, **kwargs):
            calls.append(np.ndim(x))
            return super().__call__(x, *args, **kwargs)

    monkeypatch.setattr(line_model, "CubicSpline", CountedSpline)
    path = tmp_path / "V.csv"
    x = np.linspace(0.0, 0.6, 41)
    np.savetxt(path, np.column_stack([x, np.sin(5.0 * x) ** 2]),
               delimiter=",", header="x,V", comments="", fmt="%.17g")
    table = config._spline_potential(path, "V")
    potentials = (LineProfile.direct(table, 0.5).potential,
                  sampled_line().potential)
    calls.clear()
    counting = CountingNumpy()
    monkeypatch.setattr(line_model, "np", counting)
    for V in potentials:
        for arg in (0.3, np.float64(0.45), 0.0, 0.5, 0.55, -0.1):
            assert type(V(arg)) is float
    assert calls == [] and counting.used == []
    # the array path still calls the spline, so the counter is live
    potentials[0](np.array([0.3]))
    assert calls == [1]
