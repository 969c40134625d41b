"""Shared builders for the test suite.

Networks are mostly assembled from DirectPotential profiles so that tests
control V, tau and h exactly, without table-differentiation noise.
"""
import json
import math

import numpy as np
import pytest

from starscatter import propagate
from starscatter.config import load_network
from starscatter.line_model import LineProfile
from starscatter.scattering import StarNetwork


def zero_potential(x):
    x = np.asarray(x, dtype=float)
    return np.zeros_like(x)


def square_well(v0, width):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= width), v0, 0.0)
    return fn


def sin2_bump(amplitude, width):
    """C^1 compact bump a*sin^2(pi x / w) on [0, w]; integral = a*w/2."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= width)
        return np.where(inside, amplitude * np.sin(np.pi * x / width) ** 2, 0.0)
    return fn


def write_sin2_table(path, amplitude, width, rows=161):
    """x,V table of amplitude * sin^2(pi x / width) on [0, width]."""
    x = np.linspace(0.0, width, rows)
    v = amplitude * np.sin(np.pi * x / width) ** 2
    np.savetxt(path, np.column_stack([x, v]), delimiter=",", header="x,V",
               comments="", fmt="%.17g")


def uniform_network(m, taus=()):
    """All-uniform star: V=0 everywhere, h=0, unit A0."""
    profs = [LineProfile.uniform(1.0, 1.0) for _ in range(m)]
    for tau in taus:
        profs.append(LineProfile.uniform(1.0, 1.0, length=tau))
    return StarNetwork(profs)


def direct_network(infinite_pots, finite_specs):
    """Star from direct data.

    infinite_pots: list of (potential_fn, support_end)
    finite_specs:  list of (potential_fn, support_end, tau, h)
    """
    profs = []
    for fn, supp in infinite_pots:
        profs.append(LineProfile.direct(fn, supp))
    for fn, supp, tau, h in finite_specs:
        profs.append(LineProfile.direct(fn, supp, tau=tau, h=h))
    return StarNetwork(profs)


def random_smooth_network(rng, m_max=4, n_max=3, l1_cap=1.0):
    """Randomized star with C^1 bump potentials, ||V||_L1 <= l1_cap each."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(0, n_max + 1))
    if m + n < 2:
        n = 1
    infinite = []
    for _ in range(m):
        w = float(rng.uniform(0.4, 1.0))
        a = float(rng.uniform(-1.0, 1.0)) * l1_cap * 2.0 / w
        infinite.append((sin2_bump(a, w), w))
    finite = []
    for _ in range(n):
        tau = float(rng.uniform(0.6, 2.0))
        w = float(rng.uniform(0.3, tau))
        a = float(rng.uniform(-1.0, 1.0)) * l1_cap * 2.0 / w
        h = float(rng.uniform(-0.5, 0.5))
        finite.append((sin2_bump(a, w), w, tau, h))
    return direct_network(infinite, finite)


class CountingNumpy:
    """Stands in for a module's ``np`` and records each attribute used."""

    def __init__(self):
        self.used = []

    def __getattr__(self, name):
        self.used.append(name)
        return getattr(np, name)


def jost_ab(V, k, engine=propagate.sweep):
    """Half-line transfer data a(k), b(k) over an array k: ftilde, with
    ftilde(0) = 1 and ftilde'(0) = -ik, propagated to X = V.truncation by
    ``engine`` and matched to a e^{-ikX} + b e^{ikX}.  The engine is
    ``propagate.sweep``, the transfer matrix that ``jost.jost_batch`` takes
    f from, or its RK45 twin ``jost.rk45_sweep``."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    X = V.truncation
    ik = 1j * k
    ft, dft = engine(V, 0.0, X, k, 1.0, -ik)
    eikX = np.exp(ik * X)
    a = eikX * (ik * ft - dft) / (2j * k)
    b = (ik * ft + dft) / (2j * k * eikX)
    return a, b


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


def closed_form_r1(m, taus, k):
    """Hand-derived uniform-network reflection (chain-rule sign)."""
    S = sum(math.tan(k * tau) for tau in taus)
    return (-(m - 2) + 1j * S) / (m - 1j * S)


def fake_singular_stub(monkeypatch, hit):
    """Make the node equation's denominator D vanish where hit(k) is true,
    on a star of two V = 0 lines and one stub.

    The stub's node data become (1, -2ik), whose log-derivative cancels the
    lines' ik + ik.  Im D > 0 for real potentials, so only faked data give
    D = 0.
    """
    real_sweep = propagate.sweep

    def sweep(V, x_from, x_to, k, y, dy):
        u, du = real_sweep(V, x_from, x_to, k, y, dy)
        k = np.asarray(k, dtype=float)
        fake = hit(k)
        return np.where(fake, 1.0, u), np.where(fake, -2j * k, du)

    monkeypatch.setattr(propagate, "sweep", sweep)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
