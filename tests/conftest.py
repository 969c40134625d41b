"""Shared builders for the test suite.

Networks are mostly assembled from DirectPotential profiles so that tests
control V, tau and h exactly, without table-differentiation noise.
"""
import math

import numpy as np
import pytest

from starscatter import propagate
from starscatter.line_model import LineProfile
from starscatter.scattering import network_from_profiles


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
    profs = [("infinite", LineProfile.uniform(1.0, 1.0))
             for _ in range(m)]
    for tau in taus:
        profs.append(("finite", LineProfile.uniform(1.0, 1.0, length=tau)))
    return network_from_profiles(profs)


def direct_network(infinite_pots, finite_specs):
    """Star from direct data.

    infinite_pots: list of (potential_fn, support_end)
    finite_specs:  list of (potential_fn, support_end, tau, h)
    """
    profs = []
    for fn, supp in infinite_pots:
        profs.append(("infinite", LineProfile.direct(fn, supp)))
    for fn, supp, tau, h in finite_specs:
        profs.append(("finite", LineProfile.direct(fn, supp, tau=tau, h=h)))
    return network_from_profiles(profs)


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
