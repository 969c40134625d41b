"""Jost solutions and half-line scattering data a(k), b(k).

f(x,k) is the solution of y'' = (V - k^2) y that tends to e^{ikx} at
infinity; ftilde is the solution with ftilde(0) = 1, ftilde'(0) = -ik, whose
far field a e^{-ikx} + b e^{ikx} carries the half-line transfer data.  (The
-ik initial slope is what the integral equation for ftilde implies.)

``jost_batch`` is the route the network solver uses: one vectorized
transfer-matrix pass per branch gives (f0, df0).  An adaptive RK45
integration of the ODE form (``jost_at_origin``, ``jost_profile``) checks
it; ``validate`` and the tests use it, and it stays stable at high k.
``jost_at_origin`` answers an array of k with arrays, as ``jost_batch``
does.  On V = 0 the batch and RK45 routes return e^{ikx} and e^{-ikx}
exactly.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from . import propagate
from .errors import AccuracyError, SingularFrequencyError
from .line_model import PotentialFn

RTOL = 1e-9
ATOL = 1e-12


def _rk45(V, k, t_span, u0, t_eval=None, max_step=np.inf):
    """Adaptive RK45 for y'' = (V(x) - k^2) y from (y, y') = u0 at
    t_span[0], in steps of at most max_step and, for k != 0, of
    1/STEPS_PER_WAVELENGTH of a wavelength.  Returns the rows (y, y') at
    t_eval, or at the solver's own steps (the endpoint last) without it.

    k may also be a 1-D sequence of n frequencies, integrated as one system
    of 2n components: u0 and the rows are then (y_1..y_n, y'_1..y'_n), and
    the step cap comes from max |k|."""
    ks = [float(q) for q in np.atleast_1d(k)]
    k_top = max(map(abs, ks))
    if k_top != 0:
        max_step = min(max_step, (2.0 * np.pi / k_top)
                       / propagate.STEPS_PER_WAVELENGTH)
    n, k2 = len(ks), [q * q for q in ks]

    def rhs(x, u):
        v = V(x)
        y = u.tolist()
        return y[n:] + [(v - q2) * yj for q2, yj in zip(k2, y)]

    sol = solve_ivp(rhs, t_span, u0, method="RK45", rtol=RTOL, atol=ATOL,
                    max_step=max_step, t_eval=t_eval)
    if not sol.success:
        raise AccuracyError(
            f"RK45 failed on [{t_span[0]}, {t_span[1]}]: {sol.message}")
    return sol.y


def jost_at_origin(V: PotentialFn, k):
    """(f0, df0, a, b): f(0,k), f'(0,k) and a(k), b(k) for one half-line
    potential, four complex arrays over ``np.atleast_1d(k)``.

    f is integrated backwards from the truncation point with exact free
    data and ftilde forwards from the node, then matched to plane waves;
    each is one RK45 system over all k.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k == 0):
        raise SingularFrequencyError("Jost data is singular at k = 0")
    X = V.truncation
    ik = 1j * k
    if X == 0.0:
        one = np.ones(k.size, dtype=complex)
        return one, ik, one.copy(), np.zeros_like(one)
    eikX = np.exp(ik * X)
    f0, df0 = _rk45(V, k, (X, 0.0),
                    np.r_[eikX, ik * eikX])[:, -1].reshape(2, -1)
    ft, dft = _rk45(V, k, (0.0, X),
                    np.r_[np.ones(k.size), -ik])[:, -1].reshape(2, -1)
    a = eikX * (ik * ft - dft) / (2j * k)
    b = (ik * ft + dft) / (2j * k * eikX)
    return f0, df0, a, b


def jost_profile(V: PotentialFn, k: float, xs):
    """f and f' sampled on xs (ascending, within [0, X])."""
    if k == 0:
        raise SingularFrequencyError("Jost data is singular at k = 0")
    xs = np.asarray(xs, dtype=float)
    if V.support_end <= 0.0:
        f = np.exp(1j * k * xs)
        return f, 1j * k * f
    X = max(V.truncation, float(xs[-1]))
    eikX = np.exp(1j * k * X)
    f, df = _rk45(V, k, (X, 0.0), [eikX, 1j * k * eikX], t_eval=xs[::-1])
    return f[::-1], df[::-1]


def jost_tilde_profile(V: PotentialFn, k: float, xs):
    """ftilde and ftilde' sampled on xs (ascending, starting at 0)."""
    if k == 0:
        raise SingularFrequencyError("Jost data is singular at k = 0")
    xs = np.asarray(xs, dtype=float)
    if V.support_end <= 0.0:
        ft = np.exp(-1j * k * xs)
        return ft, -1j * k * ft
    return tuple(_rk45(V, k, (0.0, float(xs[-1]) or 1e-9),
                       [1.0 + 0.0j, -1j * k], t_eval=xs))


def jost_batch(V: PotentialFn, k):
    """Vectorized (f0, df0, X) over an array of frequencies, X the
    truncation point.

    One real transfer matrix over [0, X] gives f; cross-validated against
    ``jost_at_origin`` in the test suite.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k == 0):
        raise SingularFrequencyError("Jost data is singular at k = 0")
    X = V.truncation
    # f(0) = M^-1 f(X) with M the transfer matrix over [0, X] and
    # M^-1 = [[m22, -m12], [-m21, m11]] because det M = 1; on V = 0, X = 0
    # and M is the identity
    m11, m12, m21, m22 = propagate.transfer_matrix(V, 0.0, X, k)
    ik = 1j * k
    eikX = np.exp(ik * X)
    f0 = (m22 - m12 * ik) * eikX
    df0 = (m11 * ik - m21) * eikX
    return f0, df0, X

