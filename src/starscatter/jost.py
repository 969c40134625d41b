"""Jost solutions f at the node, by transfer matrix and by adaptive RK45.

f solves y'' = (V - k^2) y and equals e^{ikx} past X = ``V.truncation``,
where V is taken as 0.  ``jost_batch``, the route the network solver uses,
takes (f0, df0) from one transfer matrix over [0, X].  ``rk45_sweep`` is
the RK45 twin of ``propagate.sweep``, with its arguments and its (y, y')
arrays over k, and each RK45 reference is one call of it: ``jost_at_origin``
gives the same (f0, df0) as ``jost_batch``, and ``jost_profile`` and
``jost_tilde_profile`` sample f and ftilde (ftilde(0) = 1, ftilde'(0) =
-ik) for ``validate`` and the tests.  On V = 0 ``rk45_sweep`` returns the
free solution in closed form.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from . import propagate
from .errors import AccuracyError, SingularFrequencyError
from .line_model import PotentialFn

RTOL = 1e-9
ATOL = 1e-12


def rk45_sweep(V: PotentialFn, x_from: float, x_to: float, k, y, dy,
               xs=None):
    """Propagate (y, y') of y'' = (V(x) - k^2) y from x_from to x_to by
    adaptive RK45; k, y, dy broadcast together as in ``propagate.sweep``.

    Returns the endpoint pair (y, y') as complex arrays over k, or, given
    ascending xs between x_from and x_to, the pair sampled there as two
    [len(xs), nk] arrays.  All k form one system of 2 nk components, in
    steps of at most the span and 1/STEPS_PER_WAVELENGTH of the shortest
    wavelength.  On V = 0 (``support_end <= 0``), or on an empty span, the
    free solution is returned in closed form with no integration.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=complex), k.shape)
    dy = np.broadcast_to(np.asarray(dy, dtype=complex), k.shape)
    at = np.atleast_1d(np.asarray(x_to if xs is None else xs, dtype=float))
    if V.support_end <= 0.0 or x_from == x_to:
        d = at[:, None] - x_from
        kd = k * d
        c, s = np.cos(kd), np.sin(kd)
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0
            sinc = np.where(k == 0.0, d, s / k)
        rows = (c * y + sinc * dy, -k * s * y + c * dy)
    else:
        k_top = float(np.max(np.abs(k)))
        max_step = abs(x_to - x_from)
        if k_top != 0:
            max_step = min(max_step, (2.0 * np.pi / k_top)
                           / propagate.STEPS_PER_WAVELENGTH)
        n, k2 = k.size, (k * k).tolist()

        def rhs(x, u):
            v = V(x)
            u = u.tolist()
            return u[n:] + [(v - q2) * uj for q2, uj in zip(k2, u)]

        backward = x_to < x_from
        t_eval = None if xs is None else at[::-1] if backward else at
        sol = solve_ivp(rhs, (x_from, x_to), np.r_[y, dy], method="RK45",
                        rtol=RTOL, atol=ATOL, max_step=max_step,
                        t_eval=t_eval)
        if not sol.success:
            raise AccuracyError(
                f"RK45 failed on [{x_from}, {x_to}]: {sol.message}")
        rows = sol.y.reshape(2, n, -1).transpose(0, 2, 1)
        if xs is not None and backward:
            rows = rows[:, ::-1]
    return (rows[0][-1], rows[1][-1]) if xs is None else tuple(rows)


def _check_k(k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k == 0):
        raise SingularFrequencyError("Jost data is singular at k = 0")
    return k


def jost_at_origin(V: PotentialFn, k):
    """(f0, df0) = (f(0,k), f'(0,k)) by RK45, two complex arrays over
    ``np.atleast_1d(k)``, as ``jost_batch`` returns them: the plane wave at
    X = ``V.truncation`` propagated back to 0 as one system for all k."""
    k = _check_k(k)
    X = V.truncation
    eikX = np.exp(1j * k * X)
    return rk45_sweep(V, X, 0.0, k, eikX, 1j * k * eikX)


def jost_profile(V: PotentialFn, k: float, xs):
    """f and f' sampled on xs (ascending, from 0), by RK45 from
    max(X, xs[-1]) back to 0."""
    k = _check_k(k)
    X = max(V.truncation, float(xs[-1]))
    eikX = np.exp(1j * k * X)
    f, df = rk45_sweep(V, X, 0.0, k, eikX, 1j * k * eikX, xs)
    return f[:, 0], df[:, 0]


def jost_tilde_profile(V: PotentialFn, k: float, xs):
    """ftilde and ftilde' sampled on xs (ascending, from 0), by RK45 from
    (1, -ik) at 0."""
    k = _check_k(k)
    ft, dft = rk45_sweep(V, 0.0, float(xs[-1]), k, 1.0, -1j * k, xs)
    return ft[:, 0], dft[:, 0]


def jost_batch(V: PotentialFn, k):
    """(f0, df0) over an array of frequencies, from one real transfer
    matrix over [0, X]; cross-validated against ``jost_at_origin`` in the
    test suite.
    """
    k = _check_k(k)
    X = V.truncation
    # f(0) = M^-1 f(X) with M the transfer matrix over [0, X] and
    # M^-1 = [[m22, -m12], [-m21, m11]] because det M = 1; on V = 0, X = 0
    # and M is the identity
    m11, m12, m21, m22 = propagate.transfer_matrix(V, 0.0, X, k)
    ik = 1j * k
    eikX = np.exp(ik * X)
    f0 = (m22 - m12 * ik) * eikX
    df0 = (m11 * ik - m21) * eikX
    return f0, df0
