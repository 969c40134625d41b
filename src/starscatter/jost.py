"""Jost solutions f at the node, by transfer matrix and by adaptive RK45.

f solves y'' = (V - k^2) y and equals e^{ikx} past X = ``V.truncation``,
where V is taken as 0, so its node pair (f0, df0) is the plane wave's
(e^{ikX}, ik e^{ikX}) propagated back from X to 0, with no inverse
matrix.  ``jost_leg`` gives that leg, (V, X, 0, e^{ikX}, ik e^{ikX}),
and every Jost route runs it: the network solver as one leg of its
star's sweep, block by block (``scattering.branch_leg``),
``jost_batch`` on its own as the one-leg ``propagate.sweep``, and
``jost_at_origin`` on ``rk45_sweep``, the RK45 twin of
``propagate.sweep`` with its arguments and its (y, y') arrays over k.
``jost_profile`` samples f for the tests, one ``rk45_sweep`` call from X
to each x.  On V = 0 ``rk45_sweep`` returns the free solution in closed
form.

The RK45 engine is ``_dp45``, the Dormand-Prince 5(4) pair (J. Comput.
Appl. Math. 6, 19-26, 1980) with the step control of Hairer, Norsett and
Wanner (Solving ODEs I, sec. II.4) as scipy's ``RK45`` implements it: the
same initial step, safety factor, step bounds and RMS error norm, so it
takes scipy's steps.  It runs on Python lists of complex, with its seven
stages written out: for the one k each caller in the package passes, a
step costs less than half of ``solve_ivp``'s, but the lists make the cost
grow faster with the number of k, and past about 10 k ``solve_ivp`` would
be faster.
"""
from __future__ import annotations

import math

import numpy as np

from . import propagate
from .errors import AccuracyError, SingularFrequencyError
from .line_model import PotentialFn

RTOL = 1e-9
ATOL = 1e-12

# the Dormand-Prince 5(4) tableau: nodes C, stages A, 5th-order weights B
# (B2 = 0) and the error weights E of the 5th- less the 4th-order solution
# (E2 = 0), E7 on the stage at the new point
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 5  # -1 / (order of the error estimate + 1)


def _rms(v, scale):
    """RMS over the components of v / scale."""
    total = 0.0
    for vi, si in zip(v, scale):
        q = vi / si
        total += q.real * q.real + q.imag * q.imag
    return math.sqrt(total) / len(v) ** 0.5


def _initial_step(f, x0, u, fu, direction, span, max_step):
    """First step size, by Hairer, Norsett and Wanner's rule (sec. II.4)."""
    scale = [ATOL + abs(ui) * RTOL for ui in u]
    d0, d1 = _rms(u, scale), _rms(fu, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(x0 + h0 * direction,
           [ui + h0 * direction * fi for ui, fi in zip(u, fu)])
    d2 = _rms([a - b for a, b in zip(f1, fu)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, max_step)


def _dp45(f, x0: float, x1: float, u: list, max_step: float) -> list:
    """u' = f(x, u) integrated from x0 to x1 (x0 != x1) by Dormand-Prince
    5(4), u a list of complex; returns u at x1.

    Steps are at most max_step, and each keeps the RMS over the components
    of its error estimate, scaled by ATOL + RTOL max(|u|, |u_new|), below
    1.  A step that would fall below 10 spacings of x raises
    ``AccuracyError``.
    """
    direction = 1.0 if x1 > x0 else -1.0
    fu = f(x0, u)
    h_abs = _initial_step(f, x0, u, fu, direction, abs(x1 - x0), max_step)
    x, root_n = x0, len(u) ** 0.5
    while direction * (x - x1) < 0:
        min_step = 10 * abs(math.nextafter(x, direction * math.inf) - x)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise AccuracyError(
                    f"RK45 failed on [{x0}, {x1}]: the step at x = {x} fell "
                    "below 10 spacings of x")
            x_new = x + h_abs * direction
            if direction * (x_new - x1) > 0:
                x_new = x1
            h = x_new - x
            h_abs = abs(h)
            k1 = fu
            k2 = f(x + C2 * h, [ui + (A21 * a) * h for ui, a in zip(u, k1)])
            k3 = f(x + C3 * h, [ui + (A31 * a + A32 * b) * h
                                for ui, a, b in zip(u, k1, k2)])
            k4 = f(x + C4 * h, [ui + (A41 * a + A42 * b + A43 * c) * h
                                for ui, a, b, c in zip(u, k1, k2, k3)])
            k5 = f(x + C5 * h,
                   [ui + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                    for ui, a, b, c, d in zip(u, k1, k2, k3, k4)])
            k6 = f(x + h,
                   [ui + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e) * h
                    for ui, a, b, c, d, e in zip(u, k1, k2, k3, k4, k5)])
            u_new = [ui + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
                     for ui, a, c, d, e, g in zip(u, k1, k3, k4, k5, k6)]
            f_new = f(x + h, u_new)
            total = 0.0
            for ui, vi, a, c, d, e, g, p in zip(u, u_new, k1, k3, k4, k5,
                                                k6, f_new):
                q = ((E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * p) * h
                     / (ATOL + max(abs(ui), abs(vi)) * RTOL))
                total += q.real * q.real + q.imag * q.imag
            error_norm = math.sqrt(total) / root_n
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR,
                              SAFETY * error_norm ** ERROR_EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        x, u, fu = x_new, u_new, f_new
    return u


def rk45_sweep(V: PotentialFn, x_from: float, x_to: float, k, y, dy):
    """Propagate (y, y') of y'' = (V(x) - k^2) y from x_from to x_to by
    adaptive RK45; k, y, dy broadcast together as in ``propagate.sweep``.

    Returns the endpoint pair (y, y') as complex arrays over k.  All k
    form one system of 2 nk components, integrated by ``_dp45`` in steps
    of at most the span and 1/STEPS_PER_WAVELENGTH of the shortest
    wavelength.  On V = 0 (``support_end <= 0``), or on an empty span, the
    free solution is returned in closed form with no integration.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=complex), k.shape)
    dy = np.broadcast_to(np.asarray(dy, dtype=complex), k.shape)
    if V.support_end <= 0.0 or x_from == x_to:
        d = x_to - x_from
        kd = k * d
        c, s = np.cos(kd), np.sin(kd)
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0
            sinc = np.where(k == 0.0, d, s / k)
        return c * y + sinc * dy, -k * s * y + c * dy
    k_top = float(np.max(np.abs(k)))
    max_step = abs(x_to - x_from)
    if k_top != 0:
        max_step = min(max_step, (2.0 * np.pi / k_top)
                       / propagate.STEPS_PER_WAVELENGTH)
    n, k2 = k.size, (k * k).tolist()

    def rhs(x, u):
        v = V(x)
        return u[n:] + [(v - q2) * uj for q2, uj in zip(k2, u)]

    u = _dp45(rhs, float(x_from), float(x_to), y.tolist() + dy.tolist(),
              max_step)
    return np.array(u[:n]), np.array(u[n:])


def _check_k(k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k == 0):
        raise SingularFrequencyError("Jost data is singular at k = 0")
    return k


def jost_leg(V: PotentialFn, k):
    """The Jost leg (V, X, 0, e^{ikX}, ik e^{ikX}) over k, X =
    ``V.truncation``: the plane wave that f is past X, to be propagated
    back to the node."""
    X = V.truncation
    ik = 1j * k
    eikX = np.exp(ik * X)
    return V, X, 0.0, eikX, ik * eikX


def jost_at_origin(V: PotentialFn, k):
    """(f0, df0) = (f(0,k), f'(0,k)) by RK45, two complex arrays over
    ``np.atleast_1d(k)``, as ``jost_batch`` returns them: ``jost_leg`` on
    ``rk45_sweep``, one system for all k."""
    k = _check_k(k)
    V, X, x_to, y, dy = jost_leg(V, k)
    return rk45_sweep(V, X, x_to, k, y, dy)


def jost_profile(V: PotentialFn, k: float, xs):
    """f and f' sampled on xs, each by one ``rk45_sweep`` call from
    ``jost_leg``'s start at X to its x."""
    k = _check_k(k)
    V, X, _, y, dy = jost_leg(V, k)
    f, df = zip(*(rk45_sweep(V, X, x, k, y, dy)
                  for x in np.asarray(xs, dtype=float).tolist()))
    return np.concatenate(f), np.concatenate(df)


def jost_batch(V: PotentialFn, k):
    """(f0, df0) over an array of frequencies: ``jost_leg`` on the one-leg
    ``propagate.sweep``, the network solver's Jost leg on its own and the
    call ``jost_at_origin`` makes on ``rk45_sweep``."""
    k = _check_k(k)
    V, X, x_to, y, dy = jost_leg(V, k)
    return propagate.sweep(V, X, x_to, k, y, dy)
