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
takes scipy's steps.  It carries one k's pair (y, y') as two Python
scalars, in floats when the start pair is real, with its seven stages
written out: the four smooth-demo twins at k = 10 take about 6 ms, a tenth
of what ``solve_ivp`` spends on the same one-k runs.  Each k is a run of
its own, so the cost grows linearly with the number of k; one
``solve_ivp`` system of all k, in the largest k's steps, breaks even near
10 k and is faster past that.
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
ROOT2 = 2 ** 0.5


def _pair_rms(a, b, sa, sb) -> float:
    """RMS of the pair (a / sa, b / sb), a and b complex or real."""
    qa, qb = a / sa, b / sb
    return math.sqrt((qa.real * qa.real + qa.imag * qa.imag)
                     + (qb.real * qb.real + qb.imag * qb.imag)) / ROOT2


def _dp45(V: PotentialFn, k2: float, x0: float, x1: float, y, dy,
          max_step: float):
    """(y, y') at x1 of y'' = (V(x) - k2) y from (y, dy) at x0 (x0 != x1),
    by Dormand-Prince 5(4); y and dy both complex or both real.

    The first step is Hairer, Norsett and Wanner's (sec. II.4).  Steps are
    at most max_step, and each keeps the RMS over y and y' of its error
    estimate, scaled by ATOL + RTOL max(|u|, |u_new|), below 1.  A step
    that would fall below 10 spacings of x raises ``AccuracyError``.  A
    stage at x + c h carries y, p = y' and a = y'' = (V(x + c h) - k2) y.
    """
    ev, p, span = V.evaluator, dy, abs(x1 - x0)
    direction = 1.0 if x1 > x0 else -1.0
    a = (ev(x0) - k2) * y
    sy, sp = ATOL + abs(y) * RTOL, ATOL + abs(p) * RTOL
    d0, d1 = _pair_rms(y, p, sy, sp), _pair_rms(p, a, sy, sp)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    hd = h0 * direction
    y1, p1 = y + hd * p, p + hd * a
    d2 = _pair_rms(p1 - p, (ev(x0 + hd) - k2) * y1 - a, sy, sp) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else
          (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs, x = min(100 * h0, h1, span, max_step), x0
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
            y2, p2 = y + (A21 * p) * h, p + (A21 * a) * h
            a2 = (ev(x + C2 * h) - k2) * y2
            y3 = y + (A31 * p + A32 * p2) * h
            p3 = p + (A31 * a + A32 * a2) * h
            a3 = (ev(x + C3 * h) - k2) * y3
            y4 = y + (A41 * p + A42 * p2 + A43 * p3) * h
            p4 = p + (A41 * a + A42 * a2 + A43 * a3) * h
            a4 = (ev(x + C4 * h) - k2) * y4
            y5 = y + (A51 * p + A52 * p2 + A53 * p3 + A54 * p4) * h
            p5 = p + (A51 * a + A52 * a2 + A53 * a3 + A54 * a4) * h
            a5 = (ev(x + C5 * h) - k2) * y5
            y6 = y + (A61 * p + A62 * p2 + A63 * p3 + A64 * p4 + A65 * p5) * h
            p6 = p + (A61 * a + A62 * a2 + A63 * a3 + A64 * a4 + A65 * a5) * h
            v_end = ev(x + h)
            a6 = (v_end - k2) * y6
            y7 = y + h * (B1 * p + B3 * p3 + B4 * p4 + B5 * p5 + B6 * p6)
            p7 = p + h * (B1 * a + B3 * a3 + B4 * a4 + B5 * a5 + B6 * a6)
            a7 = (v_end - k2) * y7
            error_norm = _pair_rms(
                (E1 * p + E3 * p3 + E4 * p4 + E5 * p5 + E6 * p6 + E7 * p7) * h,
                (E1 * a + E3 * a3 + E4 * a4 + E5 * a5 + E6 * a6 + E7 * a7) * h,
                ATOL + max(abs(y), abs(y7)) * RTOL,
                ATOL + max(abs(p), abs(p7)) * RTOL)
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
        x, y, p, a = x_new, y7, p7, a7
    return y, p


def rk45_sweep(V: PotentialFn, x_from: float, x_to: float, k, y, dy):
    """Propagate (y, y') of y'' = (V(x) - k^2) y from x_from to x_to by
    adaptive RK45; k, y, dy broadcast together as in ``propagate.sweep``.

    Returns the endpoint pair (y, y') as complex arrays over k.  Each k is
    its own ``_dp45`` run, in steps of at most the span and
    1/STEPS_PER_WAVELENGTH of its wavelength, in floats when the start
    pair is real.  On V = 0 (``support_end <= 0``), or on an empty span,
    the free solution is returned in closed form with no integration.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    real = not (np.iscomplexobj(y) or np.iscomplexobj(dy))
    y = np.broadcast_to(np.asarray(y, dtype=complex), k.shape)
    dy = np.broadcast_to(np.asarray(dy, dtype=complex), k.shape)
    if V.support_end <= 0.0 or x_from == x_to:
        d = x_to - x_from
        kd = k * d
        c, s = np.cos(kd), np.sin(kd)
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0
            sinc = np.where(k == 0.0, d, s / k)
        return c * y + sinc * dy, -k * s * y + c * dy
    x0, x1 = float(x_from), float(x_to)
    span = abs(x1 - x0)
    starts = (y.real, dy.real) if real else (y, dy)
    ends = []
    for kj, yj, dyj in zip(k.tolist(), *(u.tolist() for u in starts)):
        max_step = span if kj == 0 else min(
            span, 2.0 * math.pi / abs(kj) / propagate.STEPS_PER_WAVELENGTH)
        ends.append(_dp45(V, kj * kj, x0, x1, yj, dyj, max_step))
    return tuple(np.array(e, dtype=complex) for e in zip(*ends))


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
    ``rk45_sweep``, one run per k."""
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
