"""High-frequency reflection closed form and topology recovery.

At high k the reflection seen from branch 1 approaches

    R1(k) = (-(m - 2) + i S) / (m - i S),     S = sum_j tan(k tau_j),

which is exact (not just asymptotic) for uniform networks.  The algebra
gives 1/(1 + R1) = (m - i S)/2, so 2 Re(1/(1+R1)) recovers the number of
infinite branches and the poles of 2 Im(1/(1+R1)) sit at the tan poles
k = (p + 1/2) pi / tau_j, whose spacings pi/tau_j identify the travel
times.  Pole positions do not depend on the overall sign of S, so the
recovery is insensitive to the printed-vs-chain-rule sign convention.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError

POLE_THRESHOLD = 10.0
M_GUARD = 0.1  # drop samples with |1 + R1| below this (near the pole of 1/(1+R1))
MIN_SAMPLES = 10
# spacings extracted at most; a histogram peak must hold at least
# max(2, poles // MAX_SPACINGS) pole differences
MAX_SPACINGS = 32


# One reflectogram row.  A list of these is a sequence of (k, R1) pairs,
# which numpy reads exactly as it reads an [n, 2] array of rows.
ReflectogramSample = namedtuple("ReflectogramSample", "k R1")


@dataclass(eq=False)
class InversionReport:
    m_hat: int
    taus: list
    poles: list
    m_samples_used: int
    residual_diagnostics: list  # per-tau rms misfit of the pole ladder
    m_abs_deviation: float = 0.0
    warnings: list = field(default_factory=list)


def high_freq_reflection(m: int, taus, k: float) -> complex:
    """Closed-form R1 for m infinite branches and finite travel times taus."""
    if m < 1:
        raise ValueError("m must be at least 1")
    S = 0.0
    for tau in taus:
        if abs(math.cos(k * tau)) <= 1e-9:
            raise DomainError(f"k={k} is at a pole of tan(k*{tau})")
        S += math.tan(k * tau)
    return (-(m - 2) + 1j * S) / (m - 1j * S)


def _rows(samples) -> np.ndarray:
    """The samples, an [n, 2] array or a sequence of (k, R1) pairs (n may
    be 0), as one complex [n, 2] array; ValueError on any other shape or
    on a row with k <= 0.  NaN rows stay, so the k grid stays whole."""
    rows = np.asarray(samples, dtype=complex)
    if rows.shape == (0,):
        rows = rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError("samples must be (k, R1) rows")
    if not np.all(rows[:, 0].real > 0):
        raise ValueError("k must be positive")
    return rows


def estimate_m(samples) -> tuple[int, dict]:
    """Median-based recovery of the infinite-branch count.

    Samples too close to the pole of 1/(1+R1), and NaN rows, are excluded;
    the median (not the mean) keeps the remaining near-pole samples from
    biasing the count.
    """
    z = 1.0 + _rows(samples)[:, 1]
    vals = 2.0 * (1.0 / z[np.abs(z) > M_GUARD]).real
    if vals.size < MIN_SAMPLES:
        raise InsufficientDataError(
            f"only {vals.size} usable samples (need {MIN_SAMPLES})")
    med = float(np.median(vals))
    mad = float(np.median(np.abs(vals - med)))
    return int(round(med)), {"median": med, "abs_deviation": mad,
                             "retained": vals.size}


def detect_poles(samples):
    """Pole candidates of g(k) = 2 Im(1/(1+R1)).

    A candidate is an adjacent sample pair with finite |g| above
    POLE_THRESHOLD on both sides and a sign flip; its position is the zero
    of the linear interpolation of 1/g between the bracketing samples.
    """
    rows = _rows(samples)
    k = rows[:, 0].real
    with np.errstate(divide="ignore", invalid="ignore"):  # R1 = -1 or NaN
        g = 2.0 * (1.0 / (1.0 + rows[:, 1])).imag
    big = np.isfinite(g) & (np.abs(g) > POLE_THRESHOLD)
    up = g > 0
    i = np.flatnonzero(big[:-1] & big[1:] & (up[:-1] != up[1:]))
    f0, f1 = 1.0 / g[i], 1.0 / g[i + 1]
    return (k[i] - f0 * (k[i + 1] - k[i]) / (f1 - f0)).tolist()


def _fit_family(poles, spacing, tol):
    """Least-squares spacing fit over poles near the (p + 1/2) * s ladder."""
    p = np.round(poles / spacing - 0.5)
    near = (p >= 0) & (np.abs(poles - (p + 0.5) * spacing) < tol)
    if np.count_nonzero(near) < 2:
        return None
    members, ps = poles[near], p[near] + 0.5
    s_fit = float(np.dot(members, ps) / np.dot(ps, ps))
    rms = float(np.sqrt(np.mean((members - ps * s_fit) ** 2)))
    return s_fit, rms, members


def estimate_taus(samples) -> InversionReport:
    """Recover travel times from uniformly sampled reflectogram data.

    Pole positions are clustered into arithmetic progressions by
    histogramming pairwise differences at resolution 2*dk and greedily
    extracting up to MAX_SPACINGS fundamental spacings; tau_j = pi /
    spacing_j for every spacing whose ladder the poles confirm.  With no
    pole, or with poles that no ladder confirms, ``warnings`` says so.
    """
    rows = _rows(samples)
    ks = rows[:, 0].real
    if ks.size < 2:
        raise InsufficientDataError("need at least two samples")
    dks = np.diff(ks)
    dk = float(np.median(dks))
    if dk <= 0 or np.max(np.abs(dks - dk)) > 0.05 * dk:
        raise InsufficientDataError("samples must sit on a uniform k grid")

    m_hat, m_diag = estimate_m(rows)
    poles = detect_poles(rows)
    warnings = []
    if not poles:
        warnings.append("no poles detected; n=0 network or grid too coarse")
        return InversionReport(m_hat, [], poles, m_diag["retained"], [],
                               m_diag["abs_deviation"], warnings)

    poles_arr = np.array(poles)  # ascending, as the grid is
    diffs = (poles_arr[None, :] - poles_arr[:, None])[
        np.triu_indices(poles_arr.size, 1)]
    span = ks[-1] - ks[0]
    diffs = diffs[(diffs > 4 * dk) & (diffs <= span / 3.0)]
    bin_w = 2.0 * dk

    spacings = []
    remaining = diffs.copy()
    min_count = max(2, poles_arr.size // MAX_SPACINGS)
    for _ in range(MAX_SPACINGS):
        if remaining.size == 0:
            break
        edges = np.arange(0.0, remaining.max() + 2 * bin_w, bin_w)
        counts, _ = np.histogram(remaining, edges)
        best = int(np.argmax(counts))
        if counts[best] < min_count:
            break
        lo, hi = edges[best] - bin_w, edges[best] + 2 * bin_w
        near = remaining[(remaining >= lo) & (remaining <= hi)]
        s0 = float(np.median(near))
        spacings.append(s0)
        # drop everything commensurate with s0 before the next extraction
        mult = np.round(remaining / s0)
        keep = np.abs(remaining - mult * s0) > 2 * bin_w
        remaining = remaining[keep]

    # a candidate spacing only survives if its half-integer ladder actually
    # explains the pole set: members must cover at least half the rungs the
    # scanned window would contain, at a tolerance a few grid steps wide
    fits = []
    for s0 in spacings:
        fit = _fit_family(poles_arr, s0, tol=6 * dk)
        if fit is None:
            continue
        s_fit, rms, members = fit
        if members.size >= max(2.0, 0.5 * span / s_fit):
            fits.append((s_fit, rms, members))

    # harmonics and sum/difference ladders of the true spacings pass the
    # coverage test too (e.g. an odd multiple of a spacing keeps the
    # half-integer alignment), so accept families largest-first and demand
    # that each new one explains mostly unexplained poles
    fits.sort(key=lambda t: -t[2].size)
    taus, diags, fitted = [], [], []
    claimed = np.zeros(0)
    for s_fit, rms, members in fits:
        near = sum(abs(s_fit - f) < 2 * bin_w for f in fitted)
        warnings += near * [
            "near-degenerate travel times detected; identifiability "
            "assumption (all tau distinct) is violated"]
        if near:
            continue
        novel = np.sum(np.min(np.abs(members[:, None] - claimed[None, :]),
                              axis=1, initial=np.inf) > dk)
        if novel < 0.5 * members.size:
            continue
        fitted.append(s_fit)
        taus.append(math.pi / s_fit)
        diags.append(rms)
        claimed = np.concatenate([claimed, members])
    if not taus:
        warnings.append(f"{poles_arr.size} poles detected but no travel-time "
                        f"ladder explains them")
    order = np.argsort(taus)
    taus = [taus[i] for i in order]
    diags = [diags[i] for i in order]
    return InversionReport(m_hat, taus, [float(p) for p in poles_arr],
                           m_diag["retained"], diags,
                           m_diag["abs_deviation"], warnings)
