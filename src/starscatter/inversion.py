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
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, PoleProximityError

POLE_THRESHOLD = 10.0
M_GUARD = 0.1  # drop samples with |1 + R1| below this (near the pole of 1/(1+R1))
MIN_SAMPLES = 10


@dataclass(frozen=True)
class ReflectogramSample:
    k: float
    R1: complex

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")


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
            raise PoleProximityError(
                f"k={k} is at a pole of tan(k*{tau})")
        S += math.tan(k * tau)
    return (-(m - 2) + 1j * S) / (m - 1j * S)


def estimate_m(samples) -> tuple[int, dict]:
    """Median-based recovery of the infinite-branch count.

    Samples too close to the pole of 1/(1+R1) are excluded; the median (not
    the mean) keeps the remaining near-pole samples from biasing the count.
    """
    vals = []
    for s in samples:
        if abs(1.0 + s.R1) > M_GUARD:
            vals.append(2.0 * (1.0 / (1.0 + s.R1)).real)
    if len(vals) < MIN_SAMPLES:
        raise InsufficientDataError(
            f"only {len(vals)} usable samples (need {MIN_SAMPLES})")
    med = float(np.median(vals))
    mad = float(np.median(np.abs(np.array(vals) - med)))
    return int(round(med)), {"median": med, "abs_deviation": mad,
                             "retained": len(vals)}


def _pole_indicator(samples):
    k = np.array([s.k for s in samples])
    g = np.array([2.0 * (1.0 / (1.0 + s.R1)).imag for s in samples])
    return k, g


def detect_poles(samples):
    """Pole candidates of g(k) = 2 Im(1/(1+R1)).

    A candidate is an adjacent sample pair with |g| above POLE_THRESHOLD on
    both sides and a sign flip; its position is the zero of the linear
    interpolation of 1/g between the bracketing samples.
    """
    k, g = _pole_indicator(samples)
    poles = []
    for i in range(k.size - 1):
        if abs(g[i]) > POLE_THRESHOLD and abs(g[i + 1]) > POLE_THRESHOLD \
                and (g[i] > 0) != (g[i + 1] > 0):
            f0, f1 = 1.0 / g[i], 1.0 / g[i + 1]
            poles.append(float(k[i] - f0 * (k[i + 1] - k[i]) / (f1 - f0)))
    return poles


def _fit_family(poles, spacing, tol):
    """Least-squares spacing fit over poles near the (p + 1/2) * s ladder."""
    poles = np.asarray(poles)
    members, ps = [], []
    for kp in poles:
        p = round(kp / spacing - 0.5)
        if p >= 0 and abs(kp - (p + 0.5) * spacing) < tol:
            members.append(kp)
            ps.append(p + 0.5)
    if len(members) < 2:
        return None
    members = np.array(members)
    ps = np.array(ps)
    s_fit = float(np.dot(members, ps) / np.dot(ps, ps))
    rms = float(np.sqrt(np.mean((members - ps * s_fit) ** 2)))
    return s_fit, rms, members


def estimate_taus(samples, expected_max_n: int = 8) -> InversionReport:
    """Recover travel times from uniformly sampled reflectogram data.

    Pole positions are clustered into arithmetic progressions by
    histogramming pairwise differences at resolution 2*dk and greedily
    extracting fundamental spacings; tau_j = pi / spacing_j.
    """
    if expected_max_n < 1:
        raise ValueError("expected_max_n must be at least 1")
    ks = np.array([s.k for s in samples])
    if ks.size < 2:
        raise InsufficientDataError("need at least two samples")
    dks = np.diff(ks)
    dk = float(np.median(dks))
    if np.max(np.abs(dks - dk)) > 0.05 * dk:
        raise InsufficientDataError("samples must sit on a uniform k grid")

    m_hat, m_diag = estimate_m(samples)
    poles = detect_poles(samples)
    warnings = []
    if not poles:
        warnings.append("no poles detected; n=0 network or grid too coarse")
        return InversionReport(m_hat, [], poles, m_diag["retained"], [],
                               m_diag["abs_deviation"], warnings)

    poles_arr = np.array(sorted(poles))
    diffs = (poles_arr[None, :] - poles_arr[:, None])[
        np.triu_indices(poles_arr.size, 1)]
    span = ks[-1] - ks[0]
    diffs = diffs[(diffs > 4 * dk) & (diffs <= span / 3.0)]
    bin_w = 2.0 * dk

    spacings = []
    remaining = diffs.copy()
    min_count = max(2, poles_arr.size // (4 * expected_max_n))
    for _ in range(4 * expected_max_n):
        if remaining.size == 0 or len(spacings) >= 4 * expected_max_n:
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
        dup = False
        for f in fitted:
            if abs(s_fit - f) < 2 * bin_w:
                dup = True
                warnings.append(
                    "near-degenerate travel times detected; identifiability "
                    "assumption (all tau distinct) is violated")
        if dup:
            continue
        if claimed.size:
            novel = np.sum(np.min(np.abs(members[:, None]
                                         - claimed[None, :]), axis=1) > dk)
        else:
            novel = members.size
        if novel < 0.5 * members.size:
            continue
        fitted.append(s_fit)
        taus.append(math.pi / s_fit)
        diags.append(rms)
        claimed = np.concatenate([claimed, members])
        if len(taus) >= expected_max_n:
            break
    order = np.argsort(taus)
    taus = [taus[i] for i in order]
    diags = [diags[i] for i in order]
    return InversionReport(m_hat, taus, [float(p) for p in poles_arr],
                           m_diag["retained"], diags,
                           m_diag["abs_deviation"], warnings)
