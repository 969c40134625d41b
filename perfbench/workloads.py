"""Workload inputs, the operations each workload times, and their checks.

Every check compares the program's output with something computed apart
from it: a closed form evaluated here in numpy, a physical invariant, or
the truth the inputs were generated from.  No stored copy of an earlier
output is used.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

K_MIN, K_MAX, DK = 60.0, 160.0, 0.005
COARSE_DK = 0.08
NOISE_SIGMA = 0.03
TAU_REL_TOL = 0.01  # a recovered travel time may miss the truth by 1%
FLUX_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9
# invert-batch is drawn once from this fixed seed, not from --seed: the
# pole-ladder inversion fails on some drawn cases and not on others, and the
# failed share of a run has to be the same whatever seed the run is given
BATTERY_SEED = 8050936
BATTERY_PER_REGIME = 12
TABLE_ROWS = 161
INVERT_REPEATS = 5

# the paper's demo star: (amplitude, width) of each sin^2 bump, plus tau, h
SMOOTH_INFINITE = ((0.5, 0.8), (-0.35, 0.7))
SMOOTH_FINITE = ((0.4, 0.6, 1.0, 0.12), (-0.3, 0.9, 1.7, -0.1))
WIDE_M, WIDE_N = 3, 7


def grid(kmin=K_MIN, kmax=K_MAX, dk=DK):
    """The frequency grid `starscatter forward` builds from the same flags."""
    n = int(math.floor((kmax - kmin) / dk + 1e-9)) + 1
    return kmin + dk * np.arange(n)


def closed_form_r1(m, taus, k):
    """R1 = (-(m-2) + iS)/(m - iS), S = sum tan(k tau_j), over an array k."""
    k = np.asarray(k, dtype=float)
    S = np.tan(np.multiply.outer(k, np.asarray(taus, dtype=float))).sum(-1)
    return (-(m - 2) + 1j * S) / (m - 1j * S)


def separated_taus(rng, n, lo=0.4, hi=2.0, gap=0.1):
    """n travel times in [lo, hi], at least `gap` apart, one per stratum.

    Stratifying keeps the total branch length, and so the forward cost,
    nearly the same from seed to seed.
    """
    width = (hi - lo) / n
    starts = lo + width * np.arange(n)
    return [float(t) for t in starts + rng.uniform(0.0, width - gap, n)]


def distinct_taus(rng, n, lo=0.4, hi=2.0, gap=0.1):
    """n sorted travel times drawn uniformly in [lo, hi], redrawn until
    every pair is at least `gap` apart (the non-degenerate case)."""
    while True:
        taus = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(taus)) >= gap:
            return [float(t) for t in taus]


# -- checks -----------------------------------------------------------------

def read_sweep_csv(path):
    """(k, R1, T[nk, m-1]) from a forward CSV; NaN rows are kept."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    k = data[:, 0]
    r1 = data[:, 1] + 1j * data[:, 2]
    t = data[:, 4::2] + 1j * data[:, 5::2]
    return k, r1, t


def flux_error(r1, t):
    """Largest | |R1|^2 + sum |T_j|^2 - 1 | over the rows that are not NaN."""
    ok = np.isfinite(r1)
    if not np.any(ok):
        return math.inf
    err = np.abs(np.abs(r1[ok]) ** 2 + np.sum(np.abs(t[ok]) ** 2, axis=1) - 1)
    return float(np.max(err))


def closed_form_error(k, r1, m, taus):
    """Largest |R1 - closed form| over every row (a NaN row counts as inf)."""
    err = np.abs(r1 - closed_form_r1(m, taus, k))
    return float(np.max(np.where(np.isfinite(err), err, math.inf)))


def inversion_ok(m_hat, taus_hat, m, taus, rel_tol=TAU_REL_TOL):
    """m exact and every travel time within rel_tol of the truth."""
    if m_hat != m or len(taus_hat) != len(taus):
        return False
    return all(abs(a - b) <= rel_tol * b
               for a, b in zip(sorted(taus_hat), sorted(taus)))


def validate_ok(stdout):
    """`validate` printed at least one check and nothing but PASS lines."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return bool(lines) and all(ln.startswith("PASS ") for ln in lines)


# -- workloads ----------------------------------------------------------------

@dataclass
class Round:
    """Timings and outcomes of one round of a workload's operations."""

    times: dict = field(default_factory=dict)  # metric -> list of seconds
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    @contextlib.contextmanager
    def timed(self, metric, tracer=None):
        """Time the block as one sample of `metric` ("forward_s" is the
        forward operation).  Garbage left by earlier operations is collected
        first, outside the timing."""
        gc.collect()
        with _op(tracer, metric.removesuffix("_s")):
            t0 = time.perf_counter()
            yield
            dt = time.perf_counter() - t0
        self.times.setdefault(metric, []).append(dt)


def _call_cli(cli, argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write_table(path, amp, width):
    x = np.linspace(0.0, width, TABLE_ROWS)
    v = amp * np.sin(np.pi * x / width) ** 2
    np.savetxt(path, np.column_stack([x, v]), delimiter=",", header="x,V",
               comments="", fmt="%.17g")


class SweepWorkload:
    """forward -> invert -> validate through the CLI on one config."""

    def __init__(self, workdir, m, taus, config, kmax, check_taus,
                 reference_r1):
        self.m, self.taus = m, taus
        self.config = self.setup_config = workdir / "net.json"
        self.csv = workdir / "sweep.csv"
        self.report = workdir / "report.json"
        self.kmax = kmax
        self.n_k = grid(K_MIN, kmax, DK).size
        self.check_taus = check_taus
        self.reference_r1 = reference_r1
        self.config.write_text(json.dumps(config, indent=1))

    def run_round(self, cli, tracer=None):
        r = Round()
        with r.timed("forward_s", tracer):
            rc, _ = _call_cli(
                cli, ["forward", "--config", str(self.config),
                      "--kmin", str(K_MIN), "--kmax", str(self.kmax),
                      "--dk", str(DK), "--out", str(self.csv)])
        if rc != 0:
            r.check(False, f"forward: exit {rc}")
            return r
        k, r1, t = read_sweep_csv(self.csv)
        if self.reference_r1:
            err, tol, what = (closed_form_error(k, r1, self.m, self.taus),
                              CLOSED_FORM_TOL, "|R1 - closed form|")
        else:
            err, tol, what = flux_error(r1, t), FLUX_TOL, "flux error"
        r.check(k.size == self.n_k and err <= tol,
                f"forward: {k.size} rows, max {what} {err:.3e}")

        # one invert is short next to forward; five per round steady its
        # median
        for _ in range(INVERT_REPEATS):
            with r.timed("invert_s", tracer):
                rc, _ = _call_cli(cli, ["invert", "--csv", str(self.csv),
                                        "--out", str(self.report)])
            rep = json.loads(self.report.read_text()) if rc == 0 else {}
            m_hat, taus_hat = rep.get("m_hat"), rep.get("taus", [])
            if self.check_taus:
                ok = inversion_ok(m_hat, taus_hat, self.m, self.taus)
            else:
                ok = m_hat == self.m
            r.check(rc == 0 and ok,
                    f"invert: exit {rc}, m_hat={m_hat} taus={taus_hat}")

        with r.timed("validate_s", tracer):
            rc, out = _call_cli(cli, ["validate", "--config",
                                      str(self.config)])
        r.check(rc == 0 and validate_ok(out),
                f"validate: exit {rc}: {out.strip()!r}")
        return r


def smooth_sweep(workdir, kmax):
    """The demo star from x,V tables; no seed enters."""
    branches = []
    for i, (amp, width) in enumerate(SMOOTH_INFINITE, 1):
        _write_table(workdir / f"inf{i}.csv", amp, width)
        branches.append({"kind": "infinite",
                         "direct": {"potential_table_path": f"inf{i}.csv"}})
    for i, (amp, width, tau, h) in enumerate(SMOOTH_FINITE, 1):
        _write_table(workdir / f"fin{i}.csv", amp, width)
        branches.append({"kind": "finite",
                         "direct": {"potential_table_path": f"fin{i}.csv",
                                    "tau": tau, "h": h}})
    config = {"schema_version": 1, "branches": branches}
    taus = [f[2] for f in SMOOTH_FINITE]
    return SweepWorkload(workdir, len(SMOOTH_INFINITE), taus, config, kmax,
                         check_taus=True, reference_r1=False)


def wide_star(workdir, seed, kmax):
    """3 infinite + 7 finite uniform lines with L = C (so V = 0, A = 1)."""
    rng = np.random.default_rng(seed)
    taus = separated_taus(rng, WIDE_N)
    lc = rng.uniform(0.5, 2.0, WIDE_M + WIDE_N)
    branches = [{"kind": "infinite",
                 "profile": {"family": "uniform", "inductance": float(c),
                             "capacitance": float(c)}}
                for c in lc[:WIDE_M]]
    for c, tau in zip(lc[WIDE_M:], taus):
        branches.append({"kind": "finite",
                         "profile": {"family": "uniform",
                                     "inductance": float(c),
                                     "capacitance": float(c),
                                     "length": tau / float(c)}})
    config = {"schema_version": 1, "branches": branches}
    # the pole-ladder fit misses or invents travel times on a seed-dependent
    # share of 7-stub networks, so only m is checked here (see README)
    return SweepWorkload(workdir, WIDE_M, taus, config, kmax,
                         check_taus=False, reference_r1=True)


@dataclass
class Case:
    m: int
    taus: list
    k: np.ndarray
    data: np.ndarray


def make_battery(per_regime):
    """Closed-form reflectograms: clean fine, clean coarse, noisy fine."""
    rng = np.random.default_rng(BATTERY_SEED)
    cases = []
    for dk, sigma in ((DK, 0.0), (COARSE_DK, 0.0), (DK, NOISE_SIGMA)):
        k = grid(K_MIN, K_MAX, dk)
        for _ in range(per_regime):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            taus = distinct_taus(rng, n)
            noise = sigma * (rng.standard_normal(k.size)
                             + 1j * rng.standard_normal(k.size))
            cases.append(Case(m, taus, k,
                              closed_form_r1(m, taus, k) + noise))
    return cases


class InvertBatch:
    """estimate_taus over a fixed battery of closed-form reflectograms.

    Not in BENCHMARK.json: its times drift with the machine's speed by more
    than the largest bound allows (see README).  A case whose m or any tau
    misses the truth by more than 1% counts as failed.
    """

    setup_config = None

    def __init__(self, per_regime):
        self.cases = make_battery(per_regime)

    def run_round(self, cli, tracer=None):
        from starscatter import inversion
        r = Round()
        samples = [[inversion.ReflectogramSample(float(k), complex(v))
                    for k, v in zip(c.k, c.data)] for c in self.cases]
        with r.timed("invert_s", tracer):
            reports = [inversion.estimate_taus(s) for s in samples]
        for c, rep in zip(self.cases, reports):
            r.attempted += 1
            if not inversion_ok(rep.m_hat, rep.taus, c.m, c.taus):
                r.failed += 1
        return r


@contextlib.contextmanager
def _op(tracer, name):
    if tracer is None:
        yield
    else:
        with tracer.operation(name):
            yield


def build(name, workdir, seed, tiny=False):
    """The named workload, at full size or at the self-test's tiny size."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    kmax = 75.0 if tiny else K_MAX
    if name == "smooth-sweep":
        return smooth_sweep(workdir, kmax)
    if name == "wide-star":
        return wide_star(workdir, seed, kmax)
    if name == "invert-batch":
        return InvertBatch(1 if tiny else BATTERY_PER_REGIME)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("smooth-sweep", "wide-star", "invert-batch")

