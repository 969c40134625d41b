"""Command-line front end.

    starscatter forward  --config net.json --kmin 60 --kmax 160 --dk 0.005 --out sweep.csv
    starscatter invert   --csv sweep.csv --out report.json
    starscatter validate --config net.json

Exit codes: 0 ok; 2 bad input: a config or table that fails to parse or
validate, a bad argument (a grid too large for an array, a k whose square
overflows), or a path that cannot be read or written; 3 solver failure:
every swept frequency singular, a resonant `validate` check frequency, a
branch a reference cannot resolve, a k too high for a branch's cells, or
out of memory; 4 too few usable samples to invert; 5 a `validate` check
failed.  `main` alone turns a failure into its exit code, with one line on
stderr and no traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import fundamental, inversion, jost, oracle, scattering
from .config import load_network
from .errors import ConfigError, InsufficientDataError, ResonanceError, \
    StarScatterError


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_forward(args) -> int:
    net, _ = load_network(args.config)
    if not all(map(math.isfinite, (args.kmin, args.kmax, args.dk))):
        raise ConfigError("--kmin, --kmax and --dk must be finite")
    if args.dk <= 0:
        raise ConfigError("--dk must be positive")
    lo, hi = scattering.K_FLOOR, scattering.K_CEIL
    if not (lo <= args.kmin and args.kmax <= hi):
        raise ConfigError(f"--kmin and --kmax must lie in [{lo}, {hi:.6g}]")
    try:
        n_pts = int(math.floor((args.kmax - args.kmin) / args.dk + 1e-9)) + 1
        if n_pts < 1:
            raise ConfigError("empty frequency grid")
        grid = args.kmin + args.dk * np.arange(n_pts)
    except (OverflowError, ValueError) as exc:  # numpy: too many points
        raise ConfigError(f"frequency grid too large: {exc}") from exc
    # open --out first, so an unwritable path fails before the sweep
    created = not os.path.lexists(args.out)
    fh = open(args.out, "w")
    try:
        with fh:
            sweep = scattering.reflectogram(net, grid)
            resonant = sweep.resonant
            if resonant.all():
                raise ResonanceError(
                    f"all {len(sweep)} frequencies are singular")
            m = net.m
            header = ["k", "re_R1", "im_R1", "abs_R1"]
            for j in range(2, m + 1):
                header += [f"re_T{j}", f"im_T{j}"]
            row_fmt = ",".join(["%.12g"] * len(header)) + "\n"
            nan_fmt = "%.12g" + ",NaN" * (len(header) - 1) + "\n"
            table = np.empty((len(sweep), len(header)))
            table[:, 0], table[:, 1], table[:, 2] = (sweep.k, sweep.R1.real,
                                                     sweep.R1.imag)
            # np.hypot is Python's abs(complex) to the bit; np.abs is not
            table[:, 3] = np.hypot(sweep.R1.real, sweep.R1.imag)
            table[:, 4::2], table[:, 5::2] = sweep.T.real, sweep.T.imag
            fh.write(",".join(header) + "\n")
            # one %-format per stretch of rows between two resonant rows
            lo = 0
            for hi in [*np.flatnonzero(resonant).tolist(), len(sweep)]:
                fh.write((row_fmt * (hi - lo))
                         % tuple(table[lo:hi].ravel().tolist()))
                if hi < len(sweep):
                    fh.write(nan_fmt % sweep.k[hi])
                lo = hi + 1
    except BaseException:
        # leave no partial CSV; a path that existed may be a device: keep it
        if created:
            os.remove(args.out)
        raise
    print(f"wrote {len(sweep)} rows to {args.out}")
    ill = ~resonant & (sweep.cond > scattering.COND_WARN)
    if ill.any():
        worst = np.flatnonzero(ill)[np.argmax(sweep.cond[ill])]
        print(f"warning: node system ill-conditioned at {int(ill.sum())} of "
              f"{len(sweep)} frequencies (worst cond "
              f"{float(sweep.cond[worst]):.3e} at "
              f"k={_fmt(float(sweep.k[worst]))})", file=sys.stderr)
    return 0


def read_reflectogram_csv(path):
    """Parse a cmd_forward CSV into a complex [n, 2] array of (k, R1) rows.

    NaN rows (flagged resonances) are kept, so the k grid stays whole; the
    inversion ignores them."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[:4] != ["k", "re_R1", "im_R1", "abs_R1"]:
                raise ConfigError(
                    f"{path}: not a reflectogram CSV (bad header)")
            with warnings.catch_warnings():
                # a header-only file has no samples; estimate_taus says so
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                k, re, im = np.loadtxt(fh, delimiter=",", usecols=(0, 1, 2),
                                       ndmin=2, unpack=True)
    except ValueError as exc:  # a malformed row, or a file that is not text
        raise ConfigError(f"{path}: {exc}") from exc
    if not np.all(k > 0):
        raise ConfigError(f"{path}: k must be positive")
    return np.column_stack([k, re + 1j * im])


def cmd_invert(args) -> int:
    rows = read_reflectogram_csv(args.csv)
    report = inversion.estimate_taus(rows)
    doc = {
        "m_hat": report.m_hat,
        "taus": report.taus,
        "poles": report.poles,
        "diagnostics": {
            "m_samples_used": report.m_samples_used,
            "m_abs_deviation": report.m_abs_deviation,
            "tau_fit_rms": report.residual_diagnostics,
        },
        "warnings": report.warnings,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    taus = ", ".join(f"{t:.6g}" for t in report.taus) or "none"
    print(f"m_hat={report.m_hat}  taus=[{taus}]  "
          f"poles={len(report.poles)}  warnings={len(report.warnings)}")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _run_checks(net):
    """Invariant battery for `validate`; yields (name, passed, detail)."""
    ks = [10.0, 17.3, 29.0]

    sweep = scattering.solve_scattering_batch(net, ks)
    if sweep.resonant.any():
        k = ks[int(np.argmax(sweep.resonant))]
        raise ResonanceError(f"node equation singular at k={k}")
    flux_err = float(np.max(np.abs(
        np.abs(sweep.R1) ** 2 + np.sum(np.abs(sweep.T) ** 2, axis=1) - 1.0)))
    yield ("flux_conservation", flux_err <= 1e-8, f"max err {flux_err:.3e}")

    A, saap = net.A, net.saap
    vals = sweep.node_values[..., 0] / A
    continuity = (np.max(np.abs(vals - vals[:, :1]), axis=1)
                  / (np.max(np.abs(vals), axis=1) + 1e-30))
    lhs = sweep.node_values[..., 1] @ A
    current = np.abs(lhs - saap * sweep.ybar) / (np.abs(lhs) + sweep.k)
    res = float(max(continuity.max(), current.max()))
    yield ("node_residuals", res <= 1e-10, f"max rel residual {res:.3e}")

    b1 = net.branches[0]
    k = ks[1]
    X = max(b1.potential.truncation, 0.5)
    xs = np.linspace(0.0, X, 10)
    f, df = jost.jost_profile(b1.potential, k, xs)
    ft, dft = jost.jost_tilde_profile(b1.potential, k, xs)
    w_vals = f * dft - df * ft
    w_var = float(np.max(np.abs(w_vals - w_vals[0])) /
                  (abs(w_vals[0]) + 1e-30))
    yield ("wronskian_constancy", w_var <= 1e-8, f"rel variation {w_var:.3e}")

    X_tr = max([b.potential.support_end
                for b in net.infinite_branches] + [1.0]) + 0.5
    gaps = {}
    for k, r1 in zip(ks, sweep.R1.tolist()):
        dx = min(1e-3, (2.0 * math.pi / k) / 24.0)
        r1_est = oracle.oracle_solve(net, k, dx, X_tr).R1_est
        gaps[f"k={k}"] = abs(r1 - r1_est) / (abs(r1_est) + 1e-9)
    yield ("oracle_comparison", all(g <= 1e-3 for g in gaps.values()),
           "; ".join(f"{name}: {g:.2e}" for name, g in gaps.items()))

    if net.finite_branches:
        ks, gaps = (6.0, 14.0), {}
        for j, b in enumerate(net.finite_branches, start=net.m + 1):
            tau, h = b.geometry.tau, b.geometry.h
            omega, _ = fundamental.fundamental_at(b.potential, tau, h, ks)
            ker = fundamental.fundamental_via_kernel(
                fundamental.solve_kernel(b.potential, tau), h, ks)
            gaps.update((f"b{j},k={k}", gap) for k, gap
                        in zip(ks, np.abs(omega - ker).tolist()))
        yield ("kernel_vs_ivp", all(g <= 1e-6 for g in gaps.values()),
               "; ".join(f"{name}: {g:.2e}" for name, g in gaps.items()))


def cmd_validate(args) -> int:
    net, _ = load_network(args.config)
    failed = []
    for name, passed, detail in _run_checks(net):
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if not passed:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 5
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="starscatter",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("forward", help="frequency sweep of R1 (and T_j)")
    f.add_argument("--config", required=True)
    f.add_argument("--kmin", type=float, required=True)
    f.add_argument("--kmax", type=float, required=True)
    f.add_argument("--dk", type=float, required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_forward)

    i = sub.add_parser("invert", help="recover m and travel times from a sweep")
    i.add_argument("--csv", required=True)
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_invert)

    v = sub.add_parser("validate", help="run the invariant battery")
    v.add_argument("--config", required=True)
    v.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except StarScatterError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"solver error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
