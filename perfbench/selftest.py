#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one round of every workload at a tiny size and requires its checks to
pass, then feeds each checker a corrupted output (R1 moved by 1e-6, a
travel time off by 2%, a wrong m, a FAIL line) and requires a rejection.
A traced round must yield every per-layer metric BENCHMARK.json declares.
Exits 1 if anything is not as expected.
"""
from __future__ import annotations

import json
import sys

import numpy as np

import run
import tracer as tracing
import workloads

PERTURB = 1e-6


def main():
    cli = run.import_cli()
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    built = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, run.OUT / "selftest" / name, seed=1,
                             tiny=True)
        r = wl.run_round(cli)
        expect(not r.errors and r.attempted > 0,
               f"{name}: tiny round passes its checks {r.errors}")
        built[name] = wl

    wide = built["wide-star"]
    k, r1, _ = workloads.read_sweep_csv(wide.csv)
    err = workloads.closed_form_error(k, r1, wide.m, wide.taus)
    expect(err <= workloads.CLOSED_FORM_TOL,
           f"closed form accepts the sweep (max gap {err:.2e})")
    err = workloads.closed_form_error(k, r1 + PERTURB, wide.m, wide.taus)
    expect(err > workloads.CLOSED_FORM_TOL,
           f"closed form rejects R1 + {PERTURB:g} (max gap {err:.2e})")

    smooth = built["smooth-sweep"]
    k, r1, t = workloads.read_sweep_csv(smooth.csv)
    err = workloads.flux_error(r1, t)
    expect(err <= workloads.FLUX_TOL, f"flux accepts the sweep ({err:.2e})")
    err = workloads.flux_error(r1 + PERTURB, t)
    expect(err > workloads.FLUX_TOL,
           f"flux rejects R1 + {PERTURB:g} ({err:.2e})")

    m, taus = smooth.m, smooth.taus
    expect(workloads.inversion_ok(m, taus, m, taus), "inversion accepts truth")
    off = [taus[0] * 1.02] + taus[1:]
    expect(not workloads.inversion_ok(m, off, m, taus),
           "inversion rejects a travel time off by 2%")
    expect(not workloads.inversion_ok(m + 1, taus, m, taus),
           "inversion rejects a wrong m")
    expect(not workloads.inversion_ok(m, taus[:-1], m, taus),
           "inversion rejects a missing travel time")

    expect(workloads.validate_ok("PASS a: x\nPASS b: y\n"),
           "validate accepts PASS lines")
    expect(not workloads.validate_ok("PASS a: x\nFAIL b: y\n"),
           "validate rejects a FAIL line")
    expect(not workloads.validate_ok(""), "validate rejects empty output")

    tracer = tracing.Tracer()
    with tracer.installed():
        smooth.run_round(cli, tracer)
    names = set(tracing.layer_times(tracer.spans)) | {
        "cli.import_s", "cli.import_scipy_s"}
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    expect(names == {m["name"] for m in spec["per_layer"]},
           "a traced round yields exactly the per-layer metrics declared")

    kk = np.linspace(60.0, 61.0, 11)
    clean = workloads.closed_form_r1(2, [1.0, 1.7], kk)
    expect(workloads.closed_form_error(kk, clean, 2, [1.0, 1.7]) == 0.0,
           "numpy closed form is self-consistent")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
