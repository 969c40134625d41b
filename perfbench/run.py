#!/usr/bin/env python3
"""Benchmark of starscatter's forward sweep, inversion and validation.

    python3 perfbench/run.py --workload wide-star --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seconds 50     # every workload, in turn

A run builds the workload's inputs from the seed and makes one untimed
warm-up round.  It then repeats whole rounds until --seconds have passed:
each round times set-up in a fresh interpreter and the workload's
operations in this process, and checks every output.  The last line of
standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREADS_ENV = "STAR_SCATTER_THREADS"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

E2E = ("setup_s", "forward_s", "invert_s", "validate_s", "peak_rss_mb")
UNITS = {"peak_rss_mb": "MB", "inversion.samples": "count",
         "inversion.poles": "count", "scattering.frequencies": "count"}


def import_cli():
    """starscatter.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "starscatter" / "cli.py").is_file():
        sys.exit(f"error: no starscatter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from starscatter import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: imported starscatter from {cli.__file__}")
    return cli


def setup_probe(config):
    """One fresh interpreter that imports the CLI and, given a config,
    builds the network.  Returns the probe's own import split plus the wall
    time seen from here, interpreter start and exit included."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    if config is not None:
        argv.append(str(config))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.splitlines()[-1])
    if SRC not in Path(info["module"]).resolve().parents:
        sys.exit(f"error: set-up probe imported {info['module']}")
    return dict(info, wall_s=wall)


def threaded_reflectogram(cli, wl, tracer):
    """The forward sweep once more with the thread pool the CLI uses by
    default (one thread per CPU), for the threaded-vs-serial comparison;
    only the traced run makes it."""
    from starscatter import scattering
    net, _ = cli.load_network(wl.config)
    kgrid = workloads.grid(workloads.K_MIN, wl.kmax, workloads.DK)
    with tracer.operation("threaded"):
        scattering.reflectogram(net, kgrid, threads=os.cpu_count() or 1)


def run_workload(name, seed, seconds, trace):
    # forward runs on one thread: on two CPUs the pool's overlap comes and
    # goes with load from outside, which moved the threaded wall time by up
    # to 40% between runs; the traced run still times the pool on its own
    os.environ[THREADS_ENV] = "1"
    cli = import_cli()
    workdir = OUT / name
    wl = workloads.build(name, workdir, seed)

    # warm-up: the first probe compiles bytecode, the first round fills
    # caches; both are checked and neither is timed
    setup_probe(wl.setup_config)
    rounds = [wl.run_round(cli)]
    setup, timed, layers, spans = [], {}, [], []
    t_end = time.perf_counter() + seconds
    while True:
        t_round = time.perf_counter()
        setup.append(setup_probe(wl.setup_config))
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                r = wl.run_round(cli, tracer)
                if isinstance(wl, workloads.SweepWorkload):
                    threaded_reflectogram(cli, wl, tracer)
            layers.append(tracing.layer_times(tracer.spans))
            spans.extend(tracer.spans)
        else:
            r = wl.run_round(cli)
        rounds.append(r)
        for key, values in r.times.items():
            timed.setdefault(key, []).extend(values)
        # stop before a round that would likely end past --seconds
        now = time.perf_counter()
        if now + (now - t_round) > t_end:
            break

    errors = [e for r in rounds for e in r.errors]
    for e in errors:
        print(f"{name}: check failed: {e}", file=sys.stderr)
    med = {key: statistics.median(v) for key, v in timed.items()}
    if trace:
        metrics = {key: statistics.median(lay[key] for lay in layers)
                   for key in layers[0]}
        metrics["cli.import_s"] = statistics.median(
            s["import_s"] for s in setup)
        metrics["cli.import_scipy_s"] = statistics.median(
            s["import_scipy_s"] for s in setup)
        tracing.write_spans(spans, workdir / "trace.json")
        print(f"{name}: traced rounds {len(layers)}, "
              + ", ".join(f"{k} {v:.4f} s" for k, v in med.items()))
    else:
        metrics = dict(med)
        metrics["setup_s"] = statistics.median(s["wall_s"] for s in setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {k: metrics[k] for k in E2E if k in metrics}
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")}
                    for k, v in metrics.items()},
    }
    for k, v in result["metrics"].items():
        print(f"{name}/{k} {v['value']:.6g} {v['unit']}")
    print(f"{name}/attempted {result['attempted']}  "
          f"{name}/failed {result['failed']}")
    return result


def run_all(args):
    """Each workload in a process of its own, so that each peak RSS is the
    peak of the process that ran that workload alone."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900,
            check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
