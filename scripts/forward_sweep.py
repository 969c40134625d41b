#!/usr/bin/env python3
"""Frequency sweep demo: reflection of a two-stub star network.

Builds a star with two infinite lines and two mismatched finite stubs
(travel times 1.0 and 1.7), sweeps the reflection coefficient over a k
range, and writes plot-ready CSV columns: k, |R1|, arg R1, and the pole
indicator g(k) = 2 Im(1/(1+R1)) whose spikes sit at k = (p+1/2) pi / tau.

    python3 scripts/forward_sweep.py --kmin 60 --kmax 90 --dk 0.01 --out sweep.csv
"""
import argparse
import cmath

import numpy as np

from starscatter import LineProfile, StarNetwork, reflectogram


def demo_network():
    return StarNetwork([
        LineProfile.uniform(1.0, 1.0),
        LineProfile.uniform(1.0, 1.0),
        LineProfile.uniform(1.0, 1.0, length=1.0),
        LineProfile.uniform(1.0, 1.0, length=1.7),
    ])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=float, default=60.0)
    ap.add_argument("--kmax", type=float, default=90.0)
    ap.add_argument("--dk", type=float, default=0.01)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    net = demo_network()
    grid = np.arange(args.kmin, args.kmax + args.dk / 2.0, args.dk)
    sweep = reflectogram(net, grid)

    lines = ["k,abs_R1,arg_R1,g"]
    for k, r, bad in zip(sweep.k.tolist(), sweep.R1.tolist(),
                         sweep.resonant.tolist()):
        if bad:
            lines.append(f"{k:.10g},NaN,NaN,NaN")
            continue
        g = 2.0 * (1.0 / (1.0 + r)).imag if abs(1.0 + r) > 1e-12 else \
            float("inf")
        lines.append(f"{k:.10g},{abs(r):.10g},{cmath.phase(r):.10g},"
                     f"{g:.10g}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(sweep)} rows to {args.out}")


if __name__ == "__main__":
    main()
