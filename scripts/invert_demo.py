#!/usr/bin/env python3
"""End-to-end topology recovery demo.

Builds a star network with smooth nonuniform potentials (2 infinite
branches, finite stubs with travel times 1.0 and 1.7), sweeps the exact
forward solver over a high-frequency window, and feeds the reflectogram to
the inversion routine.  Prints the recovered branch count and travel times
next to the ground truth.

    python3 scripts/invert_demo.py --kmin 60 --kmax 160 --dk 0.005
"""
import argparse

import numpy as np

from starscatter import LineProfile, StarNetwork, estimate_taus, \
    reflectogram


def bump(amplitude, width):
    def V(x):
        x = np.asarray(x, dtype=float)
        out = amplitude * np.sin(np.pi * x / width) ** 2
        return np.where((x >= 0.0) & (x <= width), out, 0.0)
    return V


def demo_network():
    profiles = []
    for amp, width in ((0.5, 0.8), (-0.35, 0.7)):
        profiles.append(LineProfile.direct(bump(amp, width), width))
    for amp, width, tau, h in ((0.4, 0.6, 1.0, 0.12),
                               (-0.3, 0.9, 1.7, -0.1)):
        profiles.append(LineProfile.direct(bump(amp, width), width,
                                           tau=tau, h=h))
    return StarNetwork(profiles)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=float, default=60.0)
    ap.add_argument("--kmax", type=float, default=160.0)
    ap.add_argument("--dk", type=float, default=0.005)
    args = ap.parse_args()

    net = demo_network()
    ks = np.arange(args.kmin, args.kmax, args.dk)
    print(f"forward sweep: {ks.size} frequencies on "
          f"[{args.kmin}, {args.kmax})")
    sweep = reflectogram(net, ks)
    report = estimate_taus(np.column_stack([sweep.k, sweep.R1]))
    print("true     : m = 2, taus = [1.0, 1.7]")
    print(f"recovered: m = {report.m_hat}, taus = "
          + "[" + ", ".join(f"{t:.6f}" for t in report.taus) + "]")
    print(f"poles used: {len(report.poles)}, ladder rms misfits: "
          + ", ".join(f"{r:.2e}" for r in report.residual_diagnostics))
    for w in report.warnings:
        print(f"warning: {w}")


if __name__ == "__main__":
    main()
