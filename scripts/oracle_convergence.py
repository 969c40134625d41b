#!/usr/bin/env python3
"""Grid-convergence study of the finite-difference cross-check solver.

Solves one smooth nonuniform network with both the constructed scattering
solution and the independent finite-difference graph solver at a ladder of
grid steps, and prints the |R1 - R1_est| gap at each step together with
the observed order (second order means each halving divides the gap by
about four).

    python3 scripts/oracle_convergence.py --k 20 --levels 4
"""
import argparse
import math

import numpy as np

from starscatter import LineProfile, StarNetwork, oracle_solve, \
    solve_scattering


def bump(amplitude, width):
    def V(x):
        x = np.asarray(x, dtype=float)
        out = amplitude * np.sin(np.pi * x / width) ** 2
        return np.where((x >= 0.0) & (x <= width), out, 0.0)
    return V


def demo_network():
    return StarNetwork([
        LineProfile.direct(bump(0.6, 0.9), 0.9),
        LineProfile.direct(bump(-0.4, 0.7), 0.7),
        LineProfile.direct(bump(0.5, 0.8), 0.8, tau=1.2, h=0.15),
    ])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=float, default=20.0)
    ap.add_argument("--dx0", type=float, default=2e-3)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()

    net = demo_network()
    X = 1.4
    exact = solve_scattering(net, args.k).R1[0]
    print(f"k = {args.k}, reference R1 = {exact:.10f}")
    print(f"{'dx':>10}  {'|gap|':>12}  {'ratio':>8}  {'order':>6}")
    prev = None
    dx = args.dx0
    for _ in range(args.levels):
        gap = abs(oracle_solve(net, args.k, dx, X).R1_est - exact)
        if prev is None:
            print(f"{dx:10.2e}  {gap:12.3e}")
        else:
            ratio = prev / gap
            print(f"{dx:10.2e}  {gap:12.3e}  {ratio:8.2f}  "
                  f"{math.log2(ratio):6.2f}")
        prev = gap
        dx /= 2.0
    print("expected order: at least 2 (the dispersion-corrected stencil "
          "often does better)")


if __name__ == "__main__":
    main()
