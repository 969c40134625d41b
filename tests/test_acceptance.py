"""Acceptance battery: eight pass/fail gates, one printed line each.

Each test prints `PASS [n] name: detail` (or FAIL) before asserting, so a
plain pytest run shows the per-criterion outcome lines.
"""
import json
import math
import time

import numpy as np
import pytest

from starscatter import cli, propagate
from starscatter.fundamental import fundamental_at, fundamental_via_kernel, \
    solve_kernel
from starscatter.inversion import ReflectogramSample, estimate_taus
from starscatter.jost import jost_batch
from starscatter.line_model import LineProfile
from starscatter.oracle import oracle_solve
from starscatter.scattering import solve_scattering, solve_scattering_batch

from conftest import closed_form_r1, direct_network, jost_ab, \
    random_smooth_network, sin2_bump, square_well, uniform_network


def report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{num}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def make_potential(fn, support_end):
    return LineProfile.direct(fn, support_end).potential


# shared by criteria 6 and 7: m=2, n=2, tau = {1.0, 1.7}, smooth potentials
BUMPS = {
    "inf1": (0.5, 0.8),
    "inf2": (-0.35, 0.7),
    "fin1": (0.4, 0.6),
    "fin2": (-0.3, 0.9),
}
TAUS = (1.0, 1.7)
HS = (0.12, -0.1)


def reference_network():
    return direct_network(
        [(sin2_bump(*BUMPS["inf1"]), BUMPS["inf1"][1]),
         (sin2_bump(*BUMPS["inf2"]), BUMPS["inf2"][1])],
        [(sin2_bump(*BUMPS["fin1"]), BUMPS["fin1"][1], TAUS[0], HS[0]),
         (sin2_bump(*BUMPS["fin2"]), BUMPS["fin2"][1], TAUS[1], HS[1])])


def test_criterion_1_uniform_junction_exactness():
    t0 = time.time()
    cases = [(1, ()), (2, ()), (3, ()), (1, (1.0,)), (2, (1.0, 1.7))]
    worst = 0.0
    for m, taus in cases:
        net = uniform_network(m, taus=taus)
        for k in np.arange(5.0, 101.0, 5.0):
            if any(abs(math.cos(k * t)) < 0.05 for t in taus):
                continue
            r1 = solve_scattering(net, float(k)).R1[0]
            worst = max(worst, abs(r1 - closed_form_r1(m, taus, k)))
            if m == 3 and not taus:
                worst = max(worst, abs(r1 + 1.0 / 3.0))
            if m == 2 and not taus:
                worst = max(worst, abs(r1))
    dt = time.time() - t0
    report(1, "uniform-junction exactness",
           worst <= 1e-10 and dt < 5.0,
           f"max |R1 - closed form| = {worst:.2e}, {dt:.1f}s")


def test_criterion_2_flux_conservation():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        net = random_smooth_network(rng, m_max=4, n_max=3, l1_cap=1.0)
        ks = np.sort(rng.uniform(5.0, 100.0, size=10))
        sweep = solve_scattering_batch(net, ks)
        flux = np.abs(sweep.R1) ** 2 + np.sum(np.abs(sweep.T) ** 2, axis=1)
        worst = max(worst, float(np.max(np.abs(flux - 1.0))))
    dt = time.time() - t0
    report(2, "flux conservation", worst <= 1e-8 and dt < 60.0,
           f"max |flux - 1| = {worst:.2e} over 500 solves, {dt:.1f}s")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst_rel, worst_ratio = 0.0, math.inf
    tested = 0
    while tested < 5:
        net = random_smooth_network(rng, m_max=3, n_max=2, l1_cap=0.8)
        # a relative comparison needs actual reflection to compare against
        if any(abs(solve_scattering(net, k).R1[0]) < 0.05
               for k in (10.0, 20.0, 40.0)):
            continue
        tested += 1
        X = max([b.potential.support_end
                 for b in net.infinite_branches] + [0.5]) + 0.5
        for k in (10.0, 20.0, 40.0):
            r1 = solve_scattering(net, k).R1[0]
            est = oracle_solve(net, k, 1e-3, X).R1_est
            worst_rel = max(worst_rel, abs(r1 - est) / (abs(est) + 1e-9))
        r1 = solve_scattering(net, 20.0).R1[0]
        gap_c = abs(r1 - oracle_solve(net, 20.0, 1e-3, X).R1_est)
        gap_f = abs(r1 - oracle_solve(net, 20.0, 5e-4, X).R1_est)
        worst_ratio = min(worst_ratio, gap_c / gap_f)
    dt = time.time() - t0
    report(3, "oracle equivalence",
           worst_rel <= 1e-3 and worst_ratio >= 3.0 and dt < 300.0,
           f"max rel gap {worst_rel:.2e}, min halving ratio "
           f"{worst_ratio:.1f}x, {dt:.1f}s")


def test_criterion_4_jost_asymptotics():
    t0 = time.time()
    V = make_potential(square_well(1.0, 1.0), 1.0)
    l1 = V.l1_norm
    ladder = [25.0, 50.0, 100.0, 200.0]
    ok = True
    details = []
    b_scaled, ld_max = [], []
    for kc in ladder:
        ks = np.linspace(kc - 1.0, kc + 1.0, 81)
        f0, df0 = jost_batch(V, ks)
        a, b = jost_ab(V, ks)
        bound = l1 / (2.0 * ks) * np.exp(l1 / ks)
        ok = ok and bool(np.all(np.abs(a - 1.0) <= bound + 1e-10))
        b_scaled.append(float(np.max(np.abs(b) * ks)))
        ld_max.append(float(np.max(np.abs(df0 / f0 - 1j * ks))))
    ok = ok and all(s <= 2.0 * b_scaled[0] + 0.1 for s in b_scaled)
    ok = ok and all(s <= 1.5 * ld_max[0] + 0.1 for s in ld_max)
    dt = time.time() - t0
    details.append(f"|b|k in [{min(b_scaled):.3f}, {max(b_scaled):.3f}]")
    details.append(f"|f'/f - ik| max {max(ld_max):.3f}")
    report(4, "Jost asymptotics", ok and dt < 10.0,
           "; ".join(details) + f", {dt:.1f}s")


def test_criterion_5_fundamental_asymptotics():
    t0 = time.time()
    V = make_potential(sin2_bump(1.2, 1.4), 1.4)
    tau, h = 1.4, 0.3
    ladder = [25.0, 50.0, 100.0, 200.0]
    val_scaled, der_scaled = [], []
    for kc in ladder:
        ks = np.linspace(kc - 1.0, kc + 1.0, 81)
        om, dom = propagate.sweep(V, 0.0, tau, ks, 1.0, h)
        val_scaled.append(float(np.max(np.abs(om - np.cos(ks * tau)) * ks)))
        der_scaled.append(float(np.max(np.abs(dom + ks * np.sin(ks * tau)))))
    ok = all(s <= 1.5 * val_scaled[0] + 1e-6 for s in val_scaled)
    ok = ok and all(s <= 1.5 * der_scaled[0] + 1e-6 for s in der_scaled)

    ks = (6.0, 14.0, 33.0)
    omega, _ = fundamental_at(V, tau, h, ks)
    kernel_gap = float(np.max(np.abs(
        fundamental_via_kernel(solve_kernel(V, tau), h, ks) - omega)))
    ok = ok and kernel_gap <= 1e-6
    dt = time.time() - t0
    report(5, "fundamental-solution asymptotics", ok and dt < 30.0,
           f"|omega-cos|k max {max(val_scaled):.3f}, |omega'+k sin| max "
           f"{max(der_scaled):.3f}, kernel gap {kernel_gap:.1e}, {dt:.1f}s")


def test_criterion_6_theorem_convergence():
    t0 = time.time()
    net = reference_network()
    window = []
    for kc in (25.0, 50.0, 100.0, 200.0):
        ks = np.linspace(kc - 2.0, kc + 2.0, 161)
        mask = np.ones_like(ks, dtype=bool)
        for tau in TAUS:
            mask &= np.abs(np.cos(ks * tau)) > 0.2
        sweep = solve_scattering_batch(net, ks[mask])
        gaps = [abs(r1 - closed_form_r1(2, TAUS, k))
                for k, r1 in zip(sweep.k.tolist(), sweep.R1.tolist())]
        window.append(max(gaps))
    ok = all(window[i + 1] <= window[i] + 1e-12
             for i in range(len(window) - 1))
    dt = time.time() - t0
    report(6, "high-frequency closed-form convergence", ok and dt < 60.0,
           "windowed max gaps " + ", ".join(f"{w:.4f}" for w in window)
           + f", {dt:.1f}s")


def write_reference_config(tmp_path):
    """JSON config mirroring reference_network(), via potential tables."""
    branches = []
    for name, kind, extra in (("inf1", "infinite", {}),
                              ("inf2", "infinite", {}),
                              ("fin1", "finite",
                               {"tau": TAUS[0], "h": HS[0]}),
                              ("fin2", "finite",
                               {"tau": TAUS[1], "h": HS[1]})):
        amp, width = BUMPS[name]
        xs = np.linspace(0.0, width, 1201)
        vs = sin2_bump(amp, width)(xs)
        table = tmp_path / f"{name}.csv"
        table.write_text("x,V\n" + "".join(f"{x:.12g},{v:.12g}\n"
                                           for x, v in zip(xs, vs)))
        branches.append({"kind": kind,
                         "direct": {"potential_table_path": f"{name}.csv",
                                    **extra}})
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({"schema_version": 1, "branches": branches}))
    return str(cfg)


def test_criterion_7_corollary_end_to_end(tmp_path):
    t0 = time.time()
    cfg = write_reference_config(tmp_path)
    csv = tmp_path / "sweep.csv"
    rc = cli.main(["forward", "--config", cfg, "--kmin", "60",
                   "--kmax", "160", "--dk", "0.005", "--out", str(csv)])
    out = tmp_path / "report.json"
    rc2 = cli.main(["invert", "--csv", str(csv), "--out", str(out)])
    doc = json.loads(out.read_text())
    dt = time.time() - t0
    ok = (rc == 0 and rc2 == 0 and doc["m_hat"] == 2
          and len(doc["taus"]) == 2
          and abs(doc["taus"][0] - 1.0) / 1.0 < 0.01
          and abs(doc["taus"][1] - 1.7) / 1.7 < 0.01
          and dt < 120.0)
    report(7, "end-to-end topology recovery", ok,
           f"m_hat={doc['m_hat']}, taus={doc['taus']}, {dt:.1f}s")


def test_criterion_8_sign_robustness():
    ks = np.arange(60.0, 160.0, 0.005)
    S = np.tan(ks * TAUS[0]) + np.tan(ks * TAUS[1])
    chain = (0.0 + 1j * S) / (2.0 - 1j * S)
    printed = (0.0 - 1j * S) / (2.0 + 1j * S)
    rep_a = estimate_taus([ReflectogramSample(float(k), complex(r))
                           for k, r in zip(ks, chain)])
    rep_b = estimate_taus([ReflectogramSample(float(k), complex(r))
                           for k, r in zip(ks, printed)])
    ok = len(rep_a.taus) == len(rep_b.taus) == 2 and all(
        abs(a - b) <= 1e-9 for a, b in zip(rep_a.taus, rep_b.taus))
    report(8, "sign-convention robustness", ok,
           f"taus {rep_a.taus} vs {rep_b.taus}")
