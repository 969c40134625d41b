"""Command-line front end: configs, sweeps, inversion, validation."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from starscatter import cli, fundamental, inversion, scattering
from starscatter.line_model import PotentialFn
from starscatter.errors import ResonanceError

from conftest import fake_singular_stub, write_sin2_table

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def uniform_branch(kind="infinite", length=None):
    prof = {"family": "uniform", "inductance": 1.0, "capacitance": 1.0}
    if length is not None:
        prof["length"] = length
    return {"kind": kind, "profile": prof}


def uniform_config(m, stub_lengths=()):
    return {"schema_version": 1,
            "branches": [uniform_branch() for _ in range(m)]
            + [uniform_branch("finite", length) for length in stub_lengths]}


def write_zero_csv(tmp_path):
    """A 100-row reflectogram CSV with R1 = 0, enough to invert."""
    csv = tmp_path / "zeros.csv"
    csv.write_text("k,re_R1,im_R1,abs_R1\n"
                   + "".join(f"{60 + 0.01 * i},0,0,0\n" for i in range(100)))
    return csv


def write_closed_form_csv(tmp_path, nan_row=None, name="closed.csv"):
    """A reflectogram CSV of the closed form for m = 2, taus (1.0, 1.7) on
    k in [60, 100), with row `nan_row` written as forward writes a singular
    frequency."""
    ks = np.arange(60.0, 100.0, 0.005)
    S = np.tan(ks) + np.tan(1.7 * ks)
    r1 = 1j * S / (2.0 - 1j * S)
    rows = [f"{k!r},NaN,NaN,NaN" if i == nan_row
            else f"{k!r},{r.real!r},{r.imag!r},{abs(r)!r}"
            for i, (k, r) in enumerate(zip(ks.tolist(), r1.tolist()))]
    csv = tmp_path / name
    csv.write_text("k,re_R1,im_R1,abs_R1\n" + "\n".join(rows) + "\n")
    return csv


def table_fault_config(tmp_path, fault):
    """A config whose one table is malformed; returns (path, key named)."""
    rows = [f"{0.1 * i},{0.01 * i}" for i in range(8)]
    if fault == "sampled_cell":
        (tmp_path / "L.csv").write_text(
            "z,L\n" + "".join(f"{0.1 * i},{'x' if i == 3 else 1}\n"
                              for i in range(8)))
        (tmp_path / "C.csv").write_text(
            "z,C\n" + "".join(f"{0.1 * i},1\n" for i in range(8)))
        branch = {"kind": "finite", "profile": {
            "family": "sampled_table", "inductance_table_path": "L.csv",
            "capacitance_table_path": "C.csv"}}
    else:
        if fault == "direct_header_only":
            rows = []
        elif fault == "direct_cell":
            rows[3] = "0.3,abc"
        elif fault == "direct_nan":
            rows[3] = "0.3,nan"
        else:  # direct_x_order
            rows[2], rows[3] = rows[3], rows[2]
        (tmp_path / "V.csv").write_text("".join(
            f"{row}\n" for row in ["x,V", *rows]))
        branch = {"kind": "infinite",
                  "direct": {"potential_table_path": "V.csv"}}
    doc = {"schema_version": 1, "branches": [uniform_branch(), branch]}
    return write_config(tmp_path, doc), "branches[1]"


TABLE_FAULTS = ("direct_cell", "direct_nan", "direct_x_order",
                "direct_header_only", "sampled_cell")


class TestForward:
    def test_three_way_junction(self, tmp_path, capsys):
        cfg = write_config(tmp_path, uniform_config(3))
        out = tmp_path / "sweep.csv"
        rc = cli.main(["forward", "--config", cfg, "--kmin", "10",
                       "--kmax", "12", "--dk", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,re_R1,im_R1,abs_R1,re_T2,im_T2,re_T3,im_T3"
        assert len(lines) == 4
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_matched_line_zero_reflection(self, tmp_path):
        cfg = write_config(tmp_path, uniform_config(2))
        out = tmp_path / "sweep.csv"
        assert cli.main(["forward", "--config", cfg, "--kmin", "5",
                         "--kmax", "6", "--dk", "0.5", "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert float(line.split(",")[3]) == 0.0

    def test_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path, uniform_config(1, [1.0]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["forward", "--config", cfg, "--kmin", "10", "--kmax", "11",
                "--dk", "0.01"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "branches": [}')
        rc = cli.main(["forward", "--config", str(path), "--kmin", "5",
                       "--kmax", "6", "--dk", "1", "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_not_text(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xaf\x00\xff")
        rc = cli.main(["forward", "--config", str(path), "--kmin", "5",
                       "--kmax", "6", "--dk", "1", "--out",
                       str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_missing_key_named(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "branches": [{"profile": {"family": "uniform"}}]}
        rc = cli.main(["forward", "--config", write_config(tmp_path, doc),
                       "--kmin", "5", "--kmax", "6", "--dk", "1",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "branches[0].kind" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, uniform_config(2))
        rc = cli.main(["forward", "--config", cfg, "--kmin", "5",
                       "--kmax", "6", "--dk", "-1",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        rc = cli.main(["forward", "--config", cfg, "--kmin", "0.01",
                       "--kmax", "6", "--dk", "1",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--kmin", "--kmax", "--dk"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_grid(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, uniform_config(2))
        grid = {"--kmin": "5", "--kmax": "6", "--dk": "1", flag: value}
        rc = cli.main(["forward", "--config", cfg,
                       *[x for kv in grid.items() for x in kv],
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, uniform_config(2))

        def boom(*a, **kw):
            raise ResonanceError("synthetic failure")

        monkeypatch.setattr(cli.scattering, "reflectogram", boom)
        rc = cli.main(["forward", "--config", cfg, "--kmin", "5",
                       "--kmax", "6", "--dk", "1",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert not (tmp_path / "o.csv").exists()

    def test_all_frequencies_singular_exit_code(self, tmp_path, monkeypatch,
                                                capsys):
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        fake_singular_stub(monkeypatch, lambda k: np.ones(k.shape, bool))
        rc = cli.main(["forward", "--config", cfg, "--kmin", "5",
                       "--kmax", "6", "--dk", "0.5",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "all 3 frequencies are singular" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_singular_k_written_as_nan_row(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        net, _ = cli.load_network(cfg)
        fake_singular_stub(monkeypatch, lambda k: np.abs(k - 5.5) < 1e-9)
        out = tmp_path / "o.csv"
        assert cli.main(["forward", "--config", cfg, "--kmin", "5",
                         "--kmax", "6", "--dk", "0.5",
                         "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert rows[1] == "5.5,NaN,NaN,NaN,NaN,NaN"
        for k, row in ((5.0, rows[0]), (6.0, rows[2])):
            c = scattering.solve_scattering(net, k)
            fields = [k, c.R1.real, c.R1.imag, abs(c.R1),
                      c.T[0].real, c.T[0].imag]
            assert row == ",".join(cli._fmt(x) for x in fields)
        with pytest.raises(ResonanceError):
            scattering.solve_scattering(net, 5.5)

    def test_ill_conditioned_node_warning(self, tmp_path, capsys):
        # two equal unit stubs carry an embedded eigenvalue at k = 3 pi / 2
        cfg = write_config(tmp_path, uniform_config(2, [1.0, 1.0]))
        k = repr(1.5 * math.pi)
        out = tmp_path / "o.csv"
        rc = cli.main(["forward", "--config", cfg, "--kmin", k, "--kmax", k,
                       "--dk", "1", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 2
        err = capsys.readouterr().err
        assert "node system ill-conditioned at 1 of 1 frequencies" in err
        assert "k=4.71238898038" in err

    @pytest.mark.parametrize("fault", TABLE_FAULTS)
    def test_table_fault_exit_code(self, tmp_path, capsys, fault):
        cfg, key = table_fault_config(tmp_path, fault)
        rc = cli.main(["forward", "--config", cfg, "--kmin", "5",
                       "--kmax", "6", "--dk", "1",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_unwritable_out(self, tmp_path, monkeypatch, capsys):
        # the output is opened first, so a bad path costs no sweep
        cfg = write_config(tmp_path, uniform_config(2))
        sweeps = []
        real = cli.scattering.reflectogram
        monkeypatch.setattr(cli.scattering, "reflectogram",
                            lambda *a: sweeps.append(a) or real(*a))
        rc = cli.main(["forward", "--config", cfg, "--kmin", "5",
                       "--kmax", "6", "--dk", "1",
                       "--out", str(tmp_path / "missing" / "o.csv")])
        assert rc == 2 and sweeps == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_csv_independent_of_cpu_count(self, tmp_path, monkeypatch):
        # sampled tables, so each branch's cells depend on the grid's k_max
        write_sin2_table(tmp_path / "inf.csv", 0.5, 0.8)
        write_sin2_table(tmp_path / "fin.csv", 0.4, 0.6)
        doc = {"schema_version": 1, "branches": [
            {"kind": "infinite",
             "direct": {"potential_table_path": "inf.csv"}},
            {"kind": "finite",
             "direct": {"potential_table_path": "fin.csv", "tau": 1.0,
                        "h": 0.12}}]}
        cfg = write_config(tmp_path, doc)
        csvs = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert cli.main(["forward", "--config", cfg, "--kmin", "20",
                             "--kmax", "60", "--dk", "0.01",
                             "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]


class TestInvert:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, uniform_config(1, [1.0]))
        csv = tmp_path / "sweep.csv"
        assert cli.main(["forward", "--config", cfg, "--kmin", "60",
                         "--kmax", "80", "--dk", "0.005",
                         "--out", str(csv)]) == 0
        report = tmp_path / "report.json"
        rc = cli.main(["invert", "--csv", str(csv), "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["m_hat"] == 1
        assert len(doc["taus"]) == 1
        assert abs(doc["taus"][0] - 1.0) < 0.01
        assert "m_hat=1" in capsys.readouterr().out

    def test_all_zero_reflection(self, tmp_path):
        csv = tmp_path / "zeros.csv"
        rows = ["k,re_R1,im_R1,abs_R1"]
        for k in np.arange(60.0, 61.0, 0.01):
            rows.append(f"{k},0,0,0")
        csv.write_text("\n".join(rows) + "\n")
        report = tmp_path / "r.json"
        assert cli.main(["invert", "--csv", str(csv),
                         "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["m_hat"] == 2
        assert doc["taus"] == []

    def test_too_few_rows(self, tmp_path):
        csv = tmp_path / "short.csv"
        csv.write_text("k,re_R1,im_R1,abs_R1\n"
                       + "".join(f"{60 + i},0,0,0\n" for i in range(5)))
        assert cli.main(["invert", "--csv", str(csv)]) == 4

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one(self, tmp_path, capsys, max_n):
        csv = tmp_path / "zeros.csv"
        csv.write_text("k,re_R1,im_R1,abs_R1\n"
                       + "".join(f"{60 + 0.01 * i},0,0,0\n"
                                 for i in range(100)))
        assert cli.main(["invert", "--csv", str(csv), "--max-n", max_n]) == 2
        assert "--max-n" in capsys.readouterr().err

    def test_nan_rows_skipped(self, tmp_path):
        # the reader keeps a NaN row, so the grid stays whole; the
        # inversion then skips it
        csv = tmp_path / "gaps.csv"
        rows = ["k,re_R1,im_R1,abs_R1"]
        for i, k in enumerate(np.arange(60.0, 61.0, 0.01)):
            rows.append(f"{k},NaN,NaN,NaN" if i == 3 else f"{k},0,0,0")
        csv.write_text("\n".join(rows) + "\n")
        samples = cli.read_reflectogram_csv(str(csv))
        assert isinstance(samples, np.ndarray)
        assert samples.shape == (100, 2)
        assert np.flatnonzero(np.isnan(samples[:, 1])).tolist() == [3]
        assert inversion.estimate_taus(samples).m_samples_used == 99

    def test_nan_row_inverts_like_full_file(self, tmp_path):
        full, gapped = tmp_path / "full.json", tmp_path / "gapped.json"
        for nan_row, out in ((None, full), (4000, gapped)):
            csv = write_closed_form_csv(tmp_path, nan_row)
            assert cli.main(["invert", "--csv", str(csv),
                             "--out", str(out)]) == 0
        a, b = json.loads(full.read_text()), json.loads(gapped.read_text())
        assert b["m_hat"] == a["m_hat"] == 2
        assert len(b["taus"]) == len(a["taus"]) == 2
        assert b["taus"] == pytest.approx(a["taus"], rel=1e-6)

    def test_builds_no_object_per_row(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("invert built a ReflectogramSample")

        monkeypatch.setattr(inversion, "ReflectogramSample", refuse)
        csv = write_closed_form_csv(tmp_path)
        assert cli.main(["invert", "--csv", str(csv)]) == 0

    def test_unwritable_out(self, tmp_path, capsys):
        csv = write_zero_csv(tmp_path)
        rc = cli.main(["invert", "--csv", str(csv),
                       "--out", str(tmp_path / "missing" / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("row", ["60.01,0", "0,0,0,0"])
    def test_malformed_row(self, tmp_path, capsys, row):
        # a truncated row, and a row with k <= 0
        csv = tmp_path / "bad.csv"
        csv.write_text(f"k,re_R1,im_R1,abs_R1\n60,0,0,0\n{row}\n")
        assert cli.main(["invert", "--csv", str(csv)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {csv}")

    def test_header_only(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("k,re_R1,im_R1,abs_R1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["invert", "--csv", str(csv)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_header(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("frequency,r\n1,0\n")
        assert cli.main(["invert", "--csv", str(csv)]) == 2


class TestValidate:
    def test_uniform_three_way(self, tmp_path, capsys):
        cfg = write_config(tmp_path, uniform_config(3))
        assert cli.main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS flux_conservation" in out
        assert "PASS oracle_comparison" in out
        assert "FAIL" not in out

    def test_direct_potential_network(self, tmp_path, capsys):
        xs = np.linspace(0.0, 0.6, 121)
        vs = 0.5 * np.sin(np.pi * xs / 0.6) ** 2
        table = tmp_path / "V.csv"
        table.write_text("x,V\n" + "".join(f"{x},{v}\n"
                                           for x, v in zip(xs, vs)))
        doc = {"schema_version": 1, "branches": [
            {"kind": "infinite",
             "direct": {"potential_table_path": "V.csv"}},
            {"kind": "finite",
             "direct": {"potential_table_path": "V.csv", "tau": 0.9,
                        "h": 0.2}}]}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS kernel_vs_ivp" in out
        assert "FAIL" not in out

    def test_a5_violation_rejected_at_load(self, tmp_path, capsys):
        doc = uniform_config(2)
        doc["branches"][1]["profile"]["capacitance"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "matched-node" in capsys.readouterr().err

    def test_failing_check_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, uniform_config(3))

        def rigged(net):
            yield ("flux_conservation", False, "rigged")

        monkeypatch.setattr(cli, "_run_checks", rigged)
        assert cli.main(["validate", "--config", cfg]) == 5
        assert "flux_conservation" in capsys.readouterr().err

    def test_checks_share_one_batched_solve(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        calls = {"batch": 0, "single": 0}
        real_batch = scattering.solve_scattering_batch
        real_single = scattering.solve_scattering

        def batch(net, k):
            calls["batch"] += 1
            return real_batch(net, k)

        def single(net, k):
            calls["single"] += 1
            return real_single(net, k)

        monkeypatch.setattr(scattering, "solve_scattering_batch", batch)
        monkeypatch.setattr(scattering, "solve_scattering", single)
        assert cli.main(["validate", "--config", cfg]) == 0
        assert calls == {"batch": 1, "single": 0}

    def test_header_only_table(self, tmp_path, capsys):
        cfg, key = table_fault_config(tmp_path, "direct_header_only")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert key in err[0] and "no data rows" in err[0]

    def test_free_stubs_cost_no_integration(self, tmp_path, monkeypatch,
                                            capsys):
        # on V = 0 branches the Jost profiles and fundamental_at are closed
        # forms, and the kernel is the zero table, read without a spline or
        # a quadrature: no RK45 run and no V evaluation behind any of them
        cfg = write_config(tmp_path, uniform_config(2, [1.0, 1.7]))
        calls, v_calls, in_kernel = [], [], []
        real_call = PotentialFn.__call__
        real_kernel = fundamental.solve_kernel

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        def counted_call(self, x):
            if in_kernel:
                v_calls.append(np.size(x))
            return real_call(self, x)

        def kernel(V, tau):
            in_kernel.append(tau)
            try:
                return real_kernel(V, tau)
            finally:
                in_kernel.pop()

        for mod, name in ((fundamental, "_rk45"), (cli.jost, "_rk45"),
                          (fundamental, "CubicSpline"),
                          (fundamental, "simpson")):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        monkeypatch.setattr(PotentialFn, "__call__", counted_call)
        monkeypatch.setattr(fundamental, "solve_kernel", kernel)
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "PASS kernel_vs_ivp" in capsys.readouterr().out
        assert calls == [] and v_calls == []

    def test_resonant_check_frequency_exit_code(self, tmp_path, monkeypatch,
                                                capsys):
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        fake_singular_stub(monkeypatch, lambda k: np.abs(k - 17.3) < 1e-9)
        assert cli.main(["validate", "--config", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error: ")
        assert "k=17.3" in err[0]


def test_no_traceback_from_module_entry(tmp_path):
    """The inputs that once ended in a traceback exit 2 with one line."""
    uni = write_config(tmp_path, uniform_config(2))
    csv = write_zero_csv(tmp_path)
    missing = tmp_path / "missing"
    cases = [["forward", "--config", uni, "--kmin", "5", "--kmax", "6",
              "--dk", "1", "--out", str(missing / "o.csv")],
             ["invert", "--csv", str(csv), "--out", str(missing / "r.json")]]
    for fault in TABLE_FAULTS:
        sub = tmp_path / fault
        sub.mkdir()
        cases.append(["validate", "--config",
                      table_fault_config(sub, fault)[0]])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in cases:
        proc = subprocess.run([sys.executable, "-m", "starscatter.cli",
                               *argv], env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
