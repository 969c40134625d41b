"""Command-line front end: configs, sweeps, inversion, validation."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from starscatter import cli, csvtext, fundamental, inversion, propagate, \
    scattering
from starscatter.errors import ResonanceError

from conftest import fake_singular_stub, smooth_demo_star, write_sin2_table

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def uniform_branch(kind="infinite", length=None, inductance=1.0,
                   capacitance=1.0):
    prof = {"family": "uniform", "inductance": inductance,
            "capacitance": capacitance}
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

# a finite branch of each spec kind that reads every optional number
VALUE_BRANCHES = {
    "uniform": {"family": "uniform", "inductance": 1.0, "capacitance": 1.0,
                "length": 1.0},
    "taper": {"family": "exponential_taper", "gamma": 0.2, "length": 1.3,
              "slowness": 1.0, "scale": 1.0},
    "direct": {"potential_table_path": "V.csv", "support_end": 0.5,
               "A0": 1.0, "A0prime": 0.0, "tau": 0.9, "h": 0.2},
}
VALUE_KEYS = [(spec, key) for spec, keys in VALUE_BRANCHES.items()
              for key in keys if key not in ("family", "potential_table_path")]
BAD_VALUES = ["abc", None, True, [1], math.nan, math.inf, -math.inf]


def value_config(tmp_path, spec=None, key=None, value=None):
    """A line and the three VALUE_BRANCHES, with branch `spec`'s `key` set
    to `value` (JSON writes NaN and Infinity as those literals)."""
    write_sin2_table(tmp_path / "V.csv", 0.4, 0.6)
    branches = [uniform_branch()]
    for name, fields in VALUE_BRANCHES.items():
        fields = dict(fields)
        if name == spec:
            fields[key] = value
        branches.append({"kind": "finite",
                         "direct" if name == "direct" else "profile": fields})
    return write_config(tmp_path, {"schema_version": 1,
                                   "branches": branches})


def forward_exit(cfg, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["forward", "--config", cfg, "--kmin", "5",
                         "--kmax", "6", "--dk", "1",
                         "--out", str(tmp_path / "o.csv")])


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

    def test_finite_branch_listed_first(self, tmp_path):
        # the network numbers infinite branches first, whatever the order
        write_sin2_table(tmp_path / "V.csv", 0.4, 0.6)
        bump = {"kind": "infinite", "direct": {"potential_table_path": "V.csv"}}
        stub = uniform_branch("finite", 1.3)
        csvs = []
        for name, branches in (("first", [stub, uniform_branch(), bump]),
                               ("last", [uniform_branch(), bump, stub])):
            cfg = write_config(tmp_path, {"schema_version": 1,
                                          "branches": branches}, f"{name}.json")
            out = tmp_path / f"{name}.csv"
            assert cli.main(["forward", "--config", cfg, "--kmin", "10",
                             "--kmax", "11", "--dk", "0.1",
                             "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

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

    def test_value_config_runs(self, tmp_path):
        assert forward_exit(value_config(tmp_path), tmp_path) == 0

    @pytest.mark.parametrize("spec,key", VALUE_KEYS)
    @pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
    def test_bad_config_number(self, tmp_path, capsys, spec, key, value):
        cfg = value_config(tmp_path, spec, key, value)
        assert forward_exit(cfg, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f".{key}'" in err[0]

    def test_non_positive_length_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, uniform_config(1, [-1.0]))
        assert forward_exit(cfg, tmp_path) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: 'branches[1]': length must be > 0, got -1.0"]

    @pytest.mark.parametrize("spec", ["profile", "direct"])
    def test_spec_not_an_object(self, tmp_path, capsys, spec):
        doc = {"schema_version": 1,
               "branches": [uniform_branch(), {"kind": "finite", spec: 5}]}
        assert forward_exit(write_config(tmp_path, doc), tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: 'branches[1].{spec}' has wrong type "
                       "(expected object)"]

    def test_schema_version_true_rejected(self, tmp_path, capsys):
        # json reads true as True, which equals 1
        doc = dict(uniform_config(2), schema_version=True)
        assert forward_exit(write_config(tmp_path, doc), tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: 'schema_version'")

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

        monkeypatch.setattr(cli.scattering, "reflectogram_blocks", boom)
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

    def test_failed_sweep_empties_an_existing_out(self, tmp_path,
                                                  monkeypatch):
        # a path that existed is kept, but holds no partial CSV
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        out = tmp_path / "o.csv"
        out.write_text("an older sweep\n")
        fake_singular_stub(monkeypatch, lambda k: np.ones(k.shape, bool))
        assert cli.main(["forward", "--config", cfg, "--kmin", "5",
                         "--kmax", "6", "--dk", "0.5",
                         "--out", str(out)]) == 3
        assert out.read_text() == ""

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
            r1, t = c.R1[0], c.T[0, 0]
            fields = [k, r1.real, r1.imag, abs(r1), t.real, t.imag]
            assert row == ",".join(cli._fmt(x) for x in fields)
        with pytest.raises(ResonanceError):
            scattering.solve_scattering(net, 5.5)

    @staticmethod
    def per_row_csv(sweep):
        """The reference CSV of a sweep, written one row at a time."""
        m = sweep.T.shape[1] + 1
        header = ["k", "re_R1", "im_R1", "abs_R1"]
        for j in range(2, m + 1):
            header += [f"re_T{j}", f"im_T{j}"]
        lines = [",".join(header)]
        for k, r, ts, bad in zip(sweep.k.tolist(), sweep.R1.tolist(),
                                 sweep.T.tolist(), sweep.resonant.tolist()):
            if bad:
                lines.append(cli._fmt(k) + ",NaN" * (len(header) - 1))
                continue
            fields = [k, r.real, r.imag, abs(r)]
            for t in ts:
                fields += [t.real, t.imag]
            lines.append(",".join(cli._fmt(x) for x in fields))
        return ("\n".join(lines) + "\n").encode()

    def test_csv_matches_the_per_row_writer(self, tmp_path, monkeypatch):
        self.assert_forward_matches_per_row_writer(tmp_path, monkeypatch)

    def test_csv_blocks_match_the_per_row_writer(self, tmp_path,
                                                 monkeypatch):
        # sweep blocks of ROW_BLOCK // N = 50 // N rows and CSV chunks of
        # one row (200 // (32 columns) is 0), so the 13 rows and the
        # stretches between resonant rows span several blocks each; at the
        # default CHUNK one chunk holds all 13 rows, fast, %-format and
        # resonant alike
        monkeypatch.setattr(propagate, "BLOCK", 200)
        monkeypatch.setattr(propagate, "ROW_BLOCK", 50)
        monkeypatch.setattr(csvtext, "CHUNK", 200)
        self.assert_forward_matches_per_row_writer(tmp_path, monkeypatch)

    def assert_forward_matches_per_row_writer(self, tmp_path, monkeypatch):
        # fake_singular_stub needs two V = 0 lines and one stub; on the
        # last star every k is an exact 12-digit tie, which only the
        # %-format fallback writes, and a free line is one cell at any k
        ties = 100000000000.5 + np.arange(13)
        for m, stubs, grid, singular in (
                (3, [1.0, 0.7], 5.0 + 0.25 * np.arange(13), []),
                (2, [1.0], 5.0 + 0.25 * np.arange(13), [5.0, 6.5]),
                (2, [1.0], ties, ties[[3, 4, 12]].tolist())):
            cfg = write_config(tmp_path, uniform_config(m, stubs))
            net, _ = cli.load_network(cfg)
            if singular:
                fake_singular_stub(
                    monkeypatch, lambda k: np.isin(np.round(k, 9), singular))
            out = tmp_path / "o.csv"
            argv = ["--kmin", str(grid[0]), "--kmax", str(grid[-1]),
                    "--dk", str(grid[1] - grid[0])]
            assert cli.main(["forward", "--config", cfg, *argv,
                             "--out", str(out)]) == 0
            sweep = scattering.reflectogram(net, grid)
            assert sweep.resonant.sum() == len(singular)
            assert out.read_bytes() == self.per_row_csv(sweep)

    def test_memory_does_not_grow_with_branches_times_frequencies(
            self, tmp_path, capsys):
        # 3 + 7 uniform lines on 200 001 k: one [nk, N] complex array is
        # 32 MB here, and forward held about eight; streamed, it holds
        # O(BLOCK) and the grid with its few per-k temporaries
        cfg = write_config(tmp_path, uniform_config(
            3, [0.45, 0.7, 0.9, 1.15, 1.4, 1.6, 1.9]))
        argv = ["forward", "--config", cfg, "--kmin", "60", "--kmax", "160",
                "--dk", "0.0005", "--out", os.devnull]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_k = 200001
        assert f"wrote {n_k} rows" in capsys.readouterr().out
        assert peak < (16 * propagate.BLOCK + 4 * n_k) * 8

    def test_few_rows_leave_the_fast_path(self, tmp_path, monkeypatch,
                                          capsys):
        # the smooth demo star on the benchmark's grid; a trailing-zero
        # count that reads only the last digit group sends every
        # k = 60.005 row to the %-format: the same bytes, only slower
        smooth_demo_star(tmp_path)
        rows = []
        real = csvtext._percent_row
        monkeypatch.setattr(csvtext, "_percent_row",
                            lambda row, nan: rows.append(1) or real(row, nan))
        assert cli.main(["forward", "--config", str(tmp_path / "net.json"),
                         "--kmin", "60", "--kmax", "160", "--dk", "0.005",
                         "--out", os.devnull]) == 0
        assert "wrote 20001 rows" in capsys.readouterr().out
        # near-ties are about 0.2% of values, so about 1% of rows
        assert 0 < len(rows) <= 0.02 * 20001

    @pytest.mark.parametrize("star", ["smooth", "wide"])
    def test_block_writes_stay_small(self, tmp_path, star):
        # each block's CSV write, the first with the writer's tables built,
        # under 12 BLOCK bytes; the %-format read 770 kB on the smooth
        # star's 4 032 x 6 blocks and 680 kB on the 3 + 7 star's 1 638 x 8
        if star == "smooth":
            net = smooth_demo_star(tmp_path)
        else:
            net, _ = cli.load_network(write_config(tmp_path, uniform_config(
                3, [0.45, 0.7, 0.9, 1.15, 1.4, 1.6, 1.9])))
        grid = 60.0 + 0.005 * np.arange(20001)
        csvtext._tables.cache_clear()
        peaks = []
        with open(os.devnull, "wb") as fh:
            for sweep in scattering.reflectogram_blocks(net, grid):
                tracemalloc.start()
                try:
                    cli._write_rows(fh, sweep)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert len(peaks) == (5 if star == "smooth" else 13)
        assert max(peaks) < 12 * propagate.BLOCK

    def test_csv_independent_of_block_length(self, tmp_path, monkeypatch):
        # a V = 0 line, a sin^2 line and a sin^2 stub, which interpolate,
        # and a stub whose bump ends at x = 0.1, a direct product of about
        # 50 cells; the fake resonances fall on and across block edges
        write_sin2_table(tmp_path / "line.csv", 0.5, 0.8)
        write_sin2_table(tmp_path / "narrow.csv", 0.4, 0.1)
        write_sin2_table(tmp_path / "stub.csv", -0.3, 0.9)
        doc = uniform_config(1)
        doc["branches"] += [
            {"kind": "infinite",
             "direct": {"potential_table_path": "line.csv"}},
            {"kind": "finite", "direct": {
                "potential_table_path": "narrow.csv", "tau": 1.0,
                "h": 0.12}},
            {"kind": "finite", "direct": {
                "potential_table_path": "stub.csv", "tau": 1.7,
                "h": -0.1}}]
        cfg = write_config(tmp_path, doc)
        net, _ = cli.load_network(cfg)
        grid = 20.0 + 0.005 * np.arange(4001)
        monkeypatch.setattr(propagate, "ROW_BLOCK", 1)  # one pass a block
        plan = scattering._plan(net, grid)
        step = plan.rows
        assert step == propagate.BLOCK // plan.nodes.size
        assert plan.interp == (1, 3) and len(plan.blocks) == 5
        # the narrow stub's cells span several of the grid's cell blocks
        [(legs, v_runs, _)] = [g for g in plan.direct if 2 in g[0]]
        assert legs == (2,) and len(v_runs) > 2 * plan.cells
        resonant = grid[[step - 1, step, 2 * step, 3 * step + 7, 4000]]
        fake_singular_stub(monkeypatch, lambda k: np.isin(k, resonant))
        csvs = []
        for rows in (1, 10 ** 9):  # one pass a block, one block in all
            monkeypatch.setattr(propagate, "ROW_BLOCK", rows)
            out = tmp_path / f"rows{rows}.csv"
            assert cli.main(["forward", "--config", cfg, "--kmin", "20",
                             "--kmax", "40", "--dk", "0.005",
                             "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        lines = csvs[0].decode().splitlines()
        assert len(lines) == 4002
        assert [float(x.split(",")[0]) for x in lines if "NaN" in x] == \
            resonant.tolist()

    def test_free_star_at_huge_k(self, tmp_path, capsys):
        # every branch has V = 0, one cell at any k, so even k = 1e25 sweeps
        cfg = write_config(tmp_path, uniform_config(3, [1.0, 1.7]))
        out = tmp_path / "o.csv"
        assert cli.main(["forward", "--config", cfg, "--kmin", "1e25",
                         "--kmax", "1e25", "--dk", "1", "--out",
                         str(out)]) == 0
        assert capsys.readouterr().err == ""
        row = np.loadtxt(out, delimiter=",", skiprows=1)
        flux = row[1] ** 2 + row[2] ** 2 + np.sum(row[4:] ** 2)
        assert abs(flux - 1.0) <= 1e-8

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
        real = cli.scattering.reflectogram_blocks
        monkeypatch.setattr(cli.scattering, "reflectogram_blocks",
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

    def test_grid_that_does_not_advance(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("k,re_R1,im_R1,abs_R1\n" + "60,0.1,0.2,0.3\n" * 2001)
        assert cli.main(["invert", "--csv", str(csv)]) == 4
        assert capsys.readouterr().err == \
            "error: samples must sit on a uniform k grid\n"

    def test_bad_header(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("frequency,r\n1,0\n")
        assert cli.main(["invert", "--csv", str(csv)]) == 2


def failed_line(out, name):
    """The one `FAIL name` line of a validate run's stdout."""
    (line,) = [ln for ln in out.splitlines()
               if ln.startswith(f"FAIL {name}: ")]
    return line


class TestValidate:
    def test_uniform_three_way(self, tmp_path, capsys):
        cfg = write_config(tmp_path, uniform_config(3))
        assert cli.main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS flux_conservation" in out
        assert "PASS oracle_comparison" in out
        assert "FAIL" not in out

    def test_matched_lines_pass_the_oracle(self, tmp_path, capsys):
        # R1 = 0, so R1_est is the oracle's own error, (k dx)^3 / 4 from
        # its one-sided node derivative; the gap's floor puts it at 2.5e-4
        cfg = write_config(tmp_path, uniform_config(2))
        assert cli.main(["validate", "--config", cfg]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if "oracle_comparison" in ln]
        assert line == ("PASS oracle_comparison: k=10.0: 2.50e-04; "
                        "k=17.3: 2.50e-04; k=29.0: 2.50e-04")

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
        assert "PASS solver_vs_rk45" in out
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
        # on V = 0 branches rk45_sweep, behind the node pairs' RK45 twins,
        # answers in closed form: no RK45 run
        cfg = write_config(tmp_path, uniform_config(2, [1.0, 1.7]))
        calls = []
        real_dp45 = cli.jost._dp45

        def counted(*args):
            calls.append(args)
            return real_dp45(*args)

        monkeypatch.setattr(cli.jost, "_dp45", counted)
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "PASS solver_vs_rk45" in capsys.readouterr().out
        assert calls == []

    def test_sampled_table_stub(self, tmp_path, capsys):
        z = np.linspace(0.0, 1.3, 201)
        for name, column in (("L", 1.0 + 0.3 * np.sin(2.0 * z) ** 2),
                             ("C", 1.0 + 0.2 * z * (1.3 - z))):
            np.savetxt(tmp_path / f"{name}.csv", np.column_stack([z, column]),
                       delimiter=",", header="z,value", comments="",
                       fmt="%.17g")
        doc = uniform_config(2)
        doc["branches"].append({"kind": "finite", "profile": {
            "family": "sampled_table", "inductance_table_path": "L.csv",
            "capacitance_table_path": "C.csv"}})
        rc = cli.main(["validate", "--config", write_config(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == 0 and "FAIL" not in out, out

    def test_direct_stub_cut_inside_its_table(self, tmp_path, capsys):
        # support_end 0.5 cuts the table where V is about 0.38
        xs = np.linspace(0.2, 0.9, 161)
        np.savetxt(tmp_path / "V.csv", np.column_stack(
            [xs, 0.4 * np.sin(np.pi * (xs - 0.2) / 0.7) ** 2]),
            delimiter=",", header="x,V", comments="", fmt="%.17g")
        doc = uniform_config(2)
        doc["branches"].append({"kind": "finite", "direct": {
            "potential_table_path": "V.csv", "support_end": 0.5, "tau": 1.1,
            "h": -0.2}})
        rc = cli.main(["validate", "--config", write_config(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == 0 and "FAIL" not in out, out

    def test_steep_taper_stub(self, tmp_path, capsys):
        # omega(tau) is about e^50 here, so only a relative bound can hold
        doc = uniform_config(1)
        doc["branches"].append({"kind": "finite", "profile": {
            "family": "exponential_taper", "gamma": 50.0, "length": 1.0}})
        rc = cli.main(["validate", "--config", write_config(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == 0 and "FAIL" not in out, out

    def test_failed_rk45_twin_exit_code(self, tmp_path, monkeypatch, capsys):
        # the RK45 loop's V turns NaN halfway along the stub, so its step
        # shrinks below 10 spacings of x and it raises AccuracyError
        write_sin2_table(tmp_path / "V.csv", 0.4, 0.6)
        doc = uniform_config(1)
        doc["branches"].append({"kind": "finite", "direct": {
            "potential_table_path": "V.csv", "tau": 1.0, "h": 0.1}})
        real = cli.jost._dp45

        def nan_past_middle(V, k2, x0, x1, y, dy, max_step):
            mid = 0.5 * (x0 + x1)
            nan_V = dataclasses.replace(V, evaluator=lambda x: V(x) if (
                x - mid) * (x1 - x0) < 0 else math.nan)
            return real(nan_V, k2, x0, x1, y, dy, max_step)

        monkeypatch.setattr(cli.jost, "_dp45", nan_past_middle)
        rc = cli.main(["validate", "--config", write_config(tmp_path, doc)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err) == 1 and err[0].startswith(
            "solver error: RK45 failed on [1.0, 0.0]")

    def test_makes_no_kernel_call(self, tmp_path, monkeypatch, capsys):
        write_sin2_table(tmp_path / "V.csv", 0.4, 0.6)
        doc = uniform_config(1)
        doc["branches"].append({"kind": "finite", "direct": {
            "potential_table_path": "V.csv", "tau": 1.0, "h": 0.1}})
        calls = []
        for name in ("solve_kernel", "fundamental_via_kernel"):
            monkeypatch.setattr(fundamental, name,
                                lambda *args, name=name: calls.append(name))
        rc = cli.main(["validate", "--config", write_config(tmp_path, doc)])
        assert rc == 0 and "FAIL" not in capsys.readouterr().out
        assert calls == []

    def test_solver_vs_rk45_fails_on_a_scaled_jost_pair(self, tmp_path,
                                                        monkeypatch, capsys):
        cfg = write_config(tmp_path, uniform_config(3, [1.0]))
        real = scattering.propagate.sweep_block

        def scaled(plan, s, starts):
            val, der = real(plan, s, starts)
            val[:, 1] *= 1.0 + 1e-4  # branch 2's Jost pair
            der[:, 1] *= 1.0 + 1e-4
            return val, der

        monkeypatch.setattr(scattering.propagate, "sweep_block", scaled)
        assert cli.main(["validate", "--config", cfg]) == 5
        line = failed_line(capsys.readouterr().out, "solver_vs_rk45")
        assert "b2: 1.00e-04" in line and "b1: 0.00e+00" in line

    def test_solver_vs_rk45_fails_on_a_stub_swept_from_the_node(
            self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, uniform_config(2, [1.0, 1.7]))
        real = scattering.propagate.plan_sweep

        def plan_sweep(paths, k):
            # the 1.7 stub's leg, swept from its node
            return real([(V, 0.0, 1.7) if (x_from, x_to) == (1.7, 0.0) else
                         (V, x_from, x_to) for V, x_from, x_to in paths], k)

        monkeypatch.setattr(scattering.propagate, "plan_sweep", plan_sweep)
        assert cli.main(["validate", "--config", cfg]) == 5
        line = failed_line(capsys.readouterr().out, "solver_vs_rk45")
        gaps = dict(part.split(": ") for part in
                    line.split(": ", 1)[1].split("; "))
        assert float(gaps["b4"]) > 1e-2
        assert max(float(gaps[f"b{j}"]) for j in (1, 2, 3)) < 1e-12

    def test_wronskian_fails_on_a_scaled_derivative(self, tmp_path,
                                                    monkeypatch, capsys):
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        real = scattering.propagate.sweep_block

        def scaled(plan, s, starts):
            val, der = real(plan, s, starts)
            der[:, 0] *= 1.0 + 1e-6  # branch 1's f'(0)
            return val, der

        monkeypatch.setattr(scattering.propagate, "sweep_block", scaled)
        assert cli.main(["validate", "--config", cfg]) == 5
        line = failed_line(capsys.readouterr().out, "wronskian_constancy")
        assert abs(float(line.rsplit(" ", 1)[1]) - 1e-6) < 1e-9

    def test_singular_oracle_system_exit_code(self, tmp_path, monkeypatch,
                                              capsys):
        cfg = write_config(tmp_path, uniform_config(2, [1.0]))
        real = cli.oracle._sweep_back

        def node_value_zero(*args):
            # the branch's swept solution vanishes at the node: u_0 = 0
            u = real(*args)
            u[0] = 0.0
            return u

        monkeypatch.setattr(cli.oracle, "_sweep_back", node_value_zero)
        assert cli.main(["validate", "--config", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["solver error: discrete system singular at k=10.0"]

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


def grid_argv(kmin, kmax, dk):
    return lambda tmp_path: ["forward", "--config", write_config(
        tmp_path, uniform_config(1, [1.0])), "--kmin", kmin, "--kmax", kmax,
        "--dk", dk, "--out", str(tmp_path / "o.csv")]


def table_star_argv(kmin, kmax, dk):
    """forward on a uniform line and a line whose V is a sin^2 table."""
    def argv(tmp_path):
        write_sin2_table(tmp_path / "V.csv", 0.5, 0.8)
        doc = uniform_config(1)
        doc["branches"].append({"kind": "infinite", "direct": {
            "potential_table_path": "V.csv"}})
        return ["forward", "--config", write_config(tmp_path, doc),
                "--kmin", kmin, "--kmax", kmax, "--dk", dk,
                "--out", str(tmp_path / "o.csv")]
    return argv


def validate_argv(*branches):
    return lambda tmp_path: ["validate", "--config", write_config(
        tmp_path, {"schema_version": 1, "branches": list(branches)})]


def huge_grid_argv(key, spec, z_end=1e20, lc=1.0):
    """validate on a uniform line and a finite branch {key: spec}: L.csv
    and C.csv hold lc on z = 0, 1, 2, 3, z_end, so x(z) spans z_end lc
    (1e20 by default), and V.csv is a sin^2 table."""
    def argv(tmp_path):
        z = np.array([0.0, 1.0, 2.0, 3.0, z_end])
        for name in ("L", "C"):
            np.savetxt(tmp_path / f"{name}.csv", np.column_stack(
                [z, np.full(5, lc)]), delimiter=",", header="z,value",
                comments="", fmt="%.17g")
        write_sin2_table(tmp_path / "V.csv", 0.5, 0.8)
        return validate_argv(uniform_branch(),
                             {"kind": "finite", key: spec})(tmp_path)
    return argv


def direct_line_argv(x0, x1, **direct):
    """validate on a uniform line and an infinite ``direct`` line whose
    V.csv is a sin^2 table on [x0, x1]."""
    def argv(tmp_path):
        x = np.linspace(x0, x1, 41)
        np.savetxt(tmp_path / "V.csv", np.column_stack(
            [x, 0.5 * np.sin(np.pi * (x - x0) / (x1 - x0)) ** 2]),
            delimiter=",", header="x,V", comments="", fmt="%.17g")
        return validate_argv(uniform_branch(), {"kind": "infinite", "direct": {
            "potential_table_path": "V.csv", **direct}})(tmp_path)
    return argv


def direct_rows_argv(v):
    """validate on a uniform line and an infinite ``direct`` line whose
    V.csv holds the values v at x = 0, 0.1, 0.2, ..."""
    def argv(tmp_path):
        (tmp_path / "V.csv").write_text("x,V\n" + "".join(
            f"{0.1 * i!r},{value!r}\n" for i, value in enumerate(v)))
        return validate_argv(uniform_branch(), {"kind": "infinite", "direct": {
            "potential_table_path": "V.csv"}})(tmp_path)
    return argv


def sampled_rows_argv(L, C):
    """validate on a uniform line and a finite ``sampled_table`` branch
    whose L.csv and C.csv hold L and C at z = 0, 1, 2, ..."""
    def argv(tmp_path):
        for name, column in (("L", L), ("C", C)):
            (tmp_path / f"{name}.csv").write_text("z,value\n" + "".join(
                f"{i},{value!r}\n" for i, value in enumerate(column)))
        return validate_argv(uniform_branch(), {"kind": "finite", "profile": {
            "family": "sampled_table", "inductance_table_path": "L.csv",
            "capacitance_table_path": "C.csv"}})(tmp_path)
    return argv


def out_of_memory(message):
    def raise_it(*args, **kwargs):
        raise MemoryError(message)
    return raise_it


REAL_BLOCKS = scattering.reflectogram_blocks


def out_of_memory_in_second_block(net, k_grid):
    """The sweep's first block, then, once forward has written it and asks
    for the next, a MemoryError."""
    yield next(REAL_BLOCKS(net, k_grid))
    raise MemoryError("Unable to allocate 1.2 GiB")


# (argv builder, stand-in for scattering.reflectogram_blocks or None, exit
# code, text the stderr line holds); no case allocates for real: a k of
# 1e15 on a table branch asks numpy for petabytes, and 1e7-1e9 for
# gigabytes
EXTREME_INPUTS = {
    "dk-past-array-size": (grid_argv("60", "61", "1e-300"), None, 2,
                           "frequency grid too large"),
    "point-count-overflows": (grid_argv("60", "1e150", "1e-300"), None, 2,
                              "frequency grid too large"),
    "kmax-1e300": (grid_argv("60", "1e300", "1e-300"), None, 2, "--kmax"),
    "k-squared-overflows": (grid_argv("1e200", "1e200", "1"), None, 2,
                            "--kmax"),
    "k-near-float-max": (grid_argv("1e308", "1.5e308", "1e307"), None, 2,
                         "--kmax"),
    "infinite-A0": (validate_argv(
        *[uniform_branch(inductance=1e-300, capacitance=1e300)] * 2),
        None, 2, "'branches[0]': A(0)=inf"),
    "stub-grid-underflows": (validate_argv(
        uniform_branch(), uniform_branch("finite", 1e-300)),
        None, 3, "grid step"),
    "a0-mismatch-listed-first": (validate_argv(
        uniform_branch("finite", 1.0, capacitance=4.0), uniform_branch(),
        uniform_branch()), None, 2, "of branches[0] breaks"),
    "table-star-k-1e25": (table_star_argv("1e25", "1e25", "1"), None, 3,
                          "more than an array can hold"),
    "taper-length-1e20": (huge_grid_argv("profile", {
        "family": "exponential_taper", "gamma": 0.1, "length": 1e20}), None,
        2, "'branches[1]': a grid of step 0.001 on [0, 1e+20] needs 1e+23"),
    "direct-support-end-1e20": (huge_grid_argv("direct", {
        "potential_table_path": "V.csv", "support_end": 1e20, "tau": 1.0}),
        None, 2, "'branches[1]': a grid of step"),
    "table-z-1e20": (huge_grid_argv("profile", {
        "family": "sampled_table", "inductance_table_path": "L.csv",
        "capacitance_table_path": "C.csv"}), None, 2,
        "'branches[1]': a grid of step"),
    "table-travel-time-overflows": (huge_grid_argv("profile", {
        "family": "sampled_table", "inductance_table_path": "L.csv",
        "capacitance_table_path": "C.csv"}, z_end=1e308, lc=100.0), None, 2,
        "'branches[1]': travel time x(z) on [0, 1e+308] is not finite"),
    "direct-support-end-negative": (direct_line_argv(
        0.0, 0.8, support_end=-1.0), None, 2,
        "'branches[1]': support_end must be >= 0, got -1.0"),
    "direct-table-wholly-below-0": (direct_line_argv(-1.0, -0.2), None, 2,
                                    "'branches[1]': support_end must be >= 0"),
    "direct-table-outside-support": (direct_line_argv(
        1.0, 2.0, support_end=0.5), None, 2,
        "'branches[1]': potential table on [1, 2] meets [0, 0.5] in at most "
        "one point"),
    "direct-table-ends-at-0": (direct_line_argv(-1.0, 0.0), None, 2,
                               "'branches[1]': potential table on [-1, 0]"),
    "direct-table-slopes-overflow": (direct_rows_argv(
        [1e308, -1e308] * 3), None, 2,
        "'branches[1].direct.potential_table_path': "),
    "taper-gamma-squared-overflows": (validate_argv(uniform_branch(), {
        "kind": "finite", "profile": {"family": "exponential_taper",
                                      "gamma": 2e154, "length": 1.0}}),
        None, 2, "'branches[1]': L1 norm of |V| is not finite"),
    # V = 1e200 on a 1e-90 stub: cosh(q dx) overflows in the cell product,
    # which the node solve flags, with no numpy warning on stderr
    "taper-cosh-overflows": (validate_argv(uniform_branch(), {
        "kind": "finite", "profile": {"family": "exponential_taper",
                                      "gamma": 1e100, "length": 1e-90}}),
        None, 3, "solver error: node equation singular at k=10.0"),
    "uniform-tau-overflows": (validate_argv(uniform_branch(), uniform_branch(
        "finite", 1.0, inductance=1e200, capacitance=1e200)), None, 2,
        "'branches[1]': tau must be finite, got inf"),
    "sampled-table-A-overflows": (sampled_rows_argv(
        [1.0, 1.0, 1e-300, 1.0, 1.0], [1.0, 1.0, 1e300, 1.0, 1.0]), None, 2,
        "'branches[1]': the spline of A = (C/L)^(1/4) or of V = A''/A on "
        "[0, 4] is not finite"),
    # A is finite, 1e77 at z = 2 and 1 elsewhere, sqrt(L C) = 1e-146: A''
    # overflows
    "sampled-table-V-overflows": (sampled_rows_argv(
        [1e-146, 1e-146, 1e-300, 1e-146, 1e-146],
        [1e-146, 1e-146, 1e8, 1e-146, 1e-146]), None, 2,
        "'branches[1]': the spline of A = (C/L)^(1/4) or of V = A''/A on "
        "[0, 4] is not finite"),
    "oracle-grid-past-array-size": (validate_argv(
        uniform_branch(), uniform_branch("finite", 1e300)), None, 3,
        "solver error: branch 2: 1e+303 grid cells on [0, 1e+300]"),
    "memory-error": (grid_argv("60", "61", "0.5"), out_of_memory(
        "Unable to allocate 22.6 PiB"), 3, "solver error: Unable to"),
    "bare-memory-error": (grid_argv("60", "61", "0.5"), out_of_memory(""),
                          3, "solver error: out of memory"),
    "memory-error-in-second-block": (
        grid_argv("60", "61", "0.5"), out_of_memory_in_second_block, 3,
        "solver error: Unable to allocate 1.2 GiB"),
}


@pytest.mark.parametrize("case", EXTREME_INPUTS)
def test_extreme_input_exit_code(tmp_path, monkeypatch, capsys, case):
    argv, blocks, code, text = EXTREME_INPUTS[case]
    if blocks is not None:
        monkeypatch.setattr(cli.scattering, "reflectogram_blocks", blocks)
    assert cli.main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert text in err, err
    assert not (tmp_path / "o.csv").exists()  # no partial CSV
