"""The demo scripts run end to end on a tiny frequency grid, the README's
library example runs, and the benchmark's self-test passes against this
checkout."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, check=False)


def test_forward_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("forward_sweep.py", "--kmin", "60", "--kmax", "61",
                      "--dk", "0.25", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,abs_R1,arg_R1,g"
    assert len(lines) == 6
    for line in lines[1:]:
        k, abs_r1, _, _ = (float(v) for v in line.split(","))
        assert 60.0 <= k <= 61.0
        assert 0.0 <= abs_r1 <= 1.0 + 1e-9
    assert "wrote 5 rows" in proc.stdout


def test_invert_demo(tmp_path):
    proc = run_script("invert_demo.py", "--kmin", "60", "--kmax", "62",
                      "--dk", "0.05", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "forward sweep: 40 frequencies" in proc.stdout
    assert "recovered: m = " in proc.stdout


def test_readme_library_example():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    report = scope["report"]
    assert report.m_hat == 2
    assert report.taus == pytest.approx([1.0, 1.7], rel=0.01)


def test_oracle_convergence(tmp_path):
    proc = run_script("oracle_convergence.py", "--dx0", "2e-3", "--levels",
                      "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "reference R1" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.strip().startswith("1.00e-03")]
    assert len(rows) == 1
    assert float(rows[0][-1]) >= 2.0  # observed order of the oracle


def test_perfbench_selftest():
    # catches a traced attribute or CLI flag that a signature change breaks
    proc = subprocess.run([sys.executable,
                           str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout
