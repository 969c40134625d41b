"""The demo scripts run end to end on a tiny frequency grid."""
import os
import subprocess
import sys
from pathlib import Path

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
