"""The package's public surface, and the hygiene of its modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import starscatter
from starscatter import errors
from conftest import write_sin2_table

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "starscatter"
# the paper's pipeline, then one error class per kind of failure
EXPORTS = [
    "LineProfile", "StarNetwork", "reflectogram", "solve_scattering",
    "estimate_m", "estimate_taus", "InversionReport",
    "StarScatterError", "ConfigError", "ProfileValidityError",
    "DomainError", "ResonanceError", "AccuracyError",
    "InsufficientDataError",
]


def package_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def test_every_export_resolves_once():
    names = starscatter.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starscatter, name) is not None


def test_exports_are_the_pipeline_and_the_errors():
    assert starscatter.__all__ == EXPORTS


def raised_names(path):
    """Names of the exceptions a module raises: ``raise E(...)`` and
    ``raise E``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_exported_and_raised():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    for name, cls in classes.items():
        assert issubclass(cls, errors.StarScatterError), name
        assert name in starscatter.__all__, name
    raised = set().union(*(raised_names(p) for p in SRC.glob("*.py")))
    assert set(classes) - {"StarScatterError"} <= raised


def test_import_leaves_the_references_and_the_cli_unloaded():
    script = """
import sys
import starscatter
print(sorted(m for m in sys.modules if m in (
    "starscatter.oracle", "starscatter.fundamental", "starscatter.config",
    "starscatter.cli")))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


def unused_imports(path):
    """Names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_unused_imports():
    # the package's __init__ imports exactly what it exports, and reads
    # none of it
    assert unused_imports(SRC / "__init__.py") == sorted(starscatter.__all__)
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    # perfbench/ is left out: its setup probe imports scipy unread on
    # purpose
    modules += sorted((ROOT / "scripts").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): names for p in modules
              if (names := unused_imports(p))}
    assert not unused


def test_no_scipy_imports():
    # scipy is a test reference only; the package runs on numpy alone
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            assert not [n for n in names if n.split(".")[0] == "scipy"], \
                path.name


def test_commands_load_no_scipy(tmp_path):
    # forward, invert and validate on a star of x,V and L,C tables, in one
    # fresh interpreter; then no scipy module is loaded
    write_sin2_table(tmp_path / "V.csv", 0.5, 0.8)
    z = np.linspace(0.0, 1.3, 101)
    for name, col in (("L", 1.0 + 0.3 * np.sin(2.0 * z) ** 2),
                      ("C", 1.0 + 0.2 * z * (1.3 - z))):
        np.savetxt(tmp_path / f"{name}.csv", np.column_stack([z, col]),
                   delimiter=",", header="z,value", comments="", fmt="%.17g")
    (tmp_path / "net.json").write_text("""{"schema_version": 1, "branches": [
        {"kind": "infinite", "profile": {"family": "uniform",
         "inductance": 1.0, "capacitance": 1.0}},
        {"kind": "infinite", "direct": {"potential_table_path": "V.csv"}},
        {"kind": "finite", "profile": {"family": "sampled_table",
         "inductance_table_path": "L.csv",
         "capacitance_table_path": "C.csv"}}]}""")
    script = f"""
import sys
from starscatter import cli
d = {str(tmp_path)!r}
codes = [cli.main(["forward", "--config", d + "/net.json", "--kmin", "20",
                   "--kmax", "30", "--dk", "0.01", "--out", d + "/s.csv"]),
         cli.main(["invert", "--csv", d + "/s.csv"]),
         cli.main(["validate", "--config", d + "/net.json"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("starscatter.fundamental" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == "[0, 0, 0] []", proc.stdout
    # nor the kernel reference, which no command runs
    assert proc.stdout.splitlines()[-1] == "False", proc.stdout
