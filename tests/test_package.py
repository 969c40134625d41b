"""The package's public surface, and the hygiene of its modules."""
import ast
from pathlib import Path

import starscatter

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    names = starscatter.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starscatter, name) is not None


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
    # the package's __init__ imports what it exports, so it is left out
    modules = [p for p in sorted((ROOT / "src" / "starscatter").glob("*.py"))
               if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    # perfbench/ is left out: its setup probe imports scipy unread on
    # purpose
    modules += sorted((ROOT / "scripts").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): names for p in modules
              if (names := unused_imports(p))}
    assert not unused
