"""Source hygiene: every imported name is used in its module, and the
README's library quick tour runs as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, except those of
    `from __future__` and those listed in a module-level __all__ written
    out as a list or tuple (a computed __all__ exempts nothing)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(
                node.value, (ast.List, ast.Tuple)) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_the_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport json.decoder\n"
              "from math import pi, tau\n__all__ = ['tau']\nprint(json, pi)\n")
    assert unused_imports(source) == ["line 2: os", "line 2: osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    assert tour is not None
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", tour.group(1)], env=env, check=True,
                   cwd=ROOT, timeout=120)
