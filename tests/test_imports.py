"""Every name a module imports is used in it.

The scan reads each module of ``src/`` and ``tests/`` as an AST and
compares the names its imports bind with the names it reads.  A package's
``__init__.py`` is skipped: its imports are the package's public names.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "import a.b\n"
              "from x import (used, unused)\n"
              "def f():\n"
              "    return used, os.sep, a.b\n")
    assert unused_imports(source) == [(2, "system"), (4, "unused")]


def test_no_unused_imports():
    modules = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 15
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in modules for line, name in unused_imports(p.read_text())]
    assert found == []
