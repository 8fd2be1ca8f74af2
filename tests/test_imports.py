"""Every name a module imports is used in it, and every private name the
package defines is read in the package.

The import scan reads each module of ``src/`` and ``tests/`` as an AST and
compares the names its imports bind with the names it reads.  A package's
``__init__.py`` is skipped: its imports are the package's public names.
The private-name scan collects the names with one leading underscore that
each module of ``src/`` binds at its top level, and looks for a read of
each in ``src/``, so a helper that nothing calls any more shows up.  The
public-name scan does the same for the other top-level names, which may
also be read by the benchmark under ``perfbench/`` or be the package's
own names, bound in ``tracebracket/__init__``.  The runtime-import scan
checks that every absolute import in ``src/`` names a standard-library
module or the package, as the package declares no runtime dependencies.
"""
import ast
import importlib
import sys
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



def absolute_imports(source: str):
    """(line, top-level module) of each absolute import in a module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_runtime_imports_are_stdlib_only():
    # pyproject.toml declares no runtime dependencies, so src/ may import
    # only the standard library and the package itself
    sources = {p: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    imported = {(p, line, module) for p, source in sources.items()
                for line, module in absolute_imports(source)}
    assert {module for _p, _line, module in imported} >= {"itertools", "re"}
    found = [f"{p.relative_to(ROOT)}:{line}: {module}" for p, line, module in sorted(imported)
             if module not in sys.stdlib_module_names and module != "tracebracket"]
    assert found == []


def definitions(source: str):
    """The names a module binds at its top level: functions, classes and
    assignment targets."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def private_definitions(source: str):
    """The names with one leading underscore that a module binds at its top
    level."""
    return {name for name in definitions(source)
            if name.startswith("_") and not name.startswith("__")}


def names_read(source: str):
    """The names a module reads, directly or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_scan_finds_unread_private_names():
    source = ("_A = 1\n"
              "_b: int = _A\n"
              "__all__ = []\n"
              "def _used(): return _b\n"
              "def _unused(): return _used()\n"
              "class _Kept: pass\n"
              "x = mod._Kept\n")
    assert private_definitions(source) == {"_A", "_b", "_used", "_unused", "_Kept"}
    assert private_definitions(source) - names_read(source) == {"_unused"}


def test_private_names_are_read():
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    assert len(sources) > 8
    defined = set().union(*map(private_definitions, sources))
    assert len(defined) > 20
    assert sorted(defined - set().union(*map(names_read, sources))) == []


def benchmark_surface():
    """(module, name) of everything the benchmark under ``perfbench/`` reads
    of the package: each traced function of ``tracing.SPECS``, each name
    imported from a package module, and each attribute read through a
    module alias such as ``from tracebracket import coloring as colmod``."""
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in scripts]
    aliases, used = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tracebracket"):
                for alias in node.names:
                    used.add((node.module, alias.name))
                    if node.module == "tracebracket":
                        aliases[alias.asname or alias.name] = f"tracebracket.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("tracebracket"):
                        aliases[alias.asname or alias.name] = alias.name
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                # ``colmod.f`` and ``gen.dgmod.f`` both read through an alias
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner in aliases:
                    used.add((aliases[owner], node.attr))
    (specs,) = [node.value for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "SPECS"]
    traced = {(f"tracebracket.{spec.elts[0].value}", spec.elts[1].value) for spec in specs.elts}
    return traced, used


def test_benchmark_surface_resolves():
    traced, used = benchmark_surface()
    assert ("tracebracket.coloring", "enumerate_colorings") in traced
    assert ("tracebracket.trace", "parse_trace_diagram") in used
    missing = [f"{module}.{name}" for module, name in sorted(traced | used)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def package_names():
    """The names ``tracebracket/__init__`` binds, by import or definition:
    the package's public names."""
    source = (ROOT / "src" / "tracebracket" / "__init__.py").read_text()
    return definitions(source) | {alias.asname or alias.name for node in ast.parse(source).body
                                  if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_public_names_are_read():
    # trace.evaluate_open is a test oracle: the open-tangle value that the
    # compiled move checks are compared against
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    defined = {name for source in sources for name in definitions(source)
               if not name.startswith("_")}
    assert len(defined) > 100
    traced, used = benchmark_surface()
    reached = (set().union(*map(names_read, sources)) | package_names()
               | {name for _module, name in traced | used})
    assert sorted(defined - reached) == ["evaluate_open"]
