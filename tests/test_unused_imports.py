"""Every name a library module imports is used there, so a deletion leaves
no dead import behind. No linter is required: each module is parsed with
ast. The one exception is an import marked for the benchmark's tracer,
which wraps the name at that module; the mark must name a real wrap."""

from __future__ import annotations

import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "properconn")
TRACER_MARK = "noqa: F401  (perfbench/tracing.py wraps it here)"


def _traced_names() -> dict[str, set[str]]:
    """The attributes tracing.instrument rebinds on each library module,
    read by running it against stand-in modules, so the real ones keep
    their functions."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)

    wrapped: dict[str, set[str]] = {}

    class Recorder:
        def __init__(self, module):
            wrapped[module] = set()
            object.__setattr__(self, "module", module)

        def __getattr__(self, attr):
            return None

        def __setattr__(self, attr, value):
            wrapped[self.module].add(attr)

    modules = {name: Recorder(name) for name in ("survey", "solver", "constructive")}
    tracing.instrument(tracing.Tracer(), types.SimpleNamespace(**modules))
    return wrapped


def _unused_imports(source: str):
    """(line, name, marked) for each imported name the module never reads;
    marked is whether the name's line carries the tracer mark."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                yield alias.lineno, name, TRACER_MARK in lines[alias.lineno - 1]


def test_library_modules_use_every_name_they_import():
    traced = _traced_names()
    unused, stray_marks = [], []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        module = filename[:-3]
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            source = fh.read()
        for line, name, marked in _unused_imports(source):
            if not marked:
                unused.append(f"{filename}:{line} {name}")
            elif name not in traced.get(module, set()):
                stray_marks.append(f"{filename}:{line} {name}")
    assert unused == [], "imported but never used"
    assert stray_marks == [], "marked for the tracer, which does not wrap it there"
