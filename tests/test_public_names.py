"""Every name the package exports has a caller: the library itself, the
benchmark, or the acceptance criteria. An export that only its own tests
call is dead weight in the API. No linter is required: each file is
parsed with ast."""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "properconn")
# the paper's definition of a proper path, kept whether or not code calls it
ALLOWED = {"is_proper_path"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _reads(tree):
    """(line, name) for each name and attribute the tree loads."""
    return [
        (node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def test_every_exported_name_has_a_caller():
    exported = {
        alias.asname or alias.name
        for node in _parse(os.path.join(PACKAGE, "__init__.py")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        tree = _parse(os.path.join(PACKAGE, filename))
        spans = {
            node.name: (node.lineno, node.end_lineno)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for line, name in _reads(tree):
            # a read inside the name's own definition is no caller
            lo, hi = spans.get(name, (0, -1))
            if not lo <= line <= hi:
                used.add(name)
    bench = os.path.join(ROOT, "perfbench")
    for filename in sorted(os.listdir(bench)):
        if filename.endswith(".py"):
            used |= {name for _, name in _reads(_parse(os.path.join(bench, filename)))}
    acceptance = _parse(os.path.join(ROOT, "tests", "test_acceptance.py"))
    used |= {name for _, name in _reads(acceptance)}
    assert {"is_proper_path", "pc_exact", "survey_min_degree"} <= exported
    uncalled = sorted(exported - used - ALLOWED)
    assert uncalled == [], "exported, but nothing outside its tests calls it"
