"""Every name a library module imports is used there, and every private
helper and module-level constant is used somewhere in the package, so a
deletion leaves no dead import, orphaned helper or unread constant
behind. No linter is required: each module is parsed with ast. The one
exception is a name marked for the benchmark's tracer, which wraps the
name at that module: an import, or a module-level assignment that holds
its place. The mark must name a real wrap, and it goes once the module
uses the name itself."""

from __future__ import annotations

import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "properconn")
TRACER_MARK = "(perfbench/tracing.py wraps it here)"


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


def _bindings(source: str):
    """(line, name, used, marked) for each name the module imports and
    each name a marked module-level assignment binds: used is whether
    the module reads it, marked whether the name's line carries the
    tracer mark."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            yield alias.lineno, name, name in used, TRACER_MARK in lines[alias.lineno - 1]
    for node in tree.body:
        if isinstance(node, ast.Assign) and TRACER_MARK in lines[node.lineno - 1]:
            for target in node.targets:
                yield node.lineno, target.id, target.id in used, True


def test_library_modules_use_every_name_they_import():
    traced = _traced_names()
    unused, stray_marks, stale_marks = [], [], []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        module = filename[:-3]
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            source = fh.read()
        for line, name, used, marked in _bindings(source):
            where = f"{filename}:{line} {name}"
            if used:
                if marked:
                    stale_marks.append(where)
            elif not marked:
                unused.append(where)
            elif name not in traced.get(module, set()):
                stray_marks.append(where)
    assert unused == [], "imported but never used"
    assert stray_marks == [], "marked for the tracer, which does not wrap it there"
    assert stale_marks == [], "marked for the tracer, but the module uses it itself"


def test_every_private_helper_is_referenced_outside_its_definition():
    # the helpers: module-level functions named _*, module-level
    # constants named _* (read outside their assignment), and the methods
    # of the checker's _Machine other than dunders
    trees = []
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                trees.append((filename, ast.parse(fh.read())))
    helpers = []
    for filename, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                helpers.append((filename, node.name, node))
            if isinstance(node, ast.Assign):
                helpers += [
                    (filename, target.id, node)
                    for target in node.targets
                    if isinstance(target, ast.Name) and target.id.startswith("_")
                    and not target.id.startswith("__")
                ]
            if isinstance(node, ast.ClassDef) and node.name == "_Machine":
                helpers += [
                    (filename, item.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
    refs = [
        (filename, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for filename, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    names = {name for _, name, _ in helpers}
    assert {"dfs_from", "_DFS_STEPS", "_PHASE_CAP"} <= names
    orphans = [
        f"{filename}:{node.lineno} {name}"
        for filename, name, node in helpers
        if not any(
            ref == name and not (where == filename and node.lineno <= line <= node.end_lineno)
            for where, line, ref in refs
        )
    ]
    assert orphans == [], "defined but referenced only inside its own definition"


# the level builder's internals: the class-entry layout, the dedup and the
# augmentation, which no module but enumeration.py may name
ENUMERATION_INTERNALS = {
    "_KEY_BITS", "_KEY_MASK", "_class_entry", "_entry_keys", "_add_class", "_vertex_keys",
    "_dedup", "_isomorphisms", "_class_automorphisms", "_attachment_sets", "_order_tables",
    "_children", "_LEVELS",
}


def test_the_package_ships_no_runtime_data():
    # the library reads no file of its own at run time, so an install
    # that leaves out package data loses nothing
    stray = [
        os.path.relpath(os.path.join(where, filename), PACKAGE)
        for where, _, files in os.walk(PACKAGE)
        if os.path.basename(where) != "__pycache__"
        for filename in files
        if not filename.endswith(".py")
    ]
    assert stray == [], "non-Python files in the package"
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert "package-data" not in fh.read()


def test_the_level_builder_stays_inside_enumeration():
    readers, package_imports = [], []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                package_imports += [(filename, node.module or alias.name) for alias in node.names]
                read = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                read = {node.id}
            elif isinstance(node, ast.Attribute):
                read = {node.attr}
            else:
                continue
            if filename != "enumeration.py" and read & ENUMERATION_INTERNALS:
                readers.append(f"{filename}:{node.lineno} {sorted(read & ENUMERATION_INTERNALS)}")
    assert readers == [], "reads the level builder's internals outside enumeration.py"
    assert {module for filename, module in package_imports if filename == "enumeration.py"} == {
        "graph"
    }
