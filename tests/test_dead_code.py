"""Every module-level function and class in the package is used somewhere,
and the builtin tables do not overlap.

A definition counts as used when its name appears as a name or as an
attribute anywhere in src/, tests/ or bench/ outside its own body; imports
alone do not count.  The check is by name only, with the stdlib ast module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kernelspace"

# cli.main is the command-line entry point named in pyproject.toml
ALLOWED = {"cli.main"}


def _trees():
    for sub in ("src", "tests", "bench"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def test_every_module_level_definition_is_referenced():
    defs = []           # (module.name, defining node)
    used = {}           # name -> the defining nodes it is used inside
    for path, tree in _trees():
        for top in tree.body:
            if path.parent == PACKAGE and _is_def(top):
                defs.append((f"{path.stem}.{top.name}", top))
            owner = top if _is_def(top) else None
            for name in _names(top):
                used.setdefault(name, set()).add(owner)
    unused = []
    for qualname, node in defs:
        name = node.name
        if qualname in ALLOWED or (name.startswith("__")
                                   and name.endswith("__")):
            continue
        if not used.get(name, set()) - {node}:
            unused.append(qualname)
    assert unused == [], f"defined but never referenced: {unused}"


def test_builtin_tables_are_disjoint_and_all_loaded():
    # stdlib.builtins merges the tables with {**a, **b}, where one table
    # would silently shadow another's name
    from kernelspace import fd, spaces, stdlib, vm
    tables = [vm.CORE_BUILTINS, spaces.SPACE_BUILTINS, fd.FD_BUILTINS]
    names = [name for table in tables for name in table]
    assert len(names) == len(set(names))
    loaded = stdlib.builtins()
    for table in tables:
        for name, bi in table.items():
            assert bi.name == name
            assert type(bi.arity) is int
            assert loaded[name] is bi
