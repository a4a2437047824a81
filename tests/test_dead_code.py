"""Every module-level function and class in the package is used somewhere,
and by the runtime itself unless it is a host entry point; every attribute
the package writes is read somewhere; every name the prelude declares is
used somewhere; and the builtin tables do not overlap.

A definition counts as used when its name appears as a name or as an
attribute anywhere in src/, tests/ or bench/ (for the second check, in
src/ alone) outside its own body; imports alone do not count.  An
attribute counts as read when its name is loaded as an attribute anywhere
in src/, tests/ or bench/; an augmented assignment is a write only.  The
checks are by name only, with the stdlib ast module.
A prelude name counts as used when the prelude mentions it outside its own
definition, or a corpus program, a test or a bench file names it.
"""

import ast
import re
from pathlib import Path

from kernelspace import syntax

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kernelspace"

# cli.main is the command-line entry point named in pyproject.toml
ALLOWED = {"cli.main"}

# Host entry points: a host program calls them (the command line, or a
# Python program that drives a search), so nothing in the package does.
ENTRY_POINTS = ALLOWED | {"search.dfs_all", "search.dfs_one", "search.bab",
                          "search.SearchObject"}


def _trees(subs=("src", "tests", "bench")):
    for sub in subs:
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


def _unreferenced(subs, allowed):
    """The package's module-level definitions whose names the files under
    subs use nowhere outside their own bodies, less those in allowed."""
    defs = []           # (module.name, defining node)
    used = {}           # name -> the defining nodes it is used inside
    for path, tree in _trees(subs):
        for top in tree.body:
            if path.parent == PACKAGE and _is_def(top):
                defs.append((f"{path.stem}.{top.name}", top))
            owner = top if _is_def(top) else None
            for name in _names(top):
                used.setdefault(name, set()).add(owner)
    unused = []
    for qualname, node in defs:
        name = node.name
        if qualname in allowed or (name.startswith("__")
                                   and name.endswith("__")):
            continue
        if not used.get(name, set()) - {node}:
            unused.append(qualname)
    return unused


def test_every_module_level_definition_is_referenced():
    unused = _unreferenced(("src", "tests", "bench"), ALLOWED)
    assert unused == [], f"defined but never referenced: {unused}"


def test_the_runtime_uses_all_it_defines_but_its_entry_points():
    """A helper only tests or the bench call belongs beside them."""
    unused = _unreferenced(("src",), ENTRY_POINTS)
    assert unused == [], f"defined but not used by the package: {unused}"


def test_every_attribute_the_package_writes_is_read():
    written, read = [], set()
    for path, tree in _trees():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Attribute):
                continue
            if isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n.ctx, ast.Store) and path.parent == PACKAGE:
                written.append((f"{path.stem}:{n.lineno}", n.attr))
    unread = [f"{where} {name}" for where, name in written
              if name not in read]
    assert unread == [], f"written but never read: {unread}"


def _oz_uses(node):
    """The variables a parsed phrase reads; a procedure's own name in its
    head and a pattern's variables are bindings, not uses, so a case is
    walked through its subject, clause bodies and else but not its
    patterns."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (list, tuple)):
            stack.extend(n)
        elif type(n) is syntax.SCase:
            stack.extend([n.subject, n.els, *(body for _, body in n.clauses)])
        elif isinstance(n, syntax.Phrase):
            if type(n) is syntax.SVar:
                yield n.name
            stack.extend(getattr(n, slot) for slot in type(n).__slots__)


def test_a_pattern_variable_is_not_a_use():
    case = syntax.parse("case X of f(A B) then {F A} [] C then skip "
                        "else {G} end")
    assert sorted(_oz_uses(case)) == ["A", "F", "G", "X"]


def test_every_prelude_name_is_referenced():
    prelude = syntax.parse((PACKAGE / "prelude.oz").read_text())
    body = prelude.body
    tops = body.phrases if type(body) is syntax.SSeq else [body]
    used = {}           # name -> the names of the definitions it is used in
    for top in tops:
        owner = top.name if type(top) is syntax.SProc else None
        for name in _oz_uses(top):
            used.setdefault(name, set()).add(owner)
    texts = [path.read_text() for path in
             [*sorted((PACKAGE / "corpus").rglob("*.oz")),
              *sorted((ROOT / "tests").rglob("*.py")),
              *sorted((ROOT / "bench").rglob("*.py"))]]
    unused = []
    for name in prelude.names:
        if used.get(name, set()) - {name}:
            continue
        word = re.compile(rf"(?<![\w.]){re.escape(name)}(?![\w.])")
        if not any(word.search(text) for text in texts):
            unused.append(name)
    assert unused == [], f"declared in the prelude but never used: {unused}"


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
