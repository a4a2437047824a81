"""Every store variable is one Var object, made by Store.new_var.

Bindings, domains and watcher tables are keyed by the Var object, and a
binding in the variable's home space is stored in the object itself, so a
second object for the same variable would see none of them.  The check
finds every call of `Var(...)` (or `terms.Var(...)`) in the package with
the stdlib ast module and names the enclosing definition.

A variable's waiters and by-need trigger live on the Var too, so its
number, `vid`, is only a label.  The second check reads every `.vid` (or
`.x_vid` field) in the package and allows it in a trace event, an f-string (the deadlock
report, `Var.__repr__`), an index into `Store.homes`, the tie-break
comparison in `Store._alias`, and the Var class itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kernelspace"

ALLOWED = {"store.Store.new_var"}


def _var_calls(node, scope):
    """Qualified names of the definitions that call Var, one per call."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            f = child.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Var":
                yield f"{scope}:{child.lineno}"
        yield from _var_calls(child, inner)


def test_var_is_constructed_only_by_new_var():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls.extend(_var_calls(tree, path.stem))
    assert calls, "Store.new_var should construct Var"
    stray = [c for c in calls if c.split(":")[0] not in ALLOWED]
    assert stray == [], f"Var constructed outside Store.new_var: {stray}"


def _vid_reads(node, scope, parents, lines):
    """(scope:line: source, allowed) for each `.vid` or `.x_vid` under
    node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Attribute) and (
                child.attr == "vid" or child.attr.endswith("_vid")):
            where = f"{scope}:{child.lineno}: {lines[child.lineno - 1].strip()}"
            yield where, _allowed(child, scope, parents + [node])
        yield from _vid_reads(child, inner, parents + [node], lines)


def _allowed(attr, scope, parents):
    """Whether the `.vid` read `attr`, under `parents`, is one of the
    allowed uses."""
    parent = parents[-1]
    if scope.startswith("terms.Var."):
        return True
    if isinstance(parent, ast.Call) and attr in parent.args:
        f = parent.func
        return isinstance(f, ast.Attribute) and f.attr == "event"
    if isinstance(parent, ast.Subscript) and parent.slice is attr:
        v = parent.value
        return (v.attr if isinstance(v, ast.Attribute)
                else getattr(v, "id", None)) == "homes"
    if isinstance(parent, ast.Compare):
        return scope == "store.Store._alias"
    return any(isinstance(p, ast.FormattedValue) for p in parents)


def test_vid_is_only_a_label():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        reads.extend(_vid_reads(tree, path.stem, [], text.splitlines()))
    assert reads, "trace events should read Var.vid"
    stray = [where for where, ok in reads if not ok]
    assert stray == [], "vid used beyond labelling:\n" + "\n".join(stray)
