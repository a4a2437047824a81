"""Every store variable is one Var object, made by Store.new_var.

Bindings, domains and watcher tables are keyed by the Var object, and a
binding in the variable's home space is stored in the object itself, so a
second object for the same variable would see none of them.  The check
finds every call of `Var(...)` (or `terms.Var(...)`) in the package with
the stdlib ast module and names the enclosing definition.
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
