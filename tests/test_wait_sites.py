"""Parking a thread is what makes a variable needed.

`VM.suspend_thread` fires the by-need trigger of the variable a thread
parks on, so statements and builtins only report that variable: they
return it, or raise `errors.Wait` with it.  The one other caller is
`fd._bind_value`, since propagation can determine a by-need variable with
no thread parked on it.  The first check finds every call of `.need(` in
the package with the stdlib ast module and names the enclosing definition.

Builtin arguments are decoded by `errors.arg` alone, so the second check
finds no module that imports a name `_arg` or reads one off another
module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kernelspace"

ALLOWED = {"vm.VM.suspend_thread", "fd._bind_value"}


def _need_calls(node, scope):
    """Qualified names of the definitions that call `.need`, one per call."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "need"):
            yield f"{scope}:{child.lineno}"
        yield from _need_calls(child, inner)


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_only_parking_and_propagation_make_a_variable_needed():
    calls = []
    for stem, tree in _trees():
        calls.extend(_need_calls(tree, stem))
    assert {c.split(":")[0] for c in calls} == ALLOWED, calls


def _uses_arg(node):
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "_arg" for a in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "_arg"


def test_no_module_imports_a_private_argument_decoder():
    uses = [f"{stem}:{node.lineno}" for stem, tree in _trees()
            for node in ast.walk(tree) if _uses_arg(node)]
    assert uses == []
