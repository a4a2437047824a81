"""Host-side access to the search engines.

The engines themselves are library procedures written in the language
(see prelude.oz); they talk to spaces only through the seven space
operations.  This module drives them from Python: it spawns an engine
call in a vm, runs to quiescence, and converts the result list back
into Python data.  Tests use these entry points to compare engine
results against independently computed oracles.
"""

from . import stdlib
from .terms import Record, is_cons, record_get
from .vm import VM, render


class EngineError(RuntimeError):
    """The engine call raised or failed to reach quiescence."""


def fresh(slice_=1000, **vm_kwargs):
    """A vm with the base environment loaded: returns (vm, env)."""
    vm = VM(slice_=slice_, **vm_kwargs)
    env = stdlib.base_env(vm)
    return vm, env


def _run(vm, what):
    """Run vm; an uncaught exception or an unfinished run raises EngineError."""
    status = vm.run()
    if vm.uncaught is not None:
        term = vm.uncaught
        vm.uncaught = None
        raise EngineError("uncaught: " + render(vm, term, vm.top))
    if status != "done":
        raise EngineError(f"{what} did not finish: {status}")


def call(vm, env, proc, args):
    """Apply proc to args plus a fresh output variable; run; deref it."""
    if isinstance(proc, str):
        proc = env[proc]
    out = vm.store.new_var(vm.top)
    vm.spawn_call(proc, list(args) + [out], vm.top)
    _run(vm, "engine")
    return vm.store.deref(out, vm.top)


def to_pylist(vm, t):
    """A determined cons list, seen from the top space, as a Python list of
    derefed element terms."""
    sp = vm.top
    out = []
    t = vm.store.deref(t, sp)
    while is_cons(t):
        out.append(vm.store.deref(record_get(t, 1), sp))
        t = vm.store.deref(record_get(t, 2), sp)
    if t != "nil":
        raise EngineError("not a proper list")
    return out


def dfs_all(vm, env, script):
    """All solutions, depth first, left to right."""
    return to_pylist(vm, call(vm, env, "Search.base.all", [script]))


def dfs_one(vm, env, script):
    """First solution as a one-element list, or an empty list."""
    return to_pylist(vm, call(vm, env, "Search.base.one", [script]))


def bab(vm, env, script, order):
    """Branch and bound: the best solution as [sol], or an empty list."""
    return to_pylist(vm, call(vm, env, "Search.bab", [script, order]))


class SearchObject:
    """Python handle on an engine created by Search.object."""

    def __init__(self, vm, env, script):
        self.vm = vm
        self.env = env
        so = call(vm, env, "Search.object", [script])
        if not (isinstance(so, Record) and so.label == "search"):
            raise EngineError("engine handle has an unexpected shape")
        self._next = record_get(so, "next")
        self._close = record_get(so, "close")

    def next(self):
        """The next solution term, or None when exhausted."""
        got = to_pylist(self.vm, call(self.vm, self.env, self._next, []))
        if not got:
            return None
        return got[0]

    def close(self):
        self.vm.spawn_call(self._close, [], self.vm.top)
        _run(self.vm, "close")

