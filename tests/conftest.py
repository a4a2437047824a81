"""Shared helpers: run a program text and inspect the outcome."""

from collections import Counter

from kernelspace import kernel, syntax
from kernelspace.runner import RunConfig, run_text


# the event kinds a trace reports: thread events and the seven operations
THREAD_KINDS = {"spawn", "exit", "suspend", "wake", "raise"}
SPACE_OPS = {"newspace", "choose", "ask", "commit", "clone", "inject", "merge"}


def kind_counter():
    """A Counter of event kinds and a trace sink that fills it."""
    kinds = Counter()

    def sink(ev):
        kinds[ev[0]] += 1
    return kinds, sink


def run(src, **cfg):
    """Run a program under an optional config; returns the Outcome."""
    return run_text(src, RunConfig(**cfg) if cfg else None)


def browse(src, **cfg):
    """Run a program expected to finish cleanly; returns its browse lines."""
    out = run(src, **cfg)
    assert out.status == "ok", (out.status, out.error)
    return out.browse


_decl_cache = {}


def load_decls(vm, env, src):
    """Run a declare block on vm's top space.

    Returns (ok, table): ok is False when the block raised (the raised
    term is dropped and the vm stays usable); table maps each declared
    name to its derefed term.
    """
    if src not in _decl_cache:
        phrase = syntax.parse(src)
        names = tuple(phrase.names)
        scope = set(env) | set(names)
        _decl_cache[src] = (names, kernel.desugar(phrase.body, scope))
    names, body = _decl_cache[src]
    env2 = dict(env)
    for n in names:
        env2[n] = vm.store.new_var(vm.top)
    vm.spawn(body, env2, vm.top)
    status = vm.run()
    ok = status == "done" and vm.uncaught is None
    vm.uncaught = None
    return ok, {n: vm.store.deref(env2[n], vm.top) for n in names}
