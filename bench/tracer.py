"""Tracing from outside the runtime: wrap public functions, count and time.

`Tracer.install()` replaces functions and methods of the kernelspace
modules with wrappers.  Coarse calls (run_text, parse, desugar, base_env,
VM.run, clone_space, engine calls) each record a span: name, start, end
and the index of the enclosing span.  Hot calls (deref, unify, bind,
propagator runs) only add to counts and summed seconds.  Nothing under
src/ changes: the runtime looks these names up on their module or class
at call time.  Install before the first VM is made, because a VM binds
its store's wake callback when it is created.

Counts and seconds are booked per phase: the set-up, then each pass.
`layers()` reports set-up plus the median pass, which is the work of a
fresh process running the workload's inputs once.  Times of hot calls
include the wrappers' own cost; they are for comparing traced runs with
each other, not with untraced ones.
"""

import json
import statistics
import time
from collections import defaultdict

MAX_SPANS = 200_000

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("syntax.parse_s", "s"),
    ("syntax.tokens", "count"),
    ("syntax.tokens_per_s", "1/s"),
    ("kernel.desugar_s", "s"),
    ("stdlib.base_env_s", "s"),
    ("stdlib.base_env_calls", "count"),
    ("vm.run_s", "s"),
    ("vm.reductions", "count"),
    ("vm.reductions_per_s", "1/s"),
    ("vm.threads_spawned", "count"),
    ("vm.suspensions", "count"),
    ("vm.wakes", "count"),
    ("vm.triggers_installed", "count"),
    ("vm.triggers_fired", "count"),
    ("store.unify_calls", "count"),
    ("store.unify_s", "s"),
    ("store.deref_calls", "count"),
    ("store.deref_s", "s"),
    ("store.bind_calls", "count"),
    ("store.vars_allocated", "count"),
    ("store.homes_retained", "count"),
    ("spaces.created", "count"),
    ("spaces.ask", "count"),
    ("spaces.commit", "count"),
    ("spaces.clone", "count"),
    ("spaces.inject", "count"),
    ("spaces.merge", "count"),
    ("spaces.choose", "count"),
    ("spaces.failed", "count"),
    ("spaces.retained", "count"),
    ("spaces.alive", "count"),
    ("clone.calls", "count"),
    ("clone.s", "s"),
    ("clone.vars_copied", "count"),
    ("clone.us_per_var", "us"),
    ("fd.drain_s", "s"),
    ("fd.lin_runs", "count"),
    ("fd.mul_runs", "count"),
    ("fd.distinct_runs", "count"),
    ("fd.runs_per_node", "runs/node"),
    ("fd.us_per_run", "us"),
    ("search.nodes", "count"),
    ("search.solutions", "count"),
    ("search.nodes_per_s", "1/s"),
    ("runner.run_text_s", "s"),
]


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


class Tracer:
    def __init__(self):
        self.spans = []               # [name, start, end, parent index]
        self.cur = -1                 # index of the innermost open span
        self.dropped = 0              # spans not kept beyond MAX_SPANS
        self.c = defaultdict(int)     # counts and seconds of the current phase
        self.vms = []                 # VMs made in the current phase
        self.phases = []              # (name, totals) of finished phases
        self.current = None           # (name, span record) of the open phase

    # ------------------------------------------------------------------
    # spans

    def begin(self, name):
        """Open a span inside the innermost open one; end() closes it.

        Wrappers restore `cur` by plain assignment first thing in their
        `finally`, so a RecursionError raised anywhere in a deep call
        cannot leave the span structure pointing at a closed span.
        """
        rec = [name, time.perf_counter(), None, self.cur]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(rec)
            self.cur = len(self.spans) - 1
        else:
            self.dropped += 1
        return rec

    def end(self, rec):
        self.cur = rec[3]
        rec[2] = time.perf_counter()
        return rec[2] - rec[1]

    def phase(self, name):
        """Close the open phase, if any, and start booking to `name`."""
        self.finish()
        self.current = (name, self.begin(name))

    def finish(self):
        if self.current is None:
            return
        name, rec = self.current
        self.end(rec)
        totals = dict(self.c)
        for vm in self.vms:
            for key, value in (
                    ("vm.reductions", vm.reductions),
                    ("vm.threads_spawned", vm.next_tid),
                    ("vm.triggers_installed", vm.triggers_installed),
                    ("vm.triggers_fired", vm.triggers_fired),
                    ("spaces.retained", len(vm.spaces)),
                    ("spaces.alive",
                     sum(1 for sp in vm.spaces.values() if sp.alive())),
                    ("store.homes_retained", len(vm.store.homes))):
                totals[key] = totals.get(key, 0) + value
        self.phases.append((name, totals))
        self.c.clear()
        self.vms = []
        self.current = None

    # ------------------------------------------------------------------
    # wrappers

    def _spanned(self, name, fn, after=None):
        """Span per call; seconds and calls go to `name`_s and `name`_calls."""
        c = self.c
        pc = time.perf_counter
        begin = self.begin
        secs, calls = name + "_s", name + "_calls"

        def wrapped(*args, **kwargs):
            rec = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.cur = rec[3]
                rec[2] = pc()
                c[secs] += rec[2] - rec[1]
                c[calls] += 1
            if after is not None:
                after(args, result)
            return result
        return wrapped

    def _timed(self, key, fn):
        """No span; outermost calls add to `key`_s, every call to _calls."""
        c = self.c
        pc = time.perf_counter
        depth = [0]
        secs, calls = key + "_s", key + "_calls"

        def wrapped(*args, **kwargs):
            c[calls] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            t0 = pc()
            depth[0] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                c[secs] += pc() - t0
        return wrapped

    def _counted(self, key, fn):
        c = self.c

        def wrapped(*args, **kwargs):
            c[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def install(self):
        from kernelspace import clone, fd, kernel, runner, search, spaces
        from kernelspace import stdlib, syntax
        from kernelspace.store import Store
        from kernelspace.vm import VM
        c = self.c

        def count_tokens(args, toks):
            c["syntax.tokens"] += len(toks) - 1      # without the eof token

        def count_solutions(args, sols):
            c["search.solutions"] += len(sols)

        runner.run_text = self._spanned("runner.run_text", runner.run_text)
        syntax.tokenize = self._spanned("syntax.tokenize", syntax.tokenize,
                                        count_tokens)
        syntax.parse = self._spanned("syntax.parse", syntax.parse)
        kernel.desugar = self._spanned("kernel.desugar", kernel.desugar)
        stdlib.base_env = self._spanned("stdlib.base_env", stdlib.base_env)
        VM.run = self._spanned("vm.run", VM.run)
        search.call = self._spanned("search.call", search.call)
        search.to_pylist = self._spanned("search.to_pylist", search.to_pylist,
                                         count_solutions)

        orig_clone = clone.clone_space

        def clone_space(vm, s, caller_space):
            before = len(vm.store.homes)
            rec = self.begin("clone")
            try:
                return orig_clone(vm, s, caller_space)
            finally:
                self.cur = rec[3]
                rec[2] = time.perf_counter()
                c["clone.s"] += rec[2] - rec[1]
                c["clone.calls"] += 1
                c["clone.vars_copied"] += len(vm.store.homes) - before
        clone.clone_space = clone_space

        Store.unify = self._timed("store.unify", Store.unify)
        Store.deref = self._timed("store.deref", Store.deref)
        Store.bind = self._counted("store.bind_calls", Store.bind)
        Store.new_var = self._counted("store.vars_allocated", Store.new_var)

        fd.drain = self._timed("fd.drain", fd.drain)
        for cls, key in ((fd.LinProp, "fd.lin"), (fd.MulProp, "fd.mul"),
                         (fd.DistinctProp, "fd.distinct")):
            cls.run = self._timed(key, cls.run)

        VM.suspend_thread = self._counted("vm.suspensions", VM.suspend_thread)
        orig_wake = VM.wake_all

        def wake_all(vm, waiters):
            waiting = [th for th in waiters if th.state == "suspended"]
            orig_wake(vm, waiters)
            c["vm.wakes"] += sum(1 for th in waiting
                                 if th.state != "suspended")
        VM.wake_all = wake_all

        orig_vm_init = VM.__init__

        def vm_init(vm, *args, **kwargs):
            orig_vm_init(vm, *args, **kwargs)
            self.vms.append(vm)
        VM.__init__ = vm_init

        orig_space_init = spaces.Space.__init__

        def space_init(sp, parent, *args, **kwargs):
            orig_space_init(sp, parent, *args, **kwargs)
            if parent is not None:
                c["spaces.created"] += 1
        spaces.Space.__init__ = space_init

        for op in ("new_space", "ask", "commit", "clone", "inject", "merge",
                   "choose"):
            setattr(spaces, op, self._counted(f"spaces.{op}",
                                              getattr(spaces, op)))

        orig_fail = spaces.fail_space

        def fail_space(vm, sp):
            alive = sp.alive()
            orig_fail(vm, sp)
            if alive and not sp.alive():
                c["spaces.failed"] += 1
        spaces.fail_space = fail_space

    # ------------------------------------------------------------------
    # results

    def layers(self):
        """Per-layer metrics: set-up plus the median pass, as {name: value}."""
        self.finish()
        (_, setup), passes = self.phases[0], [t for _, t in self.phases[1:]]
        keys = set(setup).union(*passes)
        m = {k: setup.get(k, 0)
             + (statistics.median_low([p.get(k, 0) for p in passes])
                if passes else 0)
             for k in keys}
        g = lambda k: m.get(k, 0)      # noqa: E731
        runs = g("fd.lin_calls") + g("fd.mul_calls") + g("fd.distinct_calls")
        nodes = g("spaces.new_space") + g("spaces.clone")
        out = {
            "syntax.parse_s": g("syntax.parse_s"),
            "syntax.tokens": g("syntax.tokens"),
            "syntax.tokens_per_s": _ratio(g("syntax.tokens"),
                                          g("syntax.parse_s")),
            "kernel.desugar_s": g("kernel.desugar_s"),
            "stdlib.base_env_s": g("stdlib.base_env_s"),
            "stdlib.base_env_calls": g("stdlib.base_env_calls"),
            "vm.run_s": g("vm.run_s"),
            "vm.reductions_per_s": _ratio(g("vm.reductions"), g("vm.run_s")),
            "store.unify_calls": g("store.unify_calls"),
            "store.unify_s": g("store.unify_s"),
            "store.deref_calls": g("store.deref_calls"),
            "store.deref_s": g("store.deref_s"),
            "clone.calls": g("clone.calls"),
            "clone.s": g("clone.s"),
            "clone.vars_copied": g("clone.vars_copied"),
            "clone.us_per_var": _ratio(g("clone.s"), g("clone.vars_copied"),
                                       1e6),
            "fd.drain_s": g("fd.drain_s"),
            "fd.lin_runs": g("fd.lin_calls"),
            "fd.mul_runs": g("fd.mul_calls"),
            "fd.distinct_runs": g("fd.distinct_calls"),
            "fd.runs_per_node": _ratio(runs, nodes),
            "fd.us_per_run": _ratio(g("fd.lin_s") + g("fd.mul_s")
                                    + g("fd.distinct_s"), runs, 1e6),
            "search.nodes": nodes,
            "search.nodes_per_s": _ratio(nodes, g("vm.run_s")),
            "runner.run_text_s": g("runner.run_text_s"),
        }
        for name, _ in METRICS:
            out.setdefault(name, g(name))
        return {name: out[name] for name, _ in METRICS}

    def dump(self, path, **extra):
        """Write spans, per-phase totals and self time per span name."""
        self.finish()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is not None:
                self_s[name] += end - start - child[i]
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "dropped": self.dropped,
                       "self_s": dict(self_s), "phases": self.phases,
                       **extra}, f)
