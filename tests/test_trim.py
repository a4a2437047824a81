"""A parked thread's frame keeps only the slots it will still read.

When a thread parks, the machine clears the frame slots dead at the
parked statement (kernel.dead_slots): those whose last read, in the
pre-order numbering of the body (kernel.number_body), comes before it.
The oracle here is an exact backward liveness over the kernel, written
apart from that numbering: it follows each statement's continuation,
the handler an exception reaches, the pattern slots a match writes and
the frame copy a `thread` starts on.  A slot the runtime clears at a
statement must never be live there.  The behaviour tests park a thread
where a wrong dead set, or a frame shared between threads, would hand a
later read a cleared slot.
"""

import pytest

from conftest import run
from test_determinism import _SYNTHETIC

from kernelspace import kernel, stdlib, syntax
from kernelspace.kernel import (
    INT_OPS, KApply, KCase, KIf, KLocal, KPatRec, KProc, KSeq, KSkip,
    KThread, KTry, Lit, ValueSlot,
)
from kernelspace.terms import Builtin

_NONE = frozenset()


def _indexes(slots):
    return {s.i for s in slots if s is not None}


def _gen_kill(k):
    """The slots statement k reads and the ones it writes, for a statement
    with no sub-statement."""
    t = type(k)
    if t is KProc:
        return _indexes((k.slots[0], *k.caps)), set()
    if (t is KApply and type(k.f) is Lit and type(k.f.v) is Builtin
            and k.f.v.name in INT_OPS and type(k.slots[3]) is ValueSlot):
        # an inline operator writes its result into the value slot
        return _indexes(k.slots[1:3]), {k.slots[3].i}
    return _indexes(k.slots), set()


class _Liveness:
    """Backward liveness of frame slots over one kernel, per body.

    live(k, out, exc) is the set of slots live on entry to k when `out`
    is live after k completes and `exc` at the handler an exception in k
    reaches.  Every statement may raise; a retried statement reads its
    operands again.  `at` maps each statement to the union of its live-in
    sets over every place it occurs (compile_pat shares else chains)."""

    def __init__(self):
        self.at = {}        # id(statement) -> (statement, live-in slots)
        self.memo = {}
        self.bodies = []

    def program(self, k):
        self.bodies.append(k)
        while self.bodies:
            self.live(self.bodies.pop(), _NONE, _NONE)

    def live(self, k, out, exc):
        key = (id(k), out, exc)
        got = self.memo.get(key)
        if got is not None:
            return got
        t = type(k)
        if t is KSeq:
            live = out
            for s in reversed(k.stmts):
                live = self.live(s, live, exc)
        elif t is KLocal:
            made = {s.i for s in k.slots if type(s) is not ValueSlot}
            live = self.live(k.body, out, exc) - made
        elif t is KIf or t is KCase:
            then = self.live(k.then, out, exc)
            if t is KCase and type(k.pat) is KPatRec:
                then = then - _indexes(k.slots[1:])
            live = (_indexes(k.slots[:1]) | then
                    | self.live(k.els, out, exc))
        elif t is KTry:
            handler = self.live(k.handler, out, exc) - {k.slots[0].i}
            live = self.live(k.body, out, frozenset(handler))
        elif t is KThread:
            # the thread starts on a copy of the frame as it is here
            live = self.live(k.body, _NONE, _NONE) | out
        elif t is KSkip:
            live = out
        else:
            if t is KProc:
                self.bodies.append(k.body)
            gen, kill = _gen_kill(k)
            live = gen | (out - kill)
        live = frozenset(live | exc)
        self.memo[key] = live
        _, before = self.at.get(id(k), (k, _NONE))
        self.at[id(k)] = (k, before | live)
        return live


def _sources():
    """Name -> source text, or None for the prelude."""
    out = {"prelude": None}
    out.update({f"corpus/{e.section}/{e.name}": e.source()
                for e in stdlib.corpus()})
    out.update(_SYNTHETIC)
    return out


_SOURCES = _sources()


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_no_slot_cleared_at_a_statement_is_live_there(name):
    names, k = stdlib._prelude()
    src = _SOURCES[name]
    if src is not None:
        k = kernel.desugar(syntax.parse(src),
                           set(stdlib.builtins()) | set(names))
    oracle = _Liveness()
    oracle.program(k)
    cleared = 0
    for stmt, live in oracle.at.values():
        dead = set(kernel.dead_slots(stmt))
        assert not dead & live, (name, stmt, sorted(dead & live))
        cleared += len(dead)
    assert cleared, name


# ----------------------------------------------------------------------
# parked threads that a wrong dead set would break


def _check(src, shown):
    out = run(src)
    assert (out.exit_code, out.browse) == (0, shown), out.error


def test_a_thread_reads_a_slot_its_parent_let_go():
    # the parent parks on Y after its last read of X, which only the
    # thread it started reads later
    _check("""
    local X Y in
       X = 5
       thread {Wait Y} {Browse X} end
       thread Y = unit end
       {Wait Y}
       {Browse done}
    end
    """, ["done", "5"])


def test_a_handler_reads_a_slot_the_parked_body_does_not():
    _check("""
    local X Y in
       X = 7
       thread Y = unit end
       try {Wait Y} raise boom end
       catch E then {Browse X#E} end
    end
    """, ["7#boom"])


@pytest.mark.parametrize("y, m, shown", [
    ("f(M)", "a(1)", "42"),     # the innermost test fails
    ("f(M)", "b", "42"),        # the test of M's label fails
    ("g(M)", "a(2)", "42"),     # the outer test fails
    ("f(M)", "a(2)", "yes"),
])
def test_a_shared_else_chain_reads_a_slot_after_either_failure(y, m, shown):
    # the thread parks on Y at the outer test, then on M at the nested
    # one; only the else chain the tests share reads X
    _check(f"""
    local X Y M W in
       X = 42
       thread Y = {y} end
       thread {{Wait W}} M = {m} end
       thread W = unit end
       case Y of f(a(2)) then {{Browse yes}} else {{Browse X}} end
    end
    """, [shown])
