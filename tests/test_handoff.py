"""A statement hands the scheduler the statement it continues with.

`seq`, `local`, `if`, `case`, a closure call and `try` return the
(statement, frame) pair to run next instead of pushing it, and VM.run runs
that pair without a trip through the thread's stack.  These tests pin what
must not change with that:

  - one statement run is one reduction, under every slice and at budget
    stops (counted by wrapping every compiled closure);
  - a handed-over statement that raises, stops on the budget, parks in a
    space that is then cloned, or fails its own space by propagation
    behaves as a pushed one does;
  - no builtin returns a tuple, which the scheduler would read as a
    statement to run next.
"""

import random

import pytest

from test_corpus import EAGER, LAZY

from kernelspace import codegen, fd, spaces, stdlib
from kernelspace import vm as vm_mod
from kernelspace.kernel import KApply, KCase, KIf, KLocal, KSeq, KTry
from kernelspace.runner import RunConfig, Session, run_text
from kernelspace.terms import Builtin, Var

HEAVY = ("producer-consumer-eager", "producer-consumer-lazy", "fractions")
LIGHT = [e for e in stdlib.corpus() if e.name not in HEAVY]


def _fresh_statements(monkeypatch):
    """Make every statement compile anew from here on: the prelude and the
    host-made calls are kept per process, with their closures."""
    monkeypatch.setattr(stdlib, "_prelude_cache", None)
    monkeypatch.setattr(codegen, "_CALLS", {})


def _record_runs(monkeypatch):
    """Wrap every closure compiled from now on; returns the list that each
    run appends (statement, thread, frame) to."""
    runs = []
    compile_stmt = codegen.compile_stmt

    def recording(s):
        code = compile_stmt(s)

        def run(vm, th, fr):
            runs.append((s, th, fr))
            return code(vm, th, fr)
        s.code = run
        return run
    _fresh_statements(monkeypatch)
    monkeypatch.setattr(codegen, "compile_stmt", recording)
    monkeypatch.setattr(vm_mod, "compile_stmt", recording)
    return runs


def _successors(s):
    """The statements s may continue with on its own frame."""
    t = type(s)
    if t is KSeq:
        return (s.stmts[0],)
    if t is KLocal or t is KTry:
        return (s.body,)
    if t is KIf or t is KCase:
        return (s.then, s.els)
    return ()


def _chose(runs, k, s, fr):
    """Whether s on frame fr is what run k continues with: a successor on
    the same frame, or for a call, a body on a frame no run up to k had."""
    s0, _, fr0 = runs[k]
    if type(s0) is KApply:
        return all(f is not fr for _, _, f in runs[:k + 1])
    return fr is fr0 and s in _successors(s0)


def _handed_over(runs, k):
    """Whether run k is what run k - 1 continued with, in the same thread."""
    s, th, fr = runs[k]
    return runs[k - 1][1] is th and _chose(runs, k - 1, s, fr)


# ----------------------------------------------------------------------
# one statement run is one reduction


@pytest.mark.parametrize("slice_", [1, 7, 1000])
@pytest.mark.parametrize("entry", LIGHT, ids=lambda e: f"{e.section}/{e.name}")
def test_one_statement_run_is_one_reduction(monkeypatch, entry, slice_):
    runs = _record_runs(monkeypatch)
    out = run_text(entry.source(), RunConfig(slice_=slice_))
    assert out.exit_code == entry.expect_exit
    assert out.vm.reductions == len(runs)


@pytest.mark.parametrize("src", [EAGER, LAZY], ids=["eager", "lazy"])
@pytest.mark.parametrize("slice_, budget", [(1, 500), (7, 1234),
                                            (1000, 5000)])
def test_one_statement_run_is_one_reduction_at_a_budget_stop(
        monkeypatch, src, slice_, budget):
    runs = _record_runs(monkeypatch)
    out = run_text(src, RunConfig(slice_=slice_, max_reductions=budget))
    assert out.exit_code == 3
    assert out.vm.reductions == len(runs) == budget


# ----------------------------------------------------------------------
# edge cases of the hand-off, each under a slice of 1 and of 1000

SLICES = pytest.mark.parametrize("slice_", [1, 1000])


@SLICES
@pytest.mark.parametrize("body, caught", [
    ("raise oops end", "oops"),
    ("raise oops end {Browse no}", "oops"),
    ("1 = 2 {Browse no}", "failure(debug:unit)"),
])
def test_a_try_whose_first_statement_raises_reaches_its_handler(
        monkeypatch, slice_, body, caught):
    runs = _record_runs(monkeypatch)
    src = f"try {body} catch E then {{Browse caught(E)}} end {{Browse after}}"
    out = run_text(src, RunConfig(slice_=slice_))
    assert (out.exit_code, out.browse) == (0, [f"caught({caught})", "after"])
    # the statement that raised was handed over, by the try or its body
    k = max(k for k, (s, _, _) in enumerate(runs)
            if type(s) is KTry) + 1
    while type(runs[k][0]) in (KSeq, KLocal):
        assert _handed_over(runs, k)
        k += 1
    assert _handed_over(runs, k)


@SLICES
def test_a_budget_stop_at_a_handed_over_statement(monkeypatch, slice_):
    runs = _record_runs(monkeypatch)
    full = run_text(EAGER, RunConfig(slice_=slice_))
    # the first reduction past the slice that runs a statement the one
    # before it handed over
    budget = next(k for k in range(slice_, len(runs))
                  if _handed_over(runs, k))
    del runs[:]
    out = run_text(EAGER, RunConfig(slice_=slice_, max_reductions=budget))
    assert out.exit_code == 3
    assert out.vm.reductions == len(runs) == budget
    # the handed-over statement went back on its thread's stack
    top_stmt, top_fr = runs[-1][1].stack[-1]
    assert _chose(runs, len(runs) - 1, top_stmt, top_fr)
    # and the run goes on from there to the same end
    vm = out.vm
    vm.max_reductions = 10 ** 18
    assert vm.run() == "done"
    assert out.browse + vm.browse == full.browse == ["4513500"]
    assert vm.reductions == full.vm.reductions


@SLICES
def test_a_space_parked_on_a_handed_over_case_is_cloned(monkeypatch, slice_):
    runs = _record_runs(monkeypatch)
    session = Session(RunConfig(slice_=slice_))
    out = session.feed("""
    declare Match S in
    proc {Match X Y} case X of f(Z) then Y = Z + 1 end end
    {NewSpace proc {$ R} X Y in R = r(X Y) {Match X Y} end S}
    """)
    assert out.exit_code == 0
    # the script's thread parked on the case the call of Match handed over,
    # on a variable of the space's own, so the space is stable
    k = max(k for k, (_, th, _) in enumerate(runs)
            if th.space is not session.vm.top)
    case, th, _ = runs[k]
    assert type(case) is KCase and _handed_over(runs, k)
    assert th.state == "suspended" and th.stack[-1][0] is case
    out = session.feed("""
    declare C A B in
    {Clone S C}
    {Inject S proc {$ R} case R of r(X _) then X = f(41) end end}
    {Inject C proc {$ R} case R of r(X _) then X = f(1) end end}
    {Merge S A} {Merge C B}
    {Browse A#B}
    """)
    assert (out.exit_code, out.browse) == (0, ["r(f(41) 42)#r(f(1) 2)"])
    assert session.vm.top.runnable == 0


@SLICES
def test_a_propagation_failure_after_a_hand_off_kills_its_space(
        monkeypatch, slice_):
    runs = _record_runs(monkeypatch)
    died = []
    drain = fd.drain

    def watching(vm):
        live = set(spaces.subtree(vm.top))
        try:
            drain(vm)
        finally:
            died.extend(live - set(spaces.subtree(vm.top)))
    monkeypatch.setattr(fd, "drain", watching)
    out = run_text("""
    declare S A in
    {NewSpace proc {$ R}
       L = [_ _ _] in
       L ::: 0#1
       if true then {FD.distinct L} end
       R = 1
    end S}
    {Ask S A} {Browse A}
    """, RunConfig(slice_=slice_))
    assert (out.exit_code, out.browse) == (0, ["failed"])
    # the space's thread ran the if and then the distinct it handed over,
    # whose propagation failed the space the thread runs in
    ks = [k for k, (_, th, _) in enumerate(runs)
          if th.space is not out.vm.top]
    k, (s, th, _) = ks[-1], runs[ks[-1]]
    assert type(runs[k - 1][0]) is KIf and _handed_over(runs, k)
    assert died == [th.space] and th.state == "killed"
    assert th.space.runnable == 0 and out.vm.top.runnable == 0


# ----------------------------------------------------------------------
# builtins keep to the return protocol


def test_no_builtin_returns_a_tuple(monkeypatch):
    """Every builtin the base environment reaches returns None, the Var to
    park on or spaces.BLOCKED, over the corpus and one small pass of each
    bench workload (which runs the streams and fractions it leaves out)."""
    _fresh_statements(monkeypatch)
    reached = {id(b): b for b in stdlib.base_env(vm_mod.VM()).values()
               if type(b) is Builtin}
    called, wrong = set(), []

    def checked(b, fn):
        def call(vm, th, args, sp):
            r = fn(vm, th, args, sp)
            called.add(b.name)
            if not (r is None or type(r) is Var or r is spaces.BLOCKED):
                wrong.append((b.name, r))
            return r
        return call
    for b in reached.values():
        monkeypatch.setattr(b, "fn", checked(b, b.fn))
    # closures compiled before the wrapping call the builtins they held
    _fresh_statements(monkeypatch)

    for entry in LIGHT:
        assert run_text(entry.source()).exit_code == entry.expect_exit
    monkeypatch.syspath_prepend(str(stdlib._HERE.parents[1] / "bench"))
    import workloads
    rng = random.Random(1)
    ops = [*workloads.streams(rng, n=300),
           *workloads.fd_search(rng, models=3),
           *workloads.tree_search(rng, trees=2, append_n=6, nrev_n=4),
           *workloads.corpus(rng)]
    for op in ops:
        assert op.fn() is None, op.label
    assert wrong == []
    assert {"Browse", "NewSpace", "Choose", "Ask", "Commit", "Clone",
            "Inject", "Merge", "FDDistinct", "ByNeed"} <= called
