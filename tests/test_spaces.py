"""First-class computation spaces.

Covers the visibility rules between a space and its ancestors, clone
independence, failure containment, the status protocol, misuse errors,
and a randomized driver that applies long arbitrary sequences of space
operations and checks the vm never crashes, never answers nonsense, and
replays deterministically.
"""

import random

import pytest

from conftest import (SPACE_OPS, THREAD_KINDS, browse, kind_counter,
                      load_decls, run)

from kernelspace import search, spaces
from kernelspace.vm import render


# ----------------------------------------------------------------------
# visibility


def test_parent_binding_visible_in_child():
    src = """
    declare X S A in
    X = 41
    {NewSpace proc {$ R} R = X + 1 end S}
    {Ask S A} {Browse A}
    local Root in {Merge S Root} {Browse Root} end
    """
    assert browse(src) == ["succeeded", "42"]


def test_speculative_binding_stays_local_until_merge():
    src = """
    declare X S A D1 D2 in
    {NewSpace proc {$ R} X = inner R = X end S}
    {Ask S A} {Browse A}
    {IsDet X D1} {Browse D1}
    local Root in {Merge S Root} {Browse Root} end
    {IsDet X D2} {Browse D2}
    {Browse X}
    """
    assert browse(src) == ["succeeded", "false", "inner", "true", "inner"]


def test_grandchild_sees_both_ancestors():
    src = """
    declare X S1 A1 in
    X = seed
    {NewSpace proc {$ R1}
       local Y S2 A2 in
          Y = mid
          {NewSpace proc {$ R2} R2 = X#Y end S2}
          {Ask S2 A2}
          case A2 of succeeded then
             local Q in {Merge S2 Q} R1 = q(Q) end
          end
       end
    end S1}
    {Ask S1 A1} {Wait A1}
    local Root in {Merge S1 Root} {Browse Root} end
    """
    assert browse(src) == ["q(seed#mid)"]


def test_sibling_speculations_do_not_leak():
    """Two spaces bind the same top variable differently; neither sees
    the other, and the top never sees either without a merge."""
    src = """
    declare X S1 S2 A1 A2 D in
    {NewSpace proc {$ R} X = one R = X end S1}
    {NewSpace proc {$ R} X = two R = X end S2}
    {Ask S1 A1} {Browse A1}
    {Ask S2 A2} {Browse A2}
    {IsDet X D} {Browse D}
    """
    assert browse(src) == ["succeeded", "succeeded", "false"]


# ----------------------------------------------------------------------
# clone independence


def test_clone_commits_independently():
    src = """
    declare S C in
    {NewSpace proc {$ R} local I in {Choose 2 I} R = I end end S}
    {Clone S C}
    {Commit S 1}
    {Commit C 2}
    local RA RB in
       {Merge S RA} {Merge C RB} {Browse RA} {Browse RB}
    end
    """
    assert browse(src) == ["1", "2"]


def test_clone_waits_for_stability():
    src = """
    declare X S C in
    {NewSpace proc {$ R} R = X + 1 end S}
    thread {Clone S C} end
    X = 9
    {Wait C}
    local RA RB in
       {Merge C RA} {Browse RA}
       {Merge S RB} {Browse RB}
    end
    """
    assert browse(src) == ["10", "10"]


def test_failure_in_clone_leaves_original_intact():
    src = """
    declare S C A B in
    {NewSpace proc {$ R} local I in {Choose 2 I} R = I end end S}
    {Clone S C}
    {Inject C proc {$ R} 1 = 2 end}
    {Ask C A} {Browse A}
    {Ask S B} {Browse B}
    """
    assert browse(src) == ["failed", "alternatives(2)"]


def _preorder_sids(sp):
    out, stack = [], [sp]
    while stack:
        sp = stack.pop()
        out.append(sp.sid)
        stack.extend(reversed(sp.children))
    return out


def test_clone_of_deeply_nested_spaces():
    # 1,200 nested spaces are far past the host's recursion limit
    out = run("""
    declare Nest S C A B in
    proc {Nest N}
       if N > 0 then {NewSpace proc {$ R} {Nest N - 1} end _} end
    end
    S = {NewSpace proc {$ R} {Nest 1200} end}
    {Ask S A} {Wait A}
    C = {Clone S}
    {Ask C B} {Browse A#B}
    """)
    assert out.exit_code == 0, out.error
    assert out.browse == ["succeeded#succeeded"]
    assert len(out.vm.spaces) == 1 + 2 * 1201


def test_clone_numbers_its_spaces_in_preorder():
    # the copy of the subtree S, T(U), V gets consecutive sids in preorder,
    # children in creation order
    out = run("""
    declare S C A in
    S = {NewSpace proc {$ R}
       {NewSpace proc {$ _} {NewSpace proc {$ _} skip end _} end _}
       {NewSpace proc {$ _} skip end _}
    end}
    {Ask S A} {Wait A}
    C = {Clone S}
    {Browse done}
    """)
    assert out.exit_code == 0, out.error
    # the originals were numbered as their threads ran: V before U
    orig, copy = out.vm.top.children
    assert _preorder_sids(orig) == [1, 2, 4, 3]
    assert _preorder_sids(copy) == [5, 6, 7, 8]


def _frames(space):
    """The frame of each stack entry of each thread of `space`, in order."""
    return [entry[1] if type(entry) is tuple else entry.frame
            for th in space.threads for entry in th.stack]


def test_clone_copies_shared_frames_once_and_keeps_bindings_apart():
    """A script's thread suspends with its frame shared by its stack
    entries and captured by a closure, beside the thread it spawned on a
    copy of it; a clone gets its own frames, shared the same way, and each
    space sees only its own later bindings."""
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, """
    declare Script S in
    proc {Script Root}
       A B P Out1 Out2 in
       Root = r(a:A b:B o1:Out1 o2:Out2)
       P = proc {$ Z} Z = A + 100 end
       thread {Wait B} Out2 = b(A B) end
       {Wait A}
       local Q in {P Q} Out1 = a(A Q) end
    end
    S = {NewSpace Script}
    """)
    assert ok
    orig = tbl["S"].space
    copy = spaces.clone(vm, orig, vm.top,
                        spaces.status(vm, orig)).space
    before, after = _frames(orig), _frames(copy)
    assert len(before) == len(after) and len(before) >= 3
    # the stack entries of each thread share one frame
    assert len({id(f) for f in before}) < len(before)
    pairs = {(id(a), id(b)) for a, b in zip(before, after)}
    assert len(pairs) == len({id(f) for f in before}) \
        == len({id(f) for f in after})
    assert not {id(f) for f in before} & {id(f) for f in after}

    def fields(space):
        root = vm.store.deref(space.root_var, space)
        return {f: v for f, v in root.feats}

    for space, a, b in ((orig, 1, 10), (copy, 2, 20)):
        got = fields(space)
        vm.tell(got["a"], a, space)
        vm.tell(got["b"], b, space)
    assert vm.run() == "done"
    for space, want in ((orig, ("a(1 101)", "b(1 10)")),
                        (copy, ("a(2 102)", "b(2 20)"))):
        got = fields(space)
        assert (render(vm, got["o1"], space),
                render(vm, got["o2"], space)) == want


# ----------------------------------------------------------------------
# clone copies what the cloned subtree reaches


def _count_copies(monkeypatch):
    """Record, for each clone from now on, the variables the original
    subtree holds and the ones its copy holds."""
    from kernelspace import clone
    seen = []
    orig = clone.clone_space

    def counting(vm, s, caller_space):
        new = orig(vm, s, caller_space)
        seen.append(tuple(sum(len(sp.own_vars) for sp in spaces.subtree(x))
                          for x in (s, new)))
        return new
    monkeypatch.setattr(clone, "clone_space", counting)
    return seen


def test_clone_leaves_behind_what_nothing_reaches(monkeypatch):
    # 20,000 steps each leave variables behind in the space; its root is
    # bound to an atom and no thread is left
    seen = _count_copies(monkeypatch)
    out = run("""
    declare Loop S C A B in
    proc {Loop N}
       if N > 0 then local T in T = N end {Loop N - 1} end
    end
    S = {NewSpace proc {$ R} {Loop 20000} R = done end}
    {Ask S A} {Wait A}
    C = {Clone S}
    {Ask C B} {Browse A#B#{Merge C}}
    """)
    assert out.exit_code == 0, out.error
    assert out.browse == ["succeeded#succeeded#done"]
    (held, copied), = seen
    assert held > 20000
    assert copied == 1                     # the root variable


# Each script leaves garbage behind and holds one subtree variable K, or a
# nested space, that only one kind of root reaches.  Its root is
# r(go:Go out:Out), and `Drive` gives a space its input through Go.  The
# harness clones S1 twice and drives S1 with 1, the first clone with 2
# before S1 and the second with 2 after S1 has merged, then a second
# original S2 with 2.  A copy that waited on S1's variables would not hear
# its own input, and a variable a copy shared with S1 would hold S1's.
_REACH_HARNESS = """
declare Garbage Helper Script Drive Result S1 S2 C1 C2 in
proc {Garbage N}
   if N > 0 then local T U V in T = N U = N V = N end {Garbage N - 1} end
end
%s
fun {Result S V}
   A in
   {Inject S proc {$ R} {Drive R V} end}
   {Ask S A} {Wait A}
   if A == succeeded then A#{Merge S} else A end
end
S1 = {NewSpace Script}
S2 = {NewSpace Script}
local A in {Ask S1 A} {Wait A} {Browse A} end
C1 = {Clone S1}
C2 = {Clone S1}
{Browse {Result C1 2}}
{Browse {Result S1 1}}
local A in {Ask C2 A} {Wait A} {Browse A} end
{Browse {Result C2 2}}
{Browse {Result S2 2}}
"""

_REACH_CASES = {
    # K is in the frame of a nested space's thread, suspended on Go
    "nested-thread": ("""
    proc {Script R}
       Go Out G A in
       R = r(go:Go out:Out)
       {Garbage 20}
       G = {NewSpace proc {$ RG} K in {Wait Go} K = Go RG = K + 10 end}
       {Ask G A} {Wait A}
       Out = {Merge G}
    end
    proc {Drive R V} R = r(go:V out:_) end
    """, "r(go:{0} out:1{0})"),
    # K is captured by the by-need supplier of X, which the root reaches
    "trigger": ("""
    proc {Helper Go X}
       K in {ByNeed proc {$ V} K = Go V = K + 10 end X}
    end
    proc {Script R}
       Go X in
       R = r(go:Go out:X)
       {Garbage 20}
       {Helper Go X}
    end
    proc {Drive R V} X in R = r(go:V out:X) {Wait X} end
    """, "r(go:{0} out:1{0})"),
    # K is a propagator operand, with a domain and watchers, and nothing
    # else
    "propagator": ("""
    proc {Helper Go Out}
       K in K ::: 0#9 Go + K =: 5 K + Out =: 10
    end
    proc {Script R}
       Go Out in
       R = r(go:Go out:Out)
       {Garbage 20}
       {Helper Go Out}
    end
    proc {Drive R V} R = r(go:V out:_) end
    """, "r(go:{0} out:{1})"),
    # K, homed in the nested space G, is bound to Go in G's child H: it is
    # a key of H's overlay and nothing else
    "overlay-key": ("""
    fun {Helper Go}
       K in {NewSpace proc {$ RH} K = Go RH = unit end}
    end
    proc {Script R}
       Go Out G A in
       R = r(go:Go out:Out)
       {Garbage 20}
       G = {NewSpace proc {$ RG}
          H B in
          H = {Helper Go}
          {Wait Go}
          {Ask H B} {Wait B}
          RG = {Merge H}#Go
       end}
       {Ask G A} {Wait A}
       Out = {Merge G}
    end
    proc {Drive R V} R = r(go:V out:_) end
    """, "r(go:{0} out:unit#{0})"),
    # the only reference to the nested space G is the SpaceRef in the
    # frame of S's thread
    "space-ref": ("""
    proc {Script R}
       Go Out in
       R = r(go:Go out:Out)
       {Garbage 20}
       local G A in
          G = {NewSpace proc {$ RG} RG = Go + 10 end}
          {Wait Go}
          {Ask G A} {Wait A}
          Out = A#{Merge G}
       end
    end
    proc {Drive R V} R = r(go:V out:_) end
    """, "r(go:{0} out:succeeded#1{0})"),
}


@pytest.mark.parametrize("case", sorted(_REACH_CASES))
def test_clone_copies_what_each_root_reaches(monkeypatch, case):
    defs, root = _REACH_CASES[case]
    seen = _count_copies(monkeypatch)
    out = run(_REACH_HARNESS % defs)
    assert out.exit_code == 0, out.error
    asked, first, orig, asked_after, second, control = out.browse
    # each clone answers as an original given the same input, and driving
    # S1 did not disturb the clone not yet driven
    assert asked == asked_after == "succeeded"
    assert orig == "succeeded#" + root.format(1, 6)
    assert first == second == control == "succeeded#" + root.format(2, 7)
    (held, copied), again = seen
    assert again == (held, copied)
    assert copied < held - 50              # the garbage stays behind


def test_clone_answers_the_asks_pending_inside_it():
    # S's thread asks its child G, which waits on S's Go: the copy of that
    # ask is answered in the clone once the clone's G is stable
    assert browse("""
    declare S C A B in
    S = {NewSpace proc {$ R} Go G Ans in
           R = Go#Ans
           G = {NewSpace proc {$ _} {Wait Go} end}
           {Ask G Ans}
        end}
    {Ask S A} {Wait A}
    C = {Clone S}
    {Inject C proc {$ R} R = 1#_ end}
    {Ask C B} {Wait B}
    {Browse {Merge C}}
    {Inject S proc {$ R} R = 2#_ end}
    {Browse {Merge S}}
    """) == ["1#succeeded", "2#succeeded"]


# ----------------------------------------------------------------------
# failure containment and the status protocol


def test_child_failure_does_not_fail_parent():
    src = """
    declare S A in
    {NewSpace proc {$ R} 1 = 2 end S}
    {Ask S A} {Browse A} {Browse alive}
    """
    assert browse(src) == ["failed", "alive"]


def test_propagation_failing_a_grandchild_does_not_answer_ask_early():
    # the grandchild fails by propagation while the child's thread is still
    # running; the child must still count that thread as runnable and
    # answer only after its own 1 = 2
    src = """
    declare Loop S A in
    proc {Loop N} if N > 0 then {Loop N - 1} end end
    {NewSpace proc {$ R}
       local G in {NewSpace proc {$ X} X ::: 0#5 X =: 7 end G} end
       {Loop 2000}
       1 = 2
    end S}
    {Ask S A} {Browse A}
    """
    assert browse(src) == ["failed"]


_SPIN = """
declare Spin in
proc {Spin N} if N > 0 then {Spin N-1} else skip end end
"""

# a grandchild G keeps S from being stable by waiting on X, homed at top,
# until a tell at top fails G: its thread dies suspended, and S, left with
# no thread at all, must still be read
GRANDCHILD_FAILED_BY_A_TELL = {
    "binding": """
    local X Y S A in
       {NewSpace proc {$ R}
          local G in {NewSpace proc {$ R2} Y = 1 {Wait X} end G} end
       end S}
       {Ask S A} {Spin 3000} Y = 2 {Browse A}
    end
    """,
    "domain": """
    local X S A in
       X ::: 0#9
       {NewSpace proc {$ R}
          local G in
             {NewSpace proc {$ R2} Z in Z ::: 0#2 X + Z =: 5 {Wait X} end G}
          end
       end S}
       {Ask S A} {Spin 3000} X = 9 {Browse A}
    end
    """,
    # the tell that fails G also queues a propagator of another space S1,
    # so it fails G while propagation is pending elsewhere
    "beside-propagation": """
    local X S S1 A B in
       X ::: 0#9
       {NewSpace proc {$ R}
          local G in {NewSpace proc {$ R2} X ::: 0#2 {Wait X} end G} end
       end S}
       {NewSpace proc {$ R} Y in Y ::: 0#9 X + Y =: 12 end S1}
       {Ask S1 B} {Wait B}
       {Ask S A} X = 7 {Browse A}
    end
    """,
}


@pytest.mark.parametrize("name", GRANDCHILD_FAILED_BY_A_TELL)
def test_ask_is_answered_when_a_tell_fails_a_waiting_grandchild(name):
    assert browse(_SPIN + GRANDCHILD_FAILED_BY_A_TELL[name]) == ["succeeded"]


def test_ask_blocks_until_stable():
    src = """
    declare X S A in
    {NewSpace proc {$ R} R = X + 1 end S}
    {Ask S A}
    thread {Wait A} {Browse A} end
    X = 1
    {Wait A}
    local R in {Merge S R} {Browse R} end
    """
    assert browse(src) == ["succeeded", "2"]


def test_inject_adds_alternatives():
    src = """
    declare S A B in
    {NewSpace proc {$ R} R = 5 end S}
    {Ask S A} {Browse A}
    {Inject S proc {$ R} local K in {Choose 2 K} end end}
    {Ask S B} {Browse B}
    """
    assert browse(src) == ["succeeded", "alternatives(2)"]


def test_inject_can_fail_a_space():
    src = """
    declare S A in
    {NewSpace proc {$ R} R = 5 end S}
    {Inject S proc {$ R} R = 6 end}
    {Ask S A} {Browse A} {Browse alive}
    """
    assert browse(src) == ["failed", "alive"]


def test_merge_is_terminal():
    src = """
    declare S A in
    {NewSpace proc {$ R} R = v end S}
    {Ask S A} {Wait A}
    local R in {Merge S R} {Browse R} end
    try local A2 in {Ask S A2} end catch E then {Browse E} end
    try local R2 in {Merge S R2} end catch E then {Browse E} end
    """
    assert browse(src) == ["v", "error(kind:space)", "error(kind:space)"]


def test_ask_answer_reaches_the_heir_of_a_merged_asker():
    # S asks its child C, then merges while C is still undecided; the
    # thread waiting for the answer now belongs to the top space
    src = """
    declare S SA R in
    S = {NewSpace proc {$ Root} X C A in
           C = {NewSpace proc {$ _} {Wait X} end}
           {Ask C A} Root = r(X A) {Wait A} end}
    {Ask S SA} {Wait SA} {Browse SA}
    R = {Merge S}
    case R of r(X A) then X = 1 {Wait A} {Browse A} end
    """
    assert browse(src) == ["succeeded", "succeeded"]


def test_stability_wait_reaches_the_heir_of_a_merged_caller():
    # S's thread waits inside {Merge C _} for C to become stable; S merges
    # first, and C's stability must still resume that thread
    src = """
    declare S SA R in
    S = {NewSpace proc {$ Root} X C in
           C = {NewSpace proc {$ _} {Wait X} end}
           Root = X {Merge C _} {Browse merged} end}
    {Ask S SA} {Wait SA} {Browse SA}
    R = {Merge S}
    R = 1
    """
    assert browse(src) == ["succeeded", "merged"]


def test_contradicted_ask_answer_at_top_level_is_an_uncaught_failure():
    out = run("declare S A in {NewSpace proc {$ R} R = 1 end S} "
              "A = foo {Ask S A} {Browse A}")
    assert (out.status, out.exit_code) == ("uncaught", 1)
    assert out.error == "uncaught exception: failure(debug:unit)"


def test_contradicted_ask_answer_in_a_child_fails_that_child():
    src = """
    declare S A in
    {NewSpace proc {$ R} S2 A2 in
       {NewSpace proc {$ R2} R2 = 1 end S2} A2 = foo {Ask S2 A2}
    end S}
    {Ask S A} {Browse A}
    """
    assert browse(src) == ["failed"]


def test_parent_tell_fails_conflicting_speculation():
    """Binding a top variable against a child's speculative binding
    fails the child immediately; the top is unaffected."""
    src = """
    declare X S A B in
    {NewSpace proc {$ R} X = inner R = unit end S}
    {Ask S A} {Wait A} {Browse A}
    X = outer
    {Ask S B} {Browse B}
    {Browse X}
    """
    assert browse(src) == ["succeeded", "failed", "outer"]


def test_parent_tells_breaking_speculative_alias_fail_space():
    """The child aliases two top variables; the parent later binds them
    to different values, which kills the speculation."""
    src = """
    declare X Y S A in
    {NewSpace proc {$ R} X = Y R = unit end S}
    {Ask S A} {Wait A} {Browse A}
    X = 1
    Y = 2
    try local R in {Merge S R} end catch E then {Browse E} end
    {Browse done}
    """
    assert browse(src) == ["succeeded", "error(kind:space)", "done"]


# ----------------------------------------------------------------------
# misuse


def test_choose_at_top_level_is_an_error():
    src = "try local I in {Choose 2 I} end catch E then {Browse E} end"
    assert browse(src) == ["error(kind:space)"]


def test_commit_out_of_range_keeps_choice_point():
    src = """
    declare S A0 in
    {NewSpace proc {$ R} local I in {Choose 2 I} R = I end end S}
    {Ask S A0} {Browse A0}
    try {Commit S 3} catch E then {Browse E} end
    try {Commit S 0} catch E then {Browse E} end
    {Commit S 2}
    local R in {Merge S R} {Browse R} end
    """
    assert browse(src) == ["alternatives(2)", "error(kind:space)",
                           "error(kind:space)", "2"]


def test_commit_without_choice_point_is_an_error():
    src = """
    declare S A in
    {NewSpace proc {$ R} R = done end S}
    {Ask S A} {Wait A}
    try {Commit S 1} catch E then {Browse E} end
    """
    assert browse(src) == ["error(kind:space)"]


def test_second_choice_point_fails_the_space():
    src = """
    declare S A in
    {NewSpace proc {$ R}
       thread local I in {Choose 3 I} end end
       local J in {Choose 2 J} end
    end S}
    {Ask S A} {Browse A}
    """
    assert browse(src) == ["failed"]


def test_inject_into_failed_space_is_an_error():
    src = """
    declare S A in
    {NewSpace proc {$ R} 1 = 2 end S}
    {Ask S A} {Wait A}
    try {Inject S proc {$ R} skip end} catch E then {Browse E} end
    """
    assert browse(src) == ["error(kind:space)"]


def test_merge_of_failed_space_is_an_error():
    src = """
    declare S A in
    {NewSpace proc {$ R} 1 = 2 end S}
    {Ask S A} {Wait A}
    try local R in {Merge S R} end catch E then {Browse E} end
    """
    assert browse(src) == ["error(kind:space)"]


def test_builtin_decodes_its_arguments_before_waiting_for_stability():
    # S never becomes stable, so a builtin that waited first would park
    # for good instead of raising the type error
    for call in ("{Commit S foo}", "{Inject S 3}"):
        src = f"""
        declare X S in
        S = {{NewSpace proc {{$ R}} {{Wait X}} end}}
        try {call} catch E then {{Browse E}} end
        """
        out = run(src)
        assert (out.exit_code, out.browse) == (0, ["error(kind:type)"]), call


# ----------------------------------------------------------------------
# wakes


def test_overlay_binding_wakes_only_the_waiters_that_see_it():
    # X = 1 binds X in S's overlay; the top-level waiter cannot see it, so
    # it is not woken and the top deadlocks
    src = """
    declare X S A in
    thread {Wait X} {Browse woke} end
    S = {NewSpace proc {$ R} X = 1 end}
    {Ask S A} {Wait A}
    """
    kinds, sink = kind_counter()
    out = run(src, trace=sink)
    assert (out.exit_code, out.browse) == (4, [])
    assert (kinds["wake"], kinds["suspend"]) == (1, 2)


def test_parked_waiter_wakes_when_the_binding_reaches_its_space():
    src = """
    declare X S A R in
    thread {Wait X} {Browse woke} end
    S = {NewSpace proc {$ R} X = 1 end}
    {Ask S A} {Wait A} {Browse A}
    R = {Merge S}
    """
    out = run(src)
    assert (out.exit_code, out.browse) == (0, ["succeeded", "woke"])


# ----------------------------------------------------------------------
# operation audit


def test_manual_session_logs_only_the_seven_ops():
    src = """
    declare S C A in
    {NewSpace proc {$ R} local I in {Choose 2 I} R = I end end S}
    {Ask S A} {Wait A}
    {Clone S C}
    {Commit S 1}
    {Inject C proc {$ R} skip end}
    {Commit C 2}
    local RA RB in {Merge S RA} {Merge C RB} {Wait RA} {Wait RB} end
    """
    kinds, sink = kind_counter()
    out = run(src, trace=sink)
    assert out.status == "ok"
    # the stream reports the choice point too, which the session reached
    assert set(kinds) - THREAD_KINDS == SPACE_OPS
    # one event per operation: two commits give two commit events
    assert {k: kinds[k] for k in SPACE_OPS} == {
        "newspace": 1, "choose": 1, "ask": 1, "clone": 1, "commit": 2,
        "inject": 1, "merge": 2}


# ----------------------------------------------------------------------
# randomized operation sequences
#
# Scripts below all reach stability on their own, so every operation
# either completes or raises a catchable error; nothing can hang.

_SCRIPTS_SRC = """
declare SSucceed SFail SBinary STernary SNested SSkip IOk IFail IChoice in
proc {SSucceed R} R = a end
proc {SFail R} 1 = 2 end
proc {SBinary R} local I in {Choose 2 I} R = I end end
proc {STernary R}
   local I in {Choose 3 I} if I == 2 then 1 = 2 else R = I end end
end
proc {SNested R} local I J in {Choose 2 I} {Choose 2 J} R = I#J end end
proc {SSkip R} skip end
proc {IOk R} skip end
proc {IFail R} 1 = 2 end
proc {IChoice R} local K in {Choose 2 K} end end
"""

def _op(vm, env, name, args, has_out):
    """Apply one space operation at top level; returns (kind, summary)."""
    a = list(args)
    res = None
    if has_out:
        res = vm.store.new_var(vm.top)
        a.append(res)
    vm.spawn_call(env[name], a, vm.top)
    status = vm.run()
    if vm.uncaught is not None:
        term = vm.uncaught
        vm.uncaught = None
        return "raise", render(vm, term, vm.top)
    if status != "done":
        return "stuck", status
    if has_out:
        val = vm.store.deref(res, vm.top)
        return "ok", val
    return "ok", None


_ASK_ANSWERS = {"failed", "succeeded", "merged",
                "alternatives(2)", "alternatives(3)"}

_SCRIPT_NAMES = ["SSucceed", "SFail", "SBinary", "STernary",
                 "SNested", "SSkip"]
_INJECT_NAMES = ["IOk", "IFail", "IChoice"]


def _one_sequence(seed, n_ops=14):
    """One random op sequence; returns its summary for replay checks."""
    rng = random.Random(seed)
    kinds, sink = kind_counter()
    vm, env = search.fresh(trace=sink)
    ok, decls = load_decls(vm, env, _SCRIPTS_SRC)
    assert ok
    pool = []
    log = []

    def note(opname, kind, detail):
        log.append(f"{opname} {kind} {detail}")

    kind, first = _op(vm, env, "NewSpace",
                      [decls[rng.choice(_SCRIPT_NAMES)]], True)
    assert kind == "ok"
    pool.append(first)

    for _ in range(n_ops):
        choice = rng.random()
        target = rng.choice(pool)
        if choice < 0.15:
            kind, res = _op(vm, env, "NewSpace",
                            [decls[rng.choice(_SCRIPT_NAMES)]], True)
            assert kind == "ok"
            pool.append(res)
            note("newspace", kind, "space")
        elif choice < 0.40:
            kind, res = _op(vm, env, "Ask", [target], True)
            assert kind in ("ok", "raise"), res
            if kind == "ok":
                shown = render(vm, res, vm.top)
                assert shown in _ASK_ANSWERS, shown
                note("ask", kind, shown)
            else:
                # ask on a merged space is a usage error
                assert res == "error(kind:space)", res
                note("ask", kind, res)
        elif choice < 0.60:
            i = rng.randint(0, 4)
            kind, res = _op(vm, env, "Commit", [target, i], False)
            assert kind in ("ok", "raise"), res
            if kind == "raise":
                assert res == "error(kind:space)", res
            note(f"commit({i})", kind, res if kind == "raise" else "")
        elif choice < 0.75:
            kind, res = _op(vm, env, "Clone", [target], True)
            assert kind in ("ok", "raise"), res
            if kind == "ok":
                pool.append(res)
                note("clone", kind, "space")
            else:
                assert res == "error(kind:space)", res
                note("clone", kind, res)
        elif choice < 0.85:
            kind, res = _op(vm, env, "Merge", [target], True)
            assert kind in ("ok", "raise"), res
            if kind == "ok":
                note("merge", kind, render(vm, res, vm.top))
            else:
                assert res in ("error(kind:space)", "failure(debug:unit)"), res
                note("merge", kind, res)
        else:
            p = decls[rng.choice(_INJECT_NAMES)]
            kind, res = _op(vm, env, "Inject", [target, p], False)
            assert kind in ("ok", "raise"), res
            if kind == "raise":
                assert res == "error(kind:space)", res
            note("inject", kind, res if kind == "raise" else "")

    assert not vm.top_deadlocked()
    assert set(kinds) <= THREAD_KINDS | SPACE_OPS, kinds
    return log


def run_space_sequences(count, seed0=0):
    """Random-driver entry point shared with the acceptance suite."""
    for seed in range(seed0, seed0 + count):
        _one_sequence(seed)
    # determinism spot check: same seed, same observable behavior
    for seed in range(seed0, seed0 + min(count, 10)):
        assert _one_sequence(seed) == _one_sequence(seed)


def test_random_operation_sequences():
    run_space_sequences(250)
