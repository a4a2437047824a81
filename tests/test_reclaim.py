"""Reclaiming failed and merged spaces, and rendering long or deep terms.

After a search the VM must hold state for its live spaces only: a failed
or merged space is detached from the space tree and emptied, each
variable's index names exactly the live spaces below its home that hold
state for it, and no variable keeps a dead space as its home.
Reclamation must not change behaviour: space operations on dead spaces
answer or raise as before, speculation is still revalidated when an
ancestor binds, and references still compare by identity.

Rendering is checked against expected strings built in Python, on terms
far longer and deeper than the host's recursion limit.
"""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import browse, load_decls, run
from test_search import _load_script, _tree_script

from kernelspace import search, spaces
from kernelspace.spaces import Space
from kernelspace.store import FAILED, OK, Store, is_ancestor
from kernelspace.terms import CellRef, PortRef, Record, SpaceRef, Var, cons
from kernelspace.vm import VM, render


# ----------------------------------------------------------------------
# what a search leaves behind


def _track_spaces(monkeypatch):
    """Collect every space made from now on."""
    made = []
    init = Space.__init__

    def tracking_init(sp, *args, **kwargs):
        init(sp, *args, **kwargs)
        made.append(sp)
    monkeypatch.setattr(Space, "__init__", tracking_init)
    return made


def _check_reclaimed(vm, made):
    tree, stack = [], list(vm.top.children)
    while stack:
        sp = stack.pop()
        tree.append(sp)
        stack.extend(sp.children)
    assert all(sp.alive() for sp in tree)
    assert set(vm.spaces.values()) == set(tree) | {vm.top}
    assert vm.top.runnable == 0

    dead = [sp for sp in made if not sp.alive()]
    assert dead, "the search should have failed or merged some spaces"
    for sp in dead:
        assert sp.discarded
        assert not sp.bindings and not sp.fd_domains
        assert not sp.propagators and not sp.own_vars
        assert not sp.fd_watchers and not sp.threads and not sp.children

    store = vm.store
    _check_index(vm)
    assert all(h is None or h.alive() for h in store.homes)
    gc.collect()
    for var in gc.get_objects():
        if type(var) is Var and var.waiters:
            assert all(th.space.alive() for th in var.waiters), var
        if type(var) is Var and var.trigger is not None:
            # the supplier runs in the variable's home
            home = store.homes[var.vid]
            assert home is not None and home.alive(), var


def _indexed(vm):
    """The variables whose index (Var.spaces) names a space of vm's tree,
    live or dead, with their indexes."""
    gc.collect()
    return {v: list(v.spaces) for v in gc.get_objects()
            if type(v) is Var and v.spaces is not None
            and any(is_ancestor(vm.top, sp) for sp in v.spaces)}


def _check_index(vm):
    """Each variable's index names exactly the live spaces below its home
    that hold an overlay binding, a domain entry or a watcher list for it:
    no discarded space, whether the variable is reachable from a live
    space or not."""
    store = vm.store
    live, stack = [], [vm.top]
    while stack:
        sp = stack.pop()
        live.append(sp)
        stack.extend(sp.children)
    for sp in live:
        for var in (*sp.bindings, *sp.fd_domains, *sp.fd_watchers):
            if store.homes[var.vid] is not sp:
                assert var.spaces and sp in var.spaces, (sp, var)
        for var in (*sp.bindings, *sp.fd_domains, *sp.fd_watchers,
                    *sp.own_vars):
            assert all(s.alive() for s in var.spaces or ()), (sp, var)
    for var, indexed in _indexed(vm).items():
        home = store.homes[var.vid]
        for sp in indexed:
            assert sp.alive(), (var, sp)
            assert sp is not home and is_ancestor(home, sp), (var, sp)
            assert (var in sp.bindings or var in sp.fd_domains
                    or var in sp.fd_watchers), (var, sp)


def test_choice_tree_search_reclaims_dead_spaces(monkeypatch):
    made = _track_spaces(monkeypatch)
    for seed in range(12):
        src, oracle = _tree_script(random.Random(seed))
        made.clear()
        vm, env, script = _load_script(src)
        assert search.dfs_all(vm, env, script) == oracle
        _check_reclaimed(vm, made)
        assert len(vm.spaces) == 1      # Search.base.all leaves none alive


FD_SCRIPT = """
declare TheScript in
proc {TheScript Root}
   X Y Z in
   Root = sol(X Y Z)
   {FDDomTellVec [X Y Z] 0#4}
   {FDDistinct [X Y Z]}
   {FDLinRel [1 1 1] [X Y Z] eq 6}
   {FD.distribute ff [X Y Z]}
end
"""


def test_fd_search_reclaims_dead_spaces(monkeypatch):
    made = _track_spaces(monkeypatch)
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, FD_SCRIPT)
    assert ok
    sols = search.dfs_all(vm, env, tbl["TheScript"])
    got = sorted(tuple(vm.store.deref(v, vm.top) for _, v in s.feats)
                 for s in sols)
    oracle = sorted(t for t in itertools.product(range(5), repeat=3)
                    if len(set(t)) == 3 and sum(t) == 6)
    assert got == oracle
    _check_reclaimed(vm, made)


def test_speculating_spaces_reclaimed_on_ancestor_bind(monkeypatch):
    made = _track_spaces(monkeypatch)
    vm, env = search.fresh()
    ok, _ = load_decls(vm, env, """
    declare X Y S0 S1 S2 A1 A2 in
    {NewSpace proc {$ R} X = 2 {Wait Y} end S0}
    {NewSpace proc {$ R} X = 1 end S1}
    {NewSpace proc {$ R} X = 2 end S2}
    {Ask S1 A1} {Ask S2 A2} {Wait A1} {Wait A2}
    X = 1
    """)
    assert ok
    _check_reclaimed(vm, made)    # S0's thread no longer waits on Y
    assert [sp.alive() for sp in made if sp.parent] == [False, True, False]


def test_by_need_triggers_of_dead_spaces_reclaimed(monkeypatch):
    made = _track_spaces(monkeypatch)
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, """
    declare S0 S1 A0 A1 M in
    {NewSpace proc {$ R} X in
       {ByNeed proc {$ V} V = 1 end X} R = X 1 = 2 end S0}
    {NewSpace proc {$ R} X in
       {ByNeed proc {$ V} V = 2 end X} R = X end S1}
    {Ask S0 A0} {Ask S1 A1} {Wait A0} {Wait A1}
    M = {Merge S1}
    """)
    assert ok
    # S1's trigger, unfired, went with its variable to the top space
    m = tbl["M"]
    assert type(m) is Var and m.trigger is not None
    assert vm.store.homes[m.vid] is vm.top
    _check_reclaimed(vm, made)


# ----------------------------------------------------------------------
# dead spaces still answer as before


def test_operations_on_a_failed_space():
    src = """
    declare S A B in
    {NewSpace proc {$ R} 1 = 2 end S}
    {Ask S A} {Browse A}
    {Ask S B} {Browse B}
    try {Commit S 1} catch E then {Browse E} end
    try local C in {Clone S C} end catch E then {Browse E} end
    try {Inject S proc {$ R} skip end} catch E then {Browse E} end
    try local R in {Merge S R} end catch E then {Browse E} end
    """
    assert browse(src) == ["failed", "failed"] + ["error(kind:space)"] * 4


def test_operations_on_a_merged_space():
    src = """
    declare S in
    {NewSpace proc {$ R} R = 1 end S}
    local R in {Merge S R} {Browse R} end
    try local A in {Ask S A} end catch E then {Browse E} end
    try {Commit S 1} catch E then {Browse E} end
    try local C in {Clone S C} end catch E then {Browse E} end
    try {Inject S proc {$ R} skip end} catch E then {Browse E} end
    try local R in {Merge S R} end catch E then {Browse E} end
    """
    assert browse(src) == ["1"] + ["error(kind:space)"] * 5


def test_failed_child_of_a_merged_space_answers_its_new_parent():
    """A merge hands its children to its parent, the failed ones too."""
    src = """
    declare S F A B in
    {NewSpace proc {$ R}
       local A0 in
          {NewSpace proc {$ R2} 1 = 2 end F}
          {Ask F A0} R = A0
       end
    end S}
    {Ask S A} {Wait A}
    local R in {Merge S R} {Browse R} end
    {Ask F B} {Browse B}
    """
    assert browse(src) == ["failed", "failed"]


# ----------------------------------------------------------------------
# speculation is still revalidated


def test_conflicting_ancestor_bind_fails_child_and_its_clone():
    src = """
    declare X S C A0 A1 A2 in
    {NewSpace proc {$ R} X = 1 R = X end S}
    {Ask S A0} {Wait A0}
    {Clone S C}
    X = 2
    {Ask S A1} {Browse A1}
    {Ask C A2} {Browse A2}
    """
    assert browse(src) == ["failed", "failed"]


def test_revalidation_survives_a_failed_sibling():
    src = """
    declare X S1 S2 S3 A1 A2 A3 B2 in
    {NewSpace proc {$ R} X = 1 end S1}
    {NewSpace proc {$ R} X = 1 end S2}
    {NewSpace proc {$ R} X = 2 end S3}
    {Ask S2 A2} {Wait A2}
    {Inject S2 proc {$ R} 1 = 2 end}
    {Ask S2 B2} {Browse B2}
    X = 2
    {Ask S1 A1} {Browse A1}
    {Ask S3 A3} {Browse A3}
    """
    assert browse(src) == ["failed", "failed", "succeeded"]


def test_index_registers_only_variables_homed_above():
    store = Store()
    top = Space(None)
    child = Space(top)
    x = store.new_var(top)
    own = store.new_var(child)
    assert store.unify(x, 1, child) is OK
    assert store.unify(own, 2, child) is OK
    assert list(x.spaces) == [child] and own.spaces is None
    assert store.unify(x, 1, top) is OK          # top entries: never indexed
    assert list(x.spaces) == [child]


def test_sibling_failure_prunes_only_its_own_entries():
    vm = VM()
    x = vm.store.new_var(vm.top)
    s1, s2 = Space(vm.top, sid=1), Space(vm.top, sid=2)
    assert vm.store.unify(x, 1, s1) is OK
    assert vm.store.unify(x, 2, s2) is OK
    spaces.fail_space(vm, s2)
    assert list(x.spaces) == [s1]
    assert list(vm.top.children) == [s1]
    assert vm.store.unify(x, 2, vm.top) is OK
    assert not s1.alive()
    assert x.spaces is None


# ----------------------------------------------------------------------
# the store holds live state only: a variable bound in its home space is
# bound in place, so no overlay keeps the values of unreachable variables


def _live(cls):
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is cls)


EAGER_STREAM = """
declare Generate Sum in
proc {Generate N Limit Xs}
   if N<Limit then Xr in
      Xs=N|Xr
      {Generate N+1 Limit Xr}
   else Xs=nil end
end
proc {Sum Xs A S}
   case Xs
   of X|Xr then {Sum Xr A+X S}
   [] nil then S=A
   end
end
local Xs S in
   thread {Generate 0 3000 Xs} end
   thread {Sum Xs 0 S} end
   {Browse S}
end
"""


def test_eager_stream_leaves_no_bindings_and_no_variables():
    before = _live(Var)
    out = run(EAGER_STREAM)
    assert out.browse == [str(sum(range(3000)))]
    assert out.vm.top.bindings == {}
    assert _live(Var) == before


ORDERED_FRACTIONS = """
declare P Sols in
proc {P Sol}
   A B C D E F G H I BC EF HI
in
   Sol=sol(a:A b:B c:C d:D e:E f:F g:G h:H i:I)
   BC={FD.decl} EF={FD.decl} HI={FD.decl}
   Sol:::1#9
   {FD.distinct Sol}
   BC=:10*B+C
   EF=:10*E+F
   HI=:10*H+I
   A*EF*HI+D*BC*HI+G*BC*EF=:BC*EF*HI
   BC<:EF
   EF<:HI
   {FD.distribute ff Sol}
end
{Search.base.all P Sols}
"""


def test_search_at_top_level_leaves_only_the_top_space():
    before = _live(Space)
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, ORDERED_FRACTIONS)
    assert ok
    sols = [tuple(vm.store.deref(v, vm.top) for _, v in s.feats)
            for s in search.to_pylist(vm, tbl["Sols"])]
    assert sols == [(9, 1, 2, 5, 3, 4, 7, 6, 8)]      # 9/12 + 5/34 + 7/68
    assert vm.top.bindings == {} and _indexed(vm) == {}
    assert _live(Space) == before + 1                 # vm.top


FD_LOOP = """
local Loop in
   proc {Loop N}
      if N > 0 then
         local X Y in
            [X Y]:::0#9
            X+Y=:10
            X=3
            if Y == 7 then skip else raise wrong(Y) end end
         end
         {Loop N-1}
      end
   end
   {Loop 1000}
end
"""


def test_determined_fd_variables_leave_no_fd_state():
    before = _live(Var)
    out = run(FD_LOOP)
    assert out.status == "ok", out.error
    top = out.vm.top
    assert top.fd_domains == {} and top.fd_watchers == {}
    assert top.propagators == {}
    assert _live(Var) == before


FD_POST = """
declare X Y in
X ::: 0#9 Y ::: 0#9
X + Y =: 10
X = 3
{Browse Y}
"""

SPACE_USE = """
declare S A R in
S = {NewSpace proc {$ R} X in R = f(X) X = 1 end}
{Ask S A} {Wait A}
R = {Merge S}
{Browse A#R}
"""


def test_finished_vm_is_freed_without_the_cyclic_collector():
    # the store's hooks must not hold the VM: once the Outcome is dropped,
    # reference counting alone frees it
    gc.collect()
    gc.disable()
    try:
        for src, shown in ((EAGER_STREAM, [str(sum(range(3000)))]),
                           (FD_POST, ["7"]),
                           (SPACE_USE, ["succeeded#f(1)"])):
            out = run(src)
            assert out.browse == shown
            vm = weakref.ref(out.vm)
            del out
            assert vm() is None, src
    finally:
        gc.enable()


def test_clone_tables_are_freed_without_the_cyclic_collector():
    # a clone's working tables and the closures over them are freed as it
    # returns: a search of 64 leaves, which clones at each choice, leaves
    # next to no cycles (about 2,500 objects when the closures kept them)
    src = """
    {Browse {Length {Search.base.all proc {$ R}
       A B C D E F in
       choice A = 0 [] A = 1 end
       choice B = 0 [] B = 1 end
       choice C = 0 [] C = 1 end
       choice D = 0 [] D = 1 end
       choice E = 0 [] E = 1 end
       choice F = 0 [] F = 1 end
       R = A#B#C#D#E#F
    end}}}
    """
    gc.collect()
    gc.disable()
    try:
        out = run(src)
        assert (out.exit_code, out.browse) == (0, ["64"])
        del out
        assert gc.collect() < 200
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# a parked thread's frame holds only the slots it will still read


LAZY_STREAM = """
declare Generate Sum in
fun lazy {Generate N}
   N|{Generate N+1}
end
proc {Sum Xs Limit A S}
   if Limit>0 then
      case Xs
      of X|Xr then
         {Sum Xr Limit-1 A+X S}
      end
   else S=A end
end
local Xs S in
   thread Xs={Generate 0} end
   thread {Sum Xs 3000 0 S} end
   {Browse S}
end
"""


@pytest.mark.parametrize("src", [EAGER_STREAM, LAZY_STREAM],
                         ids=["eager", "lazy"])
def test_a_stream_is_freed_as_it_is_consumed(src):
    # the program's thread parks in {Browse S} with Xs in its frame, dead;
    # were it kept, the whole stream would stay reachable (7 and 9 MiB)
    src = src.replace("3000", "20000")
    tracemalloc.start()
    try:
        out = run(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.exit_code, out.browse) == (0, [str(sum(range(20000)))])
    assert peak < 1.5 * 2 ** 20


def test_clone_copies_no_selector_of_a_dispatched_choice(monkeypatch):
    # S's thread is blocked in the inner choice's Choose; the selector of
    # the outer choice, dispatched to its second branch, is dead in its
    # frame, so the clone copies the root variable, Y and the inner
    # selector only
    from kernelspace import clone
    made, cloning = [], [False]
    new_var, clone_space = Store.new_var, clone.clone_space

    def counting_new_var(store, space):
        if cloning[0]:
            made.append(space)
        return new_var(store, space)

    def flagged_clone(vm, s, caller_space):
        cloning[0] = True
        try:
            return clone_space(vm, s, caller_space)
        finally:
            cloning[0] = False

    monkeypatch.setattr(Store, "new_var", counting_new_var)
    monkeypatch.setattr(clone, "clone_space", flagged_clone)
    out = run("""
    declare S C A B in
    S = {NewSpace proc {$ R}
       choice R = none
       [] Y in R = some(Y) choice Y = a [] Y = b end
       end
    end}
    {Ask S A} {Wait A}
    {Commit S 2}
    {Ask S B} {Wait B}
    C = {Clone S}
    {Commit C 2}
    {Browse A#B#{Merge C}}
    """)
    assert (out.exit_code, out.browse) == (
        0, ["alternatives(2)#alternatives(2)#some(b)"])
    assert len(made) == 3


def test_in_place_binding_survives_clone_and_merge():
    vm = VM()
    store = vm.store
    s = Space(vm.top, sid=1)
    x, y = store.new_var(s), store.new_var(s)
    s.root_var = x                 # a clone copies what the space reaches
    assert store.unify(x, Record("f", ((1, y),)), s) is OK
    assert type(x.ref) is Record and not s.bindings      # bound in place
    c = spaces.clone(vm, s, vm.top, spaces.status(vm, s)).space
    xc = c.root_var
    (_, yc), = xc.ref.feats
    assert c.own_vars == [xc, yc] and not {x, y} & {xc, yc}
    assert render(vm, xc, c) == "f(_)"
    # the copies are independent of the originals, both ways
    assert store.unify(yc, 1, c) is OK
    assert store.unify(y, 2, s) is OK
    assert render(vm, x, s) == "f(2)" and render(vm, xc, c) == "f(1)"
    # merge hands the in-place bindings over as they are
    root, failure = spaces.merge(vm, s, vm.top, spaces.status(vm, s))
    assert not failure and not vm.top.bindings
    assert render(vm, x, vm.top) == "f(2)"
    assert store.unify(x, Record("f", ((1, 2),)), vm.top) is OK
    assert store.unify(y, 3, vm.top) is FAILED


def test_in_place_bind_by_the_parent_revalidates_child_speculation():
    vm = VM()
    store = vm.store
    s = Space(vm.top, sid=1)
    x = store.new_var(s)
    agree, clash = Space(s, sid=2), Space(s, sid=3)
    assert store.unify(x, 1, agree) is OK
    assert store.unify(x, 2, clash) is OK
    assert store.unify(x, 1, s) is OK                    # in place, in x's home
    assert x.ref == 1 and not s.bindings
    assert clash.discarded is spaces.STATUS_FAILED and agree.alive()
    assert store.deref(x, agree) == 1
    assert list(s.children) == [agree]


# ----------------------------------------------------------------------
# references compare by identity


def test_references_compare_by_identity():
    src = """
    declare S1 S2 C1 C2 P1 P2 L1 L2 in
    {NewSpace proc {$ R} R = 1 end S1}
    {NewSpace proc {$ R} R = 1 end S2}
    {NewCell 0 C1} {NewCell 0 C2}
    {NewPort L1 P1} {NewPort L2 P2}
    {Browse (S1 == S1)#(S1 == S2)}
    {Browse (C1 == C1)#(C1 == C2)}
    {Browse (P1 == P1)#(P1 == P2)}
    {Browse (f(S1 C1 P1) == f(S1 C1 P1))#(f(S1 C1) == f(S1 C2))}
    S1 = S1 C1 = C1 P1 = P1 f(S1 C1 P1) = f(S1 C1 P1)
    try S1 = S2 catch E then {Browse E} end
    try C1 = C2 catch E then {Browse E} end
    try P1 = P2 catch E then {Browse E} end
    """
    assert browse(src) == ["true#false"] * 4 + ["failure(debug:unit)"] * 3


def test_space_references_to_one_space_are_equal():
    store = Store()
    top = Space(None)
    a, b = Space(top), Space(top)
    assert store.unify(SpaceRef(a), SpaceRef(a), top) is OK
    assert store.unify(SpaceRef(a), SpaceRef(b), top) is FAILED
    c = CellRef(0)
    assert store.unify(c, c, top) is OK
    assert store.unify(c, CellRef(0), top) is FAILED
    p = PortRef(None)
    assert store.unify(p, PortRef(None), top) is FAILED


# ----------------------------------------------------------------------
# rendering long, deep and cyclic terms


def _oz_int(n):
    return str(n) if n >= 0 else f"~{-n}"


def _py_list(items, tail="nil"):
    out = tail
    for x in reversed(items):
        out = cons(x, out)
    return out


def test_render_long_list():
    vm = VM()
    items = list(range(-50_000, 50_000))
    assert render(vm, _py_list(items), vm.top) == \
        "[" + " ".join(map(_oz_int, items)) + "]"
    assert render(vm, _py_list(items, vm.store.new_var(vm.top)), vm.top) \
        == "|".join(map(_oz_int, items)) + "|_"


def test_render_deep_records():
    vm = VM()
    n = 10_000
    t = "leaf"
    for _ in range(n):
        t = Record("f", ((1, t),))
    assert render(vm, t, vm.top) == "f(" * n + "leaf" + ")" * n
    t = 0
    for _ in range(n):
        t = Record("g", (("a", t), ("b", "x")))
    assert render(vm, t, vm.top) == "g(a:" * n + "0" + " b:x)" * n
    t = "nil"
    for _ in range(n):
        t = cons(t, "nil")
    assert render(vm, t, vm.top) == "[" * n + "nil" + "]" * n


def _expected(data):
    """Python-side rendering of ('rec', label, [(feat, sub)]), ('list',
    [items]), ints and atoms."""
    if isinstance(data, int):
        return _oz_int(data)
    if isinstance(data, str):
        return data
    if data[0] == "list":
        return "[" + " ".join(_expected(x) for x in data[1]) + "]"
    _, label, feats = data
    positional = all(f == k + 1 for k, (f, _) in enumerate(feats))
    if label == "#" and positional and len(feats) >= 2:
        return "#".join(_expected(v) for _, v in feats)
    if positional:
        return f"{label}(" + " ".join(_expected(v) for _, v in feats) + ")"
    return f"{label}(" + " ".join(f"{f}:{_expected(v)}"
                                  for f, v in feats) + ")"


def _build(data):
    if isinstance(data, (int, str)):
        return data
    if data[0] == "list":
        return _py_list([_build(x) for x in data[1]])
    _, label, feats = data
    return Record(label, [(f, _build(v)) for f, v in feats])


_atoms = st.sampled_from(["a", "b", "nil", "#"])
_data = st.recursive(
    st.integers(-9, 9) | _atoms,
    lambda sub: (
        st.tuples(st.just("list"), st.lists(sub, min_size=1, max_size=4))
        | st.tuples(st.just("rec"), st.sampled_from(["f", "#"]),
                    st.lists(sub, max_size=3).map(
                        lambda vs: [(k + 1, v) for k, v in enumerate(vs)]))
        | st.tuples(st.just("rec"), st.just("g"),
                    st.lists(sub, min_size=1, max_size=2).map(
                        lambda vs: list(zip(["a", "b"], vs))))),
    max_leaves=20)


@settings(deadline=None, max_examples=200)
@given(_data)
def test_render_matches_python_renderer(data):
    vm = VM()
    assert render(vm, _build(data), vm.top) == _expected(data)


def test_render_cycles_print_labels():
    src = """
    declare X Y L in
    X = f(1 X)
    Y = g(a:h(Y) b:X)
    L = 1|2|L
    {Browse X} {Browse Y} {Browse L} {Browse [X L]}
    """
    assert browse(src) == ["f(1 @1)", "g(a:h(@1) b:f(1 @2))", "1|2|@1",
                           "[f(1 @1) 1|2|@2]"]


def test_browse_of_a_thousand_element_list_exits_zero():
    src = """
    declare Gen L in
    proc {Gen I N Xs}
       if I =< N then Xr in
          Xs = I|Xr
          {Gen I+1 N Xr}
       else Xs = nil end
    end
    {Gen 1 1000 L}
    {Browse L}
    """
    out = run(src)
    assert out.exit_code == 0, out.error
    assert out.browse == ["[" + " ".join(map(str, range(1, 1001))) + "]"]
