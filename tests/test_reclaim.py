"""Reclaiming failed and merged spaces, and rendering long or deep terms.

After a search the VM must hold state for its live spaces only: a failed
or merged space is detached from the space tree and emptied, the index of
descendant overlay entries names live spaces only, and no variable keeps
a dead space as its home.  Reclamation must not change behaviour: space
operations on dead spaces answer or raise as before, speculation is still
revalidated when an ancestor binds, and references still compare by
identity.

Rendering is checked against expected strings built in Python, on terms
far longer and deeper than the host's recursion limit.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import browse, load_decls, run
from test_search import _load_script, _tree_script

from kernelspace import search, spaces
from kernelspace.spaces import Space
from kernelspace.store import FAILED, OK, Store
from kernelspace.terms import CellRef, PortRef, Record, SpaceRef, cons
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

    dead = [sp for sp in made if not sp.alive()]
    assert dead, "the search should have failed or merged some spaces"
    for sp in dead:
        assert sp.discarded
        assert not sp.bindings and not sp.fd_domains
        assert not sp.propagators and not sp.own_vars
        assert not sp.fd_watchers and not sp.threads and not sp.children

    store = vm.store
    for vid, entries in store.entry_spaces.items():
        assert entries and all(sp.alive() for sp in entries), vid
    assert all(h is None or h.alive() for h in store.homes)
    for waiters in store.susp.values():
        assert all(th.space.alive() for th in waiters)


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
    assert list(store.entry_spaces) == [x.vid]
    assert list(store.entry_spaces[x.vid]) == [child]
    assert store.unify(x, 1, top) is OK          # top entries: never indexed
    assert list(store.entry_spaces[x.vid]) == [child]


def test_sibling_failure_prunes_only_its_own_entries():
    vm = VM()
    x = vm.store.new_var(vm.top)
    s1, s2 = Space(vm.top, sid=1), Space(vm.top, sid=2)
    assert vm.store.unify(x, 1, s1) is OK
    assert vm.store.unify(x, 2, s2) is OK
    spaces.fail_space(vm, s2)
    assert list(vm.store.entry_spaces[x.vid]) == [s1]
    assert list(vm.top.children) == [s1]
    assert vm.store.unify(x, 2, vm.top) is OK
    assert not s1.alive()
    assert x.vid not in vm.store.entry_spaces


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
