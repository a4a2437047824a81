"""Finite domains: domain algebra, propagators, and solver completeness.

Three layers of checking, each against an independent oracle:
  - FDomain operations against Python set arithmetic
  - propagation against the set of values supported by some full solution
    (bounds reasoning may keep extra values but must never drop these)
  - full search against brute-force enumeration of random models
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import browse, kind_counter, load_decls, run
from test_reclaim import ORDERED_FRACTIONS

from kernelspace import fd, search
from kernelspace.fd import FDomain
from kernelspace.runner import run_text
from kernelspace.store import Store
from kernelspace.terms import Var, record_get


# ----------------------------------------------------------------------
# FDomain vs set arithmetic


def dom_of(vals):
    """FDomain holding exactly the ints in vals (non-empty)."""
    ivs = []
    for v in sorted(vals):
        if ivs and v == ivs[-1][1] + 1:
            ivs[-1][1] = v
        else:
            ivs.append([v, v])
    return FDomain(tuple((a, b) for a, b in ivs))


def set_of(d):
    if d is None:
        return set()
    return {v for lo, hi in d.ivs for v in range(lo, hi + 1)}


def assert_canonical(d):
    """Runs are ascending, disjoint, and separated by gaps."""
    if d is None:
        return
    prev_hi = None
    for lo, hi in d.ivs:
        assert lo <= hi
        if prev_hi is not None:
            assert lo > prev_hi + 1
        prev_hi = hi


# a domain of one run, which narrow_bounds clips directly, or a set with
# gaps, most often of many runs
vals = st.one_of(
    st.builds(lambda lo, n: set(range(lo, lo + n + 1)),
              st.integers(0, 60), st.integers(0, 20)),
    st.sets(st.integers(0, 60), min_size=1, max_size=25))
bound = st.one_of(st.none(), st.integers(0, 80))


def assert_matches(got, want):
    """got is the canonical domain of the set want, None when it is empty."""
    assert_canonical(got)
    assert (got is None) == (not want)
    assert set_of(got) == want


@given(vals, vals)
def test_intersect_matches_sets(a, b):
    assert_matches(dom_of(a).intersect(dom_of(b)), a & b)


@given(vals, st.integers(0, 80))
def test_remove_matches_sets(a, v):
    assert_matches(dom_of(a).remove(v), a - {v})


@settings(max_examples=500)
@given(vals, bound, bound)
@example({5, 6, 7}, 8, None)         # bounds just past either end
@example({5, 6, 7}, None, 4)
@example({5, 6, 7}, 6, 5)            # lo > hi inside the run
@example({1, 5, 6, 9}, 7, 8)         # in a gap between runs
def test_narrow_bounds_matches_sets(a, lo, hi):
    want = {v for v in a
            if (lo is None or v >= lo) and (hi is None or v <= hi)}
    assert_matches(dom_of(a).narrow_bounds(lo, hi), want)


@given(vals, st.integers(0, 80))
def test_scalar_queries_match_sets(a, probe):
    d = dom_of(a)
    assert d.min() == min(a)
    assert d.max() == max(a)
    assert d.size() == len(a)
    assert d.contains(probe) == (probe in a)
    assert d.is_singleton() == (len(a) == 1)


# ----------------------------------------------------------------------
# host-side view of top-level domains


def fd_state(src):
    """Post constraints at top level; returns (ok, name -> term, vm)."""
    vm, env = search.fresh()
    ok, table = load_decls(vm, env, src)
    return ok, table, vm


def dom_values(vm, t, sp=None):
    """Domain of a model variable as a Python set, as seen from space sp
    (the top space by default)."""
    sp = sp or vm.top
    t = vm.store.deref(t, sp)
    if isinstance(t, int):
        return {t}
    assert type(t) is Var
    d = fd.lookup(sp, t)
    assert d is not None, "variable has no domain"
    return set_of(d)


def test_interval_tell_and_bind():
    ok, tbl, vm = fd_state("""
    declare X Y in
    {FDDomTellVec [X Y] 3#5}
    X = 4
    """)
    assert ok
    assert tbl["X"] == 4
    assert dom_values(vm, tbl["Y"]) == {3, 4, 5}


def test_bind_outside_domain_fails():
    out = browse("""
    local X in
       {FDDomTellVec [X] 3#5}
       try X = 9 catch E then {Browse E} end
    end
    """)
    assert out == ["failure(debug:unit)"]


def test_singleton_interval_binds():
    assert browse("""
    local X in
       {FDDomTellVec [X] 2#2}
       {Wait X} {Browse X}
    end
    """) == ["2"]


def test_linear_bounds_narrowing():
    # X + Y = 4 with both in 0..10 clips both to 0..4
    ok, tbl, vm = fd_state("""
    declare X Y in
    {FDDomTellVec [X Y] 0#10}
    {FDLinRel [1 1] [X Y] eq 4}
    """)
    assert ok
    assert dom_values(vm, tbl["X"]) == set(range(5))
    assert dom_values(vm, tbl["Y"]) == set(range(5))


def test_strict_relation_shifts_bound():
    ok, tbl, vm = fd_state("""
    declare X in
    {FDDomTellVec [X] 0#9}
    {FDLinRel [1] [X] lt 4}
    """)
    assert ok
    assert dom_values(vm, tbl["X"]) == {0, 1, 2, 3}


def test_distinct_removes_fixed_value():
    ok, tbl, vm = fd_state("""
    declare X in
    {FDDomTellVec [X] 1#3}
    {FDDistinct [X 2]}
    """)
    assert ok
    assert dom_values(vm, tbl["X"]) == {1, 3}


def test_exclude_splits_interval():
    ok, tbl, vm = fd_state("""
    declare X in
    {FDDomTellVec [X] 0#6}
    {FDExcl X 3}
    """)
    assert ok
    assert dom_values(vm, tbl["X"]) == {0, 1, 2, 4, 5, 6}


def test_multiplication_narrows_factor():
    # a*b = 12 with a in 0..20, b fixed to 3: a becomes 4
    ok, tbl, vm = fd_state("""
    declare A in
    {FDDomTellVec [A] 0#20}
    {FDMulProp A 3 12}
    """)
    assert ok
    assert tbl["A"] == 4


def test_multiplication_by_zero_factor():
    # 0*b = c forces c to 0 and leaves b alone
    ok, tbl, vm = fd_state("""
    declare B C in
    {FDDomTellVec [B] 2#5}
    {FDDomTellVec [C] 0#9}
    {FDMulProp 0 B C}
    """)
    assert ok
    assert tbl["C"] == 0
    assert dom_values(vm, tbl["B"]) == {2, 3, 4, 5}


def test_multiplication_by_zero_factor_conflict():
    out = browse("""
    local B in
       try {FDMulProp 0 B 5} catch E then {Browse E} end
    end
    """)
    assert out == ["failure(debug:unit)"]


def test_a_zero_factor_still_gets_a_domain():
    # 0*B = C leaves B's value open, but B is an fd operand all the same
    out = run("local B C in {FDMulProp 0 B C} B = foo {Browse B#C} end")
    assert (out.exit_code, out.browse) == (1, [])
    assert out.error == "uncaught exception: failure(debug:unit)"


def test_a_product_of_two_integers_above_sup_fails():
    for post in ("{FDMulProp 100000 100000 C}", "C =: 100000 * 100000"):
        out = run(f"local C in {post} {{Browse C}} end")
        assert (out.exit_code, out.browse) == (1, []), post
        assert out.error == "uncaught exception: failure(debug:unit)"


@pytest.mark.parametrize("post", ["{FDMulProp 0 B 5}", "{FDMulProp 3 4 13}"])
def test_a_product_that_cannot_hold_fails_its_space(post):
    # the post fails the space, as any propagator run does; the script's
    # own try does not see it
    assert browse(f"""
    local S A in
       S = {{NewSpace proc {{$ R}} B in
                try {post} catch E then R = caught end
             end}}
       {{Ask S A}} {{Browse A}}
    end
    """) == ["failed"]


def test_unsatisfiable_post_is_catchable():
    out = browse("""
    local X in
       try
          {FDDomTellVec [X] 0#3}
          {FDLinRel [1] [X] eq 9}
       catch E then {Browse E} end
    end
    """)
    assert out == ["failure(debug:unit)"]


@pytest.mark.parametrize("post", [
    "{FD.distinct '|'(a:X b:nil)}",
    "X ::: '#'(a:1 b:2)",
], ids=["named-cons-vector", "named-interval"])
def test_a_record_shaped_like_a_list_or_interval_is_a_type_error(post):
    out = browse(f"""
    local X in
       try {post} catch E then {{Browse E}} end
    end
    """)
    assert out == ["error(kind:type)"]


def test_child_bind_fails_when_the_parent_narrows_past_it():
    # X is homed at top: the child's bind is speculative, and the parent's
    # later narrowing must still reach it
    assert browse("""
    local X S A B in
       X ::: 0#9
       S = {NewSpace proc {$ R} X = 3 R = X end}
       {Ask S A} {Wait A}
       X ::: 5#9
       {Ask S B} {Browse A#B}
    end
    """) == ["succeeded#failed"]


def test_parent_bind_reaches_a_domain_only_the_child_has():
    # X has no domain at top, so the top-level bind must reach the child's
    assert browse("""
    local X S A B in
       {NewSpace proc {$ R} X ::: 0#9 R = X end S}
       {Ask S A} {Browse A}
       X = 42
       {Ask S B} {Browse B}
    end
    """) == ["succeeded", "failed"]


def test_parent_bind_reaches_a_propagator_only_the_child_has():
    assert browse("""
    local X Y S A B in
       {NewSpace proc {$ R} [X Y] ::: 0#9 X + Y =: 3 R = X end S}
       {Ask S A} {Browse A}
       X = 5
       {Ask S B} {Browse B}
    end
    """) == ["succeeded", "failed"]


@pytest.mark.parametrize("spin_first", [False, True])
def test_search_answer_does_not_depend_on_when_the_parent_binds(spin_first):
    # the engine's space declares X's domain; X = 42 told before the
    # engine's first step or after it must both leave no solution
    spin = "{Spin 3000}"
    assert browse(f"""
    declare Spin in
    proc {{Spin N}} if N > 0 then {{Spin N-1}} else skip end end
    local X E Next Sol in
       {{Search.object proc {{$ R}} Y in
          X ::: 0#9 Y ::: 0#2 R = Y {{FD.distribute ff [Y]}}
       end E}}
       case E of search(next:N close:_) then Next = N end
       {spin if spin_first else ''}
       X = 42
       {spin if not spin_first else ''}
       {{Next Sol}} {{Browse Sol}}
    end
    """) == ["nil"]


# A child binds a top-level variable while no domain is visible, and the
# top then narrows the variable past the value: the child must fail.  In
# the grandchild case S itself stays succeeded, as a failed space does not
# fail its parent; merging S makes the grandchild T the top's child, so
# the top can ask it.
NARROWED_PAST_A_BINDING = {
    "narrowing-fails-child-bound-to-int": """
    local X S A B in
       {NewSpace proc {$ R} X = 3 end S}
       {Ask S A} {Wait A} X ::: 5#9 {Ask S B} {Browse A#B}
    end
    """,
    "narrowing-fails-child-bound-to-record": """
    local X S A B in
       {NewSpace proc {$ R} X = f(1) end S}
       {Ask S A} {Wait A} X ::: 5#9 {Ask S B} {Browse A#B}
    end
    """,
    "narrowing-fails-grandchild-bound-to-int": """
    local X S A M B in
       {NewSpace proc {$ R}
          local T in {NewSpace proc {$ Q} X = 3 end T} R = T end
       end S}
       {Ask S A} {Wait A} X ::: 5#9
       {Merge S M} {Ask M B} {Browse A#B}
    end
    """,
    # Z is declared first, so the child's Z = X binds X to Z there: the
    # narrowing of X must fold into Z
    "narrowing-folds-into-child-alias": """
    local Z X S A B in
       {NewSpace proc {$ R} Z = X end S}
       {Ask S A} {Wait A} X ::: 5#9
       {Inject S proc {$ R} Z = 3 end}
       {Ask S B} {Wait B} {Browse A#B}
    end
    """,
}


_NARROWED_CASES = {
    **NARROWED_PAST_A_BINDING,
    # the control: X declared first, so the child binds Z to X, and its
    # later Z = 3 meets the top's domain of X directly
    "control-child-binds-the-other-var": """
    local X Z S A B in
       {NewSpace proc {$ R} Z = X end S}
       {Ask S A} {Wait A} X ::: 5#9
       {Inject S proc {$ R} Z = 3 end}
       {Ask S B} {Wait B} {Browse A#B}
    end
    """,
}


@pytest.mark.parametrize("name", list(_NARROWED_CASES))
def test_ancestor_narrowing_reaches_a_child_binding(name):
    assert browse(_NARROWED_CASES[name]) == ["succeeded#failed"]


@pytest.mark.parametrize("alias_first", [True, False])
def test_alias_moves_watchers_to_the_variable_the_child_sees(alias_first):
    # the child binds Y to W, so once the top aliases X to Y the child's
    # propagator on X must watch W there: the child's W = 1 must wake it
    alias = "X = Y"
    assert browse(f"""
    local W Y X S A B in
       {alias if alias_first else ''}
       {{NewSpace proc {{$ R}} K L in
          [X K L] ::: 0#9 [K L] ::: 1#2 {{FD.distinct [X K L]}} Y = W
       end S}}
       {{Ask S A}} {{Wait A}}
       {'' if alias_first else alias}
       {{Inject S proc {{$ R}} W = 1 end}}
       {{Ask S B}} {{Wait B}} {{Browse A#B}}
    end
    """) == ["succeeded#failed"]


def test_tells_visit_only_spaces_that_hold_state(monkeypatch):
    # the push-down of a binding, the fd hook and revalidation reach the
    # spaces below the one that tells through the variable's index alone,
    # so each space they visit holds state for the variable
    visits, bare = [], []
    below = Store.below

    def checked(store, var, space):
        out = below(store, var, space)
        visits.extend(out)
        bare.extend(sp for sp in out if sp.discarded or not (
            var in sp.bindings or var in sp.fd_domains
            or var in sp.fd_watchers))
        return out
    monkeypatch.setattr(Store, "below", checked)
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, ORDERED_FRACTIONS)
    assert ok
    assert len(search.to_pylist(vm, tbl["Sols"])) == 1
    for src in NARROWED_PAST_A_BINDING.values():
        browse(src)
    assert browse("""
    local X Y S A B in
       {NewSpace proc {$ R} [X Y] ::: 0#9 X + Y =: 3 R = X end S}
       {Ask S A} {Wait A} X = 5 {Ask S B} {Browse A#B}
    end
    """) == ["succeeded#failed"]
    assert visits and bare == []


def check_tell_order(seed):
    """A random model posted in a child over variables declared at top, and
    one of them bound or narrowed at top before the child is made or after
    its first Ask is answered: propagators are monotone, so the two final
    answers agree, and a model with a solution that the tell allows
    succeeds."""
    rng = random.Random(seed)
    model = _Model(rng)
    i = rng.randrange(model.n)
    v = rng.randint(0, 6)
    lo, hi = v, v
    tell = f"{model.names[i]} = {v}"
    if rng.random() < 0.5:
        hi = rng.randint(v, 7)
        tell = f"{model.names[i]} ::: {lo}#{hi}"
    child = ("{NewSpace proc {$ R}\n" + "\n".join(model.posts) +
             "\nend S}")
    answers = []
    for body in (f"{tell}\n{child}\n{{Ask S A}} {{Wait A}}",
                 f"{child}\n{{Ask S A0}} {{Wait A0}}\n{tell}\n"
                 "{Ask S A} {Wait A}"):
        ok, tbl, _vm = fd_state(
            f"declare {' '.join(model.names)} S A0 A in\n{body}")
        assert ok, (seed, body)
        answers.append(tbl["A"])
    assert answers[0] == answers[1], (seed, answers, model.posts, tell)
    if any(lo <= s[i] <= hi for s in model.brute_force()):
        assert answers[0] == "succeeded", (seed, model.posts, tell)


def test_tell_order_does_not_change_the_answer():
    for seed in range(300):
        check_tell_order(seed)


def _interval(rng):
    lo = rng.randint(0, 9)
    return lo, rng.randint(lo, 9)


def check_alias_fold(seed):
    # the alias binds the later-declared variable to the earlier one, so the
    # declaration order decides whether the child's entry is on the
    # variable that goes away or the one that stays
    rng = random.Random(seed)
    (xl, xh), (zl, zh), (cl, ch) = (_interval(rng) for _ in range(3))
    order = rng.choice(["X Z", "Z X"])
    narrowed = rng.choice("XZ")
    xs, zs, cs = (set(range(lo, hi + 1))
                  for lo, hi in ((xl, xh), (zl, zh), (cl, ch)))
    ok, tbl, vm = fd_state(f"""
    declare {order} S A B T in
    X ::: {xl}#{xh}  Z ::: {zl}#{zh}
    S = {{NewSpace proc {{$ R}} {narrowed} ::: {cl}#{ch} end}}
    {{Ask S A}} {{Wait A}}
    try X = Z T = ok catch E then T = failed end
    {{Ask S B}} {{Wait B}}
    """)
    why = f"seed {seed}: {tbl}"
    assert ok, why
    child = tbl["S"].space
    before = (xs if narrowed == "X" else zs) & cs
    assert tbl["A"] == ("succeeded" if before else "failed"), why
    top = xs & zs
    if not top:
        assert tbl["T"] == "failed", why
        assert tbl["B"] == tbl["A"], why
        assert dom_values(vm, tbl["Z"]) == zs, why
        return
    assert tbl["T"] == "ok", why
    assert dom_values(vm, tbl["Z"]) == top, why
    assert tbl["B"] == ("succeeded" if top & cs else "failed"), why
    if tbl["B"] == "succeeded":
        assert dom_values(vm, tbl["Z"], child) == top & cs, why


def test_alias_folds_domains_in_every_space():
    # a top-level X = Z against Python set arithmetic, with a child space
    # holding its own narrower entry for one of the two
    for seed in range(200):
        check_alias_fold(seed)


@pytest.mark.parametrize("decl, post, binds", [
    ("X", "X+Y=:10", "X=3"),
    # X aliased to Z after posting: the child's watchers move to Z
    ("Z X", "X+Y=:10", "X=Z Z=3"),
    ("Z X", "X*Y=:Z", "X=3 Z=6"),
    ("Z X", "{FDDistinct [X Y Z]} Y=1", "X=3 Z=6"),
])
def test_entailed_propagator_leaves_its_watcher_lists(decl, post, binds):
    # the child's propagator is entailed once the parent binds its operands
    # homed at top; it must leave the child's watcher lists as well as its
    # propagator set
    out = run_text(f"""
    declare {decl} S B B2 in X:::0#9 {'Z:::0#9' if 'Z' in decl else ''}
    S={{NewSpace proc {{$ R}} Y in Y:::0#9 {post} R=Y end}}
    {{Ask S B}} {{Wait B}} {binds} {{Ask S B2}} {{Browse B#B2}}
    """)
    assert out.browse == ["succeeded#succeeded"]
    child = out.vm.spaces[1]
    assert child.propagators == {}
    assert child.fd_watchers == {}


def test_first_fail_picks_smallest_domain():
    src = """
    declare X Y S T in
    {FDDomTellVec [X] 1#3}
    {FDDomTellVec [Y] 1#2}
    {FDSelectFF [X Y 5] S}
    {Wait S}
    X = 1  Y = 2
    {FDSelectFF [X Y 5] T}
    """
    ok, tbl, vm = fd_state(src)
    assert ok
    sel = tbl["S"]
    assert sel.label == "sel" and record_get(sel, 2) == 1
    picked = vm.store.deref(record_get(sel, 1), vm.top)
    assert picked == 2 or (type(picked) is Var
                           and picked.vid == tbl["Y"].vid)
    assert tbl["T"] == "done"


# ----------------------------------------------------------------------
# operands that share a variable, at posting or by a later alias


SHARED = [
    ("X*X=:Y", "X Y", lambda x, y: x * x == y),
    ("X*Y=:X", "X Y", lambda x, y: x * y == x),
    ("X+Y=:6  X=Y", "X Y", lambda x, y: x + y == 6 and x == y),
    ("2*X+Y=:6  X=Y", "X Y", lambda x, y: 2 * x + y == 6 and x == y),
    ("X*Y=:Z  X=Y", "X Y Z", lambda x, y, z: x * y == z and x == y),
    ("X*Y=:Z  Y=Z", "X Y Z", lambda x, y, z: x * y == z and y == z),
    ("2*Y=:2*X+2  X=Y", "X Y", lambda x, y: 2 * y == 2 * x + 2 and x == y),
]
SHARED_IDS = [post for post, _, _ in SHARED]


def _brute_force(names, holds):
    """Every assignment over 0..9 that satisfies holds, sorted."""
    return sorted(p for p in itertools.product(range(10), repeat=len(names))
                  if holds(*p))


@pytest.mark.parametrize("post,vl,holds", SHARED, ids=SHARED_IDS)
def test_shared_operands_at_top_level(post, vl, holds, monkeypatch):
    installed = []
    plain_narrow = fd.narrow

    def narrow(vm, sp, var, *args):
        installed.append((fd.lookup(sp, var) or fd.FULL, args[-1]))
        return plain_narrow(vm, sp, var, *args)
    monkeypatch.setattr(fd, "narrow", narrow)
    names = vl.split()
    sols = _brute_force(names, holds)
    ok, tbl, vm = fd_state(f"declare {vl} in [{vl}]:::0#9 {post}")
    # a run narrows the domain its earlier steps left, never an older one
    for visible, nd in installed:
        assert nd is None or visible.intersect(nd).ivs == nd.ivs
    if not ok:
        assert sols == []
        return
    for i, name in enumerate(names):
        t = tbl[name]
        if type(t) is Var:
            assert_canonical(fd.lookup(vm.top, t))
        visible = dom_values(vm, t)
        # never wider than the posted domain, never missing a solution
        assert {s[i] for s in sols} <= visible <= set(range(10)), name


@pytest.mark.parametrize("post,vl,holds", SHARED, ids=SHARED_IDS)
def test_shared_operands_under_search(post, vl, holds):
    sols = _brute_force(vl.split(), holds)
    src = (f"declare TheScript in\n"
           f"proc {{TheScript Root}}\n   {vl} in\n   Root = sol({vl})\n"
           f"   [{vl}]:::0#9 {post}\n   {{FD.distribute ff [{vl}]}}\nend")
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, src)
    assert ok
    got = sorted(tuple(vm.store.deref(v, vm.top) for _, v in s.feats)
                 for s in search.dfs_all(vm, env, tbl["TheScript"]))
    assert got == sols


def test_ordered_fractions_search_shape():
    # the number of clones pins how much the propagators prune: a change
    # that weakens propagation makes the search tree larger
    kinds, sink = kind_counter()
    vm, env = search.fresh(trace=sink)
    ok, tbl = load_decls(vm, env, ORDERED_FRACTIONS)
    assert ok
    assert len(search.to_pylist(vm, tbl["Sols"])) == 1
    assert kinds["clone"] == 822


def test_ordered_fractions_propagation_work(monkeypatch):
    # the runs of each propagator class pin the agenda order: a change to
    # how a run reads its operands or queues watchers must not move them
    runs = Counter()
    for cls in (fd.LinProp, fd.MulProp, fd.DistinctProp):
        def counted(prop, vm, run=cls.run, name=cls.__name__):
            runs[name] += 1
            return run(prop, vm)
        monkeypatch.setattr(cls, "run", counted)
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, ORDERED_FRACTIONS)
    assert ok
    assert len(search.to_pylist(vm, tbl["Sols"])) == 1
    assert runs == {"MulProp": 80_393, "LinProp": 40_183,
                    "DistinctProp": 4_825}


# A propagator posted in a child on X, homed at top, and X then bound in
# the child's overlay: the run that binding queues must see X's value,
# which only the overlay holds (X.ref stays empty).  Given X = 3, bounds
# propagation alone determines every other operand, so the child must
# hold the brute-force solution, or fail when there is none.
OVERLAY_BOUND = [
    ("{FDLinRel [1 1] [X Y] eq 7}", "X Y", lambda x, y: x + y == 7),
    ("{FDLinRel [1 2] [X Y] eq 10}", "X Y", lambda x, y: x + 2 * y == 10),
    ("Z ::: 10#14 {FDMulProp X Y Z}", "X Y Z",
     lambda x, y, z: x * y == z and 10 <= z <= 14),
    ("Y ::: 3#4 {FDDistinct [X Y]}", "X Y",
     lambda x, y: x != y and 3 <= y <= 4),
]


@pytest.mark.parametrize("post,vl,holds", OVERLAY_BOUND,
                         ids=[post for post, _, _ in OVERLAY_BOUND])
def test_a_run_sees_an_operand_bound_in_the_overlay(post, vl, holds):
    names = vl.split()
    sols = [s for s in itertools.product(range(21), repeat=len(names))
            if s[0] == 3 and holds(*s)]
    assert len(sols) <= 1
    ok, tbl, vm = fd_state(f"""
    declare {vl} S A in
    [{vl}] ::: 0#20
    S = {{NewSpace proc {{$ R}} {post} X = 3 end}}
    {{Ask S A}} {{Wait A}}
    """)
    assert ok and type(tbl["X"]) is Var
    assert tbl["A"] == ("succeeded" if sols else "failed")
    if sols:
        child = tbl["S"].space
        assert tuple(vm.store.deref(tbl[n], child) for n in names) == sols[0]


# ----------------------------------------------------------------------
# random models against brute force

_REL_EVAL = {
    "eq": lambda s, k: s == k,
    "leq": lambda s, k: s <= k,
    "lt": lambda s, k: s < k,
}


def _fmt_int(v):
    return str(v) if v >= 0 else f"~{-v}"


class _Model:
    """A random FD model: named domains plus constraints, with both a
    program rendering and a Python evaluator."""

    def __init__(self, rng):
        self.n = rng.randint(2, 4)
        self.names = [f"X{i}" for i in range(self.n)]
        width = 4 if self.n >= 4 else rng.randint(1, 4)
        self.domains = []
        self.posts = []
        for name in self.names:
            lo = rng.randint(0, 3)
            hi = lo + rng.randint(1, width)
            base = set(range(lo, hi + 1))
            self.posts.append(f"{{FDDomTellVec [{name}] {lo}#{hi}}}")
            for _ in range(rng.randint(0, 1)):
                v = rng.randint(lo, hi)
                if len(base) > 1 and v in base:
                    base.discard(v)
                    self.posts.append(f"{{FDExcl {name} {v}}}")
            self.domains.append(base)
        self.checks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.5:
                m = rng.randint(1, self.n)
                idx = rng.sample(range(self.n), m)
                coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in idx]
                rel = rng.choice(["eq", "leq", "lt"])
                k = rng.randint(-6, 12)
                cl = " ".join(_fmt_int(c) for c in coeffs)
                vl = " ".join(self.names[i] for i in idx)
                self.posts.append(
                    f"{{FDLinRel [{cl}] [{vl}] {rel} {_fmt_int(k)}}}")
                self.checks.append(
                    lambda a, i=tuple(idx), c=tuple(coeffs), r=rel, k=k:
                    _REL_EVAL[r](sum(cc * a[ii] for cc, ii in zip(c, i)), k))
            elif kind < 0.75:
                ia, ib, ic = (rng.randrange(self.n) for _ in range(3))
                self.posts.append(
                    f"{{FDMulProp {self.names[ia]} {self.names[ib]} "
                    f"{self.names[ic]}}}")
                self.checks.append(
                    lambda a, x=ia, y=ib, z=ic: a[x] * a[y] == a[z])
            else:
                m = rng.randint(2, self.n)
                idx = rng.sample(range(self.n), m)
                consts = [rng.randint(0, 6)] if rng.random() < 0.3 else []
                ops = [self.names[i] for i in idx] + [str(c) for c in consts]
                self.posts.append(f"{{FDDistinct [{' '.join(ops)}]}}")
                self.checks.append(
                    lambda a, i=tuple(idx), cs=tuple(consts):
                    len({a[j] for j in i} | set(cs)) == len(i) + len(cs))

    def brute_force(self):
        """Every assignment satisfying all constraints, as sorted tuples."""
        sols = []
        def rec(i, acc):
            if i == self.n:
                if all(chk(acc) for chk in self.checks):
                    sols.append(tuple(acc))
                return
            for v in sorted(self.domains[i]):
                rec(i + 1, acc + [v])
        rec(0, [])
        return sorted(sols)

    def supported(self):
        """Per variable: the values that appear in some solution."""
        sols = self.brute_force()
        return [{s[i] for s in sols} for i in range(self.n)]

    def decl_src(self):
        body = "\n".join(self.posts)
        return f"declare {' '.join(self.names)} in\n{body}"

    def script_src(self):
        body = "\n".join(self.posts)
        vl = " ".join(self.names)
        return (f"declare TheScript in\n"
                f"proc {{TheScript Root}}\n"
                f"   {vl} in\n"
                f"   Root = sol({vl})\n"
                f"   {body}\n"
                f"   {{FD.distribute ff [{vl}]}}\n"
                f"end")


def _engine_solutions(model):
    vm, env = search.fresh()
    ok, tbl = load_decls(vm, env, model.script_src())
    assert ok
    sols = search.dfs_all(vm, env, tbl["TheScript"])
    out = []
    for s in sols:
        assert s.label == "sol"
        out.append(tuple(vm.store.deref(record_get(s, i + 1), vm.top)
                         for i in range(model.n)))
    assert all(all(isinstance(v, int) for v in t) for t in out)
    return sorted(out)


def check_fd_model(seed):
    model = _Model(random.Random(seed))
    oracle = model.brute_force()

    # search finds exactly the brute-force solutions
    assert _engine_solutions(model) == oracle

    # propagation alone never removes a supported value
    ok, tbl, vm = fd_state(model.decl_src())
    if not ok:
        assert oracle == [], "propagation failed a satisfiable model"
        return
    supported = model.supported()
    for name, sup in zip(model.names, supported):
        visible = dom_values(vm, tbl[name])
        assert sup <= visible, (name, sup, visible)

    # re-running every propagator at the fixpoint changes nothing
    before = {vid: d.ivs for vid, d in vm.top.fd_domains.items()}
    for p in list(vm.top.propagators):
        fd._enqueue(vm, p)
    fd.drain(vm)
    after = {vid: d.ivs for vid, d in vm.top.fd_domains.items()}
    assert before == after


def run_fd_models(count, seed0=0):
    """Random-model entry point shared with the acceptance suite."""
    for seed in range(seed0, seed0 + count):
        check_fd_model(seed)


@settings(deadline=None)
@given(st.integers(10_000, 10_999))
def test_random_models_small(seed):
    check_fd_model(seed)


def test_random_models_batch():
    run_fd_models(100)
