"""Search engines against brute-force enumeration of random choice trees.

A choice tree is a nested alternation whose leaves either bind the root
to a distinct integer or fail.  Enumerating the live leaves left to
right gives the reference solution order; every engine must agree with
it in its own way (all, first, streamed, best under an order).
"""

import random

import pytest

from conftest import (SPACE_OPS, THREAD_KINDS, browse, kind_counter,
                      load_decls, run)

from kernelspace import search
from kernelspace.search import EngineError, SearchObject


# ----------------------------------------------------------------------
# random choice trees


class _Leaf:
    def __init__(self, value):
        self.value = value      # None means a failing leaf


class _Alt:
    def __init__(self, kids):
        self.kids = kids


def _gen(rng, depth, counter):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return _Leaf(None)
        counter[0] += 1
        return _Leaf(counter[0])
    n = rng.randint(2, 3)
    return _Alt([_gen(rng, depth - 1, counter) for _ in range(n)])


def _live_leaves(node):
    if isinstance(node, _Leaf):
        return [] if node.value is None else [node.value]
    out = []
    for k in node.kids:
        out.extend(_live_leaves(k))
    return out


def _stmt(node, indent):
    pad = " " * indent
    if isinstance(node, _Leaf):
        return pad + ("1 = 2" if node.value is None
                      else f"Root = {node.value}")
    arms = f"\n{pad}[]\n".join(_stmt(k, indent + 3) for k in node.kids)
    return f"{pad}choice\n{arms}\n{pad}end"


def _tree_script(rng, depth=5):
    tree = _gen(rng, depth, [0])
    src = ("declare T in\n"
           "proc {T Root}\n"
           f"{_stmt(tree, 3)}\n"
           "end")
    return src, _live_leaves(tree)


def _load_script(src, **vm_kwargs):
    vm, env = search.fresh(**vm_kwargs)
    ok, tbl = load_decls(vm, env, src)
    assert ok
    return vm, env, tbl["T"]


ORDER_SRC = """
declare Better in
proc {Better Best New}
   B in
   {Less Best New B}
   B = true
end
"""


def run_search_trees(count, seed0=0):
    """Tree-model entry point shared with the acceptance suite."""
    for seed in range(seed0, seed0 + count):
        rng = random.Random(seed)
        src, oracle = _tree_script(rng)

        vm, env, script = _load_script(src)
        assert search.dfs_all(vm, env, script) == oracle

        vm, env, script = _load_script(src)
        assert search.dfs_one(vm, env, script) == oracle[:1]

        vm, env, script = _load_script(src)
        ok, tbl = load_decls(vm, env, ORDER_SRC)
        assert ok
        best = search.bab(vm, env, script, tbl["Better"])
        assert best == ([max(oracle)] if oracle else [])


def test_random_trees():
    run_search_trees(120)


def test_search_object_streams_the_same_solutions():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        src, oracle = _tree_script(rng, depth=4)
        vm, env, script = _load_script(src)
        so = SearchObject(vm, env, script)
        got = []
        while True:
            nxt = so.next()
            if nxt is None:
                break
            got.append(nxt)
        assert got == oracle
        # exhaustion is stable
        assert so.next() is None
        assert so.next() is None


def test_search_object_close_then_next_raises():
    src, _ = _tree_script(random.Random(7))
    vm, env, script = _load_script(src)
    so = SearchObject(vm, env, script)
    so.close()
    with pytest.raises(EngineError, match="error\\(kind:search\\)"):
        so.next()


def test_search_object_interleaves_with_other_work():
    """Two engines on one vm advance independently."""
    src_a, oracle_a = _tree_script(random.Random(41))
    src_b, oracle_b = _tree_script(random.Random(42))
    vm, env = search.fresh()
    ok, ta = load_decls(vm, env, src_a)
    assert ok
    ok, tb = load_decls(vm, env, src_b.replace("declare T in",
                                               "declare T2 in")
                        .replace("proc {T ", "proc {T2 "))
    assert ok
    sa = SearchObject(vm, env, ta["T"])
    sb = SearchObject(vm, env, tb["T2"])
    got_a, got_b = [], []
    for _ in range(max(len(oracle_a), len(oracle_b)) + 1):
        na, nb = sa.next(), sb.next()
        if na is not None:
            got_a.append(na)
        if nb is not None:
            got_b.append(nb)
    assert got_a == oracle_a
    assert got_b == oracle_b


def test_search_object_next_leaves_later_alternatives_unrun():
    """next commits only the alternatives it reaches: a second alternative
    that never ends costs nothing until a later next takes it."""
    src = """
    declare Loop P E Next X in
    proc {Loop} {Loop} end
    proc {P R} choice R = 1 [] {Loop} end end
    {Search.object P E}
    case E of search(next:N close:_) then Next = N end
    {Next X} {Browse X}
    """
    out = run(src, max_reductions=200_000)
    assert (out.exit_code, out.browse) == (0, ["[1]"])


# ----------------------------------------------------------------------
# branch and bound details


def test_bab_empty_tree_gives_no_solution():
    vm, env, script = _load_script(
        "declare T in proc {T Root} 1 = 2 end")
    ok, tbl = load_decls(vm, env, ORDER_SRC)
    assert ok
    assert search.bab(vm, env, script, tbl["Better"]) == []


def test_bab_prunes_with_the_order():
    """With the order injected, worse branches die before enumeration:
    the traced run commits fewer choices than plain dfs."""
    src = """
    declare T in
    proc {T Root}
       choice Root = 9
       [] choice Root = 1 [] Root = 2 [] Root = 3 end
       [] choice Root = 4 [] Root = 5 end
       end
    end
    """
    vm, env, script = _load_script(src)
    all_sols = search.dfs_all(vm, env, script)
    assert all_sols == [9, 1, 2, 3, 4, 5]

    vm, env, script = _load_script(src)
    ok, tbl = load_decls(vm, env, ORDER_SRC)
    assert ok
    assert search.bab(vm, env, script, tbl["Better"]) == [9]


# ----------------------------------------------------------------------
# determinacy-driven disjunction


def test_dis_commits_alone_without_a_choice_point():
    src = """
    declare X Y in
    X = b
    dis X = a then Y = 1
    [] X = b then Y = 2
    end
    {Browse Y}
    """
    kinds, sink = kind_counter()
    out = run(src, trace=sink)
    assert out.status == "ok"
    assert out.browse == ["2"]
    assert kinds["choose"] == 0 and kinds["spawn"] > 0


def test_dis_surviving_guards_become_alternatives_in_guard_order():
    # both guards stay open: the space turns into a binary choice whose
    # indices follow the textual guard order
    for pick, expect in ((1, "left"), (2, "right")):
        src = f"""
        declare P S A R in
        proc {{P R}} X in
           dis X = a then R = left
           [] X = b then R = right
           end
        end
        {{NewSpace P S}}
        {{Ask S A}} {{Browse A}}
        {{Commit S {pick}}}
        {{Merge S R}}
        {{Browse R}}
        """
        assert browse(src) == ["alternatives(2)", expect]


def test_dis_failed_guard_drops_out_of_the_numbering():
    src = """
    declare P S A R in
    proc {P R} X in
       dis 1 = 2 then R = dead
       [] X = b then R = mid
       [] X = c then R = last
       end
    end
    {NewSpace P S}
    {Ask S A} {Browse A}
    {Commit S 1}
    {Merge S R}
    {Browse R}
    """
    assert browse(src) == ["alternatives(2)", "mid"]


def test_dis_all_guards_failing_fails():
    src = """
    declare P S A in
    proc {P R}
       dis 1 = 2 then R = a
       [] 2 = 3 then R = b
       end
    end
    {NewSpace P S}
    {Ask S A} {Browse A}
    """
    assert browse(src) == ["failed"]


def test_dis_all_guards_failing_is_catchable_at_top():
    src = """
    try
       dis 1 = 2 then skip
       [] 2 = 3 then skip
       end
    catch E then {Browse E} end
    """
    assert browse(src) == ["failure(debug:unit)"]


# ----------------------------------------------------------------------
# operation audit


def test_engines_use_only_the_seven_operations():
    src = """
    declare T in
    proc {T Root}
       choice
          choice Root = 1 [] Root = 2 end
       [] 1 = 2
       [] Root = 3
       end
    end
    """
    kinds, sink = kind_counter()
    vm, env, script = _load_script(src, trace=sink)
    sols = search.dfs_all(vm, env, script)
    assert sols == [1, 2, 3]
    assert set(kinds) <= THREAD_KINDS | SPACE_OPS, kinds
    # real exploration forks the tree
    assert kinds["clone"] > 0
    assert kinds["commit"] > 0


def test_bab_injects():
    kinds, sink = kind_counter()
    vm, env, script = _load_script("""
    declare T in
    proc {T Root} choice Root = 1 [] Root = 2 end end
    """, trace=sink)
    ok, tbl = load_decls(vm, env, ORDER_SRC)
    assert ok
    assert search.bab(vm, env, script, tbl["Better"]) == [2]
    assert kinds["inject"] > 0
