"""Store tests: unification vs independent oracles, overlays, visibility.

Two oracles, both deliberately written with none of the store's machinery:

* `robinson` is textbook first-order unification over finite terms with an
  occurs check, using an explicit substitution dict.  On acyclic inputs the
  store must agree with it verdict-for-verdict and binding-for-binding (up
  to variable renaming).  Where robinson reports an occurs violation the
  store must instead succeed, because the store solves over rational trees.
* `coinductive_eq` decides equality of possibly-cyclic terms by
  bisimulation with an assumed-pairs set.  It checks the results of cyclic
  unifications independently.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kernelspace import spaces
from kernelspace.spaces import Space
from kernelspace.store import FAILED, OK, Store
from kernelspace.terms import Record, Var
from kernelspace.vm import VM


def fresh():
    store = Store()
    top = Space(None)
    return store, top


# ----------------------------------------------------------------------
# oracle 1: first-order unification with occurs check


def robinson(t1, t2):
    """Return ('ok', subst) | ('fail',) | ('cyclic',) for finite terms.

    On an occurs violation the binding is made anyway and unification
    continues (a later clash must still be found); 'cyclic' is reported only
    when everything else agreed.  A memo on record pairs keeps the recursion
    finite once the substitution has become circular.
    """
    subst = {}
    assumed = set()
    saw_cycle = False

    def walk(t):
        while type(t) is Var and t.vid in subst:
            t = subst[t.vid]
        return t

    def occurs(vid, t, seen):
        t = walk(t)
        if type(t) is Var:
            return t.vid == vid
        if type(t) is Record:
            if id(t) in seen:
                return False
            seen.add(id(t))
            return any(occurs(vid, v, seen) for _, v in t.feats)
        return False

    def uni(a, b):
        nonlocal saw_cycle
        a, b = walk(a), walk(b)
        if type(a) is Var and type(b) is Var and a.vid == b.vid:
            return True
        if type(a) is Var:
            if occurs(a.vid, b, set()):
                saw_cycle = True
            subst[a.vid] = b
            return True
        if type(b) is Var:
            return uni(b, a)
        if type(a) is int or type(a) is str:
            return type(a) is type(b) and a == b
        if type(b) is not Record:
            return False
        key = (id(a), id(b))
        if key in assumed:
            return True
        assumed.add(key)
        if a.label != b.label or a.arity() != b.arity():
            return False
        return all(uni(x, y) for (_, x), (_, y) in zip(a.feats, b.feats))

    if not uni(t1, t2):
        return ("fail",)
    if saw_cycle:
        return ("cyclic",)
    return ("ok", subst)


def resolve(t, subst):
    """Apply a robinson substitution fully (inputs are acyclic)."""
    while type(t) is Var and t.vid in subst:
        t = subst[t.vid]
    if type(t) is Record:
        return Record(t.label, tuple((f, resolve(v, subst)) for f, v in t.feats))
    return t


def alpha_eq(a, b, bij=None):
    """Structural equality of acyclic terms up to a variable bijection."""
    if bij is None:
        bij = {}
    if type(a) is Var and type(b) is Var:
        if a.vid in bij:
            return bij[a.vid] == b.vid
        if b.vid in bij.values():
            return False
        bij[a.vid] = b.vid
        return True
    if type(a) is not type(b):
        return False
    if type(a) is Record:
        if a.label != b.label or a.arity() != b.arity():
            return False
        return all(alpha_eq(x, y, bij) for (_, x), (_, y) in zip(a.feats, b.feats))
    return a == b


# ----------------------------------------------------------------------
# oracle 2: coinductive equality of rational trees


def coinductive_eq(t1, t2, store, space):
    assumed = set()

    def eq(a, b):
        a = store.deref(a, space)
        b = store.deref(b, space)
        if type(a) is Var or type(b) is Var:
            return type(a) is Var and type(b) is Var and a.vid == b.vid
        if type(a) is not type(b):
            return False
        if type(a) is Record:
            key = (id(a), id(b))
            if key in assumed:
                return True
            assumed.add(key)
            if a.label != b.label or a.arity() != b.arity():
                return False
            return all(eq(x, y) for (_, x), (_, y) in zip(a.feats, b.feats))
        return a == b

    return eq(t1, t2)


# ----------------------------------------------------------------------
# random finite terms: depth <= 4, at most 3 distinct shared variables


def term_strategy():
    leaf = st.one_of(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["a", "b"]),
        st.integers(min_value=0, max_value=2).map(lambda i: ("var", i)),
    )

    def rec(children):
        return st.builds(
            lambda label, feats: ("rec", label, feats),
            st.sampled_from(["f", "g"]),
            st.lists(children, min_size=0, max_size=3),
        )

    return st.recursive(leaf, rec, max_leaves=12)


def materialize(skel, varmap, store, top):
    if type(skel) is tuple and skel[0] == "var":
        i = skel[1]
        if i not in varmap:
            varmap[i] = store.new_var(top)
        return varmap[i]
    if type(skel) is tuple and skel[0] == "rec":
        _, label, feats = skel
        return Record(label, tuple((i + 1, materialize(c, varmap, store, top))
                                   for i, c in enumerate(feats)))
    return skel


@settings(max_examples=300, deadline=None)
@given(term_strategy(), term_strategy())
def test_unify_matches_first_order_oracle(s1, s2):
    store, top = fresh()
    varmap = {}
    t1 = materialize(s1, varmap, store, top)
    t2 = materialize(s2, varmap, store, top)
    verdict = robinson(t1, t2)
    got = store.unify(t1, t2, top)
    if verdict[0] == "fail":
        assert got is FAILED
    elif verdict[0] == "cyclic":
        # rational trees admit the cyclic solution the occurs check rejects
        assert got is OK
        assert coinductive_eq(t1, t2, store, top)
    else:
        assert got is OK
        want1 = resolve(t1, verdict[1])

        def read_back(t):
            t = store.deref(t, top)
            if type(t) is Record:
                return Record(t.label, tuple((f, read_back(v)) for f, v in t.feats))
            return t

        assert alpha_eq(read_back(t1), want1)
        assert coinductive_eq(t1, t2, store, top)


def test_unify_cyclic_classics():
    store, top = fresh()
    x, y = store.new_var(top), store.new_var(top)
    # X = f(X), Y = f(f(Y)): equal as infinite trees
    assert store.unify(x, Record("f", ((1, x),)), top) is OK
    assert store.unify(y, Record("f", ((1, Record("f", ((1, y),))),)), top) is OK
    assert coinductive_eq(x, y, store, top)
    assert store.unify(x, y, top) is OK


def test_unify_cyclic_clash():
    store, top = fresh()
    x, y = store.new_var(top), store.new_var(top)
    assert store.unify(x, Record("f", ((1, x), (2, "a"))), top) is OK
    assert store.unify(y, Record("f", ((1, y), (2, "b"))), top) is OK
    assert not coinductive_eq(x, y, store, top)
    assert store.unify(x, y, top) is FAILED


def test_label_and_arity_clash():
    store, top = fresh()
    a = Record("f", ((1, "a"),))
    b = Record("g", ((1, "a"),))
    assert store.unify(a, b, top) is FAILED
    c = Record("f", ((1, "a"), (2, "b")))
    assert store.unify(a, c, top) is FAILED


def test_feature_order_is_canonical():
    r1 = Record("r", (("b", 1), ("a", 2), (1, 3)))
    assert r1.arity() == (1, "a", "b")
    store, top = fresh()
    r2 = Record("r", ((1, 3), ("a", 2), ("b", 1)))
    assert store.unify(r1, r2, top) is OK


def test_incremental_tell_keeps_prefix_and_wakes():
    # unify(f(X Y), f(1 2)) against later clash: bindings made before the
    # inconsistency stay, and their suspensions are woken
    store, top = fresh()
    woken = []
    store.wake_fn = lambda var, waiters, space: woken.extend(waiters)
    x, y = store.new_var(top), store.new_var(top)
    store.suspend(x, "waiter-x")
    t1 = Record("f", ((1, x), (2, y), (3, "a")))
    t2 = Record("f", ((1, 1), (2, 2), (3, "b")))
    assert store.unify(t1, t2, top) is FAILED
    assert store.deref(x, top) == 1
    assert store.deref(y, top) == 2
    assert woken == ["waiter-x"]


def test_overlay_visibility():
    store, top = fresh()
    child = Space(top)
    sibling = Space(top)
    x = store.new_var(top)
    assert store.unify(x, 5, child) is OK
    # visible in the binder and below, invisible above and across
    assert store.deref(x, child) == 5
    assert type(store.deref(x, top)) is Var
    assert type(store.deref(x, sibling)) is Var
    grandchild = Space(child)
    assert store.deref(x, grandchild) == 5


def test_descendant_entry_revalidated_on_ancestor_bind():
    store, top = fresh()
    failed_spaces = []
    store.fail_space_fn = failed_spaces.append
    child = Space(top)
    x = store.new_var(top)
    assert store.unify(x, 7, child) is OK
    # consistent ancestor tell: child keeps its entry, nothing fails
    assert store.unify(x, 7, top) is OK
    assert failed_spaces == []
    # now a conflicting speculation in a second child
    child2 = Space(top)
    y = store.new_var(top)
    assert store.unify(y, 1, child2) is OK
    assert store.unify(y, 2, top) is OK
    assert failed_spaces == [child2]


def test_descendant_var_var_entry_revalidated():
    store, top = fresh()
    failed_spaces = []
    store.fail_space_fn = failed_spaces.append
    child = Space(top)
    x, y = store.new_var(top), store.new_var(top)
    assert store.unify(x, y, child) is OK          # child aliases x = y
    assert store.unify(x, 3, top) is OK            # parent binds x
    assert store.deref(y, child) == 3              # alias propagates in child
    assert failed_spaces == []
    assert store.unify(y, 4, top) is OK            # parent later binds y too
    assert failed_spaces == [child]                # child saw x=3, y=4, x=y


def test_alias_direction_descendant_to_ancestor():
    store, top = fresh()
    child = Space(top)
    xa = store.new_var(top)      # homed in the ancestor
    xc = store.new_var(child)    # homed in the child
    assert store.unify(xa, xc, child) is OK
    # the binding must be made on the descendant-homed variable, which
    # the child binds in place; the ancestor's variable stays unbound
    assert xc.ref is xa
    assert xa.ref is None and not child.bindings

    # a child re-parented by its parent's merge: the top space adopts
    # mid's variable xm and mid's child, and xc, homed in the child, is
    # still the one bound, though it is the older variable
    vm = VM()
    mid = Space(vm.top, sid=1)
    child = Space(mid, sid=2)
    xc = vm.store.new_var(child)
    xm = vm.store.new_var(mid)
    spaces.merge(vm, mid, vm.top, spaces.STATUS_SUCCEEDED)
    assert child.parent is vm.top and vm.store.homes[xm.vid] is vm.top
    assert vm.store.unify(xm, xc, child) is OK
    assert xc.ref is xm
    assert xm.ref is None and not child.bindings


def test_binding_monotone_within_space():
    store, top = fresh()
    x = store.new_var(top)
    assert store.unify(x, Record("f", ((1, 1),)), top) is OK
    assert store.unify(x, Record("f", ((1, 1),)), top) is OK   # idempotent
    assert store.unify(x, Record("f", ((1, 2),)), top) is FAILED
    assert store.deref(x, top).feats[0][1] == 1    # binding unchanged


def test_is_det():
    store, top = fresh()
    x = store.new_var(top)
    assert not store.is_det(x, top)
    y = store.new_var(top)
    store.unify(x, y, top)
    assert not store.is_det(x, top)
    store.unify(y, "a", top)
    assert store.is_det(x, top)


def test_deref_survives_cross_overlay_alias_cycle():
    store, top = fresh()
    child = Space(top)
    x, y = store.new_var(top), store.new_var(top)
    # child: x -> y ; top: y -> x  (both legal in isolation)
    assert store.unify(x, y, child) is OK
    top_entry = store.unify(y, x, top)
    assert top_entry is OK
    t = store.deref(x, child)
    assert type(t) is Var          # the alias cycle denotes unbound equals
    assert store.unify(x, 9, child) is OK
    assert store.deref(y, child) == 9


def test_randomized_overlay_consistency():
    # random tells in a random space tree; every visible binding must be
    # derivable in all descendants and invisible elsewhere
    rng = random.Random(7)
    for _ in range(200):
        store, top = fresh()
        spaces = [top]
        for _ in range(rng.randint(1, 4)):
            spaces.append(Space(rng.choice(spaces)))
        vars_ = [store.new_var(rng.choice(spaces)) for _ in range(5)]
        binds = []
        for _ in range(6):
            v = rng.choice(vars_)
            sp = rng.choice(spaces)
            # only tell where the variable is visible
            if not _visible(store, v, sp):
                continue
            val = rng.choice([1, 2, "a", "b"])
            if store.unify(v, val, sp) is OK:
                binds.append((v, sp, val))
        for v, sp, val in binds:
            got = store.deref(v, sp)
            if type(got) is not Var:
                _check_visibility(store, v, sp, spaces)


def _visible(store, v, sp):
    home = store.homes[v.vid]
    cur = sp
    while cur is not None:
        if cur is home:
            return True
        cur = cur.parent
    return False


def _check_visibility(store, v, binder, spaces):
    from kernelspace.store import is_ancestor
    for sp in spaces:
        seen = store.deref(v, sp)
        if is_ancestor(binder, sp):
            assert type(seen) is not Var or any(
                is_ancestor(other, sp) for other in spaces
                if other is not binder and v in other.bindings)
