"""Finite-domain constraints.

A finite-domain variable is an ordinary store variable that carries a domain,
a finite set of integers in [0, SUP].  Domains live in per-space overlays
(Space.fd_domains, keyed by Var) with the visibility rule of binding
overlays: a space sees the nearest entry on its ancestor chain, and an entry
in a space is always a subset of what the parent sees.  Unlike a binding, a
domain stays in the overlay even in the variable's home space, until the
variable is bound.  Narrowing a domain to a single value binds the variable
in that space; binding a variable to an integer narrows its domain; anything
else is a domain lookup away.

Propagators are bounds-consistent (values-consistent for distinct) and are
homed in the space that posted them.  They watch variables through per-space
watcher tables and are re-run through a global agenda that the VM drains
after every reduction, so between reductions propagation is always at a
fixpoint and space stability can be read off directly.

What a run reads: it dereferences each operand and looks up its domain once,
and takes bounds from the domain's runs (`ivs`).  Most operands are unbound
variables homed in the propagator's own space, and a run reads those
without a call: a Var with no `ref` and an empty index is itself from
every space (see store.py), and one whose `ref` is an integer and whose
index is empty is that integer from every space, so `Store.deref` is
called only for any other operand with one of the two set.  The domain
is read from the home's own entries, with `lookup` called only when the
home has none.  Each step narrows from the domain the run holds for that
variable, which is the one an earlier step of the same run installed
when two operands are one variable (`X*X=:Y`, or an alias made after
posting); `narrow` takes that domain from its caller.

Where a tell reaches: a space below a variable's home with a domain entry
or a watcher list for it is in its index (`Var.spaces`, see store.py).  A
narrowing or a binding visits the space that makes it, then
`Store.below`'s spaces under it, top-down, and queues the variable's
watchers in each, the running propagator included (it left the agenda
when it started, so it reaches its own fixpoint by running again).  Below,
a narrowing narrows each entry, and an overlay binding must fit the new
domain (`_meet`): an integer must lie in it, another variable is narrowed
by it, and any other value fails that space.  Every binding reaches one
store hook, `_on_tell`, before it is made: where the variable has an
entry, the value as seen there must fit it.  A contradiction in the
binding space fails the tell; below it, it fails that space.  An alias
moves the watchers to the other variable.

When fd state is dropped: a binding in the variable's home drops its entry
and watcher list there, since nothing can read them again; a binding in an
overlay keeps them.  An alias drops the bound variable's entries.  An
entailed propagator (all operands determined) leaves its home's
propagator set and watcher lists.  A failed space's fd state is cleared
and a merged space's moves to its parent.  A space that holds no more
state for a variable leaves its index.

A builtin decodes every argument it may wait for before it narrows or
posts, as the space builtins do, so a builtin woken again starts afresh.
It raises Wait (errors.py) on one that is not determined yet (a domain
spec or its bounds, a list spine or coefficient, a relation or constant),
and the scheduler parks the thread on it, which makes it needed; it
raises error(kind:type) on a wrong one.  `_operand` decodes an operand,
`_walk_list` a list and `_vec_terms` a vector.  A product posts a MulProp
whatever its operands, so one that cannot hold fails its space as any
propagator run does.  `_bind_value` is the one place here that makes a
variable needed itself: propagation determines a by-need variable without
any thread parking on it.
"""

from __future__ import annotations

import weakref

from . import spaces as spaces_mod
from .errors import FAILURE, OzRaise, Wait, _error, arg
from .store import FAILED, OK
from .terms import Builtin, Record, Var, is_cons

SUP = 134217726


# ----------------------------------------------------------------------
# domains

class FDomain:
    """Immutable set of ints as a tuple of disjoint ascending (lo, hi) runs."""

    __slots__ = ("ivs",)

    def __init__(self, ivs):
        self.ivs = ivs

    def min(self):
        return self.ivs[0][0]

    def max(self):
        return self.ivs[-1][1]

    def size(self):
        return sum(hi - lo + 1 for lo, hi in self.ivs)

    def is_singleton(self):
        ivs = self.ivs
        return len(ivs) == 1 and ivs[0][0] == ivs[0][1]

    def value(self):
        return self.ivs[0][0]

    def contains(self, v):
        for lo, hi in self.ivs:
            if v < lo:
                return False
            if v <= hi:
                return True
        return False

    def narrow_bounds(self, lo, hi):
        """Intersect with [lo, hi]; None bounds are open.  None if empty."""
        ivs = self.ivs
        if len(ivs) == 1:          # one run: clip it
            a, b = ivs[0]
            if lo is not None and a < lo:
                a = lo
            if hi is not None and b > hi:
                b = hi
            return FDomain(((a, b),)) if a <= b else None
        out = []
        for a, b in ivs:
            if lo is not None and b < lo:
                continue
            if hi is not None and a > hi:
                break
            if lo is not None and a < lo:
                a = lo
            if hi is not None and b > hi:
                b = hi
            if a <= b:             # else lo > hi: the interval is empty
                out.append((a, b))
        return FDomain(tuple(out)) if out else None

    def intersect(self, other):
        out = []
        xs, ys = self.ivs, other.ivs
        i = j = 0
        while i < len(xs) and j < len(ys):
            a = max(xs[i][0], ys[j][0])
            b = min(xs[i][1], ys[j][1])
            if a <= b:
                out.append((a, b))
            if xs[i][1] < ys[j][1]:
                i += 1
            else:
                j += 1
        return FDomain(tuple(out)) if out else None

    def remove(self, v):
        """Domain without v, or None if that empties it."""
        out = []
        for lo, hi in self.ivs:
            if lo <= v <= hi:
                if lo < v:
                    out.append((lo, v - 1))
                if v < hi:
                    out.append((v + 1, hi))
            else:
                out.append((lo, hi))
        return FDomain(tuple(out)) if out else None

    def __repr__(self):
        return "FD" + repr(list(self.ivs))


FULL = FDomain(((0, SUP),))


# ----------------------------------------------------------------------
# lookup and narrowing

def lookup(sp, var):
    """Nearest domain entry for var visible from sp, or None."""
    s = sp
    while s is not None:
        d = s.fd_domains.get(var)
        if d is not None:
            return d
        s = s.parent
    return None


def _enqueue(vm, prop):
    if prop.queued or prop.home.discarded:
        return
    prop.queued = True
    prop.home.fd_queued += 1
    vm.fd_agenda.append(prop)


def _meet(vm, sp, value, d):
    """Whether value, bound in sp to a variable of domain d, fits d."""
    if type(value) is Var:           # the alias fold
        vis = lookup(sp, value)
        return narrow(vm, sp, value, vis,
                      d if vis is None else vis.intersect(d)) is not FAILED
    return type(value) is int and d.contains(value)


def _bind_value(vm, sp, var, value):
    """Bind var to its now-singleton value in sp.  Failure fails sp (or is
    reported if sp is the top space)."""
    r = vm.store.unify(var, value, sp, fire=True)
    if r is FAILED:
        if sp.parent is None:
            return FAILED
        spaces_mod.fail_space(vm, sp)
        return FAILED
    if r is not OK:
        # a by-need variable got determined by propagation: fire the trigger
        # and let the supplier thread do the actual bind
        vm.need(r)
    return OK


def narrow(vm, sp, var, d, nd):
    """Install domain nd for var in sp, where d is the domain var has there
    (None if it has none) and nd a subset of it.

    Binds on singletons, and pushes nd below and wakes watchers as the
    module docstring says.  Returns OK, or FAILED when nd is empty or the
    singleton bind contradicts the store.  The caller decides what a FAILED
    means (propagator failure vs. failed tell in a thread), except that a
    singleton bind that fails in a space below the top has already failed
    that space.
    """
    if nd is None:
        return FAILED
    ivs = nd.ivs
    if d is not None and ivs == d.ivs:
        return OK
    doms = sp.fd_domains
    if var not in doms:
        vm.store.index(var, sp)
    doms[var] = nd
    if len(ivs) == 1 and ivs[0][0] == ivs[0][1]:
        if _bind_value(vm, sp, var, ivs[0][0]) is FAILED:
            return FAILED
    agenda = vm.fd_agenda
    for cur in _push_down(vm, sp, var, nd) if var.spaces else (sp,):
        ws = cur.fd_watchers.get(var)
        if ws:
            for p in ws:           # _enqueue, written out
                if not p.queued and not p.home.discarded:
                    p.queued = True
                    p.home.fd_queued += 1
                    agenda.append(p)
    return OK


def _push_down(vm, sp, var, nd):
    """sp, then each space below it in var's index, top-down, once nd has
    reached that space's entry and overlay binding and left it alive."""
    yield sp
    store = vm.store
    for cur in store.below(var, sp):
        if cur.discarded:
            continue
        val = cur.bindings.get(var)
        ent = cur.fd_domains.get(var)
        inter = nd if ent is None else ent.intersect(nd)
        if inter is None or (val is not None and not _meet(
                vm, cur, store.deref(val, cur), nd)):
            spaces_mod.fail_space(vm, cur)
            continue
        if ent is not None and inter.ivs != ent.ivs:
            cur.fd_domains[var] = inter
            if inter.is_singleton():
                _bind_value(vm, cur, var, inter.value())
                if not cur.alive():
                    continue
        yield cur


def _dom_or_declare(vm, sp, var):
    d = lookup(sp, var)
    if d is None:
        d = sp.fd_domains[var] = FULL
        vm.store.index(var, sp)
    return d


def _watch(vm, sp, var):
    """var's watcher list in sp, made if sp has none."""
    if var not in sp.fd_watchers:
        vm.store.index(var, sp)
    return sp.fd_watchers.setdefault(var, {})


# ----------------------------------------------------------------------
# the store hook

def _on_tell(vm, var, value, space):
    """The store's fd hook: var is about to be bound to value in space.
    The walk the module docstring describes; FAILED when the binding
    contradicts what space sees."""
    ent = lookup(space, var)
    if ent is None and var.spaces is None:
        return OK
    store = vm.store
    alias = type(value) is Var
    for cur in [space, *store.below(var, space)] if var.spaces else (space,):
        val = value
        if cur is not space:
            if cur.discarded:
                continue
            ent = cur.fd_domains.get(var)
            val = store.deref(value, cur)     # an alias fold may have bound it
        if ent is not None and not _meet(vm, cur, val, ent):
            if cur is space:
                return FAILED
            spaces_mod.fail_space(vm, cur)
            continue
        # an alias drops var's fd state, and so does a bind in var's home
        if alias or (cur is space and store.homes[var.vid].space is space):
            cur.fd_domains.pop(var, None)
            ws = cur.fd_watchers.pop(var, None)
            if var not in cur.bindings:
                store.unindex(var, cur)
            if ws and type(val) is Var:
                _watch(vm, cur, val).update(ws)
        else:
            ws = cur.fd_watchers.get(var)
        if ws:
            for p in ws:
                _enqueue(vm, p)
    return OK


def ensure_installed(vm):
    if vm.store.fd_tell_fn is not None:
        return
    vm = weakref.proxy(vm)         # the store must not keep the VM alive
    vm.store.fd_tell_fn = lambda var, val, space: _on_tell(vm, var, val, space)


# ----------------------------------------------------------------------
# the agenda

def drain(vm):
    """Run queued propagators to fixpoint.  Called by the VM after any
    reduction that left the agenda non-empty, so stability checks never see
    pending propagation."""
    agenda = vm.fd_agenda
    popleft = agenda.popleft
    top_failed = False
    while agenda:
        touched = {}
        last = None
        while agenda:
            p = popleft()
            p.queued = False
            home = p.home
            home.fd_queued -= 1
            if home.discarded:
                continue
            if home is not last:   # runs come in long stretches per home
                touched[home] = None
                last = home
            if p.run(vm) is FAILED:
                if home.parent is None:
                    top_failed = True
                elif home.alive():
                    spaces_mod.fail_space(vm, home)
        # spaces whose last pending propagator just ran may now be stable,
        # and so may their ancestors
        for sp in touched:
            spaces_mod.settle(vm, sp)
    if top_failed:
        raise OzRaise(FAILURE)


# ----------------------------------------------------------------------
# propagators

class LinProp:
    """Sum of ci*xi (rel) k with rel in {eq, leq}; bounds-consistent."""

    __slots__ = ("home", "coeffs", "vars", "rel", "k", "queued")

    def __init__(self, home, coeffs, vars_, rel, k):
        self.home = home
        self.coeffs = coeffs
        self.vars = vars_      # Var terms; derefed at each run
        self.rel = rel
        self.k = k
        self.queued = False

    def copy(self, cp):
        return LinProp(None, self.coeffs, tuple(cp(v) for v in self.vars),
                       self.rel, self.k)

    def run(self, vm):
        sp = self.home
        doms = sp.fd_domains
        k = self.k
        eq = self.rel == "eq"
        totlo = tothi = 0
        free = []              # (coeff, var, domain, coeff*min, coeff*max)
        for c, t in zip(self.coeffs, self.vars):
            if t.ref is not None or t.spaces is not None:
                t = t.ref if type(t.ref) is int and t.spaces is None \
                    else vm.store.deref(t, sp)
                if type(t) is int:
                    totlo += c * t
                    tothi += c * t
                    continue
            d = doms.get(t) or lookup(sp, t) or FULL
            ivs = d.ivs
            if c > 0:
                lo, hi = c * ivs[0][0], c * ivs[-1][1]
            else:
                lo, hi = c * ivs[-1][1], c * ivs[0][0]
            totlo += lo
            tothi += hi
            free.append((c, t, d, lo, hi))
        if totlo > k or (eq and tothi < k):
            return FAILED
        if not free:
            _entailed(vm, self, self.vars)
            return OK
        cut = None             # var -> the domain this run installed
        for c, var, d, lo, hi in free:
            # c*x <= k - (the rest at its least), and for eq also
            # c*x >= k - (the rest at its greatest)
            ub = k - totlo + lo
            if eq:
                lb = k - tothi + hi
                if c > 0:
                    qlo, qhi = -(-lb // c), ub // c
                else:
                    qlo, qhi = -(-ub // c), lb // c
            elif c > 0:
                qlo, qhi = None, ub // c
            else:
                qlo, qhi = -(-ub // c), None
            if cut is not None:
                # an operand aliased to an earlier one: narrow what that
                # step installed, not the domain read at the start
                d = cut.get(var, d)
            ivs = d.ivs
            if (qlo is not None and qlo > ivs[0][0]) or \
               (qhi is not None and qhi < ivs[-1][1]):
                nd = d.narrow_bounds(qlo, qhi)
                if narrow(vm, sp, var, d, nd) is FAILED:
                    return FAILED
                if cut is None:
                    cut = {}
                cut[var] = nd
        return OK


class MulProp:
    """a*b = c over non-negative domains; bounds-consistent."""

    __slots__ = ("home", "a", "b", "c", "queued")

    def __init__(self, home, a, b, c):
        self.home = home
        self.a = a
        self.b = b
        self.c = c
        self.queued = False

    def copy(self, cp):
        return MulProp(None, cp(self.a), cp(self.b), cp(self.c))

    def run(self, vm):
        sp = self.home
        doms = sp.fd_domains
        a, b, c = self.a, self.b, self.c
        if type(a) is Var and (a.ref is not None or a.spaces is not None):
            a = a.ref if type(a.ref) is int and a.spaces is None \
                else vm.store.deref(a, sp)
        if type(b) is Var and (b.ref is not None or b.spaces is not None):
            b = b.ref if type(b.ref) is int and b.spaces is None \
                else vm.store.deref(b, sp)
        if type(c) is Var and (c.ref is not None or c.spaces is not None):
            c = c.ref if type(c.ref) is int and c.spaces is None \
                else vm.store.deref(c, sp)
        # an operand's domain, None for an integer, and its bounds; a step
        # that narrows an operand refreshes every operand on the same var
        if type(a) is int:
            ad, alo, ahi = None, a, a
        else:
            ad = doms.get(a) or lookup(sp, a) or FULL
            alo, ahi = ad.ivs[0][0], ad.ivs[-1][1]
        if type(b) is int:
            bd, blo, bhi = None, b, b
        else:
            bd = doms.get(b) or lookup(sp, b) or FULL
            blo, bhi = bd.ivs[0][0], bd.ivs[-1][1]
        if type(c) is int:
            cd, clo, chi = None, c, c
        else:
            cd = doms.get(c) or lookup(sp, c) or FULL
            clo, chi = cd.ivs[0][0], cd.ivs[-1][1]
        # c within [alo*blo, ahi*bhi]
        lo, hi = alo * blo, ahi * bhi
        if lo > clo or hi < chi:
            if cd is None:
                return FAILED
            nd = cd.narrow_bounds(lo, hi)
            if narrow(vm, sp, c, cd, nd) is FAILED:
                return FAILED
            cd, clo, chi = nd, nd.ivs[0][0], nd.ivs[-1][1]
            if a is c:
                ad, alo, ahi = cd, clo, chi
            if b is c:
                bd, blo, bhi = cd, clo, chi
        # a within [clo/bhi, chi/blo]
        if bhi > 0:
            lo = -(-clo // bhi)
        elif clo == 0:
            lo = 0
        else:
            return FAILED          # c > 0 but b is stuck at 0
        hi = chi // blo if blo > 0 else None
        if lo > alo or (hi is not None and hi < ahi):
            if ad is None:
                return FAILED
            nd = ad.narrow_bounds(lo, hi)
            if narrow(vm, sp, a, ad, nd) is FAILED:
                return FAILED
            ad, alo, ahi = nd, nd.ivs[0][0], nd.ivs[-1][1]
            if b is a:
                bd, blo, bhi = ad, alo, ahi
            if c is a:
                cd, clo, chi = ad, alo, ahi
        # b within [clo/ahi, chi/alo]
        if ahi > 0:
            lo = -(-clo // ahi)
        elif clo == 0:
            lo = 0
        else:
            return FAILED
        hi = chi // alo if alo > 0 else None
        if lo > blo or (hi is not None and hi < bhi):
            if bd is None:
                return FAILED
            return narrow(vm, sp, b, bd, bd.narrow_bounds(lo, hi))
        if ad is None and bd is None and cd is None:
            _entailed(vm, self, (self.a, self.b, self.c))
        return OK


class DistinctProp:
    """All operands pairwise different: value propagation plus a pigeonhole
    check on the union of the remaining domains."""

    __slots__ = ("home", "vars", "queued")

    def __init__(self, home, vars_):
        self.home = home
        self.vars = vars_      # Var or int operands
        self.queued = False

    def copy(self, cp):
        return DistinctProp(None, tuple(cp(t) for t in self.vars))

    def run(self, vm):
        sp = self.home
        doms = sp.fd_domains
        fixed = []
        free = []
        for t in self.vars:
            if type(t) is Var and (t.ref is not None or t.spaces is not None):
                t = t.ref if type(t.ref) is int and t.spaces is None \
                    else vm.store.deref(t, sp)
            if type(t) is int:
                fixed.append(t)
            else:
                free.append((t, doms.get(t) or lookup(sp, t) or FULL))
        if len(set(fixed)) != len(fixed):
            return FAILED
        if not free:
            _entailed(vm, self, self.vars)
            return OK
        if len({var for var, _d in free}) != len(free):
            return FAILED          # two operands aliased to one var
        ivs = []
        for v in fixed:
            ivs.append((v, v))
        for var, d in free:
            nd = d
            for v in fixed:
                if nd.contains(v):
                    nd = nd.remove(v)
                    if nd is None:
                        return FAILED
            if nd is not d:
                if narrow(vm, sp, var, d, nd) is FAILED:
                    return FAILED
            ivs.extend(nd.ivs)
        # pigeonhole: the union must offer at least one value per operand
        ivs.sort()
        total = 0
        cur_lo, cur_hi = None, None
        for lo, hi in ivs:
            if cur_hi is None or lo > cur_hi + 1:
                if cur_hi is not None:
                    total += cur_hi - cur_lo + 1
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            total += cur_hi - cur_lo + 1
        if total < len(self.vars):
            return FAILED
        return OK


def _entailed(vm, prop, operands):
    """prop found its operands all determined: it leaves its home's
    propagator set and watcher lists for good.  An alias moves watchers to
    the variable it binds to, so each operand's alias chain is followed."""
    home = prop.home
    home.propagators.pop(prop, None)
    watchers = home.fd_watchers
    for t in operands:
        while type(t) is Var:
            ws = watchers.get(t)
            if ws is not None:
                ws.pop(prop, None)
                if not ws:
                    del watchers[t]
                    if t not in home.fd_domains and t not in home.bindings:
                        vm.store.unindex(t, home)
            t = _bound_to(home, t)


def _bound_to(sp, var):
    """What var is bound to as seen from sp, one step: no dereferencing."""
    while sp is not None:
        val = sp.bindings.get(var)
        if val is not None:
            return val
        sp = sp.parent
    return var.ref


def _register(vm, prop, operands):
    """Home a propagator, watch its variable operands, and schedule it."""
    home = prop.home
    home.propagators[prop] = None
    seen = set()
    for t in operands:
        if type(t) is Var and t not in seen:
            seen.add(t)
            _dom_or_declare(vm, home, t)
            _watch(vm, home, t)[prop] = None
    _enqueue(vm, prop)


# ----------------------------------------------------------------------
# clone and merge support

def clone_space_state(vm, old, new, cp):
    """Copy old's fd state into its clone; cp maps terms and Vars."""
    prop_map = {}
    for p in old.propagators:
        np = p.copy(cp)
        np.home = new
        new.propagators[np] = None
        prop_map[p] = np
    for var, dom in old.fd_domains.items():
        nv = cp(var)
        new.fd_domains[nv] = dom
        vm.store.index(nv, new)
    for var, ws in old.fd_watchers.items():
        _watch(vm, new, cp(var)).update(
            (prop_map[p], None) for p in ws if p in prop_map)


def adopt_into_parent(vm, s, parent):
    """Fold a merged space's fd state into its parent, before the merge
    releases s.  A domain entry that contradicts what the parent sees is
    skipped."""
    props, s.propagators = s.propagators, {}
    for var, dom in list(s.fd_domains.items()):
        cur = lookup(parent, var)
        nd = dom if cur is None else cur.intersect(dom)
        if nd is None:
            continue
        narrow(vm, parent, var, cur, nd)
    for p in props:
        p.home = parent
        parent.propagators[p] = None
    for var, ws in s.fd_watchers.items():
        _watch(vm, parent, var).update(ws)
    for p in props:
        _enqueue(vm, p)


# ----------------------------------------------------------------------
# builtins

def _operand(vm, t, sp):
    """t dereferenced in sp, an integer or a variable, else a type error."""
    t = vm.store.deref(t, sp)
    if type(t) is not int and type(t) is not Var:
        raise OzRaise(_error("type"))
    return t


def bi_fd_decl(vm, th, args, sp):
    ensure_installed(vm)
    x = _operand(vm, args[0], sp)
    if type(x) is Var:
        _dom_or_declare(vm, sp, x)
    elif not 0 <= x <= SUP:
        raise OzRaise(FAILURE)
    return None


def _tell_interval(vm, th, sp, t, lo, hi):
    if type(t) is int:
        if not lo <= t <= hi:
            raise OzRaise(FAILURE)
        return
    d = lookup(sp, t)
    if narrow(vm, sp, t, d, (d or FULL).narrow_bounds(lo, hi)) is FAILED:
        raise OzRaise(FAILURE)


def bi_fd_dom_tell_vec(vm, th, args, sp):
    """Constrain every variable or integer of a vector (a `_vec_terms` list
    or record, or a single variable, nested to any depth) to an interval
    given as lo#hi or a single integer; an open list tail is waited on, not
    constrained.  The vector is decoded before any element is constrained,
    and an element that occurs twice is constrained once (the second time
    was a no-op)."""
    ensure_installed(vm)
    store = vm.store
    lo = hi = spec = arg(vm, args[1], sp, int, Record)
    if type(spec) is Record:
        if spec.label != "#" or spec.arity() != (1, 2):
            raise OzRaise(_error("type"))
        lo = arg(vm, spec.feats[0][1], sp, int)
        hi = arg(vm, spec.feats[1][1], sp, int)
    if lo < 0 or hi > SUP or lo > hi:
        raise OzRaise(FAILURE)
    leaves = []
    stack = [args[0]]
    while stack:
        t = store.deref(stack.pop(), sp)
        if type(t) is Var or type(t) is int:
            leaves.append(t)
        else:
            stack.extend(_vec_terms(vm, t, sp))
    for t in dict.fromkeys(leaves):
        _tell_interval(vm, th, sp, t, lo, hi)
    return None


def _walk_list(vm, t, sp):
    """The elements of cons list t once its spine is determined; raises
    Wait on the spine's unbound tail until then."""
    store = vm.store
    out = []
    t = store.deref(t, sp)
    while is_cons(t):
        out.append(t.feats[0][1])
        t = store.deref(t.feats[1][1], sp)
    if type(t) is Var:
        raise Wait(t)
    if t != "nil":
        raise OzRaise(_error("type"))
    return out


def _vec_terms(vm, t, sp):
    """The elements of a vector: a cons list, nil, or any record's field
    values; raises Wait while the vector or its spine is unbound."""
    t = arg(vm, t, sp)
    if is_cons(t) or t == "nil":
        return _walk_list(vm, t, sp)
    if type(t) is not Record:
        raise OzRaise(_error("type"))
    return [v for _f, v in t.feats]


def bi_fd_lin_rel(vm, th, args, sp):
    """Post sum(ci*xi) rel k: args are the coefficient list, the variable
    list, the relation (eq, lt, leq) and the constant."""
    ensure_installed(vm)
    store = vm.store
    coeffs = _walk_list(vm, args[0], sp)
    terms = _walk_list(vm, args[1], sp)
    rel = arg(vm, args[2], sp, str)
    k = arg(vm, args[3], sp, int)
    coeffs = [arg(vm, c, sp) for c in coeffs]
    terms = [store.deref(t, sp) for t in terms]
    if rel not in ("eq", "lt", "leq") or len(coeffs) != len(terms) or \
            any(type(c) is not int for c in coeffs):
        raise OzRaise(_error("type"))
    if rel == "lt":
        rel, k = "leq", k - 1
    index = {}
    vs = []
    cs = []
    for c, t in zip(coeffs, terms):
        if type(t) is int:
            k -= c * t
        elif type(t) is Var:
            if t in index:
                cs[index[t]] += c
            else:
                index[t] = len(vs)
                vs.append(t)
                cs.append(c)
        else:
            raise OzRaise(_error("type"))
    keep_v = [v for v, c in zip(vs, cs) if c != 0]
    keep_c = [c for c in cs if c != 0]
    if not keep_v:
        sat = (k == 0) if rel == "eq" else (0 <= k)
        if not sat:
            raise OzRaise(FAILURE)
        return None
    prop = LinProp(sp, tuple(keep_c), tuple(keep_v), rel, k)
    _register(vm, prop, keep_v)
    return None


def bi_fd_mul_prop(vm, th, args, sp):
    """Post a*b = c whatever its operands: `_register` gives each variable
    a domain, and the propagator retires once all three are determined."""
    ensure_installed(vm)
    ops = [_operand(vm, t, sp) for t in args]
    if any(type(t) is int and t < 0 for t in ops):
        raise OzRaise(FAILURE)
    prop = MulProp(sp, *ops)
    _register(vm, prop, ops)
    return None


def bi_fd_distinct(vm, th, args, sp):
    """Post pairwise disequality over a list of variables and integers."""
    ensure_installed(vm)
    ts = [_operand(vm, t, sp) for t in _vec_terms(vm, args[0], sp)]
    prop = DistinctProp(sp, tuple(ts))
    _register(vm, prop, prop.vars)
    return None


def bi_fd_select_ff(vm, th, args, sp):
    """First-fail selection: bind the output to sel(X V) where X is an
    undetermined variable with the smallest domain in the list and V its
    least value, or to done when every element is determined."""
    store = vm.store
    best = None
    best_size = None
    for t in _vec_terms(vm, args[0], sp):
        t = store.deref(t, sp)
        if type(t) is Var:
            d = lookup(sp, t)
            if d is None or d.is_singleton():
                # an undeclared or not-yet-bound singleton is still pending
                return t
            sz = d.size()
            if best_size is None or sz < best_size:
                best, best_size = (t, d), sz
    if best is None:
        return vm.tell_th(th, args[1], "done")
    t, d = best
    return vm.tell_th(th, args[1], Record("sel", ((1, t), (2, d.min()))))


def bi_fd_excl(vm, th, args, sp):
    """Remove a value from a variable's domain."""
    ensure_installed(vm)
    store = vm.store
    x = store.deref(args[0], sp)
    v = arg(vm, args[1], sp, int)
    if type(x) is int:
        if x == v:
            raise OzRaise(FAILURE)
        return None
    if type(x) is not Var:
        raise OzRaise(_error("type"))
    d = lookup(sp, x) or FULL
    if d.contains(v) and narrow(vm, sp, x, d, d.remove(v)) is FAILED:
        raise OzRaise(FAILURE)
    return None


# arity includes the output argument, when there is one
FD_BUILTINS = {}
for _name, _arity, _fn in [
    ("FDDecl", 1, bi_fd_decl),
    ("FDDomTellVec", 2, bi_fd_dom_tell_vec),
    ("FDLinRel", 4, bi_fd_lin_rel),
    ("FDMulProp", 3, bi_fd_mul_prop),
    ("FDDistinct", 1, bi_fd_distinct),
    ("FDSelectFF", 2, bi_fd_select_ff),
    ("FDExcl", 2, bi_fd_excl),
]:
    FD_BUILTINS[_name] = Builtin(_name, _arity, _fn)
