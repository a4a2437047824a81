"""Finite-domain constraints.

A finite-domain variable is an ordinary store variable that carries a domain,
a finite set of integers in [0, SUP].  Domains live in per-space overlays
(Space.fd_domains) with the same visibility rule as bindings: a space sees
the nearest entry on its ancestor chain, and an entry in a space is always a
subset of what the parent sees.  Narrowing a domain to a single value binds
the variable in that space; binding a variable to an integer narrows its
domain; anything else is a domain lookup away.

Propagators are bounds-consistent (values-consistent for distinct) and are
homed in the space that posted them.  They watch variables through per-space
watcher tables and are re-run through a global agenda that the VM drains
after every reduction, so between reductions propagation is always at a
fixpoint and space stability can be read off directly.
"""

from __future__ import annotations

from . import spaces as spaces_mod
from .store import FAILED, Need, OK
from .terms import Record, Var, record_get

SUP = 134217726


def _floor_div(a, b):
    return a // b


def _ceil_div(a, b):
    return -((-a) // b)


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
        out = []
        for a, b in self.ivs:
            if lo is not None and b < lo:
                continue
            if hi is not None and a > hi:
                break
            if lo is not None and a < lo:
                a = lo
            if hi is not None and b > hi:
                b = hi
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

def lookup(sp, vid):
    """Nearest domain entry for vid visible from sp, or None."""
    s = sp
    while s is not None:
        d = s.fd_domains.get(vid)
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


def _wake_and_revalidate(vm, sp, vid, nd):
    """After vid's domain shrank to nd in sp: wake the subtree's watchers
    and push the narrowing into descendant overlay entries."""
    stack = [sp]
    while stack:
        cur = stack.pop()
        if cur is not sp:
            ent = cur.fd_domains.get(vid)
            if ent is not None:
                inter = ent.intersect(nd)
                if inter is None:
                    spaces_mod.fail_space(vm, cur)
                    continue
                if inter.ivs != ent.ivs:
                    cur.fd_domains[vid] = inter
                    if inter.is_singleton():
                        _bind_value(vm, cur, vid, inter.value())
                        if not cur.alive():
                            continue
        ws = cur.fd_watchers.get(vid)
        if ws:
            for p in ws:
                _enqueue(vm, p)
        stack.extend(cur.children)


def _bind_value(vm, sp, vid, value):
    """Bind vid to its now-singleton value in sp.  Failure fails sp (or is
    reported if sp is the top space)."""
    r = vm.store.unify(Var(vid), value, sp, fire=True)
    if r is FAILED:
        if sp.parent is None:
            return FAILED
        spaces_mod.fail_space(vm, sp)
        return FAILED
    if type(r) is Need:
        # a by-need variable got determined by propagation: fire the trigger
        # and let the supplier thread do the actual bind
        vm.fire_need(r.vid)
    return OK


def narrow(vm, sp, vid, nd, bind=True):
    """Install domain nd (a subset of the visible one) for vid in sp.

    Binds on singletons, wakes watchers in sp's subtree, and revalidates
    descendant entries.  Returns OK, or FAILED when nd is empty or the
    singleton bind contradicts the store.  Never fails sp itself; the caller
    decides (propagator failure vs. failed tell in a thread).
    """
    if nd is None:
        return FAILED
    cur = lookup(sp, vid)
    if cur is not None and nd.ivs == cur.ivs:
        return OK
    sp.fd_domains[vid] = nd
    if bind and nd.is_singleton():
        if _bind_value(vm, sp, vid, nd.value()) is FAILED:
            return FAILED
    _wake_and_revalidate(vm, sp, vid, nd)
    return OK


def _dom_or_declare(vm, sp, vid):
    d = lookup(sp, vid)
    if d is None:
        d = FULL
        sp.fd_domains[vid] = d
    return d


# ----------------------------------------------------------------------
# store hooks

def _on_bind(vm, vid, value, space):
    d = lookup(space, vid)
    if d is None:
        return OK
    if type(value) is not int:
        return FAILED
    if not d.contains(value):
        return FAILED
    if not d.is_singleton():
        nd = FDomain(((value, value),))
        space.fd_domains[vid] = nd
        _wake_and_revalidate(vm, space, vid, nd)
    return OK


def _on_alias(vm, src, dst, space):
    """src is being aliased to dst in space: fold src's domain state into
    dst's, visible from space downward."""
    vs = lookup(space, src)
    if vs is not None:
        vd = lookup(space, dst)
        nd = vs if vd is None else vd.intersect(vs)
        if nd is None:
            return FAILED
        if vd is None or nd.ivs != vd.ivs:
            space.fd_domains[dst] = nd
            _wake_and_revalidate(vm, space, dst, nd)
    # Walk the subtree top-down folding per-space src entries into the dst
    # view (entries written higher up are already visible through lookup)
    # and migrating watcher registrations from src to dst.
    stack = [space]
    while stack:
        cur = stack.pop()
        ent = cur.fd_domains.pop(src, None)
        if cur is not space and ent is not None:
            vis = lookup(cur, dst)
            tgt = ent if vis is None else vis.intersect(ent)
            if tgt is None:
                spaces_mod.fail_space(vm, cur)
                continue
            if vis is None or tgt.ivs != vis.ivs:
                cur.fd_domains[dst] = tgt
                if tgt.is_singleton():
                    _bind_value(vm, cur, dst, tgt.value())
                    if not cur.alive():
                        continue
                _wake_and_revalidate(vm, cur, dst, tgt)
        ws = cur.fd_watchers.pop(src, None)
        if ws:
            cur.fd_watchers.setdefault(dst, {}).update(ws)
            for p in ws:
                _enqueue(vm, p)
        stack.extend(cur.children)
    if vs is not None:
        final = lookup(space, dst)
        if final is not None and final.is_singleton() and \
                not vm.store.is_det(Var(dst), space):
            # the alias bind (src -> dst) is still in flight; settle dst now
            if _bind_value(vm, space, dst, final.value()) is FAILED:
                return FAILED
    return OK


def ensure_installed(vm):
    if vm._fd_drain is not None:
        return
    vm._fd_drain = drain
    vm.store.fd_bind_fn = lambda vid, value, space: _on_bind(vm, vid, value, space)
    vm.store.fd_alias_fn = lambda src, dst, space: _on_alias(vm, src, dst, space)


# ----------------------------------------------------------------------
# the agenda

def drain(vm):
    """Run queued propagators to fixpoint.  Called by the VM after any
    reduction that left the agenda non-empty, so stability checks never see
    pending propagation."""
    agenda = vm.fd_agenda
    top_failed = False
    while agenda:
        touched = {}
        while agenda:
            p = agenda.popleft()
            p.queued = False
            home = p.home
            home.fd_queued -= 1
            if home.discarded:
                continue
            touched[home] = None
            if p.run(vm) is FAILED:
                if home.parent is None:
                    top_failed = True
                elif home.alive():
                    spaces_mod.fail_space(vm, home)
        # spaces whose last pending propagator just ran may now be stable
        for sp in touched:
            if sp.alive():
                spaces_mod.maybe_answer(vm, sp)
    if top_failed:
        from .vm import FAILURE, OzRaise
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
        store = vm.store
        k = self.k
        n = len(self.vars)
        los = [0] * n
        his = [0] * n
        doms = [None] * n
        for i in range(n):
            t = store.deref(self.vars[i], sp)
            c = self.coeffs[i]
            if type(t) is int:
                lo = hi = t
            else:
                d = lookup(sp, t.vid) or FULL
                doms[i] = (t.vid, d)
                lo, hi = d.min(), d.max()
            los[i], his[i] = (c * lo, c * hi) if c > 0 else (c * hi, c * lo)
        totlo = sum(los)
        tothi = sum(his)
        if totlo > k or (self.rel == "eq" and tothi < k):
            return FAILED
        for i in range(n):
            if doms[i] is None:
                continue
            vid, d = doms[i]
            c = self.coeffs[i]
            restlo = totlo - los[i]
            resthi = tothi - his[i]
            # c*xi <= k - restlo, and for eq also c*xi >= k - resthi
            ub = k - restlo
            if self.rel == "eq":
                lb = k - resthi
                if c > 0:
                    qlo, qhi = _ceil_div(lb, c), _floor_div(ub, c)
                else:
                    qlo, qhi = _ceil_div(ub, c), _floor_div(lb, c)
            else:
                if c > 0:
                    qlo, qhi = None, _floor_div(ub, c)
                else:
                    qlo, qhi = _ceil_div(ub, c), None
            if (qlo is not None and qlo > d.min()) or \
               (qhi is not None and qhi < d.max()):
                if narrow(vm, sp, vid, d.narrow_bounds(qlo, qhi)) is FAILED:
                    return FAILED
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
        m = lambda t: cp(t) if type(t) is Var else t
        return MulProp(None, m(self.a), m(self.b), m(self.c))

    def _bounds(self, vm, t):
        if type(t) is int:
            return None, t, t
        t = vm.store.deref(t, self.home)
        if type(t) is int:
            return None, t, t
        d = lookup(self.home, t.vid) or FULL
        return t.vid, d.min(), d.max()

    def run(self, vm):
        sp = self.home
        av, alo, ahi = self._bounds(vm, self.a)
        bv, blo, bhi = self._bounds(vm, self.b)
        cv, clo, chi = self._bounds(vm, self.c)
        if self._narrow_to(vm, cv, clo, chi, alo * blo, ahi * bhi) is FAILED:
            return FAILED
        # refresh c's bounds before dividing through
        cv, clo, chi = self._bounds(vm, self.c)
        lo = _ceil_div(clo, bhi) if bhi > 0 else (0 if clo == 0 else None)
        hi = _floor_div(chi, blo) if blo > 0 else None
        if lo is None:
            return FAILED          # c > 0 but b is stuck at 0
        if self._narrow_to(vm, av, alo, ahi, lo, hi) is FAILED:
            return FAILED
        av, alo, ahi = self._bounds(vm, self.a)
        lo = _ceil_div(clo, ahi) if ahi > 0 else (0 if clo == 0 else None)
        hi = _floor_div(chi, alo) if alo > 0 else None
        if lo is None:
            return FAILED
        return self._narrow_to(vm, bv, blo, bhi, lo, hi)

    def _narrow_to(self, vm, vid, lo, hi, nlo, nhi):
        if nhi is not None and nhi < nlo:
            return FAILED
        if vid is None:
            if lo < nlo or (nhi is not None and hi > nhi):
                return FAILED
            return OK
        if nlo <= lo and (nhi is None or nhi >= hi):
            return OK
        d = lookup(self.home, vid) or FULL
        return narrow(vm, self.home, vid, d.narrow_bounds(nlo, nhi))


class DistinctProp:
    """All operands pairwise different: value propagation plus a pigeonhole
    check on the union of the remaining domains."""

    __slots__ = ("home", "vars", "queued")

    def __init__(self, home, vars_):
        self.home = home
        self.vars = vars_      # Var or int operands
        self.queued = False

    def copy(self, cp):
        return DistinctProp(
            None, tuple(cp(t) if type(t) is Var else t for t in self.vars))

    def run(self, vm):
        sp = self.home
        store = vm.store
        fixed = []
        free = []
        for t in self.vars:
            if type(t) is not int:
                t = store.deref(t, sp)
            if type(t) is int:
                fixed.append(t)
            else:
                free.append((t.vid, lookup(sp, t.vid) or FULL))
        if len(set(fixed)) != len(fixed):
            return FAILED
        ivs = []
        for v in fixed:
            ivs.append((v, v))
        for vid, d in free:
            nd = d
            for v in fixed:
                if nd.contains(v):
                    nd = nd.remove(v)
                    if nd is None:
                        return FAILED
            if nd is not d:
                if narrow(vm, sp, vid, nd) is FAILED:
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


def _register(vm, prop, operands):
    """Home a propagator, watch its variable operands, and schedule it."""
    home = prop.home
    home.propagators[prop] = None
    seen = set()
    for t in operands:
        if type(t) is Var and t.vid not in seen:
            seen.add(t.vid)
            _dom_or_declare(vm, home, t.vid)
            home.fd_watchers.setdefault(t.vid, {})[prop] = None
    _enqueue(vm, prop)


# ----------------------------------------------------------------------
# clone and merge support

def clone_space_state(vm, old, new, vmap, cp):
    """Copy old's fd state into its clone; cp maps terms, vmap maps vids."""
    prop_map = {}
    for p in old.propagators:
        np = p.copy(cp)
        np.home = new
        new.propagators[np] = None
        prop_map[p] = np
    for vid, dom in old.fd_domains.items():
        new.fd_domains[vmap.get(vid, vid)] = dom
    for vid, ws in old.fd_watchers.items():
        new.fd_watchers[vmap.get(vid, vid)] = {
            prop_map[p]: None for p in ws if p in prop_map}


def adopt_into_parent(vm, s, parent):
    """Fold a merged space's fd state into its parent.  Returns False when a
    domain entry contradicts what the parent sees."""
    ok = True
    doms, s.fd_domains = s.fd_domains, {}
    props, s.propagators = s.propagators, {}
    watchers, s.fd_watchers = s.fd_watchers, {}
    for vid, dom in doms.items():
        cur = lookup(parent, vid)
        nd = dom if cur is None else cur.intersect(dom)
        if nd is None:
            ok = False
            continue
        if cur is None or nd.ivs != cur.ivs:
            if narrow(vm, parent, vid, nd) is FAILED:
                ok = False
    for p in props:
        p.home = parent
        parent.propagators[p] = None
    for vid, ws in watchers.items():
        parent.fd_watchers.setdefault(vid, {}).update(ws)
    for p in props:
        _enqueue(vm, p)
    return ok


# ----------------------------------------------------------------------
# builtins

def _fail_tell(vm):
    from .vm import FAILURE, OzRaise
    raise OzRaise(FAILURE)


def _type_err():
    from .vm import OzRaise, _error
    raise OzRaise(_error("type"))


def bi_fd_decl(vm, th, args, sp):
    ensure_installed(vm)
    x = vm.store.deref(args[0], sp)
    if type(x) is int:
        if not 0 <= x <= SUP:
            _fail_tell(vm)
        return None
    if type(x) is not Var:
        _type_err()
    _dom_or_declare(vm, sp, x.vid)
    return None


def _tell_interval(vm, th, sp, t, lo, hi):
    if type(t) is int:
        if not lo <= t <= hi:
            _fail_tell(vm)
        return
    d = lookup(sp, t.vid) or FULL
    if narrow(vm, sp, t.vid, d.narrow_bounds(lo, hi)) is FAILED:
        _fail_tell(vm)


def bi_fd_dom_tell_vec(vm, th, args, sp):
    """Constrain every element of a vector (list, record, or single
    variable) to an interval given as lo#hi or a single integer."""
    ensure_installed(vm)
    store = vm.store
    spec = store.deref(args[1], sp)
    if type(spec) is int:
        lo = hi = spec
    elif type(spec) is Record and spec.label == "#" and len(spec.feats) == 2:
        lo = store.deref(record_get(spec, 1), sp)
        hi = store.deref(record_get(spec, 2), sp)
        if type(lo) is not int or type(hi) is not int:
            _type_err()
    else:
        _type_err()
    if lo < 0 or hi > SUP or lo > hi:
        _fail_tell(vm)
    stack = [args[0]]
    while stack:
        t = store.deref(stack.pop(), sp)
        if type(t) is Var or type(t) is int:
            _tell_interval(vm, th, sp, t, lo, hi)
        elif t == "nil":
            continue
        elif type(t) is Record:
            for _f, v in t.feats:
                stack.append(v)
        else:
            _type_err()
    return None


def _walk_list(vm, t, sp):
    """Deref a determined cons list into a Python list of elements."""
    store = vm.store
    out = []
    t = store.deref(t, sp)
    while True:
        if type(t) is Record and t.label == "|" and len(t.feats) == 2:
            out.append(record_get(t, 1))
            t = store.deref(record_get(t, 2), sp)
        elif t == "nil":
            return out
        else:
            _type_err()


def _vec_terms(vm, t, sp):
    """Elements of a vector: a cons list, nil, or any record's field values."""
    store = vm.store
    t = store.deref(t, sp)
    if t == "nil":
        return []
    if type(t) is Record and t.label == "|" and len(t.feats) == 2:
        return _walk_list(vm, t, sp)
    if type(t) is Record:
        return [v for _f, v in t.feats]
    _type_err()


def bi_fd_lin_rel(vm, th, args, sp):
    """Post sum(ci*xi) rel k: args are the coefficient list, the variable
    list, the relation (eq, lt, leq) and the constant."""
    ensure_installed(vm)
    store = vm.store
    coeffs = [store.deref(c, sp) for c in _walk_list(vm, args[0], sp)]
    terms = [store.deref(t, sp) for t in _walk_list(vm, args[1], sp)]
    rel = store.deref(args[2], sp)
    k = store.deref(args[3], sp)
    if type(k) is not int or rel not in ("eq", "lt", "leq") or \
            len(coeffs) != len(terms) or \
            any(type(c) is not int for c in coeffs):
        _type_err()
    if rel == "lt":
        rel, k = "leq", k - 1
    by_vid = {}
    vs = []
    cs = []
    for c, t in zip(coeffs, terms):
        if type(t) is int:
            k -= c * t
        elif type(t) is Var:
            if t.vid in by_vid:
                cs[by_vid[t.vid]] += c
            else:
                by_vid[t.vid] = len(vs)
                vs.append(t)
                cs.append(c)
        else:
            _type_err()
    keep_v = [v for v, c in zip(vs, cs) if c != 0]
    keep_c = [c for c in cs if c != 0]
    if not keep_v:
        sat = (k == 0) if rel == "eq" else (0 <= k)
        if not sat:
            _fail_tell(vm)
        return None
    prop = LinProp(sp, tuple(keep_c), tuple(keep_v), rel, k)
    _register(vm, prop, keep_v)
    return None


def bi_fd_mul_prop(vm, th, args, sp):
    """Post a*b = c."""
    ensure_installed(vm)
    store = vm.store
    a = store.deref(args[0], sp)
    b = store.deref(args[1], sp)
    c = store.deref(args[2], sp)
    for t in (a, b, c):
        if type(t) is not int and type(t) is not Var:
            _type_err()
        if type(t) is int and t < 0:
            _fail_tell(vm)
    if type(a) is int and type(b) is int:
        return vm.tell_th(th, c, a * b)
    if type(a) is int or type(b) is int:
        # one factor is known: m*v = c is linear
        m, v = (a, b) if type(a) is int else (b, a)
        if m == 0:
            # zero times anything: the other factor stays unconstrained
            return vm.tell_th(th, c, 0)
        if type(c) is Var:
            prop = LinProp(sp, (m, -1), (v, c), "eq", 0)
        else:
            prop = LinProp(sp, (m,), (v,), "eq", c)
        _register(vm, prop, prop.vars)
        return None
    prop = MulProp(sp, a, b, c)
    _register(vm, prop, (a, b, c))
    return None


def bi_fd_distinct(vm, th, args, sp):
    """Post pairwise disequality over a list of variables and integers."""
    ensure_installed(vm)
    store = vm.store
    ts = [store.deref(t, sp) for t in _vec_terms(vm, args[0], sp)]
    for t in ts:
        if type(t) is not int and type(t) is not Var:
            _type_err()
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
            d = lookup(sp, t.vid)
            if d is None or d.is_singleton():
                # an undeclared or not-yet-bound singleton is still pending
                return vm.need(t)
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
    v = store.deref(args[1], sp)
    if type(v) is not int:
        if type(v) is Var:
            return vm.need(v)
        _type_err()
    if type(x) is int:
        if x == v:
            _fail_tell(vm)
        return None
    if type(x) is not Var:
        _type_err()
    d = lookup(sp, x.vid) or FULL
    if not d.contains(v):
        return None
    if narrow(vm, sp, x.vid, d.remove(v)) is FAILED:
        _fail_tell(vm)
    return None


FD_BUILTINS = {
    "FDDecl": bi_fd_decl,
    "FDDomTellVec": bi_fd_dom_tell_vec,
    "FDLinRel": bi_fd_lin_rel,
    "FDMulProp": bi_fd_mul_prop,
    "FDDistinct": bi_fd_distinct,
    "FDSelectFF": bi_fd_select_ff,
    "FDExcl": bi_fd_excl,
}
