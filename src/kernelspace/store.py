"""Constraint store over rational trees: bindings in place, speculation in
per-space overlays.

A variable is one `Var` object, made by `new_var` in its home space.  A
binding made in the home space holds for good in that space and everything
below it, so it is stored in the variable itself (`Var.ref`).  A binding
made in a proper descendant of the home is speculative: it goes into the
binding space's overlay, a dict from Var to term, and is visible in that
space and its descendants only.  A space may bind only variables homed in
itself or an ancestor, and the top-level space has no ancestor, so its
overlay stays empty: what a program binds at top level is reachable only
through the variables themselves.

The binding of a variable as seen from a space is the first overlay entry
on the chain from that space up to the root, and `ref` only if there is
none.  The overlays come first because a descendant's speculation must
shadow a later in-place binding by an ancestor until revalidation has
checked that the two agree, or failed the descendant.

A variable also carries what waits on it: `Var.waiters`, the list the
owner parks on it, woken when it is bound, and `Var.trigger`, its by-need
trigger until that fires.  A tell that would determine a variable with a
trigger stops and returns that variable, so the caller can fire the
trigger and park.

A variable indexes the live spaces below its home that hold state for it,
an overlay binding or fd's domain entry or watcher list (`Var.spaces`).
`below` reads it for the push-down of a binding into descendant overlays,
the fd hook and fd revalidation, so no tell walks a subtree, and `deref`
reads `ref` alone when it is empty.  So a Var with no `ref` and no
`spaces` is unbound in every space and derefs to itself from each of
them, and one with an integer `ref` and no `spaces` is that integer in
each; fd's propagator runs rely on this to skip `deref` for both.
When a space fails or merges, `release` unindexes it.

A variable's home is recorded once: `homes[vid]` is the `Home` of the
space that made it.  Merging a space points its Home, and those it had
absorbed, at the parent, and failing it points them at None (spaces.py):
a write per space, none per variable, and a failed space's variables die
with their last reference.

Unification is an incremental tell: bindings created before an inconsistency
is discovered are kept, and their suspensions are woken.  `pairs`, the one
walk over two terms side by side, serves unification, the `==` builtin
(vm.py) and the equality of literal operands (kernel.Lit), so the three
agree on what is the same structure.  Its visited pair set makes it end
on cyclic structures (rational trees), which gives coinductive equality
for free: two cyclic terms unify iff their infinite unfoldings agree.

The store knows nothing about threads or propagators.  The owner installs
callbacks: `wake_fn` receives a newly bound variable, its waiter list
(taken off the variable, for the owner to wake or park again) and the
binding space, `fail_space_fn` is invoked when a binding made in an
ancestor contradicts a descendant overlay entry, and `fd_tell_fn`, the one
fd hook, sees every binding before it is made, to a value or to another
variable, and keeps finite domains consistent with it.
"""

from __future__ import annotations

from .errors import UsageError
from .terms import (Builtin, CellRef, Closure, Name, PortRef, Record,
                    SpaceRef, Var)

OK = "ok"
FAILED = "failed"


def is_ancestor(a, b) -> bool:
    """True iff space `a` is `b` or a proper ancestor of `b`."""
    while b is not None:
        if a is b:
            return True
        b = b.parent
    return False


class Home:
    """Where one space's variables live: it, its heir, or None if failed."""
    __slots__ = ("space",)

    def __init__(self, space):
        self.space = space


class Store:
    def __init__(self):
        self.homes = []            # vid -> the Home of the space that made it
        self.wake_fn = None
        self.fail_space_fn = None
        # installed by the fd module when domains are in play
        self.fd_tell_fn = None     # (Var, term, space) -> OK | FAILED

    # ------------------------------------------------------------------
    # variables and lookup

    def new_var(self, space) -> Var:
        if space.discarded:
            raise UsageError("new_var in a failed or merged space")
        var = Var(len(self.homes))
        self.homes.append(space.home)
        return var

    def deref(self, t, space):
        """Follow bindings visible from `space` to a value or an unbound Var."""
        hops = 0
        seen = None
        while type(t) is Var:
            sp = space if t.spaces is not None else None
            while sp is not None:
                val = sp.bindings.get(t)
                if val is not None:
                    break
                sp = sp.parent
            else:
                val = t.ref
                if val is None:
                    return t
            hops += 1
            if hops > 32:
                # circular alias chains (vars bound to each other across
                # overlays) denote a set of equal unbound variables
                if seen is None:
                    seen = set()
                if t in seen:
                    return t
                seen.add(t)
            t = val
        return t

    def is_det(self, t, space) -> bool:
        return type(self.deref(t, space)) is not Var

    def index(self, var, sp):
        if self.homes[var.vid].space is not sp:
            var.spaces = var.spaces or {}
            var.spaces[sp] = None

    def unindex(self, var, sp):
        if var.spaces is not None:
            var.spaces.pop(sp, None)
            var.spaces = var.spaces or None

    def below(self, var, space):
        """var's indexed spaces strictly below `space`, top-down: ascending
        sid, as a space is made after its ancestors."""
        return sorted([sp for sp in var.spaces or ()
                       if sp is not space and is_ancestor(space, sp)],
                      key=lambda sp: sp.sid)

    # ------------------------------------------------------------------
    # suspensions

    def suspend(self, var, waiter):
        if var.waiters is None:
            var.waiters = [waiter]
        else:
            var.waiters.append(waiter)

    # ------------------------------------------------------------------
    # binding

    def bind(self, var, value, space):
        """Bind var to value as seen from `space` and wake its watchers.

        In var's home space the binding goes into var itself; below the home
        it goes into `space`'s overlay.  The caller must have established
        that var is unbound as seen from `space`.  Returns OK or FAILED (an
        fd domain may reject the value, or a descendant overlay may hold a
        contradictory speculation, in which case that descendant space is
        failed, not this tell).
        """
        if self.fd_tell_fn is not None:
            if self.fd_tell_fn(var, value, space) is FAILED:
                return FAILED
        if self.homes[var.vid].space is space:
            assert var.ref is None, "binding monotonicity violated"
            var.ref = value
        else:
            assert var not in space.bindings, "binding monotonicity violated"
            space.bindings[var] = value
            self.index(var, space)
        waiters = var.waiters
        if waiters:
            var.waiters = None
            if self.wake_fn is not None:
                self.wake_fn(var, waiters, space)
        # a new ancestor binding must be pushed into descendant overlays that
        # speculated about the same variable
        for sp in self.below(var, space) if var.spaces else ():
            if not sp.discarded and var in sp.bindings:
                r = self.unify(value, var, sp, fire=False)
                if r is FAILED and self.fail_space_fn is not None:
                    self.fail_space_fn(sp)
        return OK

    def release(self, space, *held):
        """Forget a failed or merged space: its overlay and the owner's
        tables `held` (keyed by Var) with their index entries.  Its own
        variables are the caller's to re-home through their `Home`."""
        for table in (space.bindings, *held):
            for var in table:
                self.unindex(var, space)
            table.clear()

    def _alias(self, u, v, space):
        """Bind one unbound var to another; returns OK or FAILED."""
        ut, vt = u.trigger is not None, v.trigger is not None
        if ut != vt:
            src, dst = (v, u) if ut else (u, v)      # keep the trigger var free
        else:
            uh, vh = self.homes[u.vid].space, self.homes[v.vid].space
            if uh is not vh:
                # both homes are on the chain above `space`; binding the
                # one homed deeper points descendants at ancestors
                src, dst = (u, v) if is_ancestor(vh, uh) else (v, u)
            else:
                src, dst = (u, v) if u.vid > v.vid else (v, u)
        return self.bind(src, dst, space)

    # ------------------------------------------------------------------
    # unification

    def unify(self, a, b, space, fire=True):
        """Tell a = b in `space`.

        Returns OK, FAILED, or the by-need Var when the tell would determine
        one (only when `fire` is true; revalidation and propagator-driven
        tells bind through triggers).  The caller should fire its trigger
        and park on it; the tell is retried once the trigger has produced a
        value.  Bindings already made stay in place (incremental tell).
        """
        for a, b in pairs(a, b, self.deref, space):
            if type(a) is Var:
                if type(b) is Var:
                    r = self._alias(a, b, space)
                elif fire and a.trigger is not None:
                    return a
                else:
                    r = self.bind(a, b, space)
            elif type(b) is Var:
                if fire and b.trigger is not None:
                    return b
                r = self.bind(b, a, space)
            else:
                return FAILED
            if r is not OK:
                return r
        return OK


def pairs(a, b, deref, space):
    """Walk terms a and b side by side, left to right, as seen from `space`:
    yield each pair with an unbound Var on a side, then the first pair of
    values that differ, and stop.  A pair is dereferenced when the walk
    reaches it, so what the consumer binds shows further on.  Records of
    equal label and arity are walked into, once per pair of records, so
    the walk ends on rational trees.  Ints and atoms are the same by value,
    names by nid, space references by space, and the rest by identity.
    """
    stack = [(a, b)]
    seen = None
    while stack:
        a, b = stack.pop()
        a = deref(a, space)
        b = deref(b, space)
        if a is b:
            continue
        ta = type(a)
        tb = type(b)
        if ta is Var or tb is Var:
            yield a, b
            continue
        if ta is not tb:
            break
        if ta is int or ta is str:
            if a == b:
                continue
            break
        if ta is Record:
            if a.label != b.label or len(a.feats) != len(b.feats):
                break
            if seen is None:
                seen = set()
            key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
            if key in seen:
                continue
            seen.add(key)
            if a.arity() != b.arity():
                break
            # LIFO stack: push reversed so the walk goes left to right,
            # which fixes which prefix a failing tell keeps
            for (_, v1), (_, v2) in zip(reversed(a.feats), reversed(b.feats)):
                stack.append((v1, v2))
            continue
        if ta is Name:
            if a.nid == b.nid:
                continue
        elif ta is SpaceRef:
            if a.space is b.space:
                continue
        elif (ta is not Closure and ta is not CellRef and ta is not PortRef
              and ta is not Builtin):
            raise UsageError(f"not a term: {a!r}")
        break
    else:
        return
    yield a, b              # the first pair of values that differ
