"""Constraint store over rational trees with per-space binding overlays.

Each computation space owns an overlay: a dict from variable id to term.  The
binding of a variable as seen from a space is found by walking that space's
overlay chain up to the root; the first entry wins.  A space may bind only
variables homed in itself or an ancestor, so an entry is visible exactly in
the binding space and its descendants.

A binding made in an ancestor must be pushed into descendant overlays that
speculated about the same variable.  `entry_spaces` indexes those overlays:
it lists a space under a variable only when the variable is homed in a
proper ancestor of the space, because no other binding can reach the entry
(a space's own variables are invisible above it).  When a space fails or
merges, `release` drops its index entries, and its own variables lose their
home (the `homes` slot becomes None), waiters and by-need trigger.

Unification is an incremental tell: bindings created before an inconsistency
is discovered are kept, and their suspensions are woken.  A visited pair set
makes unification terminate on cyclic structures (rational trees), and the
same trick gives coinductive equality for free: two cyclic terms unify iff
their infinite unfoldings agree.

The store knows nothing about threads or propagators.  The owner installs
callbacks: `wake_fn` receives the waiter list of a newly bound variable,
`fail_space_fn` is invoked when a binding made in an ancestor contradicts a
descendant overlay entry, and the fd hooks keep finite domains consistent
with bindings.
"""

from __future__ import annotations

from .errors import UsageError
from .terms import (Builtin, CellRef, Closure, Name, PortRef, Record,
                    SpaceRef, Var)

OK = "ok"
FAILED = "failed"


class Need:
    """Unification stopped because it would bind a by-need variable.

    The caller should suspend on the variable and fire its trigger; the tell
    is retried once the trigger has produced a value.  Bindings already made
    stay in place (incremental tell).
    """

    __slots__ = ("vid",)

    def __init__(self, vid):
        self.vid = vid


def is_ancestor(a, b) -> bool:
    """True iff space `a` is `b` or a proper ancestor of `b`."""
    while b is not None:
        if a is b:
            return True
        b = b.parent
    return False


class Store:
    def __init__(self):
        self.homes = []            # vid -> home space, None once it failed
        self.susp = {}             # vid -> list of waiters, sparse
        self.triggers = {}         # vid -> trigger token, removed when fired
        self.entry_spaces = {}     # vid -> spaces below its home with an entry
        self.wake_fn = None
        self.fail_space_fn = None
        # fd hooks, installed by the fd module when domains are in play
        self.fd_bind_fn = None     # (vid, int, space) -> OK | FAILED
        self.fd_alias_fn = None    # (src_vid, dst_vid, space) -> OK | FAILED

    # ------------------------------------------------------------------
    # variables and lookup

    def new_var(self, home) -> Var:
        if home.discarded:
            raise UsageError("new_var in a failed or merged space")
        vid = len(self.homes)
        self.homes.append(home)
        home.own_vars.append(vid)
        return Var(vid)

    def deref(self, t, space):
        """Follow bindings visible from `space` to a value or an unbound Var."""
        hops = 0
        seen = None
        while type(t) is Var:
            vid = t.vid
            sp = space
            while sp is not None:
                val = sp.bindings.get(vid)
                if val is not None:
                    break
                sp = sp.parent
            else:
                return t
            t = val
            hops += 1
            if hops > 32:
                # circular alias chains (vars bound to each other across
                # overlays) denote a set of equal unbound variables
                if seen is None:
                    seen = set()
                if vid in seen:
                    return Var(vid)
                seen.add(vid)
        return t

    def is_det(self, t, space) -> bool:
        return type(self.deref(t, space)) is not Var

    # ------------------------------------------------------------------
    # suspensions

    def suspend(self, vid, waiter):
        self.susp.setdefault(vid, []).append(waiter)

    def has_trigger(self, vid) -> bool:
        return vid in self.triggers

    # ------------------------------------------------------------------
    # binding

    def _wake(self, vid):
        waiters = self.susp.pop(vid, None)
        if waiters and self.wake_fn is not None:
            self.wake_fn(waiters)

    def bind(self, vid, value, space):
        """Record vid -> value in `space`'s overlay and wake watchers.

        The caller must have established that vid is unbound as seen from
        `space`.  Returns OK or FAILED (an fd domain may reject the value, or
        a descendant overlay may hold a contradictory speculation, in which
        case that descendant space is failed, not this tell).
        """
        assert vid not in space.bindings, "binding monotonicity violated"
        if self.fd_bind_fn is not None and type(value) is not Var:
            if self.fd_bind_fn(vid, value, space) is FAILED:
                return FAILED
        space.bindings[vid] = value
        if self.homes[vid] is not space:
            self.entry_spaces.setdefault(vid, {})[space] = None
        self._wake(vid)
        # a new ancestor binding must be pushed into descendant overlays that
        # speculated about the same variable
        entries = self.entry_spaces.get(vid)
        if entries:
            for sp in list(entries):
                if sp.discarded:
                    continue
                if sp is not space and is_ancestor(space, sp):
                    r = self.unify(value, Var(vid), sp, fire=False)
                    if r is FAILED and self.fail_space_fn is not None:
                        self.fail_space_fn(sp)
        return OK

    def release(self, space):
        """Forget a failed or merged space: its overlay and index entries,
        and its remaining own variables' homes, waiters and triggers."""
        index = self.entry_spaces
        for vid in space.bindings:
            entries = index.get(vid)
            if entries is not None:
                entries.pop(space, None)
                if not entries:
                    del index[vid]
        space.bindings.clear()
        for vid in space.own_vars:
            self.homes[vid] = None
            self.susp.pop(vid, None)
            self.triggers.pop(vid, None)
        space.own_vars = []

    def _alias(self, u, v, space, fire):
        """Bind one unbound var to another; returns OK/FAILED or Need."""
        ut, vt = u.vid in self.triggers, v.vid in self.triggers
        if ut != vt:
            src, dst = (v, u) if ut else (u, v)      # keep the trigger var free
        else:
            uh, vh = self.homes[u.vid], self.homes[v.vid]
            if uh.depth != vh.depth:
                # descendant entries point at ancestor variables
                src, dst = (u, v) if uh.depth > vh.depth else (v, u)
            else:
                src, dst = (u, v) if u.vid > v.vid else (v, u)
        if self.fd_alias_fn is not None:
            if self.fd_alias_fn(src.vid, dst.vid, space) is FAILED:
                return FAILED
        return self.bind(src.vid, dst, space)

    # ------------------------------------------------------------------
    # unification

    def unify(self, a, b, space, fire=True):
        """Tell a = b in `space`.

        Returns OK, FAILED, or Need(vid) when the tell would determine a
        by-need variable (only when `fire` is true; revalidation and
        propagator-driven tells bind through triggers).
        """
        stack = [(a, b)]
        seen = None
        deref = self.deref
        while stack:
            a, b = stack.pop()
            a = deref(a, space)
            b = deref(b, space)
            if a is b:
                continue
            ta = type(a)
            tb = type(b)
            if ta is Var:
                if tb is Var:
                    if a.vid == b.vid:
                        continue
                    r = self._alias(a, b, space, fire)
                else:
                    if fire and a.vid in self.triggers:
                        return Need(a.vid)
                    r = self.bind(a.vid, b, space)
                if r is not OK:
                    return r
                continue
            if tb is Var:
                if fire and b.vid in self.triggers:
                    return Need(b.vid)
                if self.bind(b.vid, a, space) is FAILED:
                    return FAILED
                continue
            if ta is not tb:
                return FAILED
            if ta is int or ta is str:
                if a == b:
                    continue
                return FAILED
            if ta is Record:
                if a.label != b.label or len(a.feats) != len(b.feats):
                    return FAILED
                if seen is None:
                    seen = set()
                key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
                if key in seen:
                    continue
                seen.add(key)
                if a.arity() != b.arity():
                    return FAILED
                # LIFO stack: push reversed so sub-tells run left to right,
                # which fixes which prefix survives a failing tell
                for (_, v1), (_, v2) in zip(reversed(a.feats), reversed(b.feats)):
                    stack.append((v1, v2))
                continue
            if ta is Closure:
                if a.cid != b.cid:
                    return FAILED
            elif ta is Name:
                if a.nid != b.nid:
                    return FAILED
            elif ta is SpaceRef:
                if a.space is not b.space:
                    return FAILED
            elif ta is CellRef or ta is PortRef or ta is Builtin:
                return FAILED          # a is not b: each is equal to itself
            else:
                raise UsageError(f"not a term: {a!r}")
        return OK

    # ------------------------------------------------------------------
    # ask-side checks

    def entails_pattern(self, x, label, featnames, space):
        """Can x match label(f1:_ ... fn:_) as seen from `space`?

        Returns ('yes', [feature terms]), 'no', or ('unknown', vid): the
        verdict is decided exactly when x is determined, so a case statement
        suspends on that one variable.
        """
        t = self.deref(x, space)
        if type(t) is Var:
            return ("unknown", t.vid)
        if type(t) is not Record:
            return "no"
        if t.label != label or t.arity() != featnames:
            return "no"
        return ("yes", [v for _, v in t.feats])

    def entails_literal(self, x, lit, space):
        """Same protocol for a literal (int or atom) pattern."""
        t = self.deref(x, space)
        if type(t) is Var:
            return ("unknown", t.vid)
        if type(t) is type(lit) and t == lit:
            return ("yes", [])
        return "no"
