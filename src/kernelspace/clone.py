"""Cloning a stable space: a deep copy of what the subtree can reach.

Everything homed inside the subtree gets a fresh identity: spaces, variables,
threads, propagators, and by-need triggers.  Everything homed outside is
shared: ancestor variables, cells, ports, names, and builtins are the same
objects.  Records are copied with sharing preserved (memoized on object
identity) and left untouched when no subtree variable occurs inside.  A
record's last field, a list's tail, is followed by a loop, so a list of
any length copies in constant host stack.

Variables are copied the way a copying collector copies (Cheney, CACM
1970): a variable homed in the subtree gets its copy when the copy first
reaches it, from the roots each space holds (its root variable, overlay
keys and values, thread frames, the variables threads wait on and the
answers of asks made in the subtree, fd domain keys, propagator operands
and watcher keys), and then from the in-place bindings and by-need
triggers of the variables already reached.  A variable nothing reaches is
not copied: what a space left behind as it ran costs its clones nothing.

Thread state is copied the same way.  A frame (the slot list of one
procedure activation, see vm.py) is mutable and may be shared by several
stack entries of one thread (a thread `thread` starts gets a copy), so
every frame is copied exactly once, memoized on identity like records, and
the copies are shared where the originals were.  A parked thread's frame
has already dropped the slots it will not read again, so a clone copies
nothing those slots held.  A closure holds a tuple of captured
values, copied when a subtree variable occurs in it.

The copy gives each new variable the copy of its original's in-place
binding and by-need trigger, parks each copied suspended thread on the copy
of the variable its original waits on, rebuilds each overlay with re-keyed
entries, keeps the asks pending inside the subtree, and reproduces a
pending choice point, so the clone is indistinguishable from the original
to every primitive operation.
"""

from __future__ import annotations

from .spaces import Space, heir, subtree
from .terms import Closure, Record, SpaceRef, Var, canonical_record
from .codegen import CatchMarker
from .vm import Thread


def clone_space(vm, s, caller_space):
    store = vm.store
    homes = store.homes

    old_spaces = list(subtree(s))

    space_map = {}           # old Space -> new Space
    for old in old_spaces:
        parent = space_map.get(old.parent, old.parent)
        space_map[old] = Space(parent, sid=vm.alloc_sid())

    vmap = {}                # old Var -> its copy, or itself if homed outside
    reached = []             # subtree Vars copied, in the order first reached

    memo = {}

    def cp(t):
        tt = type(t)
        if tt is Var:
            nv = vmap.get(t)
            if nv is None:
                home = space_map.get(homes[t.vid])
                if home is None:
                    nv = vmap[t] = t
                else:
                    nv = vmap[t] = store.new_var(home)
                    reached.append(t)
            return nv
        if tt is Record:
            # down the last fields (a list's tail) by a loop, then copy the
            # records from there back up
            spine = []
            while type(t) is Record and t.feats and id(t) not in memo:
                spine.append(t)
                t = t.feats[-1][1]
            out = memo.get(id(t), t) if type(t) is Record else cp(t)
            for r in reversed(spine):
                *front, (f, v) = r.feats
                changed = out is not v
                feats = []
                for f2, v in front:
                    v2 = cp(v)
                    changed = changed or v2 is not v
                    feats.append((f2, v2))
                feats.append((f, out))
                out = canonical_record(r.label, tuple(feats)) if changed else r
                memo[id(r)] = out
            return out
        if tt is Closure:
            i = id(t)
            hit = memo.get(i)
            if hit is not None:
                return hit
            captured = tuple([cp(v) for v in t.captured])
            changed = any(a is not b for a, b in zip(captured, t.captured))
            out = (Closure(t.arity, t.body, captured, t.pad) if changed
                   else t)
            memo[i] = out
            return out
        if tt is SpaceRef:
            ns = space_map.get(t.space)
            return t if ns is None else SpaceRef(ns)
        return t             # ints, atoms, names, cells, ports, builtins

    # overlays: re-keyed entries, all on variables homed above their space,
    # indexed for the tells of ancestors
    for old in old_spaces:
        new = space_map[old]
        for var, value in old.bindings.items():
            nv = cp(var)
            new.bindings[nv] = cp(value)
            store.index(nv, new)
        new.root_var = cp(old.root_var)

    # threads: a stable space has only suspended and blocked ones, and a
    # blocked one gets its resume value only when a commit wakes it.  Every
    # frame is copied, even one with no subtree variable, because a later
    # `local` or `case` in the copy writes its slots.
    def cp_frame(fr):
        i = id(fr)
        hit = memo.get(i)
        if hit is None:
            hit = memo[i] = [cp(v) for v in fr]
        return hit

    for old in old_spaces:
        new = space_map[old]
        tmap = {}
        for t in old.threads:
            vm.next_tid += 1
            nt = Thread(vm.next_tid, new)
            for entry in t.stack:
                if type(entry) is CatchMarker:
                    nt.stack.append(CatchMarker(entry.slot, entry.handler,
                                                cp_frame(entry.frame)))
                else:
                    stmt, fr = entry
                    nt.stack.append((stmt, cp_frame(fr)))
            nt.state = t.state
            new.threads[nt] = None
            tmap[t] = nt
            if t.state == "suspended":
                nt.wait_var = cp(t.wait_var)
                store.suspend(nt.wait_var, nt)
            elif t.state != "blocked":
                raise AssertionError(f"clone saw a {t.state} thread")
        if old.pending_choose is not None:
            bt, n = old.pending_choose
            new.pending_choose = (tmap[bt], n)
        # an Ask, or the stability wait of Commit, Clone or Merge, made in
        # the subtree is answered in the copy too
        for ans_var, asker in old.ask_waiters:
            ns = space_map.get(heir(asker))
            if ns is not None:
                new.ask_waiters.append((cp(ans_var), ns))

    # finite-domain state (domains, propagators, watcher lists)
    need_fd = any(old.fd_domains or old.propagators for old in old_spaces)
    if need_fd:
        from . import fd
        for old in old_spaces:
            fd.clone_space_state(vm, old, space_map[old], cp)

    # the in-place bindings and by-need triggers of the variables reached,
    # which may reach more: the loop also scans what it appends
    for var in reached:
        nv = vmap[var]
        if var.ref is not None:
            nv.ref = cp(var.ref)
        if var.trigger is not None:
            nv.trigger = cp(var.trigger)

    # cp and cp_frame refer to themselves and hold the working tables and
    # the store: dropping them lets reference counting free it all now
    del cp, cp_frame
    return space_map[s]
