"""Cloning a stable space: a deep copy of the whole subtree.

Everything homed inside the subtree gets a fresh identity: spaces, variables,
threads, propagators, and by-need triggers.  Everything homed outside is
shared: ancestor variables keep their vids, cells, ports, names, and builtins
are the same objects.  Record spines are copied with sharing preserved
(memoized on object identity) and left untouched when no subtree variable
occurs inside, so large ground structures cost nothing.

The copy re-registers suspensions with the store, rebuilds each overlay with
re-keyed entries, and reproduces a pending choice point, so the clone is
indistinguishable from the original to every primitive operation.
"""

from __future__ import annotations

from .spaces import Space
from .terms import Closure, Record, SpaceRef, Var
from .vm import CatchMarker, Thread


def clone_space(vm, s, caller_space):
    store = vm.store

    old_spaces = []

    def collect(sp):
        old_spaces.append(sp)
        for c in sp.children:
            collect(c)

    collect(s)

    space_map = {}           # old Space -> new Space
    for old in old_spaces:
        parent = space_map.get(old.parent, old.parent)
        space_map[old] = Space(parent, sid=vm.alloc_sid())

    vmap = {}                # old vid -> new vid
    for old in old_spaces:
        new = space_map[old]
        for vid in old.own_vars:
            nv = store.new_var(new)
            vmap[vid] = nv.vid

    memo = {}

    def cp(t):
        tt = type(t)
        if tt is Var:
            nv = vmap.get(t.vid)
            return t if nv is None else Var(nv)
        if tt is Record:
            i = id(t)
            hit = memo.get(i)
            if hit is not None:
                return hit
            changed = False
            feats = []
            for f, v in t.feats:
                v2 = cp(v)
                if v2 is not v:
                    changed = True
                feats.append((f, v2))
            out = Record(t.label, feats) if changed else t
            memo[i] = out
            return out
        if tt is Closure:
            i = id(t)
            hit = memo.get(i)
            if hit is not None:
                return hit
            changed = False
            env = {}
            for k, v in t.env.items():
                v2 = cp(v)
                if v2 is not v:
                    changed = True
                env[k] = v2
            out = Closure(t.params, t.body, env) if changed else t
            memo[i] = out
            return out
        if tt is SpaceRef:
            ns = space_map.get(t.space)
            return t if ns is None else SpaceRef(ns)
        return t             # ints, atoms, names, cells, ports, builtins

    # overlays: re-keyed entries; those on variables homed above the new
    # space are registered for ancestor revalidation
    homes = store.homes
    for old in old_spaces:
        new = space_map[old]
        for vid, value in old.bindings.items():
            nvid = vmap.get(vid, vid)
            new.bindings[nvid] = cp(value)
            if homes[nvid] is not new:
                store.entry_spaces.setdefault(nvid, {})[new] = None
        new.root_var = cp(old.root_var) if old.root_var is not None else None

    # by-need triggers on subtree variables
    for old in old_spaces:
        for vid in old.own_vars:
            tr = store.triggers.get(vid)
            if tr is not None:
                proc, home = tr
                store.triggers[vmap[vid]] = (cp(proc), space_map.get(home, home))

    # threads: a stable space has only suspended and blocked ones
    def cp_env(env):
        return {k: cp(v) for k, v in env.items()}

    for old in old_spaces:
        new = space_map[old]
        tmap = {}
        for t in old.threads:
            vm.next_tid += 1
            nt = Thread(vm.next_tid, new)
            for entry in t.stack:
                if type(entry) is CatchMarker:
                    nt.stack.append(CatchMarker(entry.var, entry.handler,
                                                cp_env(entry.env)))
                else:
                    stmt, env = entry
                    nt.stack.append((stmt, cp_env(env)))
            nt.state = t.state
            nt.resume_value = t.resume_value
            new.threads[nt] = None
            tmap[t] = nt
            if t.state == "suspended":
                nt.wait_vid = vmap.get(t.wait_vid, t.wait_vid)
                store.suspend(nt.wait_vid, nt)
            elif t.state != "blocked":
                raise AssertionError(f"clone saw a {t.state} thread")
        if old.pending_choose is not None:
            bt, n = old.pending_choose
            new.pending_choose = (tmap[bt], n)

    # finite-domain state (domains, propagators, watcher lists)
    need_fd = any(old.fd_domains or old.propagators for old in old_spaces)
    if need_fd:
        from . import fd
        for old in old_spaces:
            fd.clone_space_state(vm, old, space_map[old], vmap, cp)

    return space_map[s]
