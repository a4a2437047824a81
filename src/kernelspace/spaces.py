"""First-class computation spaces.

A space is a node in a tree rooted at the top-level space.  It owns a binding
overlay (see store.py), the threads whose home it is, the propagators posted
in it, and at most one pending choice point.  Stability is a property of the
whole subtree: a space is stable when nothing outside the subtree can ever
wake it, which operationally means no thread in the subtree is runnable, no
propagator is queued, and no thread in the subtree is suspended on a variable
homed in a proper ancestor of the space.

The seven primitive operations (new_space, choose, ask, commit, clone,
inject, merge) are exposed both as host functions here and as language
builtins wired up in stdlib.py.  `ask` registers an answer variable that is
bound when the space becomes stable.

Lifecycle: a space is created by new_space or clone, runs until it is stable,
and ends failed or merged, or stays alive for as long as the VM runs.  A space
that fails takes its subtree with it; a space that merges hands its
variables, threads, live children and fd state to its parent.  Either way
the dead space is detached from its parent's `children` (which therefore
holds live spaces only) and emptied: overlay, domains, watchers,
propagators, own variables and threads.  What remains is a small record
(sid, parent, flags) that a SpaceRef may still hold, so Ask on it still
answers `failed` and the other operations still raise.
"""

from __future__ import annotations

from .errors import UsageError
from .store import FAILED, is_ancestor
from .terms import Record, SpaceRef, Var

STATUS_FAILED = "failed"
STATUS_SUCCEEDED = "succeeded"
STATUS_MERGED = "merged"
STATUS_ALTERNATIVES = "alternatives"   # record alternatives(n)
STATUS_SUSPENDED = "suspended"         # not stable; never given to ask waiters


class Space:
    def __init__(self, parent, sid=0):
        self.sid = sid                # a label for traces and the space log
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children = {}            # live child spaces (ordered set)
        self.bindings = {}
        self.own_vars = []            # vids homed here, for clone and merge
        self.root_var = None
        self.threads = {}             # live threads homed here (ordered set)
        self.runnable = 0             # runnable threads in the whole subtree
        self.pending_choose = None    # (thread, n) when a Choose is blocked
        self.ask_waiters = []         # (answer Var, asking space)
        self.failed = False
        self.merged = False
        self.discarded = False        # failed or merged: no further bindings
        self.fd_domains = {}          # vid -> FDomain overlay
        self.fd_watchers = {}         # vid -> propagators posted here (ordered)
        self.propagators = {}         # ordered set
        self.fd_queued = 0            # propagator runs waiting in the agenda
        if parent is not None:
            parent.children[self] = None

    def alive(self):
        return not self.failed and not self.merged

    def __repr__(self):
        return f"Space({self.sid})"


def _check_child(caller_space, s, op):
    parent = s.parent
    while parent.merged:             # a merge handed s to the merger's parent
        parent = parent.parent
    if parent is not caller_space:
        raise UsageError(f"{op}: space is not a child of the calling space")


def fail_space(vm, sp):
    """Fail sp: flag and empty its subtree, answer its ask waiters, then
    kill the subtree's threads.

    The answer must be told before any subtree thread dies: killing first
    would briefly drop an ancestor's runnable count to zero and let a
    stability check classify it while the failure notification is still
    undelivered, so a driver thread waiting on this space would be missed.
    """
    if not sp.alive():
        return
    if sp.parent is None:
        raise UsageError("the top-level space cannot fail")
    del sp.parent.children[sp]
    dead, stack = [], [sp]
    while stack:                     # preorder, children in creation order
        d = stack.pop()
        dead.append(d)
        stack.extend(reversed(d.children))
        d.failed = d.discarded = True
        d.pending_choose = None
        d.children = {}
        d.propagators.clear()
        d.fd_domains.clear()
        d.fd_watchers.clear()
        vm.store.release(d)
    for d in dead[1:]:
        d.ask_waiters = []           # every asker below sp is dead too
    _answer_waiters(vm, sp, STATUS_FAILED)
    for d in dead:
        for t in list(d.threads):
            vm.kill_thread(t)
        d.threads.clear()


def _answer_waiters(vm, sp, status):
    waiters, sp.ask_waiters = sp.ask_waiters, []
    for ans_var, ans_space in waiters:
        if ans_space.alive():
            vm.tell(ans_var, _status_term(status, sp), ans_space)


def _status_term(status, sp):
    if status is STATUS_ALTERNATIVES:
        return Record("alternatives", ((1, sp.pending_choose[1]),))
    return status


# ----------------------------------------------------------------------
# stability

def classify(vm, sp):
    """Status of a quiescent space, or STATUS_SUSPENDED if not stable.

    Precondition: no runnable thread in the subtree (sp.runnable == 0) and
    propagation has reached its fixpoint.
    """
    if sp.failed:
        return STATUS_FAILED
    if sp.merged:
        return STATUS_MERGED
    homes = vm.store.homes
    stack = [sp]
    while stack:
        cur = stack.pop()
        if cur.fd_queued:
            return STATUS_SUSPENDED       # propagation still pending
        for t in cur.threads:
            if t.state == "suspended":
                home = homes[t.wait_vid]
                if home is not sp and is_ancestor(home, sp):
                    return STATUS_SUSPENDED
        stack.extend(cur.children)
    if sp.pending_choose is not None:
        return STATUS_ALTERNATIVES
    return STATUS_SUCCEEDED


def maybe_answer(vm, sp):
    """Answer pending asks if sp has become stable."""
    if sp.runnable != 0 or not sp.ask_waiters or not sp.alive():
        return
    status = classify(vm, sp)
    if status is STATUS_SUSPENDED:
        return
    _answer_waiters(vm, sp, status)


# ----------------------------------------------------------------------
# the seven operations

def new_space(vm, proc_term, caller_space):
    """Create a child space running {proc Root}; returns its SpaceRef."""
    if caller_space.discarded:
        raise UsageError("new_space in a discarded space")
    sp = Space(caller_space, sid=vm.alloc_sid())
    root = vm.store.new_var(sp)
    sp.root_var = root
    vm.spawn_call(proc_term, [root], sp)
    return SpaceRef(sp)


def choose(vm, thread, n):
    """Block `thread` on a choice point with n alternatives.

    The thread resumes when a commit picks an alternative; the chosen index
    is delivered through thread.resume_value.
    """
    sp = thread.space
    if sp.parent is None:
        raise UsageError("choose in the top-level space")
    if n < 1:
        raise UsageError("choose needs at least one alternative")
    if sp.pending_choose is not None:
        raise UsageError("second choice point in one space")
    sp.pending_choose = (thread, n)
    vm.trace_event(thread, f"choose({n})")
    vm.block_thread(thread)


def ask(vm, s, ans_var, caller_space):
    """Bind ans_var to s's status once s is stable."""
    _check_child(caller_space, s, "ask")
    if s.merged:
        raise UsageError("ask on a merged space")
    if s.failed:
        vm.tell(ans_var, STATUS_FAILED, caller_space)
        return
    s.ask_waiters.append((ans_var, caller_space))
    maybe_answer(vm, s)


def commit(vm, s, i, caller_space):
    """Pick alternative i of a distributable space; wakes its choice thread."""
    _check_child(caller_space, s, "commit")
    if s.merged:
        raise UsageError("commit on a merged space")
    if s.failed:
        raise UsageError("commit on a failed space")
    if s.runnable != 0 or classify(vm, s) is not STATUS_ALTERNATIVES:
        raise UsageError("commit on a space that is not distributable")
    thread, n = s.pending_choose
    if not 1 <= i <= n:
        raise UsageError(f"commit index {i} outside 1..{n}")
    s.pending_choose = None
    vm.trace_event(thread, f"commit({i})")
    vm.resume_thread(thread, i)


def clone(vm, s, caller_space):
    """Deep copy of a stable space; returns the new space's SpaceRef."""
    _check_child(caller_space, s, "clone")
    if s.merged:
        raise UsageError("clone on a merged space")
    if s.failed:
        raise UsageError("clone on a failed space")
    if s.runnable != 0 or classify(vm, s) is STATUS_SUSPENDED:
        raise UsageError("clone on a space that is not stable")
    from .clone import clone_space
    return SpaceRef(clone_space(vm, s, caller_space))


def inject(vm, s, proc_term, caller_space):
    """Run {proc Root} in an existing space; may wake a stable space."""
    _check_child(caller_space, s, "inject")
    if s.merged:
        raise UsageError("inject on a merged space")
    if s.failed:
        raise UsageError("inject on a failed space")
    vm.spawn_call(proc_term, [s.root_var], s)


def merge(vm, s, caller_space):
    """Fold a succeeded space into its parent; returns the root term.

    Local variables and residual suspended threads are adopted by the
    parent; overlay entries for ancestor variables are told in the parent,
    where they may fail like any tell.
    """
    _check_child(caller_space, s, "merge")
    if s.merged:
        raise UsageError("merge on a merged space")
    if s.failed:
        raise UsageError("merge on a failed space")
    if s.runnable != 0:
        raise UsageError("merge on a space that is not stable")
    status = classify(vm, s)
    if status is not STATUS_SUCCEEDED:
        raise UsageError(f"merge on a space with status {status}")
    parent = s.parent
    store = vm.store
    # adopt local variables and threads
    for vid in s.own_vars:
        store.homes[vid] = parent
    parent.own_vars.extend(s.own_vars)
    s.own_vars = []
    for t in list(s.threads):
        t.space = parent
        parent.threads[t] = None
    s.threads.clear()
    # live child spaces are re-parented; depth fields go stale by one but
    # relative order along any ancestor chain is preserved, which is all the
    # alias heuristic needs
    del parent.children[s]
    for c in s.children:
        c.parent = parent
        parent.children[c] = None
    s.children = {}
    s.merged = True
    s.discarded = True
    entries = list(s.bindings.items())
    store.release(s)
    # move fd state into the parent
    if s.fd_domains or s.fd_watchers or s.propagators:
        from . import fd
        fd.adopt_into_parent(vm, s, parent)
    failure = False
    for vid, value in entries:
        # the parent may already see a binding from its own chain, so this
        # is a full tell, not a blind overlay copy
        if store.unify(Var(vid), value, parent, fire=False) is FAILED:
            failure = True
            break
    _answer_waiters(vm, s, STATUS_MERGED)
    return s.root_var, failure
