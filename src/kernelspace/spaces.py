"""First-class computation spaces: the space tree, the seven operations,
and the builtins that expose them (`SPACE_BUILTINS`).

A space is a node in a tree rooted at the top-level space.  It binds in
place the variables homed in it, which it does not list, and owns an
overlay of speculative bindings of variables homed above it (store.py),
the threads whose home it is, its propagators and at most one choice point.
Stability is a property of the whole subtree (`subtree` is the one walk of
it): a space is stable when nothing outside the subtree can ever wake it,
which operationally means no thread in the subtree is runnable, no
propagator is queued, and no thread in the subtree is suspended on a
variable homed in a proper ancestor of the space.  `status` reads it.

Ask, commit, clone, inject and merge share one operand check: the space is
a child of the caller and has neither failed nor merged (ask still answers
`failed`).  Misuse raises UsageError, which a builtin turns into
error(kind:space).  A builtin decodes all its arguments with `arg`, which
raises Wait on one that is not determined yet (the scheduler parks the
thread on it, which makes it needed), then commit, clone and merge wait
for stability, parked like an ask on a hidden variable, and hand the
status they read to the host operation, which does not read it again.

Lifecycle: a space is created by new_space or clone, runs until it is stable,
and ends failed or merged, or stays alive for as long as the VM runs.  A space
that fails takes its subtree with it; a space that merges hands its
variables (bound in place or not, by-need triggers included), threads,
live children and fd state to its parent, and tells its overlay entries
there.  The parent is then the merged space's heir (`heir`, used only in
this module).  Operations on the merged space's children expect the heir
as their caller, and the answer to an Ask the merged space made, or to the
stability wait of its Commit, Clone or Merge, is told in the heir, where
the adopted threads wait for it.  Either way the dead space is detached
from its parent's `children` (which therefore holds live spaces only),
marked `discarded` with how it ended, unindexed (store.py) and emptied:
overlay, domains, watchers, propagators, threads, and a failed space's
root.  What remains (sid, parent, `discarded`) a SpaceRef may hold, so
Ask on it still answers `failed` and the other operations still raise.
"""

from __future__ import annotations

from .errors import FAILURE, OzRaise, UsageError, Wait, _error, arg
from .store import FAILED, Home, is_ancestor
from .terms import Builtin, Closure, Record, SpaceRef

STATUS_FAILED = "failed"
STATUS_SUCCEEDED = "succeeded"
STATUS_MERGED = "merged"
STATUS_ALTERNATIVES = "alternatives"   # record alternatives(n)
STATUS_SUSPENDED = "suspended"         # not stable; never given to ask waiters

BLOCKED = object()      # returned by Choose: the thread is parked on commit


class Space:
    def __init__(self, parent, sid=0):
        self.sid = sid                # a label for trace events
        self.parent = parent
        self.children = {}            # live child spaces (ordered set)
        self.bindings = {}            # Var -> term: speculative bindings of
                                      # Vars homed in proper ancestors
        self.home = Home(self)        # what the Vars made here point to
        self.absorbed = []            # Homes of spaces merged in (not top)
        self.root_var = None
        self.threads = {}             # live threads homed here (ordered set)
        self.runnable = 0             # runnable threads in the whole subtree
        self.pending_choose = None    # (thread, n) when a Choose is blocked
        self.ask_waiters = []         # (answer Var, asking space)
        self.discarded = None         # STATUS_FAILED or _MERGED once ended
        self.fd_domains = {}          # Var -> FDomain overlay, for Vars
                                      # homed here or above
        self.fd_watchers = {}         # Var -> propagators posted here (ordered)
        self.propagators = {}         # ordered set
        self.fd_queued = 0            # propagator runs waiting in the agenda
        if parent is not None:
            parent.children[self] = None

    def alive(self):
        return not self.discarded

    def __repr__(self):
        return f"Space({self.sid})"


def subtree(sp):
    """sp and its descendants, preorder, children in creation order; the
    caller may detach the children of a space it is given."""
    stack = [sp]
    while stack:
        cur = stack.pop()
        stack.extend(reversed(cur.children))
        yield cur


def heir(sp):
    """sp, or the space that merges handed sp's work to."""
    while sp.discarded is STATUS_MERGED:
        sp = sp.parent
    return sp


def _check_operand(s, caller_space, op, failed_ok=False):
    """s must be a child of the calling space that has not merged, nor
    failed unless `failed_ok`."""
    if heir(s.parent) is not caller_space:
        raise UsageError(f"{op}: space is not a child of the calling space")
    if s.discarded is STATUS_MERGED or (s.discarded and not failed_ok):
        raise UsageError(f"{op} on a {s.discarded} space")


def fail_space(vm, sp):
    """Fail sp: flag and empty its subtree, answer its ask waiters, kill
    the subtree's threads, then answer the ancestors that are now stable.

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
    dead = list(subtree(sp))
    for d in dead:
        d.discarded = STATUS_FAILED
        d.pending_choose = None
        d.children = {}
        d.propagators.clear()
        d.root_var = d.home.space = None
        for h in d.absorbed:
            h.space = None
        d.absorbed = []
        vm.store.release(d, d.fd_domains, d.fd_watchers)
    for d in dead[1:]:
        d.ask_waiters = []           # every asker below sp is dead too
    _answer_waiters(vm, sp, STATUS_FAILED)
    for d in dead:
        for t in list(d.threads):
            vm.kill_thread(t)
        d.threads.clear()
    # a killed suspended thread leaves the runnable counts alone, so no
    # ancestor it kept from being stable is read again otherwise
    settle(vm, sp.parent)


def _answer_waiters(vm, sp, status):
    if status is STATUS_ALTERNATIVES:
        status = Record("alternatives", ((1, sp.pending_choose[1]),))
    waiters, sp.ask_waiters = sp.ask_waiters, []
    for ans_var, ans_space in waiters:
        # an asker that merged has handed its waiting threads to its heir
        ans_space = heir(ans_space)
        if not ans_space.discarded:
            vm.tell(ans_var, status, ans_space)


# ----------------------------------------------------------------------
# stability

def status(vm, sp):
    """sp's status, or STATUS_SUSPENDED while it is not stable."""
    if sp.runnable != 0:
        return STATUS_SUSPENDED
    return classify(vm, sp)


def classify(vm, sp):
    """status(vm, sp) once no thread in sp's subtree is runnable."""
    if sp.discarded:
        return sp.discarded
    homes = vm.store.homes
    for cur in subtree(sp):
        if cur.fd_queued:
            return STATUS_SUSPENDED       # propagation still pending
        for t in cur.threads:
            if t.state == "suspended":
                home = homes[t.wait_var.vid].space
                if home is not sp and is_ancestor(home, sp):
                    return STATUS_SUSPENDED
    if sp.pending_choose is not None:
        return STATUS_ALTERNATIVES
    return STATUS_SUCCEEDED


def maybe_answer(vm, sp):
    """Answer pending asks if sp has become stable."""
    if sp.ask_waiters:
        st = status(vm, sp)
        if st is not STATUS_SUSPENDED:
            _answer_waiters(vm, sp, st)


def settle(vm, sp):
    """Answer the pending asks of sp and of each ancestor that is stable.
    A failure or propagation below a space can leave it stable without a
    thread of its subtree finishing or parking, which is when it is read
    otherwise.  `status` still waits for propagation: a queued propagator
    keeps its home and every ancestor unstable, and a running one queues
    itself again with its first narrowing, before that can fail a space."""
    while sp is not None:
        maybe_answer(vm, sp)
        sp = sp.parent


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
    vm.event(thread, "choose", n)
    vm.block_thread(thread)


def ask(vm, s, ans_var, caller_space):
    """Bind ans_var to s's status once s is stable; a failed s answers at
    once."""
    _check_operand(s, caller_space, "ask", failed_ok=True)
    s.ask_waiters.append((ans_var, caller_space))
    maybe_answer(vm, s)


def commit(vm, s, i, caller_space, st):
    """Pick alternative i of a distributable space, whose status is st;
    wakes its choice thread."""
    _check_operand(s, caller_space, "commit")
    if st is not STATUS_ALTERNATIVES:
        raise UsageError("commit on a space that is not distributable")
    thread, n = s.pending_choose
    if not 1 <= i <= n:
        raise UsageError(f"commit index {i} outside 1..{n}")
    s.pending_choose = None
    vm.event(thread, "commit", i)
    vm.resume_thread(thread, i)


def clone(vm, s, caller_space, st):
    """Deep copy of a stable space, whose status is st; returns the new
    space's SpaceRef."""
    _check_operand(s, caller_space, "clone")
    if st is STATUS_SUSPENDED:
        raise UsageError("clone on a space that is not stable")
    from .clone import clone_space
    return SpaceRef(clone_space(vm, s, caller_space))


def inject(vm, s, proc_term, caller_space):
    """Run {proc Root} in an existing space; may wake a stable space."""
    _check_operand(s, caller_space, "inject")
    vm.spawn_call(proc_term, [s.root_var], s)


def merge(vm, s, caller_space, st):
    """Fold a succeeded space, whose status is st, into its parent; returns
    the root term.

    Local variables, with their in-place bindings, and residual suspended
    threads are adopted by the parent; overlay entries, all on ancestor
    variables, are told in the parent, where they may fail like any tell.
    """
    _check_operand(s, caller_space, "merge")
    if st is not STATUS_SUCCEEDED:
        raise UsageError(f"merge on a space with status {st}")
    parent = s.parent
    store = vm.store
    # adopt local variables, through the Homes, and threads
    moved = [s.home, *s.absorbed]
    for h in moved:
        h.space = parent
    if parent.parent is not None:    # the top space keeps none
        parent.absorbed.extend(moved)
    s.absorbed = []
    for t in list(s.threads):
        t.space = parent
        parent.threads[t] = None
    s.threads.clear()
    # live child spaces are re-parented
    del parent.children[s]
    for c in s.children:
        c.parent = parent
        parent.children[c] = None
    s.children = {}
    s.discarded = STATUS_MERGED
    entries = list(s.bindings.items())
    # move fd state into the parent
    if s.fd_domains or s.fd_watchers or s.propagators:
        from . import fd
        fd.adopt_into_parent(vm, s, parent)
    store.release(s, s.fd_domains, s.fd_watchers)
    failure = False
    for var, value in entries:
        # the parent may already see a binding from its own chain, so this
        # is a full tell, not a blind overlay copy
        if store.unify(var, value, parent, fire=False) is FAILED:
            failure = True
            break
    _answer_waiters(vm, s, STATUS_MERGED)
    return s.root_var, failure


# ----------------------------------------------------------------------
# the builtins


def _catch_usage(fn):
    """Space-operation misuse surfaces as a catchable error(kind:space)."""
    def wrapped(vm, th, args, sp):
        try:
            return fn(vm, th, args, sp)
        except UsageError:
            raise OzRaise(_error("space")) from None
    return wrapped


def _await_stable(vm, s, sp):
    """s's status once s is stable; until then raises Wait with a hidden
    status Var, which maybe_answer binds."""
    st = status(vm, s)
    if st is not STATUS_SUSPENDED:
        return st
    w = vm.store.new_var(sp)
    s.ask_waiters.append((w, sp))
    raise Wait(w)


def bi_newspace(vm, th, args, sp):
    ref = new_space(vm, arg(vm, args[0], sp, Closure, Builtin), sp)
    vm.event(th, "newspace", ref.space.sid)
    return vm.tell_th(th, args[1], ref)


def bi_choose(vm, th, args, sp):
    if th.resume_value is not None:
        i = th.resume_value
        th.resume_value = None
        return vm.tell_th(th, args[1], i)
    choose(vm, th, arg(vm, args[0], sp, int))
    return BLOCKED


def bi_ask(vm, th, args, sp):
    s = arg(vm, args[0], sp, SpaceRef).space
    vm.event(th, "ask", s.sid)
    ask(vm, s, args[1], sp)


def bi_commit(vm, th, args, sp):
    s = arg(vm, args[0], sp, SpaceRef).space
    i = arg(vm, args[1], sp, int)
    commit(vm, s, i, sp, _await_stable(vm, s, sp))


def bi_clone(vm, th, args, sp):
    s = arg(vm, args[0], sp, SpaceRef).space
    new = clone(vm, s, sp, _await_stable(vm, s, sp))
    vm.event(th, "clone", s.sid, new.space.sid)
    return vm.tell_th(th, args[1], new)


def bi_inject(vm, th, args, sp):
    s = arg(vm, args[0], sp, SpaceRef).space
    p = arg(vm, args[1], sp, Closure, Builtin)
    vm.event(th, "inject", s.sid)
    inject(vm, s, p, sp)


def bi_merge(vm, th, args, sp):
    s = arg(vm, args[0], sp, SpaceRef).space
    st = _await_stable(vm, s, sp)
    vm.event(th, "merge", s.sid)
    root, failed = merge(vm, s, sp, st)
    if failed:
        raise OzRaise(FAILURE)
    return vm.tell_th(th, args[1], root)


SPACE_BUILTINS = {}
for _name, _arity, _fn in [
    ("NewSpace", 2, bi_newspace),
    ("Choose", 2, bi_choose),
    ("Ask", 2, bi_ask),
    ("Commit", 2, bi_commit),
    ("Clone", 2, bi_clone),
    ("Inject", 2, bi_inject),
    ("Merge", 2, bi_merge),
]:
    SPACE_BUILTINS[_name] = Builtin(_name, _arity, _catch_usage(_fn))
