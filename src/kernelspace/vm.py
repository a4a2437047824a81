"""The abstract machine: threads, scheduler, and core builtins.

Execution is a round-robin over a FIFO queue of runnable threads.  A thread
holds a stack of (statement, environment) frames; one dispatched frame is one
reduction.  A thread keeps the processor for up to `slice_` reductions, then
goes to the back of the queue, which gives weak fairness.

Suspension is by retry: a handler that finds an undetermined variable where a
value is needed returns its vid; the frame is pushed back and the thread
parks on that variable.  Binding the variable wakes every parked thread and
each re-executes its frame from scratch, so handlers must keep their side
effects after their last possible suspension point.

Exceptions unwind the frame stack to the nearest catch marker.  A failed tell
raises the catchable record failure(debug:unit); when any exception reaches
the bottom of a thread homed in a child space, that space fails, and at the
top level the run is flagged and later exits with code 1.
"""

from __future__ import annotations

from collections import deque

from .errors import UsageError
from . import spaces
from .kernel import (
    KApply, KCase, KEq, KIf, KLocal, KPatLit, KPatRec, KProc, KRaise, KSeq,
    KSkip, KTellRec, KThread, KTry, Lit,
)
from .store import FAILED, OK, Store
from .terms import (
    Builtin, CellRef, Closure, Name, PortRef, Record, SpaceRef, Var, cons,
    is_cons,
)

FAILURE = Record("failure", (("debug", "unit"),))

BLOCKED = object()      # sentinel returned by Choose: thread parked on commit


def _error(kind):
    return Record("error", (("kind", kind),))


class OzRaise(Exception):
    """A raised language value travelling up the frame stack."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term


class CatchMarker:
    __slots__ = ("var", "handler", "env")

    def __init__(self, var, handler, env):
        self.var = var
        self.handler = handler
        self.env = env


class Thread:
    __slots__ = ("tid", "space", "stack", "state", "wait_vid", "resume_value")

    def __init__(self, tid, space):
        self.tid = tid
        self.space = space
        self.stack = []
        self.state = "runnable"
        self.wait_vid = None
        self.resume_value = None

    def __repr__(self):
        return f"T{self.tid}@S{self.space.sid}[{self.state}]"


class VM:
    def __init__(self, slice_=1000, max_reductions=None, reverse_queue=False,
                 trace=False, on_browse=None):
        self.store = Store()
        self.store.wake_fn = self.wake_all
        self.store.fail_space_fn = lambda sp: spaces.fail_space(self, sp)
        self.top = spaces.Space(None, sid=0)
        self.queue = deque()
        self.slice = slice_
        self.max_reductions = max_reductions if max_reductions else 10 ** 18
        self.reverse_queue = reverse_queue
        self.reductions = 0
        self.next_tid = 0
        self.next_sid = 0
        self.next_nid = 0
        self.browse = []
        self.on_browse = on_browse
        self.trace = [] if trace else None
        self.space_log = []
        self.uncaught = None
        self.budget_hit = False
        self.triggers_installed = 0
        self.triggers_fired = 0
        self.fd_agenda = deque()
        self._fd_drain = None       # installed by the fd module on first use
        self.current = None

    # ------------------------------------------------------------------
    # spaces

    def alloc_sid(self):
        self.next_sid += 1
        return self.next_sid

    @property
    def spaces(self):
        """The live spaces by sid, read off the space tree (a fresh dict)."""
        out = {}
        stack = [self.top]
        while stack:
            sp = stack.pop()
            out[sp.sid] = sp
            stack.extend(sp.children)
        return out

    # ------------------------------------------------------------------
    # thread lifecycle

    def spawn(self, body, env, space):
        self.next_tid += 1
        th = Thread(self.next_tid, space)
        th.stack.append((body, env))
        space.threads[th] = None
        self._inc_runnable(space)
        if self.reverse_queue:
            self.queue.appendleft(th)
        else:
            self.queue.append(th)
        self.trace_event(th, "spawn")
        return th

    def spawn_call(self, proc_term, args, space):
        body = KApply(Lit(proc_term), tuple(Lit(a) for a in args))
        return self.spawn(body, {}, space)

    def finish_thread(self, th):
        th.state = "done"
        th.space.threads.pop(th, None)
        self.trace_event(th, "exit")
        self._dec_runnable(th.space)

    def suspend_thread(self, th, vid):
        th.state = "suspended"
        th.wait_vid = vid
        self.store.suspend(vid, th)
        self.trace_event(th, f"suspend(v{vid})")
        self._dec_runnable(th.space)

    def block_thread(self, th):
        th.state = "blocked"
        self._dec_runnable(th.space)

    def resume_thread(self, th, i):
        th.resume_value = i
        th.state = "runnable"
        self._inc_runnable(th.space)
        if self.reverse_queue:
            self.queue.appendleft(th)
        else:
            self.queue.append(th)

    def kill_thread(self, th):
        if th.state == "runnable":
            self._dec_runnable(th.space)
        elif th.state == "suspended":
            waiters = self.store.susp.get(th.wait_vid, ())
            if th in waiters:
                waiters.remove(th)
        th.state = "killed"
        th.stack.clear()

    def wake_all(self, waiters):
        for th in waiters:
            if th.state == "suspended" and th.space.alive():
                th.state = "runnable"
                th.wait_vid = None
                self._inc_runnable(th.space)
                if self.reverse_queue:
                    self.queue.appendleft(th)
                else:
                    self.queue.append(th)
                self.trace_event(th, "wake")

    def _inc_runnable(self, sp):
        while sp is not None:
            sp.runnable += 1
            sp = sp.parent

    def _dec_runnable(self, sp):
        while sp is not None:
            sp.runnable -= 1
            if sp.runnable == 0 and sp.ask_waiters:
                spaces.maybe_answer(self, sp)
            sp = sp.parent

    # ------------------------------------------------------------------
    # tells and demand

    def tell(self, a, b, space):
        """Host-side tell with no thread context; failure fails the space."""
        r = self.store.unify(a, b, space, fire=False)
        if r is FAILED and space.parent is not None:
            spaces.fail_space(self, space)
        return r

    def tell_th(self, th, a, b):
        """Tell from a running thread: OK -> None, Need -> suspend vid."""
        r = self.store.unify(a, b, th.space)
        if r is OK:
            return None
        if r is FAILED:
            raise OzRaise(FAILURE)
        return self.fire_need(r.vid)

    def fire_need(self, vid):
        """Fire vid's by-need trigger if present; returns vid to park on."""
        tr = self.store.triggers.pop(vid, None)
        if tr is not None:
            proc, home = tr
            if not home.discarded:
                self.triggers_fired += 1
                self.spawn_call(proc, [Var(vid)], home)
        return vid

    def need(self, var_term):
        return self.fire_need(var_term.vid)

    # ------------------------------------------------------------------
    # tracing and output

    def trace_event(self, th, ev):
        if self.trace is not None:
            self.trace.append(f"T{th.tid}@S{th.space.sid} {ev}")

    def log_op(self, *items):
        self.space_log.append(items)

    def emit(self, line):
        self.browse.append(line)
        if self.on_browse is not None:
            self.on_browse(line)

    # ------------------------------------------------------------------
    # exception unwinding

    def unwind(self, th, exc):
        self.trace_event(th, f"raise({_exc_label(exc.term)})")
        stack = th.stack
        while stack:
            entry = stack.pop()
            if type(entry) is CatchMarker:
                env = dict(entry.env)
                env[entry.var] = exc.term
                stack.append((entry.handler, env))
                return
        # fell off the bottom
        if th.space.parent is None:
            if self.uncaught is None:
                self.uncaught = exc.term
            self.finish_thread(th)
        else:
            spaces.fail_space(self, th.space)

    # ------------------------------------------------------------------
    # the scheduler

    def run(self):
        """Run until quiescence or the reduction budget is exhausted."""
        queue = self.queue
        handlers = HANDLERS
        while queue:
            th = queue.popleft()
            if th.state != "runnable":
                continue
            self.current = th
            stack = th.stack
            n = 0
            while n < self.slice:
                if not stack:
                    self.finish_thread(th)
                    break
                entry = stack.pop()
                if type(entry) is CatchMarker:
                    continue
                if self.reductions >= self.max_reductions:
                    stack.append(entry)
                    queue.append(th)
                    self.budget_hit = True
                    return "budget"
                self.reductions += 1
                n += 1
                stmt, env = entry
                try:
                    r = handlers[type(stmt)](self, th, stmt, env)
                    if self.fd_agenda:
                        self._fd_drain(self)
                except OzRaise as ex:
                    self.unwind(th, ex)
                    if th.state != "runnable":
                        break
                    continue
                if r is None:
                    continue
                if r is BLOCKED:
                    stack.append(entry)
                    break
                stack.append(entry)
                self.suspend_thread(th, r)
                break
            else:
                queue.append(th)    # slice used up; go to the back
        return "done"

    def top_deadlocked(self):
        return any(t.state == "suspended" for t in self.top.threads)


def _exc_label(term):
    if isinstance(term, Record):
        return term.label
    if isinstance(term, (int, str)):
        return str(term)
    return type(term).__name__


# ----------------------------------------------------------------------
# statement handlers


def _val(o, env):
    return env[o] if type(o) is str else o.v


def h_skip(vm, th, s, env):
    return None


def h_eq(vm, th, s, env):
    return vm.tell_th(th, _val(s.a, env), _val(s.b, env))


def h_tellrec(vm, th, s, env):
    rec = Record(s.label, [(f, _val(o, env)) for f, o in s.feats])
    return vm.tell_th(th, env[s.x], rec)


def h_seq(vm, th, s, env):
    stack = th.stack
    for sub in reversed(s.stmts):
        stack.append((sub, env))
    return None


def h_local(vm, th, s, env):
    env = dict(env)
    new_var = vm.store.new_var
    sp = th.space
    for n in s.names:
        env[n] = new_var(sp)
    th.stack.append((s.body, env))
    return None


def h_if(vm, th, s, env):
    c = vm.store.deref(_val(s.x, env), th.space)
    if type(c) is Var:
        return vm.need(c)
    if c == "true":
        th.stack.append((s.then, env))
    elif c == "false":
        th.stack.append((s.els, env))
    else:
        raise OzRaise(_error("type"))
    return None


def h_case(vm, th, s, env):
    pat = s.pat
    if type(pat) is KPatLit:
        r = vm.store.entails_literal(_val(s.x, env), pat.v, th.space)
    else:
        r = vm.store.entails_pattern(_val(s.x, env), pat.label,
                                     tuple(f for f, _ in pat.feats), th.space)
    if r == "no":
        th.stack.append((s.els, env))
        return None
    verdict, payload = r
    if verdict == "unknown":
        return vm.fire_need(payload)
    if type(pat) is KPatRec:
        env = dict(env)
        for (f, name), value in zip(pat.feats, payload):
            env[name] = value
    th.stack.append((s.then, env))
    return None


def h_proc(vm, th, s, env):
    captured = {n: env[n] for n in s.free}
    clo = Closure(s.params, s.body, captured)
    return vm.tell_th(th, env[s.x], clo)


def h_apply(vm, th, s, env):
    f = vm.store.deref(_val(s.f, env), th.space)
    tf = type(f)
    if tf is Var:
        return vm.need(f)
    if tf is Closure:
        if len(s.args) != len(f.params):
            raise OzRaise(_error("arity"))
        env2 = dict(f.env)
        for p, a in zip(f.params, s.args):
            env2[p] = _val(a, env)
        th.stack.append((f.body, env2))
        return None
    if tf is Builtin:
        if f.arity is not None and len(s.args) != f.arity:
            raise OzRaise(_error("arity"))
        return f.fn(vm, th, [_val(a, env) for a in s.args], th.space)
    raise OzRaise(_error("apply"))


def h_thread(vm, th, s, env):
    vm.spawn(s.body, env, th.space)
    return None


def h_try(vm, th, s, env):
    th.stack.append(CatchMarker(s.var, s.handler, env))
    th.stack.append((s.body, env))
    return None


def h_raise(vm, th, s, env):
    raise OzRaise(_val(s.x, env))


HANDLERS = {
    KSkip: h_skip,
    KEq: h_eq,
    KTellRec: h_tellrec,
    KSeq: h_seq,
    KLocal: h_local,
    KIf: h_if,
    KCase: h_case,
    KProc: h_proc,
    KApply: h_apply,
    KThread: h_thread,
    KTry: h_try,
    KRaise: h_raise,
}


# ----------------------------------------------------------------------
# core builtins


def _int2(vm, args, sp):
    x = vm.store.deref(args[0], sp)
    if type(x) is Var:
        return None, vm.need(x)
    y = vm.store.deref(args[1], sp)
    if type(y) is Var:
        return None, vm.need(y)
    if type(x) is not int or type(y) is not int:
        raise OzRaise(_error("type"))
    return (x, y), None


def bi_intplus(vm, th, args, sp):
    xy, susp = _int2(vm, args, sp)
    if xy is None:
        return susp
    return vm.tell_th(th, args[2], xy[0] + xy[1])


def bi_intminus(vm, th, args, sp):
    xy, susp = _int2(vm, args, sp)
    if xy is None:
        return susp
    return vm.tell_th(th, args[2], xy[0] - xy[1])


def bi_inttimes(vm, th, args, sp):
    xy, susp = _int2(vm, args, sp)
    if xy is None:
        return susp
    return vm.tell_th(th, args[2], xy[0] * xy[1])


def bi_less(vm, th, args, sp):
    xy, susp = _int2(vm, args, sp)
    if xy is None:
        return susp
    return vm.tell_th(th, args[2], "true" if xy[0] < xy[1] else "false")


def bi_leq(vm, th, args, sp):
    xy, susp = _int2(vm, args, sp)
    if xy is None:
        return susp
    return vm.tell_th(th, args[2], "true" if xy[0] <= xy[1] else "false")


def bi_equal(vm, th, args, sp):
    """Structural equality test; waits until it is decided."""
    deref = vm.store.deref
    stack = [(args[0], args[1])]
    seen = set()
    while stack:
        a, b = stack.pop()
        a = deref(a, sp)
        b = deref(b, sp)
        if a is b:
            continue
        ta, tb = type(a), type(b)
        if ta is Var and tb is Var and a.vid == b.vid:
            continue
        if ta is Var:
            return vm.need(a)
        if tb is Var:
            return vm.need(b)
        if ta is not tb:
            return vm.tell_th(th, args[2], "false")
        if ta is int or ta is str:
            if a != b:
                return vm.tell_th(th, args[2], "false")
            continue
        if ta is Record:
            if a.label != b.label or a.arity() != b.arity():
                return vm.tell_th(th, args[2], "false")
            key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
            if key in seen:
                continue
            seen.add(key)
            for (_, v1), (_, v2) in zip(a.feats, b.feats):
                stack.append((v1, v2))
            continue
        same = ((ta is Closure and a.cid == b.cid)
                or (ta is Name and a.nid == b.nid)
                or (ta is SpaceRef and a.space is b.space))
        if not same:
            return vm.tell_th(th, args[2], "false")
    return vm.tell_th(th, args[2], "true")


def bi_wait(vm, th, args, sp):
    x = vm.store.deref(args[0], sp)
    if type(x) is Var:
        return vm.need(x)
    return None


def bi_isdet(vm, th, args, sp):
    d = vm.store.is_det(args[0], sp)
    return vm.tell_th(th, args[1], "true" if d else "false")


def bi_newname(vm, th, args, sp):
    vm.next_nid += 1
    return vm.tell_th(th, args[0], Name(vm.next_nid))


def _top_only(sp, what):
    if sp.parent is not None:
        raise OzRaise(_error(what))


def bi_newcell(vm, th, args, sp):
    _top_only(sp, "cell")
    return vm.tell_th(th, args[1], CellRef(args[0]))


def bi_exchange(vm, th, args, sp):
    _top_only(sp, "cell")
    c = vm.store.deref(args[0], sp)
    if type(c) is Var:
        return vm.need(c)
    if type(c) is not CellRef:
        raise OzRaise(_error("type"))
    # one reduction: read and replace together
    old, c.content = c.content, args[2]
    return vm.tell_th(th, args[1], old)


def bi_newport(vm, th, args, sp):
    _top_only(sp, "port")
    tail = vm.store.new_var(sp)
    r = vm.tell_th(th, args[0], tail)
    if r is not None:
        return r
    return vm.tell_th(th, args[1], PortRef(tail))


def bi_send(vm, th, args, sp):
    _top_only(sp, "port")
    p = vm.store.deref(args[0], sp)
    if type(p) is Var:
        return vm.need(p)
    if type(p) is not PortRef:
        raise OzRaise(_error("type"))
    new_tail = vm.store.new_var(sp)
    r = vm.tell_th(th, p.tail, cons(args[1], new_tail))
    if r is not None:
        return r
    p.tail = new_tail
    return None


def bi_byneed(vm, th, args, sp):
    x = args[1]
    xd = vm.store.deref(x, sp)
    if type(xd) is not Var or vm.store.has_trigger(xd.vid):
        raise OzRaise(_error("byNeed"))
    vm.store.triggers[xd.vid] = (args[0], sp)
    vm.triggers_installed += 1
    return None


def bi_browse(vm, th, args, sp):
    x = vm.store.deref(args[0], sp)
    if type(x) is Var:
        return vm.need(x)
    vm.emit(render(vm, x, sp))
    return None


# ----------------------------------------------------------------------
# space operation builtins


def _catch_usage(fn):
    """Space-operation misuse surfaces as a catchable error(kind:space)."""
    def wrapped(vm, th, args, sp):
        try:
            return fn(vm, th, args, sp)
        except UsageError:
            raise OzRaise(_error("space")) from None
    return wrapped


def _space_arg(vm, t, sp):
    d = vm.store.deref(t, sp)
    if type(d) is Var:
        return None, d
    if type(d) is not SpaceRef:
        raise OzRaise(_error("type"))
    return d.space, None


def _proc_arg(vm, t, sp):
    d = vm.store.deref(t, sp)
    if type(d) is Var:
        return None, d
    if type(d) is not Closure and type(d) is not Builtin:
        raise OzRaise(_error("type"))
    return d, None


def _int_arg(vm, t, sp):
    d = vm.store.deref(t, sp)
    if type(d) is Var:
        return None, d
    if type(d) is not int:
        raise OzRaise(_error("type"))
    return d, None


def _await_stable(vm, s, sp):
    """Vid to suspend on until s is stable, or None if it already is.

    Clone, commit, and merge synchronize on stability; the caller parks on a
    hidden status variable that maybe_answer binds."""
    if s.runnable == 0 and spaces.classify(vm, s) is not spaces.STATUS_SUSPENDED:
        return None
    w = vm.store.new_var(sp)
    s.ask_waiters.append((w, sp))
    return w.vid


@_catch_usage
def bi_newspace(vm, th, args, sp):
    p, v = _proc_arg(vm, args[0], sp)
    if p is None:
        return vm.need(v)
    ref = spaces.new_space(vm, p, sp)
    vm.log_op("newspace", ref.space.sid)
    return vm.tell_th(th, args[1], ref)


@_catch_usage
def bi_choose(vm, th, args, sp):
    if th.resume_value is not None:
        i = th.resume_value
        th.resume_value = None
        return vm.tell_th(th, args[1], i)
    n, v = _int_arg(vm, args[0], sp)
    if n is None:
        return vm.need(v)
    spaces.choose(vm, th, n)
    return BLOCKED


@_catch_usage
def bi_ask(vm, th, args, sp):
    s, v = _space_arg(vm, args[0], sp)
    if s is None:
        return vm.need(v)
    vm.log_op("ask", s.sid)
    spaces.ask(vm, s, args[1], sp)
    return None


@_catch_usage
def bi_commit(vm, th, args, sp):
    s, v = _space_arg(vm, args[0], sp)
    if s is None:
        return vm.need(v)
    i, v = _int_arg(vm, args[1], sp)
    if i is None:
        return vm.need(v)
    if s.alive():
        r = _await_stable(vm, s, sp)
        if r is not None:
            return r
    vm.log_op("commit", s.sid, i)
    spaces.commit(vm, s, i, sp)
    return None


@_catch_usage
def bi_clone(vm, th, args, sp):
    s, v = _space_arg(vm, args[0], sp)
    if s is None:
        return vm.need(v)
    if s.alive():
        r = _await_stable(vm, s, sp)
        if r is not None:
            return r
    ref = spaces.clone(vm, s, sp)
    vm.log_op("clone", s.sid, ref.space.sid)
    return vm.tell_th(th, args[1], ref)


@_catch_usage
def bi_inject(vm, th, args, sp):
    s, v = _space_arg(vm, args[0], sp)
    if s is None:
        return vm.need(v)
    p, v = _proc_arg(vm, args[1], sp)
    if p is None:
        return vm.need(v)
    vm.log_op("inject", s.sid)
    spaces.inject(vm, s, p, sp)
    return None


@_catch_usage
def bi_merge(vm, th, args, sp):
    s, v = _space_arg(vm, args[0], sp)
    if s is None:
        return vm.need(v)
    if s.alive():
        r = _await_stable(vm, s, sp)
        if r is not None:
            return r
    vm.log_op("merge", s.sid)
    root, failed = spaces.merge(vm, s, sp)
    if failed:
        raise OzRaise(FAILURE)
    return vm.tell_th(th, args[1], root)


CORE_BUILTINS = {}
for _name, _arity, _fn in [
    ("IntPlus", 3, bi_intplus),
    ("IntMinus", 3, bi_intminus),
    ("IntTimes", 3, bi_inttimes),
    ("Less", 3, bi_less),
    ("Leq", 3, bi_leq),
    ("Equal", 3, bi_equal),
    ("Wait", 1, bi_wait),
    ("IsDet", 2, bi_isdet),
    ("NewName", 1, bi_newname),
    ("NewCell", 2, bi_newcell),
    ("Exchange", 3, bi_exchange),
    ("NewPort", 2, bi_newport),
    ("Send", 2, bi_send),
    ("ByNeed", 2, bi_byneed),
    ("Browse", 1, bi_browse),
    ("NewSpace", 2, bi_newspace),
    ("Choose", 2, bi_choose),
    ("Ask", 2, bi_ask),
    ("Commit", 2, bi_commit),
    ("Clone", 2, bi_clone),
    ("Inject", 2, bi_inject),
    ("Merge", 2, bi_merge),
]:
    CORE_BUILTINS[_name] = Builtin(_name, _arity, _fn)


# ----------------------------------------------------------------------
# rendering values for Browse and diagnostics


_SHOW = {                       # how render displays each non-record term
    int: lambda t: str(t) if t >= 0 else f"~{-t}",
    str: lambda t: t,
    Var: lambda t: "_",
    Closure: lambda t: f"<P/{len(t.params)}>",
    Builtin: lambda t: f"<P/{t.arity}>",
    Name: lambda t: f"<N{t.nid}>",
    CellRef: lambda t: "<Cell>",
    PortRef: lambda t: "<Port>",
    SpaceRef: lambda t: "<Space>",
}


def render(vm, t, sp):
    """One-line display of a term as seen from `sp`.

    Unbound variables show as _.  A record that is reached again inside its
    own rendering is a cycle; the inner occurrence shows as @k, where k
    numbers the cyclic records in discovery order.  The walk uses an explicit
    stack, so long lists and deep records are fine.  On it an (enter or
    leave, id) pair adds a record to or drops it from the path of records
    being rendered, and a punctuation string is emitted like an atom.
    """
    deref = vm.store.deref
    labels = {}
    path = set()
    enter, leave = path.add, path.discard
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            t[0](t[1])
            continue
        t = deref(t, sp)
        if type(t) is not Record:
            out.append(_SHOW.get(type(t), repr)(t))
            continue
        i = id(t)
        if i in path:
            out.append(f"@{labels.setdefault(i, len(labels) + 1)}")
            continue
        enter(i)
        todo = []
        if is_cons(t):
            # the spine's end decides between [a b c] and a|b|c|Tail; cell k
            # joins the path just before head k is rendered
            spine, seen = [t], {i}
            nxt = deref(t.feats[1][1], sp)
            while is_cons(nxt) and id(nxt) not in path and id(nxt) not in seen:
                spine.append(nxt)
                seen.add(id(nxt))
                nxt = deref(nxt.feats[1][1], sp)
            closed = nxt == "nil"
            if closed:
                todo.append("[")
            for k, cell in enumerate(spine):
                if k:
                    todo.append(" " if closed else "|")
                    todo.append((enter, id(cell)))
                todo.append(cell.feats[0][1])
            todo.extend(("]",) if closed else ("|", nxt))
            todo.extend((leave, id(cell)) for cell in spine)
        else:
            feats = t.feats
            positional = all(f == k + 1 for k, (f, _) in enumerate(feats))
            hashed = t.label == "#" and positional and len(feats) >= 2
            if not hashed:
                todo.append(f"{t.label}(")
            for k, (f, v) in enumerate(feats):
                if k:
                    todo.append("#" if hashed else " ")
                if not positional:
                    todo.append(f"{f}:")
                todo.append(v)
            if not hashed:
                todo.append(")")
            todo.append((leave, i))
        stack.extend(reversed(todo))
    return "".join(out)
