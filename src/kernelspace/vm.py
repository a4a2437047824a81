"""The abstract machine: threads, scheduler, compiled statements, and the
core builtins (the space builtins are in spaces.py, the fd ones in fd.py).

Execution is a round-robin over a FIFO queue of runnable threads.  A thread
holds a stack of (statement, frame) pairs.  A frame is a Python list with
one slot per identifier of a procedure body (see kernel.py): the values the
procedure captured, its arguments, then its locals.  Statements of one body
share its frame; `local`, a matching `case` and an inline operator whose
result goes to a value slot (kernel.ValueSlot) write their slots in place,
and `thread` starts a thread on a copy of the frame.  Each kernel
statement is compiled once, on its first run, into a closure (vm, th,
frame) with its operands' slots bound in (see codegen.py); one statement
run is one reduction.  A statement that continues with one more statement
returns that (statement, frame) pair instead of pushing it (a sequence
pushes the rest and returns its first), and the scheduler runs the pair
next without touching the stack.  A thread keeps the processor for up to
`slice_` reductions, then goes to the back of the queue, which gives weak
fairness; a pair still in hand then, at a budget stop or when the thread
parks goes back on the stack, so the stack holds what it would had every
pair been pushed.

Suspension is by retry: a statement that finds an undetermined variable
where a value is needed returns the variable, or, in a builtin, raises
Wait with it (errors.py); the pair is pushed back and the thread parks on
it (`Var.waiters`); a Choose that waits for a commit parks the same way,
on no variable.  Parking trims the parked pair's frame: the slots dead at
the statement (kernel.dead_slots), which nothing the thread can still run
on that frame reads, are set to None, so a parked thread keeps only what
it will read (a stream it handed to other threads is freed as they
consume it).  Only that frame is trimmed, so parking walks no stack.
Parking is the one place that makes a variable needed: `suspend_thread`
fires its by-need trigger, so no statement or builtin fires one itself,
and `need` runs the supplier in the variable's home.  Binding the
variable wakes each parked thread homed in the binding space or below it,
and each re-executes its statement from scratch, so statements must keep
their side effects after their last possible suspension point.  The
`==` builtin walks its operands with store.pairs, in unification's order,
so when several variables are unbound it parks on the leftmost.

Exceptions unwind the stack to the nearest catch marker, which writes the
raised value into its variable's slot.  A failed tell raises the catchable
record failure(debug:unit); when any exception reaches the bottom of a
thread homed in a child space, that space fails, and at the top level the
run is flagged and later exits with code 1.

Tracing is opt-in: `trace` is None or a callable that receives one tuple
(kind, tid, sid, *args) per event, as it happens, where tid and sid name
the acting thread and its home space.  The kinds are the thread events
spawn, exit, suspend (vid), wake and raise (label of the raised value);
the choice events choose (n) and commit (i), reported by the thread that
chose; and the space operations newspace (new sid), ask (sid), clone (sid,
new sid), inject (sid) and merge (sid), reported by the calling thread.
Without a trace nothing is recorded.
"""

from __future__ import annotations

import operator
import weakref
from collections import deque

from .codegen import CatchMarker, call_stmt, compile_stmt, int_op
from .errors import FAILURE, OzRaise, Wait, _error, arg
from . import fd, spaces
from .kernel import INT_OPS, dead_slots
from .store import FAILED, OK, Store, is_ancestor, pairs
from .syntax import is_plain_atom
from .terms import (
    Builtin, CellRef, Closure, Name, PortRef, Record, SpaceRef, Var, cons,
    is_cons,
)


class Thread:
    __slots__ = ("tid", "space", "stack", "state", "wait_var", "resume_value")

    def __init__(self, tid, space):
        self.tid = tid
        self.space = space
        self.stack = []
        self.state = "runnable"
        self.wait_var = None
        self.resume_value = None

    def __repr__(self):
        return f"T{self.tid}@S{self.space.sid}[{self.state}]"


class VM:
    def __init__(self, slice_=1000, max_reductions=None, reverse_queue=False,
                 trace=None, on_browse=None):
        self.store = Store()
        # the store's hooks reach the VM through a weak reference, so a
        # finished VM is freed without the cyclic collector; wake_bound and
        # fail_space are looked up at call time
        vm = weakref.proxy(self)
        self.store.wake_fn = lambda *bound: vm.wake_bound(*bound)
        self.store.fail_space_fn = lambda sp: spaces.fail_space(vm, sp)
        self.top = spaces.Space(None, sid=0)
        self.queue = deque()
        # woken and new threads go to the back, or the front when reversed
        self.enqueue = (self.queue.appendleft if reverse_queue
                        else self.queue.append)
        self.slice = slice_
        self.max_reductions = max_reductions if max_reductions else 10 ** 18
        self.reductions = 0
        self.next_tid = 0
        self.next_sid = 0
        self.next_nid = 0
        self.browse = []
        self.on_browse = on_browse
        self.trace = trace
        self.uncaught = None
        self.triggers_installed = 0
        self.triggers_fired = 0
        self.fd_agenda = deque()

    # ------------------------------------------------------------------
    # spaces

    def alloc_sid(self):
        self.next_sid += 1
        return self.next_sid

    @property
    def spaces(self):
        """The live spaces by sid, read off the space tree (a fresh dict)."""
        return {sp.sid: sp for sp in spaces.subtree(self.top)}

    # ------------------------------------------------------------------
    # thread lifecycle

    def spawn(self, body, env, space):
        """Start a thread on a program from kernel.desugar; `env` maps each
        of its outer names to a value."""
        outer, size = body.root
        frame = [env[n] for n in outer]
        frame += [None] * (size - len(outer))
        return self.start_thread(body, frame, space)

    def start_thread(self, body, frame, space):
        self.next_tid += 1
        th = Thread(self.next_tid, space)
        th.stack.append((body, frame))
        space.threads[th] = None
        self._inc_runnable(space)
        self.enqueue(th)
        self.event(th, "spawn")
        return th

    def spawn_call(self, proc_term, args, space):
        return self.start_thread(call_stmt(len(args)), [proc_term, *args],
                                 space)

    def finish_thread(self, th):
        th.state = "done"
        th.space.threads.pop(th, None)
        self.event(th, "exit")
        self._dec_runnable(th.space)

    def suspend_thread(self, th, var):
        """Park th on var, which makes var needed."""
        self.need(var)
        th.state = "suspended"
        th.wait_var = var
        self.store.suspend(var, th)
        self.event(th, "suspend", var.vid)
        self._dec_runnable(th.space)

    def block_thread(self, th):
        th.state = "blocked"
        self._dec_runnable(th.space)

    def resume_thread(self, th, i):
        th.resume_value = i
        th.state = "runnable"
        self._inc_runnable(th.space)
        self.enqueue(th)

    def kill_thread(self, th):
        if th.state == "runnable":
            self._dec_runnable(th.space)
        elif th.state == "suspended":
            waiters = th.wait_var.waiters
            if waiters and th in waiters:
                waiters.remove(th)
        th.state = "killed"
        th.stack.clear()

    def wake_bound(self, var, waiters, space):
        """Wake the waiters of var that see its new binding in `space`; an
        overlay binding leaves the others parked on var."""
        if self.store.homes[var.vid].space is not space:
            keep = [th for th in waiters if not is_ancestor(space, th.space)]
            if keep:
                var.waiters = keep
                waiters = [th for th in waiters if is_ancestor(space, th.space)]
        self.wake_all(waiters)

    def wake_all(self, waiters):
        for th in waiters:
            if th.state == "suspended" and th.space.alive():
                th.state = "runnable"
                th.wait_var = None
                self._inc_runnable(th.space)
                self.enqueue(th)
                self.event(th, "wake")

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
        """Host-side tell with no thread context.  Failure fails the space,
        or at top level counts as an uncaught failure(debug:unit), as a
        failed tell in a top-level thread does."""
        r = self.store.unify(a, b, space, fire=False)
        if r is FAILED:
            if space.parent is not None:
                spaces.fail_space(self, space)
            elif self.uncaught is None:
                self.uncaught = FAILURE
        return r

    def tell_th(self, th, a, b):
        """Tell from a running thread: None, or the by-need Var to park on
        (parking fires its trigger).

        Binding an unbound variable with no by-need trigger to a value
        that is not a variable is the common case; it binds directly."""
        store = self.store
        sp = th.space
        if type(b) is not Var:
            a = store.deref(a, sp)
            if type(a) is Var and a.trigger is None:
                if store.bind(a, b, sp) is FAILED:
                    raise OzRaise(FAILURE)
                return None
        r = store.unify(a, b, sp)
        if r is OK:
            return None
        if r is FAILED:
            raise OzRaise(FAILURE)
        return r

    def need(self, var):
        """Fire var's by-need trigger if it has one: when a thread parks on
        var, and when propagation determines it (fd._bind_value).  The
        supplier runs in var's home, which is live: a merge re-homes a
        variable, and nothing live reaches a failed space's variable."""
        proc = var.trigger
        if proc is not None:
            var.trigger = None
            self.triggers_fired += 1
            self.spawn_call(proc, [var], self.store.homes[var.vid].space)

    # ------------------------------------------------------------------
    # tracing and output

    def event(self, th, kind, *args):
        if self.trace is not None:
            self.trace((kind, th.tid, th.space.sid) + args)

    def emit(self, line):
        self.browse.append(line)
        if self.on_browse is not None:
            self.on_browse(line)

    # ------------------------------------------------------------------
    # exception unwinding

    def unwind(self, th, exc):
        self.event(th, "raise", _exc_label(exc.term))
        stack = th.stack
        while stack:
            entry = stack.pop()
            if type(entry) is CatchMarker:
                entry.frame[entry.slot] = exc.term
                stack.append((entry.handler, entry.frame))
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
        fd_agenda = self.fd_agenda
        limit = self.max_reductions
        red = self.reductions
        while queue:
            th = queue.popleft()
            if th.state != "runnable":
                continue
            stack = th.stack
            pop = stack.pop
            end = red + self.slice
            # r is what the last statement returned: None, or the (stmt,
            # frame) pair it handed over to run next, which the stack
            # would otherwise have held on top
            r = None
            while red < end:
                if r is None:
                    if not stack:
                        self.finish_thread(th)
                        break
                    entry = pop()
                    if type(entry) is CatchMarker:
                        continue
                else:
                    entry = r
                if red >= limit:
                    stack.append(entry)
                    queue.append(th)
                    self.reductions = red
                    return "budget"
                red += 1
                stmt, frame = entry
                try:
                    code = stmt.code
                except AttributeError:
                    code = compile_stmt(stmt)
                try:
                    r = code(self, th, frame)
                    if fd_agenda:
                        # looked up per call, so a wrapper put on the module
                        # (the bench tracer's) sees every drain
                        fd.drain(self)
                        # propagation may have failed th's own space, which
                        # killed th and already took it off the counts
                        if th.state != "runnable":
                            break
                except OzRaise as ex:
                    self.unwind(th, ex)
                    if th.state != "runnable":
                        break
                    r = None
                    continue
                except Wait as w:
                    r = w.var
                if r is None or type(r) is tuple:
                    continue
                stack.append(entry)
                # parked: the frame lets go of what it will not read again
                try:
                    dead = stmt.dead
                except AttributeError:
                    dead = dead_slots(stmt)
                for i in dead:
                    frame[i] = None
                if r is not spaces.BLOCKED:
                    self.suspend_thread(th, r)
                break
            else:
                # slice used up; go to the back
                if r is not None:
                    stack.append(r)
                queue.append(th)
            self.reductions = red
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
# core builtins


def _int_op(op):
    """The builtin {F X Y Z}, Z = op(X, Y): the closure a generated call
    compiles to (codegen.int_op), reading its arguments in place of a
    frame."""
    code = int_op(op, *map(operator.itemgetter, range(3)))
    return lambda vm, th, args, sp: code(vm, th, args)


def bi_equal(vm, th, args, sp):
    """Structural equality test over store.pairs, in unification's order:
    false on a pair of values that differ, else it waits on the leftmost
    unbound variable, else true."""
    wait = None
    for a, b in pairs(args[0], args[1], vm.store.deref, sp):
        if type(a) is not Var and type(b) is not Var:
            return vm.tell_th(th, args[2], "false")
        if wait is None:
            wait = a if type(a) is Var else b
    if wait is not None:
        return wait
    return vm.tell_th(th, args[2], "true")


def bi_wait(vm, th, args, sp):
    arg(vm, args[0], sp)


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
    c = arg(vm, args[0], sp, CellRef)
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
    p = arg(vm, args[0], sp, PortRef)
    new_tail = vm.store.new_var(sp)
    r = vm.tell_th(th, p.tail, cons(args[1], new_tail))
    if r is not None:
        return r
    p.tail = new_tail
    return None


def bi_byneed(vm, th, args, sp):
    store = vm.store
    x = store.deref(args[1], sp)
    if type(x) is not Var or x.trigger is not None:
        raise OzRaise(_error("byNeed"))
    vm.triggers_installed += 1
    if store.homes[x.vid].space is sp:
        x.trigger = args[0]
        return None
    # every space sees a variable's trigger, so for one homed above sp the
    # trigger goes on a variable of sp's, and x is told equal to it in sp's
    # overlay (an alias keeps the variable with the trigger free)
    y = store.new_var(sp)
    y.trigger = args[0]
    return vm.tell_th(th, x, y)


def bi_browse(vm, th, args, sp):
    vm.emit(render(vm, arg(vm, args[0], sp), sp))


CORE_BUILTINS = {name: Builtin(name, 3, _int_op(op))
                 for name, op in INT_OPS.items()}
for _name, _arity, _fn in [
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
]:
    CORE_BUILTINS[_name] = Builtin(_name, _arity, _fn)


# ----------------------------------------------------------------------
# rendering values for Browse and diagnostics


_SHOW = {                       # how render displays each non-record term
    int: lambda t: str(t) if t >= 0 else f"~{-t}",
    str: lambda t: t if is_plain_atom(t) else f"'{t}'",
    Var: lambda t: "_",
    Closure: lambda t: f"<P/{t.arity}>",
    Builtin: lambda t: f"<P/{t.arity}>",
    Name: lambda t: f"<N{t.nid}>",
    CellRef: lambda t: "<Cell>",
    PortRef: lambda t: "<Port>",
    SpaceRef: lambda t: "<Space>",
}


def render(vm, t, sp):
    """One-line display of a term as seen from `sp`, in the syntax the
    parser reads: a ground term of integers, atoms and records reads back
    as itself.

    An atom is quoted unless it is a plain lower-case name.  A `#` tuple
    or an open list (a|b|T) that is an element of a `#` tuple, and an open
    list that is the head of an open list, is put in parentheses: `#` is
    n-ary and binds tighter than `|`, which is right-associative.
    Unbound variables show as _.  A record that is reached again inside its
    own rendering is a cycle; the inner occurrence shows as @k, where k
    numbers the cyclic records in discovery order.  The walk uses an explicit
    stack, so long lists and deep records are fine.  On it an (enter or
    leave, id) pair adds a record to or drops it from the path of records
    being rendered, an ("|" or "#", term) pair is an operand of that
    operator, and an (out.append, text) pair is punctuation.
    """
    deref = vm.store.deref
    labels = {}
    path = set()
    enter, leave = path.add, path.discard
    out = []
    emit = out.append
    space, bar, hash_, open_, close = ((emit, c) for c in " |#[]")
    stack = [t]
    while stack:
        t = stack.pop()
        op = None
        if type(t) is tuple:
            f, t = t
            if type(f) is not str:
                f(t)
                continue
            op = f
        t = deref(t, sp)
        if type(t) is not Record:
            emit(_SHOW.get(type(t), repr)(t))
            continue
        i = id(t)
        if i in path:
            emit(f"@{labels.setdefault(i, len(labels) + 1)}")
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
            paren = op is not None and not closed
            if closed:
                todo.append(open_)
            for k, cell in enumerate(spine):
                if k:
                    todo.append(space if closed else bar)
                    todo.append((enter, id(cell)))
                head = cell.feats[0][1]
                todo.append(head if closed else ("|", head))
            todo.extend((close,) if closed else (bar, nxt))
            todo.extend((leave, id(cell)) for cell in spine)
        else:
            feats = t.feats
            positional = all(f == k + 1 for k, (f, _) in enumerate(feats))
            hashed = t.label == "#" and positional and len(feats) >= 2
            paren = op == "#" and hashed
            if not hashed:
                todo.append((emit, f"{_SHOW[str](t.label)}("))
            for k, (f, v) in enumerate(feats):
                if k:
                    todo.append(hash_ if hashed else space)
                if not positional:
                    todo.append((emit, f"{_SHOW[type(f)](f)}:"))
                todo.append(("#", v) if hashed else v)
            if not hashed:
                todo.append((emit, ")"))
            todo.append((leave, i))
        if paren:
            emit("(")
            todo.append((emit, ")"))
        stack.extend(reversed(todo))
    return "".join(out)
