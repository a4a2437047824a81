"""Compiling kernel statements into closures.

Each kernel statement compiles once, on its first run, into a Python
closure (vm, th, frame) with its operands' slots and literals bound in
(Feeley & Lapalme, "Using closures for code generation", 1987).  It returns
None, the variable to suspend on, or what a builtin it applies returns; a
builtin may also raise Wait (errors.py), which the scheduler reads alike.
An operand is read as frame[i] for an identifier and is a constant for a
Lit.  The closures look up vm.tell_th, vm.store.deref and the store's
methods at call time, so wrappers installed after import see every call.

A call whose callee is a Lit of a base Builtin, which only the
desugarer's own calls have (kernel.base_op), has its arity checked when
it compiles and calls the builtin with no callee deref or dispatch.  The
integer operations IntPlus, IntMinus, IntTimes, Less and Leq compile
inline, into one closure each (int_op), as the Oz machine runs them as
instructions (Mehl 1999).  Either way the call is one reduction.  When the
result goes to a temporary the desugarer made a kernel.ValueSlot, the
closure writes the integer or truth value into that frame slot, and the
temporary's `local` makes no variable for it; otherwise it tells the
result to the variable its third operand holds.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import OzRaise, _error
from .kernel import (
    INT_OPS, KApply, KCase, KEq, KIf, KLocal, KPatLit, KProc, KRaise, KSeq,
    KSkip, KTellRec, KThread, KTry, Slot, ValueSlot,
)
from .terms import Builtin, Closure, Record, Var, canonical_record


class CatchMarker:
    """try ... catch: the handler runs in `frame` with the raised value in
    slot `slot`."""

    __slots__ = ("slot", "handler", "frame")

    def __init__(self, slot, handler, frame):
        self.slot = slot
        self.handler = handler
        self.frame = frame


def compile_stmt(s):
    """s's closure, compiled now and kept in s.code."""
    s.code = code = _COMPILERS[type(s)](s)
    return code


def _get(slot, o):
    """A function from a frame to the value of operand o, read from its
    slot, or the constant a Lit holds."""
    if slot is None:
        v = o.v
        return lambda fr: v
    return itemgetter(slot.i)


def _get_all(slots, ops):
    """A function from a frame to the values of the operands ops."""
    if None in slots:
        gets = [_get(sl, o) for sl, o in zip(slots, ops)]
        return lambda fr: [g(fr) for g in gets]
    if len(slots) > 1:
        return itemgetter(*[sl.i for sl in slots])
    if slots:
        i = slots[0].i
        return lambda fr: (fr[i],)
    return lambda fr: ()


def _c_skip(s):
    return lambda vm, th, fr: None


def _c_eq(s):
    get_a, get_b = _get(s.slots[0], s.a), _get(s.slots[1], s.b)
    return lambda vm, th, fr: vm.tell_th(th, get_a(fr), get_b(fr))


def _c_tellrec(s):
    x = s.slots[0].i
    label = s.label
    fnames = tuple(f for f, _ in s.feats)
    get = _get_all(s.slots[1:], [o for _, o in s.feats])

    def tellrec(vm, th, fr):
        return vm.tell_th(th, fr[x], canonical_record(
            label, tuple(zip(fnames, get(fr)))))
    return tellrec


def _c_seq(s):
    stmts = s.stmts[::-1]

    def seq(vm, th, fr):
        th.stack.extend([(sub, fr) for sub in stmts])
    return seq


def _c_local(s):
    slots = tuple(sl.i for sl in s.slots if type(sl) is not ValueSlot)
    body = s.body

    def local(vm, th, fr):
        new_var = vm.store.new_var
        sp = th.space
        for i in slots:
            fr[i] = new_var(sp)
        th.stack.append((body, fr))
    return local


def _c_if(s):
    get = _get(s.slots[0], s.x)
    then, els = s.then, s.els

    def if_(vm, th, fr):
        c = vm.store.deref(get(fr), th.space)
        if c == "true":
            th.stack.append((then, fr))
        elif c == "false":
            th.stack.append((els, fr))
        elif type(c) is Var:
            return c
        else:
            raise OzRaise(_error("type"))
    return if_


def _c_case(s):
    get = _get(s.slots[0], s.x)
    pat, then, els = s.pat, s.then, s.els
    if type(pat) is KPatLit:
        lit = pat.v
        kind = type(lit)

        def case_lit(vm, th, fr):
            t = vm.store.deref(get(fr), th.space)
            if type(t) is kind and t == lit:
                th.stack.append((then, fr))
            elif type(t) is Var:
                return t
            else:
                th.stack.append((els, fr))
        return case_lit
    label, arity = pat.label, pat.arity
    outs = tuple(sl.i for sl in s.slots[1:])

    def case_rec(vm, th, fr):
        t = vm.store.deref(get(fr), th.space)
        tt = type(t)
        if (tt is Record and t.label == label
                and tuple(map(_feature, t.feats)) == arity):
            for i, (_, v) in zip(outs, t.feats):
                fr[i] = v
            th.stack.append((then, fr))
        elif tt is Var:
            return t
        else:
            th.stack.append((els, fr))
    return case_rec


_feature = itemgetter(0)


def _c_proc(s):
    x = s.slots[0].i
    get = _get_all(s.caps, ())
    arity, body = len(s.params), s.body
    pad = (None,) * (s.size - len(s.caps) - arity)

    def proc(vm, th, fr):
        return vm.tell_th(th, fr[x], Closure(arity, body, get(fr), pad))
    return proc


def _c_apply(s):
    if s.slots[0] is None and type(s.f.v) is Builtin:
        return _c_apply_base(s, s.f.v)
    get_f = _get(s.slots[0], s.f)
    get = _get_all(s.slots[1:], s.args)
    n = len(s.args)

    def apply(vm, th, fr):
        f = vm.store.deref(get_f(fr), th.space)
        tf = type(f)
        if tf is Closure:
            if f.arity != n:
                raise OzRaise(_error("arity"))
            th.stack.append((f.body, [*f.captured, *get(fr), *f.pad]))
            return None
        if tf is Builtin:
            if f.arity != n:
                raise OzRaise(_error("arity"))
            return f.fn(vm, th, get(fr), th.space)
        if tf is Var:
            return f
        raise OzRaise(_error("apply"))
    return apply


def _c_apply_base(s, f):
    """A call of base builtin f, named by a Lit."""
    if f.arity != len(s.args):
        def arity_error(vm, th, fr):
            raise OzRaise(_error("arity"))
        return arity_error
    op = INT_OPS.get(f.name)
    if op is not None:
        z = s.slots[3]
        return int_op(op, _get(s.slots[1], s.args[0]),
                      _get(s.slots[2], s.args[1]),
                      z.i if type(z) is ValueSlot else _get(z, s.args[2]))
    fn = f.fn
    get = _get_all(s.slots[1:], s.args)
    return lambda vm, th, fr: fn(vm, th, get(fr), th.space)


def int_op(op, get_x, get_y, z):
    """{F X Y Z}, Z = op(X, Y) once X and Y are integers, as a closure
    (vm, th, fr) that reads X and Y from fr with their getters.  z is a
    getter of the variable the result is told to, or the index of the
    value slot it is written into (kernel.ValueSlot).  It waits on X
    before Y, and raises error(kind:type) on a non-integer; either way Z
    is left as it was."""
    get_z = None if type(z) is int else z

    def int_op(vm, th, fr):
        x = get_x(fr)
        if type(x) is Var:
            x = vm.store.deref(x, th.space)
            if type(x) is Var:
                return x
        y = get_y(fr)
        if type(y) is Var:
            y = vm.store.deref(y, th.space)
            if type(y) is Var:
                return y
        if type(x) is not int or type(y) is not int:
            raise OzRaise(_error("type"))
        if get_z is None:
            fr[z] = op(x, y)
            return None
        return vm.tell_th(th, get_z(fr), op(x, y))
    return int_op


def _c_thread(s):
    """The new thread runs on a copy of the frame, so a slot one thread
    clears when it parks (vm.py) is never one the other still reads."""
    body = s.body

    def thread(vm, th, fr):
        vm.start_thread(body, fr[:], th.space)
    return thread


def _c_try(s):
    i = s.slots[0].i
    body, handler = s.body, s.handler

    def try_(vm, th, fr):
        th.stack.append(CatchMarker(i, handler, fr))
        th.stack.append((body, fr))
    return try_


def _c_raise(s):
    get = _get(s.slots[0], s.x)

    def raise_(vm, th, fr):
        raise OzRaise(get(fr))
    return raise_


_COMPILERS = {
    KSkip: _c_skip,
    KEq: _c_eq,
    KTellRec: _c_tellrec,
    KSeq: _c_seq,
    KLocal: _c_local,
    KIf: _c_if,
    KCase: _c_case,
    KProc: _c_proc,
    KApply: _c_apply,
    KThread: _c_thread,
    KTry: _c_try,
    KRaise: _c_raise,
}


_CALLS = {}


def call_stmt(n):
    """{P A1 ... An} on the frame [P, A1, ..., An], for host-made calls.
    It has no body to number, and a thread parked on it keeps its frame."""
    s = _CALLS.get(n)
    if s is None:
        names = [f"A{k}" for k in range(1, n + 1)]
        s = _CALLS[n] = KApply("P", names)
        s.slots = tuple(Slot(None, i) for i in range(n + 1))
        s.dead = ()
    return s
