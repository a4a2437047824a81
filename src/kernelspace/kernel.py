"""Kernel statements and the desugarer from surface phrases.

A kernel operand is either an identifier (a plain str) or a Lit wrapping a
ground term.  Operands resolve to slots: the desugarer gives every
identifier a Slot, a place in the frame of the procedure body it occurs
in.  A frame holds the values the procedure captured, then its parameters,
then its locals.  The whole program is a body too; its captured values are
the outer names the caller supplies, such as the base environment.  A name
used in a nested procedure but bound outside it is captured by every
procedure in between, so a body reads only its own frame.  Slot numbers
are fixed when the desugarer closes the frame, and the machine reads them
when it compiles a statement (see codegen.py).  The temporary that holds
the value of an operator the machine runs inline (`+ - * < > =<`) is a
ValueSlot: the operator writes the value into it, and no variable is made
for it, as an integer result goes to a register in the Oz machine (Mehl
1999).

When the desugarer closes a frame, it numbers the statements of the body
in pre-order and records, for each slot, the last statement that reads it
(number_body).  A slot is dead at a statement when its last read comes
before it: a thread parked there will not read it again, and the machine
clears it (dead_slots, vm.py).  This is environment trimming (Ait-Kaci,
"Warren's Abstract Machine: A Tutorial Reconstruction", 1991, 5.7),
which keeps a parked thread from holding what it has finished with, such
as the head of a stream it handed to other threads.

Nodes keep their identifiers as names, which the tests' round-trip oracle
(tests/roundtrip.py) works on; the resolution is in extra fields: `slots`
(the Slots of a statement's identifier operands in order, None for a
Lit), KProc.caps and KProc.size, KPatRec.arity, and `root` (outer names,
frame size) on the statement `desugar` returns.

The calls the desugarer makes itself, for operators, `choice`, lazy
functions, `dis` and finite-domain tells, bind to base operations and no
declaration in a program can shadow them: a host builtin is called as a
Lit of the Builtin (base_op), whose apply the machine compiles with no
callee lookup, and `dis` calls the prelude's combinator under a name no
program can write (DIS_COMBINATOR).

Each desugaring job is done by one walk, which also resolves.
`Desugarer.walk` translates a phrase in either position, chosen by its
target: with no target the phrase is a statement; with one it is an
expression, and the kernel binds the target identifier to its value.  It
hands the phrase to the method its type has in that position (_STATEMENT,
_EXPRESSION).  `Desugarer.record` is the one walk that decides whether a
record is ground, folding it into a Lit, for operands and for expressions
alike; it follows a list's spine, and `if_chain` an elseif chain, by a
loop, as `binop` and `poly` follow an operator chain's left spine.
A `case` pattern is a term phrase, which `pat_vars` checks and
`compile_pat` compiles, nested sub-patterns included; `number_feats`
numbers the positional features of records and patterns.
"""

from __future__ import annotations

from collections import Counter
from operator import add, mul, sub

from .errors import ParseError
from . import syntax as S
from .store import pairs
from .terms import Record, _feat_key


class Lit:
    """A literal operand: an int, an atom, or a ground record term; as the
    callee of a call the desugarer makes, a base Builtin."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __repr__(self):
        return f"Lit({self.v!r})"

    def __eq__(self, other):
        return type(other) is Lit and _term_eq(self.v, other.v)

    def __hash__(self):
        return hash(("lit", self.v)) if type(self.v) in (int, str) else 0


def _term_eq(a, b):
    """Ground terms a and b are the same structure (see store.pairs)."""
    return next(pairs(a, b, lambda t, _: t, None), None) is None


class Slot:
    """A place in a frame.  `i` is its index, set when the desugarer closes
    the frame; until then `home` is the frame (a _Frame).  A `local` puts a
    new variable in each of its slots but value slots."""

    __slots__ = ("i", "home")

    def __init__(self, home, i=None):
        self.home = home
        self.i = i

    def __repr__(self):
        return f"Slot({self.i})"


class ValueSlot(Slot):
    """The slot of a temporary that holds an inline integer operator's
    result (see _RESULT_SLOT): the operator writes the value itself into it,
    as into a machine register, and its `local` makes no variable for it.
    Only that operator writes the temporary and only the statement that
    consumes the operator's value, run after it in the same thread, reads
    it: no program can name it, and no closure or other thread sees it.
    Until the operator has run, the slot holds None."""

    __slots__ = ()


class KStmt:
    # code: the compiled closure, set by the machine on the first run;
    # slots: the Slots of the identifier operands, in operand order;
    # root: (outer names, frame size), on the statement desugar returns;
    # num, last: the statement's number in its body and the body's table
    # of last reads (see number_body); dead: the slots dead at it, worked
    # out when a thread first parks on it (dead_slots)
    __slots__ = ("code", "slots", "root", "num", "last", "dead")

    def __repr__(self):
        fields = [s for c in type(self).__mro__ if c is not KStmt
                  for s in getattr(c, "__slots__", ())]
        inner = ", ".join(repr(getattr(self, s, None)) for s in fields)
        return f"{type(self).__name__}({inner})"


class KSkip(KStmt):
    __slots__ = ()


KEq = S.node_class("KEq", KStmt, ("a", "b"))


class KTellRec(KStmt):
    """x = label(f1:o1 ... fn:on), features in canonical order."""

    __slots__ = ("x", "label", "feats")

    def __init__(self, x, label, feats):
        self.x = x
        self.label = label
        self.feats = tuple(sorted(feats, key=lambda fo: _feat_key(fo[0])))


class KSeq(KStmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts):
        self.stmts = tuple(stmts)


def kseq(stmts):
    """stmts in sequence: nested sequences flattened and skips dropped, a
    lone statement as itself, none as a KSkip."""
    if len(stmts) == 1:
        return stmts[0]
    flat = []
    for s in stmts:
        if type(s) is KSeq:
            flat.extend(s.stmts)
        elif type(s) is not KSkip:
            flat.append(s)
    if len(flat) > 1:
        return KSeq(flat)
    return flat[0] if flat else KSkip()


class KLocal(KStmt):
    __slots__ = ("names", "body")

    def __init__(self, names, body):
        self.names = tuple(names)
        self.body = body


KIf = S.node_class("KIf", KStmt, ("x", "then", "els"))


class KPatLit:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __repr__(self):
        return f"KPatLit({self.v!r})"


class KPatRec:
    """label plus (feature, identifier) pairs in canonical feature order;
    `arity` is the tuple of the features."""

    __slots__ = ("label", "feats", "arity")

    def __init__(self, label, feats):
        self.label = label
        self.feats = tuple(sorted(feats, key=lambda fn: _feat_key(fn[0])))
        self.arity = tuple(f for f, _ in self.feats)

    def __repr__(self):
        return f"KPatRec({self.label!r}, {self.feats!r})"


KCase = S.node_class("KCase", KStmt, ("x", "pat", "then", "els"))


class KProc(KStmt):
    """proc {x params} body end.  `free` names the identifiers the closure
    captures, in frame order; `caps` holds their Slots in the enclosing
    frame and `size` is the size of the body's frame."""

    __slots__ = ("x", "params", "body", "free", "caps", "size")

    def __init__(self, x, params, body, free=()):
        self.x = x
        self.params = tuple(params)
        self.body = body
        self.free = tuple(free)


class KApply(KStmt):
    __slots__ = ("f", "args")

    def __init__(self, f, args):
        self.f = f
        self.args = tuple(args)


KThread = S.node_class("KThread", KStmt, ("body",))
KTry = S.node_class("KTry", KStmt, ("body", "var", "handler"))
KRaise = S.node_class("KRaise", KStmt, ("x",))


# ----------------------------------------------------------------------
# which frame slots a statement can still read

def number_body(body, size):
    """Number the statements of one body, whose frame has `size` slots, in
    pre-order, and record for each slot the number of the last statement
    that reads it (-1 for none), in a table every statement shares.

    A statement reads its operand slots, but an `if` or `case` only its
    subject (a case's other slots are the pattern slots it writes) and a
    `proc` its `x` and the slots it captures; `local` and `try` write
    theirs.  The walk enters sequences, `local`, `thread` and `try` bodies,
    handlers and branches, but not a `proc` body, which has its own frame.
    compile_pat shares a pattern's else chain among the nested tests of a
    clause; the walk enters it once, from the outermost test, after that
    test's whole match branch, so it is numbered after every test that can
    reach it."""
    last = [-1] * size
    seen = set()            # the else chains walked, by id
    stack = [body]
    pop, push = stack.pop, stack.append
    n = 0
    while stack:
        k = pop()
        k.num = n
        k.last = last
        t = type(k)
        if t is KSeq:
            stack.extend(k.stmts[::-1])
        elif t is KLocal or t is KThread:
            push(k.body)
        elif t is KIf or t is KCase:
            s = k.slots[0]
            if s is not None:
                last[s.i] = n
            els = k.els
            if id(els) not in seen:
                seen.add(id(els))
                push(els)
            push(k.then)
        elif t is KTry:
            push(k.handler)
            push(k.body)
        elif t is KProc:
            last[k.slots[0].i] = n
            for s in k.caps:
                last[s.i] = n
        elif t is not KSkip:
            for s in k.slots:
                if s is not None:
                    last[s.i] = n
        n += 1


def dead_slots(k):
    """The frame slots dead at statement k, those whose last read comes
    before it (see number_body), kept in k.dead.  Within one activation,
    what runs on the frame after k is k itself (retried after a wake), a
    statement inside k or one after k in pre-order, and each slot is
    written once, before it is read; so a thread parked on k will never
    read a dead slot again."""
    n = k.num
    k.dead = dead = tuple([i for i, r in enumerate(k.last) if r < n])
    return dead


# ----------------------------------------------------------------------
# desugaring

# The operators' base builtins, by name; > swaps its operands.  Like every
# call the desugarer makes, an operator calls its builtin as a Lit (see
# base_op), so no declaration in a program can capture it, and the machine
# compiles the integer ones, those in INT_OPS, inline (codegen.int_op).
_BINOPS = {"+": "IntPlus", "-": "IntMinus", "*": "IntTimes", "<": "Less",
           ">": "Less", "=<": "Leq", "==": "Equal"}

# the integer operations: builtin name -> its function of two ints
INT_OPS = {
    "IntPlus": add,
    "IntMinus": sub,
    "IntTimes": mul,
    "Less": lambda x, y: "true" if x < y else "false",
    "Leq": lambda x, y: "true" if x <= y else "false",
}

# The class of the slot of a temporary that holds an operator's value: a
# ValueSlot for each operator that compiles inline.
_RESULT_SLOT = {op: ValueSlot if name in INT_OPS else Slot
                for op, name in _BINOPS.items()}

# The prelude procedure a `dis` calls, under a name no program can write;
# the base environment binds it (stdlib.base_env).
DIS_COMBINATOR = "DisCombinator@"

_BASE_OPS = {}      # name -> a Lit of the base builtin, filled on first use


def base_op(name):
    """The callee of a call the desugarer makes to the base builtin `name`:
    a Lit of the Builtin itself, which resolves in no program's scope.
    stdlib imports this module, so the table is imported here."""
    if not _BASE_OPS:
        from .stdlib import builtins
        _BASE_OPS.update({n: Lit(b) for n, b in builtins().items()})
    return _BASE_OPS[name]


class _Frame:
    """The frame of a procedure body while it is desugared."""

    __slots__ = ("parent", "caps", "own")

    def __init__(self, parent):
        self.parent = parent
        self.caps = {}      # name -> (Slot here, Slot in parent or None)
        self.own = []       # Slots of the parameters, then the locals

    def new(self, kind=Slot):
        s = kind(self)
        self.own.append(s)
        return s

    def close(self):
        """Number the slots: captured names in sorted order, then the
        body's own.  Returns (captured names, their Slots in the parent,
        frame size)."""
        names = sorted(self.caps)
        slots = [self.caps[n][0] for n in names] + self.own
        for i, s in enumerate(slots):
            s.i = i
            s.home = None
        return tuple(names), tuple(self.caps[n][1] for n in names), len(slots)


class Desugarer:
    def __init__(self, base_names):
        self.base = base_names  # only read, so never copied
        self.n = 0
        self.frame = _Frame(None)
        self.temps = {}         # fresh name -> its Slot

    def fresh(self, hint="T", kind=Slot):
        """A new identifier with a slot of class kind in the current frame.
        The `@` keeps it apart from every identifier a program can write."""
        self.n += 1
        name = f"{hint}@{self.n}"
        self.temps[name] = self.frame.new(kind)
        return name

    def err(self, msg, phrase):
        pos = getattr(phrase, "pos", None)
        if pos:
            raise ParseError(msg, pos[0], pos[1])
        raise ParseError(msg)

    def use(self, name, sc, phrase):
        if name not in sc and name not in self.base:
            self.err(f"variable {name} is not introduced", phrase)
        return name

    # -- slots --------------------------------------------------------------

    def bind(self, names, sc):
        """Scope sc plus a new slot in the current frame for each name."""
        sc = dict(sc)
        new = self.frame.new
        for name in names:
            sc[name] = new()
        return sc

    def ref(self, o, sc):
        """The Slot operand o reads in the current frame (None for a Lit).
        A name bound outside the current body is captured by each body from
        its binder inward; an outer name is captured by the program."""
        if type(o) is Lit:
            return None
        s = self.temps.get(o) or sc.get(o)
        home = None if s is None else s.home
        fr = self.frame
        chain = []
        while fr is not home:
            got = fr.caps.get(o)
            if got is not None:
                s = got[0]
                break
            chain.append(fr)
            fr = fr.parent
        for fr in reversed(chain):
            c = Slot(fr)
            fr.caps[o] = (c, s)
            s = c
        return s

    def resolved(self, k, sc, *ops):
        """k, with the Slots its operands ops read as its `slots`; a name
        bound in the current body is read from its binder without ref."""
        fr, temps = self.frame, self.temps
        slots = []
        for o in ops:
            if type(o) is Lit:
                slots.append(None)
                continue
            s = sc.get(o) or temps.get(o)
            slots.append(s if s is not None and s.home is fr
                         else self.ref(o, sc))
        k.slots = tuple(slots)
        return k

    def apply_base(self, name, args, sc):
        """The resolved call of base builtin `name` on operands args."""
        f = base_op(name)
        return self.resolved(KApply(f, args), sc, f, *args)

    def binder(self, k, sc):
        """k, a local or try, with the slots its names got in scope sc."""
        names = k.names if type(k) is KLocal else (k.var,)
        k.slots = tuple([sc[n] for n in names])
        return k

    def proc(self, outer, x, params, body, sc):
        """Close the current frame, a body walked after enter(), and return
        its KProc, defined in the enclosing frame `outer` and scope sc."""
        names, caps, size = self.frame.close()
        number_body(body, size)
        self.frame = outer
        k = KProc(x, params, body, names)
        k.caps = caps
        k.size = size
        return self.resolved(k, sc, x)

    def enter(self):
        """Open a frame for a procedure body; returns the enclosing one."""
        outer = self.frame
        self.frame = _Frame(outer)
        return outer

    # -- operands ---------------------------------------------------------

    def operand(self, p, sc, temps, stmts):
        """Reduce a phrase to an operand, queuing set-up statements."""
        t = type(p)
        if t is S.SVar:
            return self.use(p.name, sc, p)
        if t is S.SInt:
            return Lit(p.value)
        if t is S.SAtom:
            return Lit(p.name)
        if t is S.SRecordCons:
            op, k = self.record(p, sc)
            if k is not None:
                temps.append(op)
                stmts.append(k)
            return op
        if t is S.SWild:
            name = self.fresh("W")
            temps.append(name)
            return name
        name = self.fresh(kind=_RESULT_SLOT[p.op] if t is S.SOp else Slot)
        temps.append(name)
        stmts.append(self.walk(p, sc, name))
        return name

    def record(self, p, sc, target=None):
        """(operand, kernel that binds it) for record phrase p: a Lit and
        None when every field is a Lit, else target, or a new temporary
        when there is none, and its KTellRec.  A target gets a Lit by a
        KEq.  Fields but the last go through operand, which MAX_NESTING
        bounds; the last fields (a list's spine) are read by a loop down
        to one that is not a record, and folded from there back up."""
        spine, q = [], p
        while type(q) is S.SRecordCons:
            pairs, dup = number_feats(q.feats)
            temps, stmts = [], []
            ops = [self.operand(x, sc, temps, stmts) for _, x in pairs[:-1]]
            spine.append((q, pairs, dup, ops, temps, stmts))
            q = pairs[-1][1] if pairs else None
        op = None if q is None else self.operand(q, sc, temps, stmts)
        k = None
        for i in range(len(spine) - 1, -1, -1):
            p, pairs, dup, ops, temps, stmts = spine[i]
            if k is not None:       # the cell below, bound to op
                temps.append(op)
                stmts.append(k)
            if dup is not None:
                self.err(f"duplicate feature {dup}", p)
            feats = [(f, o) for (f, _), o in zip(pairs, ops + [op])]
            if feats and all(type(o) is Lit for _, o in feats):
                op, k = Lit(Record(p.label, [(f, o.v) for f, o in feats])), None
                continue
            op = target if i == 0 and target is not None else self.fresh()
            k = KTellRec(op, p.label, feats)
            stmts.append(self.resolved(k, sc, op, *(o for _, o in k.feats)))
            k = self.wrap(temps, stmts)
        if k is None and target is not None:
            k = self.resolved(KEq(target, op), sc, target, op)
        return op, k

    def wrap(self, temps, stmts):
        body = kseq(stmts)
        if temps:
            return self.resolved(KLocal(temps, body), {}, *temps)
        return body

    # -- phrases ------------------------------------------------------------

    def walk(self, p, sc, target=None):
        """Kernel for phrase p in scope sc (name -> Slot).  With no target p
        is in statement position; with one it is in expression position and
        the kernel binds the target identifier to p's value.  The method
        for p's type in that position comes from _STATEMENT or _EXPRESSION,
        and every such method takes (p, sc, target)."""
        if target is None:
            f = _STATEMENT.get(type(p))
            if f is None:
                self.err("this expression cannot stand alone as a statement",
                         p)
        else:
            f = _EXPRESSION.get(type(p))
            if f is None:
                self.err("this construct has no value", p)
        return f(self, p, sc, target)

    def seq(self, p, sc, target):
        out = [self.walk(q, sc) for q in p.phrases[:-1]]
        out.append(self.walk(p.phrases[-1], sc, target))
        return kseq(out)

    def local(self, p, sc, target):
        sc2 = self.bind(p.names, sc)
        return self.binder(
            KLocal(p.names, self.walk(p.body, sc2, target)), sc2)

    def apply(self, p, sc, target):
        temps, stmts = [], []
        ops = [self.operand(q, sc, temps, stmts) for q in p.items]
        args = ops[1:] if target is None else ops[1:] + [target]
        stmts.append(self.resolved(KApply(ops[0], args), sc, ops[0], *args))
        return self.wrap(temps, stmts)

    def if_chain(self, p, sc, target):
        arms = []               # an elseif chain, read by a loop
        while True:
            if p.els is None and target is not None:
                self.err("an if used as an expression needs an else", p)
            temps, stmts = [], []
            c = self.operand(p.cond, sc, temps, stmts)
            arms.append((c, self.walk(p.then, sc, target), temps, stmts))
            if type(p.els) is not S.SIf:
                break
            p = p.els
        k = KSkip() if p.els is None else self.walk(p.els, sc, target)
        for c, then, temps, stmts in reversed(arms):
            stmts.append(self.resolved(KIf(c, then, k), sc, c))
            k = self.wrap(temps, stmts)
        return k

    def thread(self, p, sc, target):
        return KThread(self.walk(p.body, sc, target))

    def skip(self, p, sc, target):
        return KSkip()

    def try_(self, p, sc, target):
        sc2 = self.bind([p.var], sc)
        return self.binder(KTry(self.walk(p.body, sc), p.var,
                                self.walk(p.handler, sc2)), sc2)

    def raise_(self, p, sc, target):
        """The raised value may be a sequence that ends in it."""
        temps, stmts = [], []
        q = p.value
        if type(q) is S.SSeq:
            for r in q.phrases[:-1]:
                stmts.append(self.walk(r, sc))
            q = q.phrases[-1]
        op = self.operand(q, sc, temps, stmts)
        stmts.append(self.resolved(KRaise(op), sc, op))
        return self.wrap(temps, stmts)

    def value(self, p, sc, target):
        o = self.operand(p, sc, None, None)
        return self.resolved(KEq(target, o), sc, target, o)

    def binop(self, p, sc, target):
        """Kernel binding target to the value of operator phrase p.  Each
        operator of a left-nested chain binds a temporary its parent reads
        as left operand, as the recursion through operand would, but the
        left spine is followed by a loop and the kernel built inside out."""
        spine = [(p, target)]
        while type(p.lhs) is S.SOp:
            p = p.lhs
            spine.append((p, self.fresh(kind=_RESULT_SLOT[p.op])))
        k = None
        for i in range(len(spine) - 1, -1, -1):
            p, out = spine[i]
            temps, stmts = [], []
            if k is None:
                a = self.operand(p.lhs, sc, temps, stmts)
            else:                   # the operator below, bound to its out
                a = spine[i + 1][1]
                temps.append(a)
                stmts.append(k)
            b = self.operand(p.rhs, sc, temps, stmts)
            args = [b, a, out] if p.op == ">" else [a, b, out]
            # `#` and `|` make records, not SOps
            stmts.append(self.apply_base(_BINOPS[p.op], args, sc))
            k = self.wrap(temps, stmts)
        return k

    def tell(self, p, sc, target):
        lhs, rhs = p.lhs, p.rhs
        if type(lhs) is S.SVar:
            return self.walk(rhs, sc, self.use(lhs.name, sc, lhs))
        if type(rhs) is S.SVar:
            return self.walk(lhs, sc, self.use(rhs.name, sc, rhs))
        name = self.fresh()
        return self.resolved(
            KLocal([name], kseq([self.walk(lhs, sc, name),
                                 self.walk(rhs, sc, name)])), sc, name)

    def procedure(self, p, sc, target):
        if target is None:
            if p.name is None:
                self.err("a procedure in statement position needs a name", p)
            target = self.use(p.name, sc, p)
        elif p.name is not None:
            self.err("a named procedure definition is a statement", p)
        outer = self.enter()
        params = []
        sc2 = dict(sc)
        for name in p.params:
            if name is None:
                name = self.fresh("P")
            else:
                sc2[name] = self.frame.new()
            params.append(name)
        if not p.is_fun:
            return self.proc(outer, target, params,
                             self.walk(p.body, sc2), sc)
        if not p.lazy:
            out = self.fresh("R")
            return self.proc(outer, target, params + [out],
                             self.walk(p.body, sc2, out), sc)
        # lazy: the result is a by-need variable whose trigger runs the body
        out2 = self.fresh("O")
        trig = self.fresh("F")
        cell = self.fresh("X")
        fun_frame = self.enter()
        out = self.fresh("R")
        trig_proc = self.proc(fun_frame, trig, [out],
                              self.walk(p.body, sc2, out), sc2)
        lazy_body = self.resolved(KLocal(
            [trig, cell],
            kseq([trig_proc,
                  self.apply_base("ByNeed", [trig, cell], sc2),
                  self.resolved(KEq(out2, cell), sc2, out2, cell)])),
            sc2, trig, cell)
        return self.proc(outer, target, params + [out2], lazy_body, sc)

    # -- case ---------------------------------------------------------------

    def case(self, p, sc, target):
        temps, stmts = [], []
        subj = self.operand(p.subject, sc, temps, stmts)
        subj_slot = self.ref(subj, sc)
        # check the patterns in textual order before any body or the else
        binds = [sorted(self.pat_vars(pat)) for pat, _ in p.clauses]
        if p.els is not None:
            chain = self.walk(p.els, sc, target)
        else:
            chain = self.case_miss()
        for (pat, body), names in zip(reversed(p.clauses), reversed(binds)):
            # the body sees every variable the pattern binds, including
            # those in nested sub-patterns; the else chain does not
            sc2 = self.bind(names, sc)
            chain = self.compile_pat(
                subj, subj_slot, pat, sc2,
                lambda: self.walk(body, sc2, target), chain)
        stmts.append(chain)
        return self.wrap(temps, stmts)

    def case_miss(self):
        k = KRaise(Lit(Record("error", [("kind", "case")])))
        k.slots = (None,)
        return k

    def pat_vars(self, pat):
        """The variables pattern pat binds.  A pattern is a record of
        patterns, a variable, `_`, an integer or an atom; any other phrase,
        a repeated feature and a variable's second occurrence is an error,
        the first in textual order reported."""
        out = set()
        stack = [pat]
        while stack:
            p = stack.pop()
            t = type(p)
            if t is S.SRecordCons:
                dup = number_feats(p.feats)[1]
                if dup is not None:
                    self.err(f"duplicate feature {dup} in pattern", p)
                stack.extend([q for _, q in reversed(p.feats)])
            elif t is S.SVar:
                if p.name in out:
                    self.err(f"duplicate variable {p.name} in pattern", p)
                out.add(p.name)
            elif t is not S.SWild and t is not S.SInt and t is not S.SAtom:
                self.err("this phrase is not a pattern", p)
        return out

    def compile_pat(self, subj, subj_slot, pat, sc, body, els):
        """Test subj (read from subj_slot) against pat, which pat_vars has
        checked and whose variables have slots in sc: on a match run the
        kernel body() makes, otherwise els.  body() is called after the
        pattern's own feature names are made and before its nested
        sub-patterns are compiled.  A record's last nested sub-pattern (a
        list pattern's tail) is followed by a loop; the others recurse,
        which MAX_NESTING bounds."""
        tests = []      # (subj, its slot, record pattern, feats, nested)
        while type(pat) is S.SRecordCons:
            pairs = number_feats(pat.feats)[0]
            feats = []
            nested = []
            for f, sub in pairs:
                st = type(sub)
                if st is S.SVar:
                    feats.append((f, sub.name))
                elif st is S.SWild:
                    feats.append((f, self.fresh("W")))
                else:
                    name = self.fresh("M")
                    feats.append((f, name))
                    nested.append((name, sub))
            if not tests:
                inner = body()
                body = lambda: inner
            tests.append((subj, subj_slot, pat, feats, nested))
            pat = None
            if nested:
                subj, pat = nested.pop()
                subj_slot = self.temps[subj]
        t = type(pat)
        if t is S.SVar:
            slot = sc[pat.name]
            eq = KEq(pat.name, subj)
            eq.slots = (slot, subj_slot)
            cur = KLocal([pat.name], kseq([eq, body()]))
            cur.slots = (slot,)
        elif t is S.SInt or t is S.SAtom:
            cur = KCase(subj, KPatLit(pat.value if t is S.SInt else pat.name),
                        body(), els)
            cur.slots = (subj_slot,)
        else:           # a wildcard, or no pattern left
            cur = body()
        # wrap the other nested tests and each record's test around it
        for subj, subj_slot, pat, feats, nested in reversed(tests):
            for name, sub in reversed(nested):
                cur = self.compile_pat(name, self.temps[name], sub, sc,
                                       lambda k=cur: k, els)
            cur = KCase(subj, KPatRec(pat.label, feats), cur, els)
            cur.slots = (subj_slot,) + tuple([self.ref(n, sc)
                                              for _, n in cur.pat.feats])
        return cur

    # -- choice / dis ---------------------------------------------------------

    def choice(self, p, sc, target):
        """Each statement here reads only y, fresh in this frame, so each
        takes y's slot as it is."""
        n = len(p.branches)
        y = self.fresh("C")
        ys = (self.temps[y],)
        chain = self.walk(p.branches[-1], sc)
        for i in range(n - 2, -1, -1):
            chain = KCase(y, KPatLit(i + 1), self.walk(p.branches[i], sc),
                          chain)
            chain.slots = ys
        choose = KApply(base_op("Choose"), [Lit(n), y])
        choose.slots = (None, None) + ys
        k = KLocal([y], kseq([choose, chain]))
        k.slots = ys
        return k

    def dis(self, p, sc, target):
        temps, stmts = [], []
        gops, bops = [], []
        for guard, body in p.pairs:
            g = self.fresh("G")
            b = self.fresh("B")
            temps.extend([g, b])
            for name, q in ((g, guard), (b, body)):
                outer = self.enter()
                stmts.append(self.proc(outer, name, [], self.walk(q, sc), sc))
            gops.append(g)
            bops.append(b)
        gl = self.klist(gops, sc, temps, stmts)
        bl = self.klist(bops, sc, temps, stmts)
        stmts.append(self.resolved(KApply(DIS_COMBINATOR, [gl, bl]), sc,
                                   DIS_COMBINATOR, gl, bl))
        return self.wrap(temps, stmts)

    def klist(self, ops, sc, temps, stmts):
        """Build a list of the given operands; returns the list operand."""
        tail = Lit("nil")
        cells = []
        for _ in ops:
            name = self.fresh("L")
            temps.append(name)
            cells.append(name)
        for name, op in zip(reversed(cells), reversed(ops)):
            stmts.append(self.resolved(
                KTellRec(name, "|", [(1, op), (2, tail)]), sc, name, op, tail))
            tail = name
        return tail

    # -- finite-domain tells ----------------------------------------------

    def fd_stmt(self, p, sc, target):
        temps, stmts = [], []
        if p.op == ":::":
            vec = self.operand(p.lhs, sc, temps, stmts)
            dom = self.operand(p.rhs, sc, temps, stmts)
            stmts.append(self.apply_base("FDDomTellVec", [vec, dom], sc))
            return self.wrap(temps, stmts)
        lc, lm = self.poly(p.lhs, sc, temps, stmts)
        rc, rm = self.poly(p.rhs, sc, temps, stmts)
        const = lc - rc
        pair_memo = {}
        coeffs, vars_ = [], []
        for c, vs in _combine(lm + [(-c, vs) for (c, vs) in rm]):
            if c == 0:
                continue
            v = self.mono_var(vs, pair_memo, sc, temps, stmts)
            coeffs.append(c)
            vars_.append(v)
        rel = {"=:": "eq", "<:": "lt", "=<:": "leq"}[p.op]
        args = [Lit(_int_list(coeffs)), self.klist(vars_, sc, temps, stmts),
                Lit(rel), Lit(-const)]
        stmts.append(self.apply_base("FDLinRel", args, sc))
        return self.wrap(temps, stmts)

    def mono_var(self, vs, memo, sc, temps, stmts):
        """Fold a factor tuple into one variable via pairwise products, from
        the right: (v1, v2, v3) is v1 * (v2 * v3).  memo maps a pair of
        operands to the product variable made for it."""
        rest = vs[-1]
        for v in reversed(vs[:-1]):
            prod = memo.get((v, rest))
            if prod is None:
                prod = memo[v, rest] = self.fresh("Q")
                temps.append(prod)
                stmts.append(self.apply_base("FDMulProp", [v, rest, prod],
                                             sc))
            rest = prod
        return rest

    def poly(self, p, sc, temps, stmts):
        """Normalize to (constant, [(coeff, factor-tuple)]), like terms
        combined after every operator (`_combine`), so a product of sums
        keeps one term per monomial.  The left spine of an operator chain
        is followed by a loop; a right operand recurses, which MAX_NESTING
        bounds."""
        spine = []
        while type(p) is S.SOp and p.op in ("+", "-", "*"):
            spine.append(p)
            p = p.lhs
        if type(p) is S.SInt:
            lc, lm = p.value, []
        else:
            lc, lm = 0, [(1, (self.operand(p, sc, temps, stmts),))]
        for p in reversed(spine):
            rc, rm = self.poly(p.rhs, sc, temps, stmts)
            if p.op == "+":
                lc, lm = lc + rc, _combine(lm + rm)
            elif p.op == "-":
                lc, lm = lc - rc, _combine(lm + [(-c, vs) for (c, vs) in rm])
            else:
                out = []
                for c, vs in lm:
                    if rc:
                        out.append((c * rc, vs))
                for c, vs in rm:
                    if lc:
                        out.append((lc * c, vs))
                for c1, v1 in lm:
                    for c2, v2 in rm:
                        out.append((c1 * c2, v1 + v2))
                lc, lm = lc * rc, _combine(out)
        return lc, lm


# The Desugarer method for each phrase type, in statement position and in
# expression position.
_BOTH = {S.SSeq: Desugarer.seq, S.SLocal: Desugarer.local,
         S.SApply: Desugarer.apply, S.SIf: Desugarer.if_chain,
         S.SCase: Desugarer.case, S.SProc: Desugarer.procedure,
         S.SThread: Desugarer.thread}
_STATEMENT = {**_BOTH, S.SDeclare: Desugarer.local, S.SSkip: Desugarer.skip,
              S.SEq: Desugarer.tell, S.SFd: Desugarer.fd_stmt,
              S.STry: Desugarer.try_, S.SRaise: Desugarer.raise_,
              S.SChoice: Desugarer.choice, S.SDis: Desugarer.dis}
_EXPRESSION = {**_BOTH, S.SVar: Desugarer.value, S.SInt: Desugarer.value,
               S.SAtom: Desugarer.value, S.SWild: Desugarer.skip,
               S.SOp: Desugarer.binop,
               S.SRecordCons: lambda d, p, sc, target:
                   d.record(p, sc, target)[1]}


def _combine(terms):
    """Add up like terms of [(coeff, factor-tuple)]: terms whose factors are
    the same multiset, in any order, become one, which keeps the factor
    tuple and the place of the first of them.  A sum that cancels stays, at
    coefficient 0, so the terms come out in the order they would have if
    they were combined only once, at the end."""
    out = {}
    for c, vs in terms:
        key = frozenset(Counter(vs).items())
        seen = out.get(key)
        out[key] = (c, vs) if seen is None else (seen[0] + c, seen[1])
    return list(out.values())


def number_feats(feats):
    """Number the positional features of a record or pattern 1, 2, ... in
    order.  Returns the (feature, item) pairs before the first feature that
    repeats, and that feature (None when none repeats)."""
    out = []
    seen = set()
    pos = 0
    for f, q in feats:
        if f is None:
            pos += 1
            f = pos
        if f in seen:
            return out, f
        seen.add(f)
        out.append((f, q))
    return out, None


def _int_list(ints):
    out = "nil"
    for i in reversed(ints):
        out = Record("|", [(1, i), (2, out)])
    return out


def desugar(phrase, base_names):
    """The kernel statement for a program phrase.  Names in base_names are
    outer: the program's frame starts with those it uses, listed with the
    frame size in the statement's `root`.  base_names is only read by
    `in` tests, so a set keeps them fast."""
    d = Desugarer(base_names)
    k = d.walk(phrase, {})
    outer, _, size = d.frame.close()
    number_body(k, size)
    k.root = (outer, size)
    return k
