"""Kernel statements and the desugarer from surface phrases.

A kernel operand is either an identifier (a plain str, looked up in the
thread environment) or a Lit wrapping a ground term.

Each desugaring job is done by one walk.  `Desugarer.walk` translates a
phrase in either position, chosen by its target: with no target the phrase
is a statement; with one it is an expression, and the kernel binds the
target identifier to its value.  `compile_pat` compiles every pattern,
nested sub-patterns included; `number_feats` numbers the positional
features of records and patterns; `free_names` is one bottom-up walk that
fills in each KProc.free as it returns.

The pretty printer emits kernel statements back as parseable surface text,
so desugar(parse(pretty(k))) is alpha-equivalent to k.
"""

from __future__ import annotations

from .errors import ParseError
from . import syntax as S
from .terms import Record, _feat_key


class Lit:
    """A literal operand: an int, an atom, or a ground record term."""

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
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        if a.label != b.label or a.arity() != b.arity():
            return False
        return all(_term_eq(x, y) for (_, x), (_, y) in zip(a.feats, b.feats))
    return a == b


class KStmt:
    __slots__ = ()

    def __repr__(self):
        slots = [s for c in type(self).__mro__ for s in getattr(c, "__slots__", ())]
        inner = ", ".join(repr(getattr(self, s)) for s in slots)
        return f"{type(self).__name__}({inner})"


class KSkip(KStmt):
    __slots__ = ()


class KEq(KStmt):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


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
        flat = []
        for s in stmts:
            if type(s) is KSeq:
                flat.extend(s.stmts)
            elif type(s) is not KSkip:
                flat.append(s)
        self.stmts = tuple(flat)


def kseq(stmts):
    s = KSeq(stmts)
    if not s.stmts:
        return KSkip()
    if len(s.stmts) == 1:
        return s.stmts[0]
    return s


class KLocal(KStmt):
    __slots__ = ("names", "body")

    def __init__(self, names, body):
        self.names = tuple(names)
        self.body = body


class KIf(KStmt):
    __slots__ = ("x", "then", "els")

    def __init__(self, x, then, els):
        self.x = x
        self.then = then
        self.els = els


class KPatLit:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __repr__(self):
        return f"KPatLit({self.v!r})"


class KPatRec:
    """label plus (feature, identifier) pairs in canonical feature order."""

    __slots__ = ("label", "feats")

    def __init__(self, label, feats):
        self.label = label
        self.feats = tuple(sorted(feats, key=lambda fn: _feat_key(fn[0])))

    def __repr__(self):
        return f"KPatRec({self.label!r}, {self.feats!r})"


class KCase(KStmt):
    __slots__ = ("x", "pat", "then", "els")

    def __init__(self, x, pat, then, els):
        self.x = x
        self.pat = pat
        self.then = then
        self.els = els


class KProc(KStmt):
    __slots__ = ("x", "params", "body", "free")

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


class KThread(KStmt):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body


class KTry(KStmt):
    __slots__ = ("body", "var", "handler")

    def __init__(self, body, var, handler):
        self.body = body
        self.var = var
        self.handler = handler


class KRaise(KStmt):
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


# ----------------------------------------------------------------------
# desugaring

_ARITH = {"+": "IntPlus", "-": "IntMinus", "*": "IntTimes"}


class Desugarer:
    def __init__(self, base_names):
        self.base = frozenset(base_names)
        self.n = 0
        self.ground = {}        # try_ground's answer for each record phrase

    def fresh(self, hint="T"):
        self.n += 1
        return f"_{hint}{self.n}"

    def err(self, msg, phrase):
        pos = getattr(phrase, "pos", None)
        if pos:
            raise ParseError(msg, pos[0], pos[1])
        raise ParseError(msg)

    def use(self, name, sc, phrase):
        if name not in sc and name not in self.base:
            self.err(f"variable {name} is not introduced", phrase)
        return name

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
            g = try_ground(p, self.ground)
            if g is not None:
                return Lit(g)
        if t is S.SWild:
            name = self.fresh("W")
            temps.append(name)
            return name
        name = self.fresh()
        temps.append(name)
        stmts.append(self.walk(p, sc, name))
        return name

    def wrap(self, temps, stmts):
        body = kseq(stmts)
        if temps:
            return KLocal(temps, body)
        return body

    # -- phrases ------------------------------------------------------------

    def walk(self, p, sc, target=None):
        """Kernel for phrase p in scope sc.  With no target p is in statement
        position; with one it is in expression position and the kernel binds
        the target identifier to p's value."""
        t = type(p)
        # constructs legal in both positions
        if t is S.SSeq:
            out = [self.walk(q, sc) for q in p.phrases[:-1]]
            out.append(self.walk(p.phrases[-1], sc, target))
            return kseq(out)
        if t is S.SLocal or (t is S.SDeclare and target is None):
            return KLocal(p.names, self.walk(p.body, sc | set(p.names), target))
        if t is S.SLocalBind:
            sc2 = sc | {p.name}
            return KLocal([p.name], kseq([self.walk(p.rhs, sc2, p.name),
                                          self.walk(p.body, sc2, target)]))
        if t is S.SApply:
            temps, stmts = [], []
            ops = [self.operand(q, sc, temps, stmts) for q in p.items]
            args = ops[1:] if target is None else ops[1:] + [target]
            stmts.append(KApply(ops[0], args))
            return self.wrap(temps, stmts)
        if t is S.SIf:
            if p.els is None and target is not None:
                self.err("an if used as an expression needs an else", p)
            temps, stmts = [], []
            c = self.operand(p.cond, sc, temps, stmts)
            then = self.walk(p.then, sc, target)
            els = KSkip() if p.els is None else self.walk(p.els, sc, target)
            stmts.append(KIf(c, then, els))
            return self.wrap(temps, stmts)
        if t is S.SCase:
            return self.case(p, sc, target)
        if t is S.SProc:
            if target is None:
                if p.name is None:
                    self.err("a procedure in statement position needs a name", p)
                target = self.use(p.name, sc, p)
            elif p.name is not None:
                self.err("a named procedure definition is a statement", p)
            return self.proc_into(p, target, sc)
        if t is S.SThread:
            return KThread(self.walk(p.body, sc, target))
        if target is None:      # constructs legal in statement position only
            if t is S.SSkip:
                return KSkip()
            if t is S.SEq:
                return self.tell(p, sc)
            if t is S.SFd:
                return self.fd_stmt(p, sc)
            if t is S.STry:
                return KTry(self.walk(p.body, sc), p.var,
                            self.walk(p.handler, sc | {p.var}))
            if t is S.SRaise:
                temps, stmts = [], []
                op = self.operand_of_seq(p.value, sc, temps, stmts)
                stmts.append(KRaise(op))
                return self.wrap(temps, stmts)
            if t is S.SChoice:
                return self.choice(p, sc)
            if t is S.SDis:
                return self.dis(p, sc)
            self.err("this expression cannot stand alone as a statement", p)
        # constructs legal in expression position only
        if t is S.SVar:
            return KEq(target, self.use(p.name, sc, p))
        if t is S.SInt:
            return KEq(target, Lit(p.value))
        if t is S.SAtom:
            return KEq(target, Lit(p.name))
        if t is S.SWild:
            return KSkip()
        if t is S.SRecordCons:
            temps, stmts = [], []
            pairs, dup = number_feats(p.feats)
            feats = []
            for f, q in pairs:
                feats.append((f, self.operand(q, sc, temps, stmts)))
            if dup is not None:
                self.err(f"duplicate feature {dup}", p)
            if feats and all(type(o) is Lit for _, o in feats):
                return KEq(target, Lit(Record(p.label,
                                              [(f, o.v) for f, o in feats])))
            stmts.append(KTellRec(target, p.label, feats))
            return self.wrap(temps, stmts)
        if t is S.SOp:
            temps, stmts = [], []
            a = self.operand(p.lhs, sc, temps, stmts)
            b = self.operand(p.rhs, sc, temps, stmts)
            op = p.op
            if op in _ARITH:
                stmts.append(KApply(_ARITH[op], [a, b, target]))
            elif op == "<":
                stmts.append(KApply("Less", [a, b, target]))
            elif op == "=<":
                stmts.append(KApply("Leq", [a, b, target]))
            elif op == ">":
                stmts.append(KApply("Less", [b, a, target]))
            elif op == "==":
                stmts.append(KApply("Equal", [a, b, target]))
            else:
                self.err(f"operator {op} has no value", p)
            return self.wrap(temps, stmts)
        self.err("this construct has no value", p)

    def operand_of_seq(self, p, sc, temps, stmts):
        """Operand of a phrase that may be a sequence ending in a value."""
        if type(p) is S.SSeq:
            for q in p.phrases[:-1]:
                stmts.append(self.walk(q, sc))
            return self.operand(p.phrases[-1], sc, temps, stmts)
        return self.operand(p, sc, temps, stmts)

    def tell(self, p, sc):
        lhs, rhs = p.lhs, p.rhs
        if type(lhs) is S.SVar:
            self.use(lhs.name, sc, lhs)
            return self.walk(rhs, sc, lhs.name)
        if type(rhs) is S.SVar:
            self.use(rhs.name, sc, rhs)
            return self.walk(lhs, sc, rhs.name)
        name = self.fresh()
        return KLocal([name], kseq([self.walk(lhs, sc, name),
                                    self.walk(rhs, sc, name)]))

    def proc_into(self, p, target, sc):
        params = []
        sc2 = set(sc)
        for name in p.params:
            if name is None:
                name = self.fresh("P")
            params.append(name)
            sc2.add(name)
        if not p.is_fun:
            return KProc(target, params, self.walk(p.body, frozenset(sc2)))
        out = self.fresh("R")
        body = self.walk(p.body, frozenset(sc2), out)
        if not p.lazy:
            return KProc(target, params + [out], body)
        # lazy: the result is a by-need variable whose trigger runs the body
        trig = self.fresh("F")
        cell = self.fresh("X")
        out2 = self.fresh("O")
        lazy_body = KLocal(
            [trig, cell],
            kseq([KProc(trig, [out], body),
                  KApply("ByNeed", [trig, cell]),
                  KEq(out2, cell)]))
        return KProc(target, params + [out2], lazy_body)

    # -- case ---------------------------------------------------------------

    def case(self, p, sc, target):
        temps, stmts = [], []
        subj = self.operand(p.subject, sc, temps, stmts)
        if p.els is not None:
            chain = self.walk(p.els, sc, target)
        else:
            chain = self.case_miss()
        for pat, body in reversed(p.clauses):
            # the body sees every variable the pattern binds, including
            # those in nested sub-patterns
            sc2 = sc | pat_vars(pat)
            chain = self.compile_pat(
                subj, pat, lambda: self.walk(body, sc2, target), chain)
        stmts.append(chain)
        return self.wrap(temps, stmts)

    def case_miss(self):
        return KRaise(Lit(Record("error", [("kind", "case")])))

    def compile_pat(self, subj, pat, body, els):
        """Test subj against pat: on a match run the kernel body() makes,
        otherwise els.  body() is called after the pattern's own feature
        names are made and before its nested sub-patterns are compiled."""
        t = type(pat)
        if t is S.PWild:
            return body()
        if t is S.PVar:
            return KLocal([pat.name], kseq([KEq(pat.name, subj), body()]))
        if t is S.PLit:
            return KCase(subj, KPatLit(pat.value), body(), els)
        pairs, dup = number_feats(pat.feats)
        if dup is not None:
            self.err(f"duplicate feature {dup} in pattern", pat)
        feats = []
        nested = []
        for f, sub in pairs:
            st = type(sub)
            if st is S.PVar:
                feats.append((f, sub.name))
            elif st is S.PWild:
                feats.append((f, self.fresh("W")))
            else:
                name = self.fresh("M")
                feats.append((f, name))
                nested.append((name, sub))
        # innermost: the body; wrap nested sub-pattern tests outside in
        cur = body()
        for name, sub in reversed(nested):
            cur = self.compile_pat(name, sub, lambda k=cur: k, els)
        return KCase(subj, KPatRec(pat.label, feats), cur, els)

    # -- choice / dis ---------------------------------------------------------

    def choice(self, p, sc):
        n = len(p.branches)
        y = self.fresh("C")
        chain = self.walk(p.branches[-1], sc)
        for i in range(n - 2, -1, -1):
            chain = KCase(y, KPatLit(i + 1), self.walk(p.branches[i], sc), chain)
        return KLocal([y], kseq([KApply("Choose", [Lit(n), y]), chain]))

    def dis(self, p, sc):
        temps, stmts = [], []
        gops, bops = [], []
        for guard, body in p.pairs:
            g = self.fresh("G")
            b = self.fresh("B")
            temps.extend([g, b])
            stmts.append(KProc(g, [], self.walk(guard, sc)))
            stmts.append(KProc(b, [], self.walk(body, sc)))
            gops.append(g)
            bops.append(b)
        gl = self.klist(gops, temps, stmts)
        bl = self.klist(bops, temps, stmts)
        stmts.append(KApply("DisCombinator", [gl, bl]))
        return self.wrap(temps, stmts)

    def klist(self, ops, temps, stmts):
        """Build a list of the given operands; returns the list operand."""
        tail = Lit("nil")
        cells = []
        for _ in ops:
            name = self.fresh("L")
            temps.append(name)
            cells.append(name)
        for name, op in zip(reversed(cells), reversed(ops)):
            stmts.append(KTellRec(name, "|", [(1, op), (2, tail)]))
            tail = name
        return tail

    # -- finite-domain tells ----------------------------------------------

    def fd_stmt(self, p, sc):
        temps, stmts = [], []
        if p.op == ":::":
            vec = self.operand(p.lhs, sc, temps, stmts)
            dom = self.operand(p.rhs, sc, temps, stmts)
            stmts.append(KApply("FDDomTellVec", [vec, dom]))
            return self.wrap(temps, stmts)
        lc, lm = self.poly(p.lhs, sc, temps, stmts)
        rc, rm = self.poly(p.rhs, sc, temps, stmts)
        const = lc - rc
        monos = lm + [(-c, vs) for (c, vs) in rm]
        # combine like terms (same ordered factor tuple)
        combined = {}
        order = []
        for c, vs in monos:
            if vs not in combined:
                combined[vs] = 0
                order.append(vs)
            combined[vs] += c
        pair_memo = {}
        coeffs, vars_ = [], []
        for vs in order:
            c = combined[vs]
            if c == 0:
                continue
            v = self.mono_var(vs, pair_memo, temps, stmts)
            coeffs.append(c)
            vars_.append(v)
        rel = {"=:": "eq", "<:": "lt", "=<:": "leq"}[p.op]
        coeff_term = Lit(_int_list(coeffs))
        vl = self.klist(vars_, temps, stmts)
        stmts.append(KApply("FDLinRel", [coeff_term, vl, Lit(rel), Lit(-const)]))
        return self.wrap(temps, stmts)

    def mono_var(self, vs, memo, temps, stmts):
        """Fold a factor tuple into one variable via pairwise products."""
        if len(vs) == 1:
            return vs[0]
        rest = self.mono_var(vs[1:], memo, temps, stmts)
        key = (vs[0], rest)
        if key in memo:
            return memo[key]
        prod = self.fresh("Q")
        temps.append(prod)
        stmts.append(KApply("FDDecl", [prod]))
        stmts.append(KApply("FDMulProp", [vs[0], rest, prod]))
        memo[key] = prod
        return prod

    def poly(self, p, sc, temps, stmts):
        """Normalize to (constant, [(coeff, factor-tuple)])."""
        t = type(p)
        if t is S.SInt:
            return p.value, []
        if t is S.SOp and p.op in ("+", "-", "*"):
            lc, lm = self.poly(p.lhs, sc, temps, stmts)
            rc, rm = self.poly(p.rhs, sc, temps, stmts)
            if p.op == "+":
                return lc + rc, lm + rm
            if p.op == "-":
                return lc - rc, lm + [(-c, vs) for (c, vs) in rm]
            out = []
            const = lc * rc
            for c, vs in lm:
                if rc:
                    out.append((c * rc, vs))
            for c, vs in rm:
                if lc:
                    out.append((lc * c, vs))
            for c1, v1 in lm:
                for c2, v2 in rm:
                    out.append((c1 * c2, v1 + v2))
            return const, out
        op = self.operand(p, sc, temps, stmts)
        return 0, [(1, (op,))]


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


def try_ground(p, memo):
    """The ground term a phrase denotes, or None if it is not ground.

    `memo` keeps the answer for every record phrase it walked, so the
    operand path, which asks again for each field of a record that is not
    ground, walks each sub-phrase once."""
    t = type(p)
    if t is S.SInt:
        return p.value
    if t is S.SAtom:
        return p.name
    if t is not S.SRecordCons:
        return None
    if p in memo:
        return memo[p]
    g = None
    feats = []
    for f, q in p.feats:
        sub = try_ground(q, memo)
        if sub is None:
            break
        feats.append((f, sub))
    else:
        feats, dup = number_feats(feats)
        if dup is None and feats:   # the operand path reports a duplicate
            g = Record(p.label, feats)
    memo[p] = g
    return g


def pat_vars(pat):
    t = type(pat)
    if t is S.PVar:
        return {pat.name}
    if t is S.PRecord:
        out = set()
        for _, sub in pat.feats:
            out |= pat_vars(sub)
        return out
    return set()


def _int_list(ints):
    out = "nil"
    for i in reversed(ints):
        out = Record("|", [(1, i), (2, out)])
    return out


def desugar(phrase, base_names, extra_names=()):
    k = Desugarer(base_names).walk(phrase, frozenset(extra_names))
    free_names(k)
    return k


# ----------------------------------------------------------------------
# free identifiers

def free_names(k):
    """The identifiers free in k.  On the way back up it fills in each
    KProc.free: the identifiers the closure captures."""
    cache = {}      # by node id: case chains share their else branches

    def op_free(o, acc):
        if type(o) is str:
            acc.add(o)

    def walk(s):
        key = id(s)
        got = cache.get(key)
        if got is not None:
            return got
        t = type(s)
        acc = set()
        if t is KSkip:
            pass
        elif t is KEq:
            op_free(s.a, acc)
            op_free(s.b, acc)
        elif t is KTellRec:
            acc.add(s.x) if type(s.x) is str else None
            for _, o in s.feats:
                op_free(o, acc)
        elif t is KSeq:
            for q in s.stmts:
                acc |= walk(q)
        elif t is KLocal:
            acc = walk(s.body) - set(s.names)
        elif t is KIf:
            op_free(s.x, acc)
            acc |= walk(s.then) | walk(s.els)
        elif t is KCase:
            op_free(s.x, acc)
            bound = set()
            if type(s.pat) is KPatRec:
                bound = {n for _, n in s.pat.feats}
            acc |= (walk(s.then) - bound) | walk(s.els)
        elif t is KProc:
            captured = walk(s.body) - set(s.params)
            s.free = tuple(sorted(captured))
            acc.add(s.x) if type(s.x) is str else None
            acc |= captured
        elif t is KApply:
            op_free(s.f, acc)
            for o in s.args:
                op_free(o, acc)
        elif t is KThread:
            acc |= walk(s.body)
        elif t is KTry:
            acc |= walk(s.body) | (walk(s.handler) - {s.var})
        elif t is KRaise:
            op_free(s.x, acc)
        cache[key] = acc
        return acc

    return walk(k)


# ----------------------------------------------------------------------
# pretty printing back to surface syntax

_BARE_ATOM = __import__("re").compile(r"[a-z][A-Za-z0-9_]*$")


def _atom_out(a):
    if _BARE_ATOM.match(a) and a not in S.KEYWORDS:
        return a
    return f"'{a}'"


def _term_out(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v) if v >= 0 else f"~{-v}"
    if isinstance(v, str):
        return _atom_out(v)
    if isinstance(v, Record):
        inner = " ".join(f"{_feat_out(f)}:{_term_out(x)}" for f, x in v.feats)
        return f"{_atom_out(v.label)}({inner})"
    raise ValueError(f"unprintable literal {v!r}")


def _feat_out(f):
    if isinstance(f, int):
        return str(f)
    return _atom_out(f)


def _op_out(o):
    if type(o) is str:
        return o
    return _term_out(o.v)


def pretty(k, indent=0):
    pad = "   " * indent
    t = type(k)
    if t is KSkip:
        return pad + "skip"
    if t is KEq:
        return f"{pad}{_op_out(k.a)} = {_op_out(k.b)}"
    if t is KTellRec:
        inner = " ".join(f"{_feat_out(f)}:{_op_out(o)}" for f, o in k.feats)
        return f"{pad}{_op_out(k.x)} = {_atom_out(k.label)}({inner})"
    if t is KSeq:
        return "\n".join(pretty(s, indent) for s in k.stmts)
    if t is KLocal:
        return (f"{pad}local {' '.join(k.names)} in\n"
                f"{pretty(k.body, indent + 1)}\n{pad}end")
    if t is KIf:
        return (f"{pad}if {_op_out(k.x)} then\n{pretty(k.then, indent + 1)}\n"
                f"{pad}else\n{pretty(k.els, indent + 1)}\n{pad}end")
    if t is KCase:
        if type(k.pat) is KPatLit:
            pat = _term_out(k.pat.v)
        else:
            inner = " ".join(f"{_feat_out(f)}:{n}" for f, n in k.pat.feats)
            pat = f"{_atom_out(k.pat.label)}({inner})"
        return (f"{pad}case {_op_out(k.x)} of {pat} then\n"
                f"{pretty(k.then, indent + 1)}\n"
                f"{pad}else\n{pretty(k.els, indent + 1)}\n{pad}end")
    if t is KProc:
        head = " ".join([_op_out(k.x)] + list(k.params))
        return f"{pad}proc {{{head}}}\n{pretty(k.body, indent + 1)}\n{pad}end"
    if t is KApply:
        inner = " ".join(_op_out(o) for o in (k.f,) + k.args)
        return f"{pad}{{{inner}}}"
    if t is KThread:
        return f"{pad}thread\n{pretty(k.body, indent + 1)}\n{pad}end"
    if t is KTry:
        return (f"{pad}try\n{pretty(k.body, indent + 1)}\n"
                f"{pad}catch {k.var} then\n"
                f"{pretty(k.handler, indent + 1)}\n{pad}end")
    if t is KRaise:
        return f"{pad}raise {_op_out(k.x)} end"
    raise ValueError(f"cannot print {k!r}")


# ----------------------------------------------------------------------
# alpha equivalence of kernel statements

def alpha_equivalent(k1, k2):
    def ops(o1, o2, m12, m21):
        if type(o1) is str and type(o2) is str:
            b1 = m12.get(o1)
            b2 = m21.get(o2)
            if b1 is None and b2 is None:
                return o1 == o2      # both free
            return b1 == o2 and b2 == o1
        if type(o1) is Lit and type(o2) is Lit:
            return _term_eq(o1.v, o2.v)
        return False

    def bind(names1, names2, m12, m21):
        m12 = dict(m12)
        m21 = dict(m21)
        for a, b in zip(names1, names2):
            m12[a] = b
            m21[b] = a
        return m12, m21

    def walk(a, b, m12, m21):
        if type(a) is not type(b):
            # sequences of one collapse, so normalize
            return False
        t = type(a)
        if t is KSkip:
            return True
        if t is KEq:
            return ops(a.a, b.a, m12, m21) and ops(a.b, b.b, m12, m21)
        if t is KTellRec:
            if a.label != b.label or len(a.feats) != len(b.feats):
                return False
            if not ops(a.x, b.x, m12, m21):
                return False
            return all(f1 == f2 and ops(o1, o2, m12, m21)
                       for (f1, o1), (f2, o2) in zip(a.feats, b.feats))
        if t is KSeq:
            if len(a.stmts) != len(b.stmts):
                return False
            return all(walk(x, y, m12, m21)
                       for x, y in zip(a.stmts, b.stmts))
        if t is KLocal:
            if len(a.names) != len(b.names):
                return False
            n12, n21 = bind(a.names, b.names, m12, m21)
            return walk(a.body, b.body, n12, n21)
        if t is KIf:
            return (ops(a.x, b.x, m12, m21)
                    and walk(a.then, b.then, m12, m21)
                    and walk(a.els, b.els, m12, m21))
        if t is KCase:
            if not ops(a.x, b.x, m12, m21):
                return False
            if type(a.pat) is not type(b.pat):
                return False
            if type(a.pat) is KPatLit:
                if a.pat.v != b.pat.v:
                    return False
                n12, n21 = m12, m21
            else:
                if a.pat.label != b.pat.label:
                    return False
                if [f for f, _ in a.pat.feats] != [f for f, _ in b.pat.feats]:
                    return False
                n12, n21 = bind([n for _, n in a.pat.feats],
                                [n for _, n in b.pat.feats], m12, m21)
            return (walk(a.then, b.then, n12, n21)
                    and walk(a.els, b.els, m12, m21))
        if t is KProc:
            if len(a.params) != len(b.params):
                return False
            if not ops(a.x, b.x, m12, m21):
                return False
            n12, n21 = bind(a.params, b.params, m12, m21)
            return walk(a.body, b.body, n12, n21)
        if t is KApply:
            if len(a.args) != len(b.args):
                return False
            return (ops(a.f, b.f, m12, m21)
                    and all(ops(x, y, m12, m21)
                            for x, y in zip(a.args, b.args)))
        if t is KThread:
            return walk(a.body, b.body, m12, m21)
        if t is KTry:
            n12, n21 = bind([a.var], [b.var], m12, m21)
            return (walk(a.body, b.body, m12, m21)
                    and walk(a.handler, b.handler, n12, n21))
        if t is KRaise:
            return ops(a.x, b.x, m12, m21)
        return False

    return walk(k1, k2, {}, {})
