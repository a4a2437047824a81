"""Surface syntax: tokenizer and parser.

The parser builds phrases, not statements or expressions: the same construct
(an application, a case, an if) is legal in both positions, and only the
desugarer knows which one it is in.  A phrase sequence is an SSeq; when a
sequence is used as an expression its last phrase is the value.

Variables start with an upper-case letter and may contain dots, so a dotted
module-style name like a search or fd entry point is one identifier.  Atoms
start lower-case or are quoted.  `[]` is the clause separator, never an
empty list; the empty list is the atom nil.

The parser is recursive descent, but operator chains, `|` chains and
`elseif` chains are read by loops.  Nesting is limited: more than
MAX_NESTING sequences, expressions and patterns open inside one another is
a ParseError.  A level takes about four Python frames, so the limit keeps
the parser near 800 frames deep, inside the host's default limit of 1000.
"""

from __future__ import annotations

import re

from .errors import ParseError

MAX_NESTING = 200

# binding power of the infix operators; comparison is non-associative and
# `|` right-associative, the others left-associative, `#` n-ary
_INFIX = {"*": 4, "+": 3, "-": 3, "#": 2, "|": 1,
          "<": 0, "=<": 0, ">": 0, "==": 0}

KEYWORDS = {
    "declare", "local", "in", "end", "proc", "fun", "lazy", "if", "then",
    "else", "elseif", "case", "of", "thread", "try", "catch", "raise",
    "choice", "dis", "skip",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<int>~?\d+)
  | (?P<var>(?:[A-Z]|_[A-Za-z0-9_])[A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*)
  | (?P<atom>[a-z][A-Za-z0-9_]*)
  | (?P<qatom>'[^'\n]*')
  | (?P<sym>=<:|:::|\[\]|=<|=:|<:|==|[{}()\[\]|\#:=<>+\-*$_!])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "value", "line", "col", "start", "end")

    def __init__(self, kind, value, line, col, start, end):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col
        self.start = start
        self.end = end

    def __repr__(self):
        return f"{self.kind}:{self.value!r}"


def tokenize(src: str):
    toks = []
    pos = 0
    line = 1
    bol = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             line, pos - bol + 1)
        kind = m.lastgroup
        text = m.group()
        if kind in ("ws", "comment"):
            line += text.count("\n")
            if "\n" in text:
                bol = m.start() + text.rindex("\n") + 1
            pos = m.end()
            continue
        col = m.start() - bol + 1
        if kind == "int":
            value = -int(text[1:]) if text[0] == "~" else int(text)
            toks.append(Token("int", value, line, col, m.start(), m.end()))
        elif kind == "var":
            toks.append(Token("var", text, line, col, m.start(), m.end()))
        elif kind == "atom":
            k = "kw" if text in KEYWORDS else "atom"
            toks.append(Token(k, text, line, col, m.start(), m.end()))
        elif kind == "qatom":
            toks.append(Token("atom", text[1:-1], line, col, m.start(), m.end()))
        else:
            toks.append(Token("sym", text, line, col, m.start(), m.end()))
        pos = m.end()
    toks.append(Token("eof", None, line, n - bol + 1, n, n))
    return toks


# ----------------------------------------------------------------------
# surface phrases


class Phrase:
    __slots__ = ("pos",)

    def __init__(self, pos=None):
        self.pos = pos

    def __repr__(self):
        slots = [s for c in type(self).__mro__ for s in getattr(c, "__slots__", ())
                 if s != "pos"]
        inner = " ".join(repr(getattr(self, s)) for s in slots)
        return f"{type(self).__name__}({inner})"


def _node(name, *slots):
    cls = type(name, (Phrase,), {"__slots__": slots})

    def init(self, *args, pos=None):
        Phrase.__init__(self, pos)
        for s, a in zip(slots, args):
            setattr(self, s, a)
    cls.__init__ = init
    return cls


SVar = _node("SVar", "name")
SInt = _node("SInt", "value")
SAtom = _node("SAtom", "name")
SWild = _node("SWild")
SRecordCons = _node("SRecordCons", "label", "feats")   # feats: [(feat|None, phrase)]
SApply = _node("SApply", "items")                      # {F A1 ... An}
SOp = _node("SOp", "op", "lhs", "rhs")
SEq = _node("SEq", "lhs", "rhs")
SFd = _node("SFd", "op", "lhs", "rhs")                 # =: <: =<: :::
SSeq = _node("SSeq", "phrases")
SSkip = _node("SSkip")
SLocal = _node("SLocal", "names", "body")
SLocalBind = _node("SLocalBind", "name", "rhs", "body")
SIf = _node("SIf", "cond", "then", "els")              # els may be None
SCase = _node("SCase", "subject", "clauses", "els")    # clauses: [(pat, body)]
SProc = _node("SProc", "name", "params", "body", "lazy", "is_fun")
SThread = _node("SThread", "body")
STry = _node("STry", "body", "var", "handler")
SRaise = _node("SRaise", "value")
SChoice = _node("SChoice", "branches")
SDis = _node("SDis", "pairs")                          # [(guard, body)]
SDeclare = _node("SDeclare", "names", "body")

# patterns
PVar = _node("PVar", "name")
PWild = _node("PWild")
PLit = _node("PLit", "value")                          # int or atom
PRecord = _node("PRecord", "label", "feats")           # [(feat|None, pat)]


class Parser:
    def __init__(self, src):
        self.toks = tokenize(src)
        self.i = 0
        self.depth = 0          # sequences, expressions, patterns open

    def nest(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"phrases nest more than {MAX_NESTING} deep")

    # -- token helpers --------------------------------------------------

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind, value=None, ahead=0):
        t = self.peek(ahead)
        return t.kind == kind and (value is None or t.value == value)

    def expect(self, kind, value=None):
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            got = "end of input" if t.kind == "eof" else repr(t.value)
            raise ParseError(f"expected {want!r}, found {got}", t.line, t.col)
        return t

    def fail(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def describe(self, t):
        return "end of input" if t.kind == "eof" else repr(t.value)

    # -- program --------------------------------------------------------

    def parse_program(self):
        body = self.parse_seq(stops=())
        self.expect("eof")
        return body

    def parse_seq(self, stops):
        """A phrase sequence up to (not consuming) a stop keyword or eof."""
        self.nest()
        phrases = []
        while True:
            t = self.peek()
            if t.kind == "eof" or (t.kind == "kw" and t.value in stops) \
                    or (t.kind == "sym" and t.value in stops):
                break
            if t.kind == "kw" and t.value == "declare":
                self.next()
                names = self._name_run()
                if not names:
                    self.fail("declare needs at least one variable")
                self.expect("kw", "in")
                rest = self.parse_seq(stops)
                phrases.append(SDeclare(names, rest, pos=(t.line, t.col)))
                break
            # plain declaration prefix: Var+ in
            if t.kind == "var":
                k = 0
                while self.at("var", ahead=k):
                    k += 1
                if self.at("kw", "in", ahead=k):
                    names = self._name_run()
                    self.expect("kw", "in")
                    rest = self.parse_seq(stops)
                    phrases.append(SLocal(names, rest, pos=(t.line, t.col)))
                    break
            p = self.parse_phrase()
            # binding declaration prefix: Var = E in
            if self.at("kw", "in"):
                if type(p) is SEq and type(p.lhs) is SVar:
                    self.next()
                    rest = self.parse_seq(stops)
                    phrases.append(SLocalBind(p.lhs.name, p.rhs, rest, pos=p.pos))
                    break
                self.fail("only a variable or Var=Expr may precede 'in' here")
            phrases.append(p)
        self.depth -= 1
        if not phrases:
            return SSkip()
        if len(phrases) == 1:
            return phrases[0]
        return SSeq(phrases)

    def _name_run(self):
        names = []
        while self.at("var"):
            names.append(self.next().value)
        return names

    # -- phrases ----------------------------------------------------------

    def parse_phrase(self):
        t = self.peek()
        if t.kind == "kw":
            handler = getattr(self, "_kw_" + t.value, None)
            if handler is None:
                self.fail(f"unexpected keyword {t.value!r}")
            return handler()
        # expression, possibly extended into a tell statement
        e = self.parse_expr()
        n = self.peek()
        if n.kind == "sym" and n.value == "=":
            self.next()
            rhs = self.parse_expr()
            return SEq(e, rhs, pos=(n.line, n.col))
        if n.kind == "sym" and n.value in ("=:", "<:", "=<:", ":::"):
            self.next()
            rhs = self.parse_expr()
            return SFd(n.value, e, rhs, pos=(n.line, n.col))
        return e

    def _kw_skip(self):
        t = self.next()
        return SSkip(pos=(t.line, t.col))

    def _kw_local(self):
        t = self.next()
        names = self._name_run()
        if not names:
            self.fail("local needs at least one variable")
        self.expect("kw", "in")
        body = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SLocal(names, body, pos=(t.line, t.col))

    def _kw_if(self):
        t = self.next()
        arms = []                   # (if or elseif token, cond, then)
        while True:
            cond = self.parse_expr()
            self.expect("kw", "then")
            arms.append((t, cond, self.parse_seq(("else", "elseif", "end"))))
            if not self.at("kw", "elseif"):
                break
            t = self.next()
        els = None
        if self.at("kw", "else"):
            self.next()
            els = self.parse_seq(("end",))
        self.expect("kw", "end")
        for t, cond, then in reversed(arms):
            els = SIf(cond, then, els, pos=(t.line, t.col))
        return els

    def _kw_case(self):
        t = self.next()
        subject = self.parse_expr()
        self.expect("kw", "of")
        clauses = []
        while True:
            pat = self.parse_pattern()
            self.expect("kw", "then")
            body = self.parse_seq(("else", "end", "[]"))
            clauses.append((pat, body))
            if self.at("sym", "[]"):
                self.next()
                continue
            break
        els = None
        if self.at("kw", "else"):
            self.next()
            els = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SCase(subject, clauses, els, pos=(t.line, t.col))

    def _proc_like(self, is_fun):
        t = self.next()
        lazy = False
        if self.at("kw", "lazy"):
            self.next()
            lazy = True
        if lazy and not is_fun:
            self.fail("lazy applies to fun only")
        self.expect("sym", "{")
        if self.at("sym", "$"):
            self.next()
            name = None
        elif self.at("var"):
            name = self.next().value
        else:
            self.fail("procedure head needs a variable or $")
        params = []
        while not self.at("sym", "}"):
            if self.at("var"):
                params.append(self.next().value)
            elif self.at("sym", "_"):
                self.next()
                params.append(None)
            else:
                self.fail("procedure parameters must be variables")
        self.expect("sym", "}")
        body = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SProc(name, params, body, lazy, is_fun, pos=(t.line, t.col))

    def _kw_proc(self):
        return self._proc_like(is_fun=False)

    def _kw_fun(self):
        return self._proc_like(is_fun=True)

    def _kw_thread(self):
        t = self.next()
        body = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SThread(body, pos=(t.line, t.col))

    def _kw_try(self):
        t = self.next()
        body = self.parse_seq(("catch",))
        self.expect("kw", "catch")
        var = self.expect("var").value
        self.expect("kw", "then")
        handler = self.parse_seq(("end",))
        self.expect("kw", "end")
        return STry(body, var, handler, pos=(t.line, t.col))

    def _kw_raise(self):
        t = self.next()
        value = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SRaise(value, pos=(t.line, t.col))

    def _kw_choice(self):
        t = self.next()
        branches = [self.parse_seq(("[]", "end"))]
        while self.at("sym", "[]"):
            self.next()
            branches.append(self.parse_seq(("[]", "end")))
        self.expect("kw", "end")
        return SChoice(branches, pos=(t.line, t.col))

    def _kw_dis(self):
        t = self.next()
        pairs = []
        while True:
            guard = self.parse_seq(("then",))
            self.expect("kw", "then")
            body = self.parse_seq(("[]", "end", "else"))
            pairs.append((guard, body))
            if self.at("sym", "[]"):
                self.next()
                continue
            break
        if self.at("kw", "else"):
            self.fail("dis does not take an else clause")
        self.expect("kw", "end")
        return SDis(pairs, pos=(t.line, t.col))

    def _kw_declare(self):
        # reached only when declare appears where a single phrase is required
        self.fail("declare is only allowed at the start of a sequence")

    # -- expressions ------------------------------------------------------

    def parse_expr(self):
        """Primaries joined by infix operators, by binding power: a stack
        of pending operators instead of one function per level."""
        self.nest()
        operands = [self._expr_primary()]
        ops = []                    # (power, token)
        tuples = set()              # ids of # records this chain built
        compared = False
        while True:
            t = self.peek()
            power = _INFIX.get(t.value) if t.kind == "sym" else None
            if power is None or (power == 0 and compared):
                break
            compared = compared or power == 0
            while ops and (ops[-1][0] > power
                           or (ops[-1][0] == power and power != 1)):
                self._reduce(operands, ops, tuples)
            ops.append((power, self.next()))
            operands.append(self._expr_primary())
        while ops:
            self._reduce(operands, ops, tuples)
        self.depth -= 1
        return operands[0]

    def _reduce(self, operands, ops, tuples):
        _, t = ops.pop()
        rhs = operands.pop()
        lhs = operands.pop()
        if t.value == "#":
            if id(lhs) in tuples:
                lhs.feats.append((None, rhs))
                operands.append(lhs)
                return
            out = SRecordCons("#", [(None, lhs), (None, rhs)],
                              pos=(t.line, t.col))
            tuples.add(id(out))
        elif t.value == "|":
            out = SRecordCons("|", [(None, lhs), (None, rhs)],
                              pos=(t.line, t.col))
        else:
            out = SOp(t.value, lhs, rhs, pos=(t.line, t.col))
        operands.append(out)

    def _expr_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return SInt(t.value, pos=(t.line, t.col))
        if t.kind == "var":
            self.next()
            v = SVar(t.value, pos=(t.line, t.col))
            return self._maybe_label(v, t)
        if t.kind == "atom":
            self.next()
            a = SAtom(t.value, pos=(t.line, t.col))
            return self._maybe_label(a, t)
        if t.kind == "sym":
            if t.value == "{":
                self.next()
                items = [self.parse_expr()]
                while not self.at("sym", "}"):
                    items.append(self.parse_expr())
                self.expect("sym", "}")
                return SApply(items, pos=(t.line, t.col))
            if t.value == "[":
                self.next()
                elems = []
                while not self.at("sym", "]"):
                    elems.append(self.parse_expr())
                self.expect("sym", "]")
                out = SAtom("nil", pos=(t.line, t.col))
                for e in reversed(elems):
                    out = SRecordCons("|", [(None, e), (None, out)],
                                      pos=(t.line, t.col))
                return out
            if t.value == "(":
                self.next()
                e = self.parse_seq((")",))
                self.expect("sym", ")")
                return e
            if t.value == "_":
                self.next()
                return SWild(pos=(t.line, t.col))
        if t.kind == "kw":
            if t.value in ("if", "case", "proc", "fun", "local", "try", "raise",
                           "thread"):
                return self.parse_phrase()
        self.fail(f"unexpected {self.describe(t)} in expression")

    def _maybe_label(self, node, tok):
        """atom( or Var( directly adjacent: record construction."""
        n = self.peek()
        if n.kind == "sym" and n.value == "(" and n.start == tok.end:
            if type(node) is SVar:
                self.fail("record labels must be literal atoms")
            self.next()
            feats = []
            while not self.at("sym", ")"):
                feats.append(self._feat(self.parse_expr))
            self.expect("sym", ")")
            return SRecordCons(node.name, feats, pos=node.pos)
        return node

    def _feat(self, sub):
        """One feature: [feat :] item, using `sub` to parse the item."""
        t = self.peek()
        if (t.kind in ("atom", "int")) and self.at("sym", ":", ahead=1):
            self.next()
            self.next()
            return (t.value, sub())
        return (None, sub())

    # -- patterns ----------------------------------------------------------

    def parse_pattern(self):
        self.nest()
        items = [self._pat_tuple()]
        bars = []
        while self.at("sym", "|"):
            bars.append(self.next())
            items.append(self._pat_tuple())
        out = items.pop()
        for head, t in zip(reversed(items), reversed(bars)):
            out = PRecord("|", [(None, head), (None, out)], pos=(t.line, t.col))
        self.depth -= 1
        return out

    def _pat_tuple(self):
        first = self._pat_primary()
        if not self.at("sym", "#"):
            return first
        feats = [(None, first)]
        while self.at("sym", "#"):
            self.next()
            feats.append((None, self._pat_primary()))
        return PRecord("#", feats)

    def _pat_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return PLit(t.value, pos=(t.line, t.col))
        if t.kind == "var":
            self.next()
            return PVar(t.value, pos=(t.line, t.col))
        if t.kind == "atom":
            self.next()
            n = self.peek()
            if n.kind == "sym" and n.value == "(" and n.start == t.end:
                self.next()
                feats = []
                while not self.at("sym", ")"):
                    feats.append(self._feat(self.parse_pattern))
                self.expect("sym", ")")
                return PRecord(t.value, feats, pos=(t.line, t.col))
            return PLit(t.value, pos=(t.line, t.col))
        if t.kind == "sym" and t.value == "_":
            self.next()
            return PWild(pos=(t.line, t.col))
        if t.kind == "sym" and t.value == "[":
            self.next()
            elems = []
            while not self.at("sym", "]"):
                elems.append(self.parse_pattern())
            self.expect("sym", "]")
            out = PLit("nil", pos=(t.line, t.col))
            for e in reversed(elems):
                out = PRecord("|", [(None, e), (None, out)], pos=(t.line, t.col))
            return out
        self.fail(f"unexpected {self.describe(t)} in pattern")


def parse(src: str):
    return Parser(src).parse_program()
