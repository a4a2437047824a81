"""Surface syntax: tokenizer and parser.

The tokenizer makes one regex match per token.  A match first skips the
blanks before its token, and tokenize advances the line and column over
them with str.count and str.rindex.  A `%` comment is matched like a token
and dropped; the end of the text and a character no token starts with are
matched too, so every match ends in a token, eof or a ParseError.  A token
is a tuple (kind, value, line, col, start, end): kind is int, var, atom,
kw, sym or eof; value is the integer, the name or the symbol (None for
eof); line and col count from 1, and start and end are offsets in the text.

The parser builds phrases, not statements or expressions: the same construct
(an application, a case, an if) is legal in both positions, and only the
desugarer knows which one it is in.  A phrase sequence is an SSeq; when a
sequence is used as an expression its last phrase is the value.  A `case`
pattern is read as an expression, which the desugarer checks is a term;
`X = E in Rest` is read as `local X in X = E Rest end`.

Variables start with an upper-case letter and may contain dots, so a dotted
module-style name like a search or fd entry point is one identifier.  Atoms
start lower-case or are quoted.  `[]` is the clause separator, never an
empty list; the empty list is the atom nil.

The parser is recursive descent, but operator chains, `|` chains and
`elseif` chains are read by loops.  Nesting is limited: more than
MAX_NESTING sequences and expressions open inside one another is a
ParseError.  A level takes about four Python frames, so the limit keeps
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

# One match per token: blanks, then a token, a comment (which tokenize
# drops), the end of the text, or a character no token starts with.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<comment>%[^\n]*)
  | (?P<int>~?\d+)
  | (?P<var>(?:[A-Z]|_[A-Za-z0-9_])[A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*)
  | (?P<atom>[a-z][A-Za-z0-9_]*)
  | (?P<qatom>'[^'\n]*')
  | (?P<sym>=<:|:::|\[\]|=<|=:|<:|==|[{}()\[\]|\#:=<>+\-*$_!])
  | (?P<eof>\Z)
  | (?P<bad>.)
)""", re.VERBOSE | re.DOTALL)


def tokenize(src: str):
    """The tokens of src, each a tuple (kind, value, line, col, start,
    end), ending with the eof token."""
    toks = []
    append = toks.append
    line, bol, pos = 1, 0, 0        # bol: where the current line begins
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != pos:            # blanks before the token
            newlines = src.count("\n", pos, start)
            if newlines:
                line += newlines
                bol = src.rindex("\n", pos, start) + 1
        pos = end
        if kind == "sym" or kind == "var":
            append((kind, src[start:pos], line, start - bol + 1, start, pos))
        elif kind == "atom":
            text = src[start:pos]
            append(("kw" if text in KEYWORDS else "atom", text, line,
                    start - bol + 1, start, pos))
        elif kind == "int":
            text = src[start:pos]
            append(("int", -int(text[1:]) if text[0] == "~" else int(text),
                    line, start - bol + 1, start, pos))
        elif kind == "qatom":
            append(("atom", src[start + 1:pos - 1], line, start - bol + 1,
                    start, pos))
        elif kind == "eof":
            append(("eof", None, line, start - bol + 1, start, pos))
            return toks
        elif kind == "bad":
            raise ParseError(f"unexpected character {src[start]!r}",
                             line, start - bol + 1)


# ----------------------------------------------------------------------
# surface phrases


class Phrase:
    __slots__ = ("pos",)

    def __repr__(self):
        slots = [s for c in type(self).__mro__ for s in getattr(c, "__slots__", ())
                 if s != "pos"]
        inner = " ".join(repr(getattr(self, s)) for s in slots)
        return f"{type(self).__name__}({inner})"


def node_class(name, base, fields, defaults=()):
    """A subclass of base with slots `fields`, whose __init__ takes the
    fields and then the names in `defaults` (None unless given), in order,
    and assigns each directly; like namedtuple's and dataclass's, it is
    generated, so a node costs one plain call to make."""
    params = "".join(f", {f}" for f in fields) \
        + "".join(f", {f}=None" for f in defaults)
    body = "".join(f"; self.{f} = {f}" for f in (*defaults, *fields))
    ns = {}
    exec(f"def __init__(self{params}): pass{body}", ns)
    return type(name, (base,), {"__slots__": tuple(fields),
                                "__init__": ns["__init__"]})


def _node(name, *slots):
    return node_class(name, Phrase, slots, ("pos",))


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
SIf = _node("SIf", "cond", "then", "els")              # els may be None
SCase = _node("SCase", "subject", "clauses", "els")    # clauses: [(pat, body)]
SProc = _node("SProc", "name", "params", "body", "lazy", "is_fun")
SThread = _node("SThread", "body")
STry = _node("STry", "body", "var", "handler")
SRaise = _node("SRaise", "value")
SChoice = _node("SChoice", "branches")
SDis = _node("SDis", "pairs")                          # [(guard, body)]
SDeclare = _node("SDeclare", "names", "body")


class Parser:
    """Reads the tokens of one text; `tok` is the current token, and `i`
    its index, which never passes the eof token."""

    def __init__(self, src):
        self.toks = tokenize(src)
        self.i = 0
        self.tok = self.toks[0]
        self.depth = 0          # sequences and expressions open

    def too_deep(self):
        """parse_seq and parse_expr count `depth` inline, as they run for
        most tokens, and call this past MAX_NESTING."""
        self.fail(f"phrases nest more than {MAX_NESTING} deep")

    # -- token helpers --------------------------------------------------

    def next(self):
        t = self.tok
        if t[0] != "eof":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def at(self, kind, value=None):
        t = self.tok
        return (value is None or t[1] == value) and t[0] == kind

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {_describe(t)}",
                             t[2], t[3])
        return t

    def fail(self, msg):
        raise ParseError(msg, self.tok[2], self.tok[3])

    # -- program --------------------------------------------------------

    def parse_program(self):
        body = self.parse_seq(stops=())
        self.expect("eof")
        return body

    def parse_seq(self, stops):
        """A phrase sequence up to (not consuming) a stop keyword or eof."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.too_deep()
        phrases = []
        toks = self.toks
        while True:
            t = self.tok
            kind = t[0]
            if kind == "eof" or ((kind == "kw" or kind == "sym")
                                 and t[1] in stops):
                break
            if kind == "kw" and t[1] == "declare":
                self.next()
                names = self._name_run()
                if not names:
                    self.fail("declare needs at least one variable")
                self.expect("kw", "in")
                rest = self.parse_seq(stops)
                phrases.append(SDeclare(names, rest, t[2:4]))
                break
            # plain declaration prefix: Var+ in
            if kind == "var":
                j = self.i + 1
                while toks[j][0] == "var":
                    j += 1
                if toks[j][0] == "kw" and toks[j][1] == "in":
                    names = self._name_run()
                    self.next()
                    rest = self.parse_seq(stops)
                    phrases.append(SLocal(names, rest, t[2:4]))
                    break
            p = self.parse_phrase()
            # binding declaration prefix: Var = E in, a local of Var
            if self.at("kw", "in"):
                if type(p) is SEq and type(p.lhs) is SVar:
                    self.next()
                    rest = SSeq([p, self.parse_seq(stops)], p.pos)
                    phrases.append(SLocal([p.lhs.name], rest, p.pos))
                    break
                self.fail("only a variable or Var=Expr may precede 'in' here")
            phrases.append(p)
        self.depth -= 1
        if not phrases:
            return SSkip(self.tok[2:4])
        if len(phrases) == 1:
            return phrases[0]
        return SSeq(phrases, phrases[0].pos)

    def _name_run(self):
        names = []
        while self.tok[0] == "var":
            names.append(self.next()[1])
        return names

    # -- phrases ----------------------------------------------------------

    def parse_phrase(self):
        t = self.tok
        if t[0] == "kw":
            handler = getattr(self, "_kw_" + t[1], None)
            if handler is None:
                self.fail(f"unexpected keyword {t[1]!r}")
            return handler()
        # expression, possibly extended into a tell statement
        e = self.parse_expr()
        n = self.tok
        if n[0] == "sym":
            if n[1] == "=":
                self.next()
                return SEq(e, self.parse_expr(), n[2:4])
            if n[1] in ("=:", "<:", "=<:", ":::"):
                self.next()
                return SFd(n[1], e, self.parse_expr(), n[2:4])
        return e

    def _kw_skip(self):
        return SSkip(self.next()[2:4])

    def _kw_local(self):
        t = self.next()
        names = self._name_run()
        if not names:
            self.fail("local needs at least one variable")
        self.expect("kw", "in")
        body = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SLocal(names, body, t[2:4])

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
            els = SIf(cond, then, els, t[2:4])
        return els

    def _kw_case(self):
        t = self.next()
        subject = self.parse_expr()
        self.expect("kw", "of")
        clauses = []
        while True:
            pat = self.parse_expr()
            self.expect("kw", "then")
            clauses.append((pat, self.parse_seq(("else", "end", "[]"))))
            if not self.at("sym", "[]"):
                break
            self.next()
        els = None
        if self.at("kw", "else"):
            self.next()
            els = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SCase(subject, clauses, els, t[2:4])

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
            name = self.next()[1]
        else:
            self.fail("procedure head needs a variable or $")
        params = []
        while not self.at("sym", "}"):
            if self.at("var"):
                params.append(self.next()[1])
            elif self.at("sym", "_"):
                self.next()
                params.append(None)
            else:
                self.fail("procedure parameters must be variables")
        self.next()
        body = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SProc(name, params, body, lazy, is_fun, t[2:4])

    def _kw_proc(self):
        return self._proc_like(is_fun=False)

    def _kw_fun(self):
        return self._proc_like(is_fun=True)

    def _kw_thread(self):
        t = self.next()
        body = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SThread(body, t[2:4])

    def _kw_try(self):
        t = self.next()
        body = self.parse_seq(("catch",))
        self.expect("kw", "catch")
        var = self.expect("var")[1]
        self.expect("kw", "then")
        handler = self.parse_seq(("end",))
        self.expect("kw", "end")
        return STry(body, var, handler, t[2:4])

    def _kw_raise(self):
        t = self.next()
        value = self.parse_seq(("end",))
        self.expect("kw", "end")
        return SRaise(value, t[2:4])

    def _kw_choice(self):
        t = self.next()
        branches = [self.parse_seq(("[]", "end"))]
        while self.at("sym", "[]"):
            self.next()
            branches.append(self.parse_seq(("[]", "end")))
        self.expect("kw", "end")
        return SChoice(branches, t[2:4])

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
        return SDis(pairs, t[2:4])

    def _kw_declare(self):
        # reached only when declare appears where a single phrase is required
        self.fail("declare is only allowed at the start of a sequence")

    # -- expressions ------------------------------------------------------

    def parse_expr(self):
        """Primaries joined by infix operators, by binding power: a stack
        of pending operators instead of one function per level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.too_deep()
        first = self._expr_primary()
        t = self.tok
        if t[0] != "sym" or t[1] not in _INFIX:     # a lone primary
            self.depth -= 1
            return first
        operands = [first]
        ops = []                    # (power, token)
        tuples = set()              # ids of # records this chain built
        compared = False
        while t[0] == "sym" and t[1] in _INFIX:
            power = _INFIX[t[1]]
            if power == 0:
                if compared:
                    break
                compared = True
            while ops and (ops[-1][0] > power
                           or (ops[-1][0] == power and power != 1)):
                self._reduce(operands, ops, tuples)
            ops.append((power, self.next()))
            operands.append(self._expr_primary())
            t = self.tok
        while ops:
            self._reduce(operands, ops, tuples)
        self.depth -= 1
        return operands[0]

    def _reduce(self, operands, ops, tuples):
        _, t = ops.pop()
        rhs = operands.pop()
        lhs = operands.pop()
        if t[1] == "#":
            if id(lhs) in tuples:
                lhs.feats.append((None, rhs))
                operands.append(lhs)
                return
            out = SRecordCons("#", [(None, lhs), (None, rhs)], t[2:4])
            tuples.add(id(out))
        elif t[1] == "|":
            out = SRecordCons("|", [(None, lhs), (None, rhs)], t[2:4])
        else:
            out = SOp(t[1], lhs, rhs, t[2:4])
        operands.append(out)

    def _expr_primary(self):
        t = self.tok
        kind, value = t[0], t[1]
        if kind == "int":
            self.i += 1
            self.tok = self.toks[self.i]
            return SInt(value, t[2:4])
        if kind == "var" or kind == "atom":
            self.i += 1
            n = self.tok = self.toks[self.i]           # atom( or Var( directly adjacent: a record
            if n[1] == "(" and n[4] == t[5] and n[0] == "sym":
                if kind == "var":
                    self.fail("record labels must be literal atoms")
                self.next()
                feats = []
                while not self.at("sym", ")"):
                    feats.append(self._feat())
                self.next()
                return SRecordCons(value, feats, t[2:4])
            return (SVar if kind == "var" else SAtom)(value, t[2:4])
        if kind == "sym":
            if value == "{":
                self.next()
                items = [self.parse_expr()]
                while not self.at("sym", "}"):
                    items.append(self.parse_expr())
                self.next()
                return SApply(items, t[2:4])
            if value == "[":
                self.next()
                elems = []
                while not self.at("sym", "]"):
                    elems.append(self.parse_expr())
                self.next()
                out = SAtom("nil", t[2:4])
                for e in reversed(elems):
                    out = SRecordCons("|", [(None, e), (None, out)], t[2:4])
                return out
            if value == "(":
                self.next()
                e = self.parse_seq((")",))
                self.expect("sym", ")")
                return e
            if value == "_":
                self.next()
                return SWild(t[2:4])
        if kind == "kw" and value in ("if", "case", "proc", "fun", "local",
                                      "try", "raise", "thread"):
            return self.parse_phrase()
        self.fail(f"unexpected {_describe(t)} in expression")

    def _feat(self):
        """One feature: [feat :] expression."""
        t = self.tok
        if t[0] in ("atom", "int"):
            n = self.toks[self.i + 1]
            if n[0] == "sym" and n[1] == ":":
                self.next()
                self.next()
                return (t[1], self.parse_expr())
        return (None, self.parse_expr())


def _describe(t):
    return "end of input" if t[0] == "eof" else repr(t[1])


def parse(src: str):
    return Parser(src).parse_program()
