"""A reference tokenizer: the package's first tokenizer, kept as an oracle.

It matches one regex alternative at a time, blanks and comments included,
and builds a Token object per token.  `kernelspace.syntax.tokenize` folds
the blanks into each token's match and builds tuples; for every text the
two must give the same (kind, value, line, col, start, end) tuples, or
the same ParseError (tests/test_syntax.py).  The runtime does not need
this module, so it lives beside the tests.
"""

import re

from kernelspace.errors import ParseError
from kernelspace.syntax import KEYWORDS

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

    def as_tuple(self):
        return (self.kind, self.value, self.line, self.col, self.start,
                self.end)


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
