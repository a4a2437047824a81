"""The desugarer's round trip: kernel statements printed back as surface
text, and compared modulo the names of bound identifiers.

`pretty` emits parseable surface text, so desugar(parse(pretty(k))) is
alpha-equivalent to k, for a k whose identifiers a program can write: the
desugarer's temporaries (`T@1`, ...) print as they are and do not parse.
A base builtin the desugarer calls as a Lit prints as its name, and
alpha_equivalent takes it for that name, free.
The pair is a test oracle for the desugarer (tests/test_syntax.py); the
runtime does not need it, so it lives beside the tests.
"""

import re

from kernelspace import syntax as S
from kernelspace.kernel import (
    KApply, KCase, KEq, KIf, KLocal, KPatLit, KProc, KRaise, KSeq, KSkip,
    KTellRec, KThread, KTry, Lit, _term_eq,
)
from kernelspace.terms import Builtin, Record

# ----------------------------------------------------------------------
# pretty printing back to surface syntax

_BARE_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*$")


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
    if type(o.v) is Builtin:
        return o.v.name
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
    def ident(o, m):
        """(o, what m binds it to); a Lit builtin reads as its name, free."""
        if type(o) is Lit:
            return (o.v.name if type(o.v) is Builtin else o), None
        return o, m.get(o)

    def ops(o1, o2, m12, m21):
        o1, b1 = ident(o1, m12)
        o2, b2 = ident(o2, m21)
        if type(o1) is str and type(o2) is str:
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
                if a.pat.arity != b.pat.arity:
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
