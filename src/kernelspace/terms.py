"""Value domain of the kernel language.

Integers are plain Python ints and atoms are plain Python strings; both are
immutable and compare by value, which is exactly the identity the language
needs.  Everything else is a small __slots__ class.  Records are immutable
once built and keep their feature tuple in canonical order (integer features
ascending, then atom features in lexical order), so two records with the same
fields compare field-by-field without sorting at unification time.

Cycles are never stored inside a Record directly: a cyclic term always loops
through a Var that is bound to an enclosing record, so every Record object is
an acyclic spine node and structural traversal only has to guard at
variables.
"""

from __future__ import annotations

CONS = "|"


class Var:
    """A store variable; one object per variable, compared by identity.

    `vid` numbers it for trace events and indexes `Store.homes`.  `ref` is
    its binding made in its home space, or None (see store.py).  `waiters`
    is the list of what is parked on it until it is bound, or None, and
    `trigger` the supplier procedure of its by-need trigger until that
    fires; the supplier runs in the variable's home.  `spaces` indexes the
    live spaces below its home that hold state for it, or is None.
    """

    __slots__ = ("vid", "ref", "waiters", "trigger", "spaces")

    def __init__(self, vid: int):
        self.vid = vid
        self.ref = None
        self.waiters = None
        self.trigger = None
        self.spaces = None

    def __repr__(self):
        return f"Var({self.vid})"


def _feat_key(feat):
    # ints sort before atoms; ints numerically, atoms lexically
    if type(feat) is int:
        return (0, feat, "")
    return (1, 0, feat)


class Record:
    """label(f1:v1 ... fn:vn) with features canonically ordered."""

    __slots__ = ("label", "feats")

    def __init__(self, label, feats):
        self.label = label
        feats = tuple(feats)
        if len(feats) > 1:
            feats = tuple(sorted(feats, key=lambda fv: _feat_key(fv[0])))
        self.feats = feats

    def arity(self):
        return tuple(f for f, _ in self.feats)

    def __repr__(self):
        inner = " ".join(f"{f}:{v!r}" for f, v in self.feats)
        return f"Record({self.label!r} {inner})"


def canonical_record(label, feats):
    """A Record whose feature tuple is already in canonical order: no sort."""
    rec = _new_record(Record)
    rec.label = label
    rec.feats = feats
    return rec


_new_record = object.__new__


class Closure:
    """A procedure value, equal only to itself.

    It holds its arity, its kernel body and the tuple of values it
    captured when it was made.  A call runs the body in a new frame
    [*captured, *args, *pad]: `pad` is a tuple of None, one per local slot
    of the body (see kernel.py).
    """

    __slots__ = ("arity", "body", "captured", "pad")

    def __init__(self, arity, body, captured, pad):
        self.arity = arity
        self.body = body
        self.captured = captured
        self.pad = pad

    def __repr__(self):
        return f"Closure(@{id(self):x}/{self.arity})"


class Builtin:
    """A primitive procedure implemented by the host."""

    __slots__ = ("name", "arity", "fn")

    def __init__(self, name, arity, fn):
        self.name = name
        self.arity = arity
        self.fn = fn

    def __repr__(self):
        return f"Builtin({self.name}/{self.arity})"


class Name:
    """An unforgeable constant; equal only to itself."""

    __slots__ = ("nid",)

    def __init__(self, nid: int):
        self.nid = nid

    def __repr__(self):
        return f"Name({self.nid})"


class CellRef:
    """A cell; holds the current content.  Equal only to itself."""

    __slots__ = ("content",)

    def __init__(self, content):
        self.content = content

    def __repr__(self):
        return f"CellRef(@{id(self):x})"


class PortRef:
    """A port; holds the unbound tail of its stream.  Equal only to itself."""

    __slots__ = ("tail",)

    def __init__(self, tail):
        self.tail = tail

    def __repr__(self):
        return f"PortRef(@{id(self):x})"


class SpaceRef:
    """A computation space; references are equal iff they hold one space."""

    __slots__ = ("space",)

    def __init__(self, space):
        self.space = space

    def __repr__(self):
        return f"SpaceRef({self.space.sid})"


def cons(head, tail) -> Record:
    return canonical_record(CONS, ((1, head), (2, tail)))


def is_cons(t) -> bool:
    return type(t) is Record and t.label == CONS and t.arity() == (1, 2)


def record_get(rec: Record, feat):
    for f, v in rec.feats:
        if f == feat:
            return v
    raise KeyError(feat)
