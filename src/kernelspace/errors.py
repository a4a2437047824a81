"""Error types shared across modules: host-level errors; OzRaise, which
carries a raised language value up a thread's stack; and Wait, with `arg`,
the one decoder of builtin arguments.

A statement or builtin that meets an undetermined variable where it needs
a value reports that variable: it returns it, or a builtin raises Wait
with it.  The scheduler parks the thread on it either way, and parking is
what makes a by-need variable needed (VM.suspend_thread).  The hot paths,
compiled statements, tells and the integer builtins, return it, since they
park often and a return costs less than a raise; `arg` decodes a
builtin's arguments and raises.
"""

from .terms import Record, Var


class UsageError(Exception):
    """A host API precondition was violated (not an in-language exception)."""


class ParseError(Exception):
    """Source text could not be parsed or desugared."""

    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(msg + where)


class OzRaise(Exception):
    """A raised language value travelling up the frame stack."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term


class Wait(Exception):
    """A builtin parks its thread on `var`.  Not an OzRaise, so no Oz try
    catches it."""

    __slots__ = ("var",)

    def __init__(self, var):
        self.var = var


def arg(vm, t, sp, *types):
    """t dereferenced in sp: raises Wait while it is an unbound variable,
    and error(kind:type) when `types` are given and it is of none of them."""
    d = vm.store.deref(t, sp)
    if type(d) is Var:
        raise Wait(d)
    if types and type(d) not in types:
        raise OzRaise(_error("type"))
    return d


# the value a failed tell raises
FAILURE = Record("failure", (("debug", "unit"),))


def _error(kind):
    """The record error(kind:Kind) that a misused primitive raises."""
    return Record("error", (("kind", kind),))
