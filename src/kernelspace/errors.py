"""Error types shared across modules: host-level errors, and OzRaise, which
carries a raised language value up a thread's stack."""

from .terms import Record


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


# the value a failed tell raises
FAILURE = Record("failure", (("debug", "unit"),))


def _error(kind):
    """The record error(kind:Kind) that a misused primitive raises."""
    return Record("error", (("kind", kind),))
