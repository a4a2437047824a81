"""Base environment and the bundled program corpus.

The base environment every program runs in consists of the host
builtins (arithmetic, cells, ports, by-need, spaces, finite domains)
plus the library procedures from prelude.oz, which are written in the
language itself and define the list helpers and the search engines.
"""

from dataclasses import dataclass
from pathlib import Path

from . import kernel, syntax
from .fd import FD_BUILTINS
from .spaces import SPACE_BUILTINS
from .vm import CORE_BUILTINS

_HERE = Path(__file__).parent


def builtins():
    """Name -> Builtin table for every host-implemented operation."""
    table = {**CORE_BUILTINS, **SPACE_BUILTINS, **FD_BUILTINS}
    # dotted aliases used by programs
    table["FD.decl"] = table["FDDecl"]
    table["FD.distinct"] = table["FDDistinct"]
    return table


_prelude_cache = None


def _prelude():
    """Parse and desugar prelude.oz once per process."""
    global _prelude_cache
    if _prelude_cache is None:
        src = (_HERE / "prelude.oz").read_text()
        phrase = syntax.parse(src)
        if not isinstance(phrase, syntax.SDeclare):
            raise RuntimeError("prelude must start with declare")
        names = tuple(phrase.names)
        scope = set(builtins()) | set(names)
        body = kernel.desugar(phrase.body, scope)
        _prelude_cache = (names, body)
    return _prelude_cache


def base_env(vm):
    """Run the prelude inside `vm` and return the full base environment.

    The returned closures live in this vm's store, so the environment is
    only valid for programs executed by the same vm.  The prelude's
    reductions count against the vm's budget.  If the budget runs out
    first, the names the prelude has not defined yet are unbound, and the
    vm, still over budget, stops at once with status "budget" when it next
    runs.
    """
    table = builtins()
    names, body = _prelude()
    env = dict(table)
    for n in names:
        env[n] = vm.store.new_var(vm.top)
    vm.spawn(body, env, vm.top)
    status = vm.run()
    if vm.uncaught is not None or (status == "done" and vm.top_deadlocked()):
        raise RuntimeError("base library failed to load")
    out = dict(table)
    for n in names:
        out[n] = vm.store.deref(env[n], vm.top)
    # what a `dis` calls, under a name no program can rebind
    out[kernel.DIS_COMBINATOR] = out["DisCombinator"]
    return out


# ----------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    section: str
    tags: tuple
    expect_exit: int = 0

    @property
    def path(self):
        return _HERE / "corpus" / self.section / f"{self.name}.oz"

    @property
    def golden_path(self):
        return _HERE / "corpus" / self.section / f"{self.name}.golden"

    def source(self):
        return self.path.read_text()

    def golden(self):
        return self.golden_path.read_text()


_ENTRIES = [
    CorpusEntry("append-dataflow", "lists", ("deterministic", "concurrent")),
    CorpusEntry("nrev", "lists", ("deterministic",)),
    CorpusEntry("nrev-fun", "lists", ("deterministic",)),
    CorpusEntry("append-choice-all", "search", ("search",)),
    CorpusEntry("append-search-object", "search", ("search",)),
    CorpusEntry("nrev-choice-one", "search", ("search",)),
    CorpusEntry("producer-consumer-eager", "streams", ("concurrent",)),
    CorpusEntry("producer-consumer-lazy", "streams", ("concurrent", "lazy")),
    CorpusEntry("display-stream", "state", ("concurrent", "state"), 4),
    CorpusEntry("exchange-counter", "state", ("state",)),
    CorpusEntry("children-fun", "relational", ("search",)),
    CorpusEntry("children-rel-all", "relational", ("search",)),
    CorpusEntry("children2", "relational", ("search",)),
    CorpusEntry("fractions", "fd", ("fd", "search")),
    CorpusEntry("dfs-engine", "spaces", ("search",)),
    CorpusEntry("dis-unit-commit", "spaces", ("search",)),
    CorpusEntry("dis-choice", "spaces", ("search",)),
]


def corpus(tag=None):
    """The bundled programs, optionally filtered by tag."""
    if tag is None:
        return list(_ENTRIES)
    return [e for e in _ENTRIES if tag in e.tags]
