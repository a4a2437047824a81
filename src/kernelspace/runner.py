"""Running programs: configuration, outcome classification, sessions.

Exit code meanings, in precedence order when several conditions hold:

  2  the input did not parse (or the configuration is unusable)
  1  a toplevel thread died with an uncaught exception
  3  the reduction budget ran out before quiescence
  4  quiescent, but some toplevel thread is still suspended (deadlock)
  0  ran to quiescence with nothing left over

`RunConfig.trace` is None or a callable; the VM hands it one event tuple
(kind, tid, sid, *args) at a time while the program runs (see vm.py).
"""

from dataclasses import dataclass, field

from . import kernel, stdlib, syntax
from .errors import ParseError
from .vm import VM, render


@dataclass
class RunConfig:
    slice_: int = 1000
    max_reductions: int = 200_000_000
    trace: object = None        # None or a callable taking an event tuple
    reverse_queue: bool = False

    def validate(self):
        if self.slice_ < 1:
            raise ValueError("slice budget must be at least 1")
        if self.max_reductions < self.slice_:
            raise ValueError("max reductions must be at least the slice budget")


@dataclass
class Outcome:
    status: str                 # ok | parse-error | uncaught | budget | deadlock
    exit_code: int
    browse: list = field(default_factory=list)
    error: str = None
    vm: object = None
    blocked: int = 0            # suspended toplevel threads after the run


def _deadlock_report(vm):
    lines = ["quiescent with suspended threads:"]
    for t in vm.top.threads:
        if t.state == "suspended":
            lines.append(f"  thread T{t.tid} waits on variable v{t.wait_var.vid}")
    return "\n".join(lines)


def run_text(src, config=None, on_browse=None):
    """Parse and run one program text under a fresh vm."""
    try:
        session = Session(config, on_browse)
        k = kernel.desugar(syntax.parse(src), set(session.env))
    except ParseError as e:
        return Outcome("parse-error", 2, [], str(e))
    out = session.run(k)
    if out.status == "ok" and out.blocked:
        out.status, out.exit_code = "deadlock", 4
        out.error = _deadlock_report(out.vm)
    return out


class Session:
    """An interactive session: declare persists, errors do not end it."""

    def __init__(self, config=None, on_browse=None):
        config = config if config is not None else RunConfig()
        config.validate()
        self.vm = VM(slice_=config.slice_, max_reductions=config.max_reductions,
                     reverse_queue=config.reverse_queue, trace=config.trace,
                     on_browse=on_browse)
        self.env = stdlib.base_env(self.vm)

    def feed(self, src):
        """Run one input; declare binds its names for later inputs."""
        vm = self.vm
        try:
            phrase = syntax.parse(src)
            if isinstance(phrase, syntax.SDeclare):
                names, body = phrase.names, phrase.body
            else:
                names, body = (), phrase
            # redeclaring an identifier rebinds it to a fresh variable
            new_vars = {n: vm.store.new_var(vm.top) for n in names}
            k = kernel.desugar(body, set(self.env) | set(new_vars))
        except ParseError as e:
            return Outcome("parse-error", 2, [], str(e), vm, self._blocked())
        self.env.update(new_vars)
        return self.run(k)

    def run(self, k):
        """Run kernel statement k in a new toplevel thread until the vm is
        quiescent or the budget is spent; its Outcome holds the lines it
        browsed, which the session does not keep."""
        vm = self.vm
        vm.spawn(k, self.env, vm.top)
        status = vm.run()
        browsed, vm.browse = vm.browse, []
        blocked = self._blocked()
        if vm.uncaught is not None:
            msg = "uncaught exception: " + render(vm, vm.uncaught, vm.top)
            vm.uncaught = None
            return Outcome("uncaught", 1, browsed, msg, vm, blocked)
        if status == "budget":
            return Outcome("budget", 3, browsed, "reduction budget exhausted",
                           vm, blocked)
        return Outcome("ok", 0, browsed, None, vm, blocked)

    def _blocked(self):
        return sum(1 for t in self.vm.top.threads if t.state == "suspended")
