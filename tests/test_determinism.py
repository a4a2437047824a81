"""Scheduling independence.

Programs whose synchronization is purely dataflow must print the same
thing no matter how threads are interleaved.  Each program below runs
under several time slices and with the run queue reversed; every
configuration must produce the identical browse log and exit code.

Programs with real output races (two browses racing each other, or a
deliberately lost race that parks a thread) are excluded: for those the
language only promises that each printed line is a correct snapshot.
"""

from test_fd import NARROWED_PAST_A_BINDING

from kernelspace import stdlib
from kernelspace.runner import RunConfig, run_text

_CORPUS_PICKS = [
    "append-dataflow", "nrev", "nrev-fun",
    "append-choice-all", "append-search-object", "nrev-choice-one",
    "exchange-counter",
    "children-fun", "children-rel-all", "children2",
    "dfs-engine", "dis-unit-commit", "dis-choice",
]

_SYNTHETIC = {
    "eager-stream": """
    declare Gen Sum Xs S in
    fun {Gen I N} if I > N then nil else I|{Gen I+1 N} end end
    fun {Sum Xs A}
       case Xs of nil then A [] X|Xr then {Sum Xr A+X} end
    end
    thread Xs = {Gen 1 200} end
    thread S = {Sum Xs 0} end
    {Wait S} {Browse S}
    """,
    "lazy-stream": """
    declare Gen Take Out in
    fun lazy {Gen I} I|{Gen I+1} end
    proc {Take Xs K Acc Out}
       if K == 0 then Out = Acc
       else case Xs of X|Xr then {Take Xr K-1 Acc+X Out} end
       end
    end
    thread {Take {Gen 1} 100 0 Out} end
    {Wait Out} {Browse Out}
    """,
    "two-producers-joined": """
    declare A B in
    thread A = [1 2 3] end
    thread B = [4 5 6] end
    {Wait A} {Wait B} {Browse A} {Browse B}
    """,
    "port-chained-senders": """
    declare P Done Xs Got in
    {NewPort Xs P}
    thread {Send P first} Done = unit end
    thread {Wait Done} {Send P second} end
    thread case Xs of A|B|_ then Got = A#B end end
    {Wait Got} {Browse Got}
    """,
    "waittwo-one-side": """
    declare X Y I in
    thread {WaitTwo X Y I} end
    Y = only
    {Wait I} {Browse I}
    """,
    "byneed-two-consumers": """
    declare Gen Xs A B in
    fun lazy {Gen I} I|{Gen I+1} end
    Xs = {Gen 10}
    thread case Xs of X|_ then A = X end end
    thread case Xs of X|_ then B = X end end
    {Wait A} {Wait B} {Browse A + B}
    """,
    "cell-barrier": """
    declare Incr C F0 F1 F2 F3 in
    proc {Incr C I}
       if I > 0 then
          local Old New in {Exchange C Old New} New = Old + 1 end
          {Incr C I-1}
       else skip end
    end
    {NewCell 0 C}
    thread {Incr C 5} F0 = done end
    thread {Incr C 5} F1 = done end
    thread {Incr C 5} F2 = done end
    thread {Incr C 5} F3 = done end
    {Wait F0} {Wait F1} {Wait F2} {Wait F3}
    local X in {Exchange C X X} {Browse X} end
    """,
    "space-pipeline": """
    declare S C in
    {NewSpace proc {$ R} local I in {Choose 3 I} R = I * 10 end end S}
    {Clone S C}
    {Commit S 2}
    {Commit C 3}
    local RA RB in
       {Merge S RA} {Merge C RB} {Browse RA + RB}
    end
    """,
    "threaded-exceptions": """
    declare X R in
    thread
       try {Wait X} raise boom(X) end
       catch E then case E of boom(V) then R = caught(V) end end
    end
    X = 7
    {Wait R} {Browse R}
    """,
    "nested-search": """
    {Browse {Search.base.all proc {$ R}
       I J in
       choice I = 1 [] I = 2 end
       choice J = 1 [] J = 2 end
       I < J = true
       R = I#J
    end}}
    """,
    # fd builtins wait for an argument that is not determined yet
    "fd-bound-from-thread": """
    declare X N in
    thread X ::: 0#N X = 3 {Browse X} end
    {Length [a b c d e] N}
    """,
    "fd-distinct-open-tail": """
    declare X Y T in
    X ::: 0#3 Y ::: 0#1
    thread {FD.distinct X|T} end
    {Append [Y] nil T}
    X = 1 {Browse Y}
    """,
    # ::: waits on an open list tail instead of constraining it
    "fd-dom-open-tail": """
    declare A T in
    thread T = nil end
    A|T ::: 0#5 A = 3 {Browse A}
    """,
    # a tell at top fails a grandchild whose thread waits on a top-level
    # variable; the child's Ask is answered all the same
    "grandchild-failed-by-binding": """
    declare Spin X Y S A in
    proc {Spin N} if N > 0 then {Spin N-1} else skip end end
    {NewSpace proc {$ R}
       local G in {NewSpace proc {$ R2} Y = 1 {Wait X} end G} end
    end S}
    {Ask S A} {Spin 3000} Y = 2 {Browse A}
    """,
    "grandchild-failed-by-domain": """
    declare Spin X S A in
    proc {Spin N} if N > 0 then {Spin N-1} else skip end end
    X ::: 0#9
    {NewSpace proc {$ R}
       local G in
          {NewSpace proc {$ R2} Z in Z ::: 0#2 X + Z =: 5 {Wait X} end G}
       end
    end S}
    {Ask S A} {Spin 3000} X = 9 {Browse A}
    """,
    "grandchild-failed-beside-propagation": """
    declare X S S1 A B in
    X ::: 0#9
    {NewSpace proc {$ R}
       local G in {NewSpace proc {$ R2} X ::: 0#2 {Wait X} end G} end
    end S}
    {NewSpace proc {$ R} Y in Y ::: 0#9 X + Y =: 12 end S1}
    {Ask S1 B} {Wait B}
    {Ask S A} X = 7 {Browse A}
    """,
    # a bind at top, once the child's first Ask is answered, reaches the
    # domains and propagators only the child has
    "parent-bind-reaches-child-domain": """
    declare X S A B in
    {NewSpace proc {$ R} X ::: 0#9 R = X end S}
    {Ask S A} {Browse A}
    X = 42
    {Ask S B} {Browse B}
    """,
    "parent-bind-reaches-child-propagator": """
    declare X Y S A B in
    {NewSpace proc {$ R} [X Y] ::: 0#9 X + Y =: 3 R = X end S}
    {Ask S A} {Browse A}
    X = 5
    {Ask S B} {Browse B}
    """,
    # an ancestor's narrowing reaches a descendant's overlay binding
    **NARROWED_PAST_A_BINDING,
    # an engine commits an alternative only when the search reaches it, so
    # an alternative no one reached browses nothing
    "search-object-one-next": """
    declare P E Next X in
    proc {P R} choice R = 1 [] {Browse second} R = 2 end end
    {Search.object P E}
    case E of search(next:N close:_) then Next = N end
    {Next X} {Browse X}
    """,
    "bab-browses-in-search-order": """
    declare P Order X in
    proc {P R}
       choice R = 1 [] {Browse second} R = 2 [] {Browse third} R = 3 end
    end
    proc {Order Old New} Old < New = true end
    {Search.bab P Order X} {Browse X}
    """,
}


def _configs():
    for slice_ in (1, 7, 1000):
        for rev in (False, True):
            yield RunConfig(slice_=slice_, reverse_queue=rev)


def _observe(src, cfg):
    out = run_text(src, cfg)
    return tuple(out.browse), out.exit_code


def run_matrix():
    """Shared with the acceptance suite; raises on any divergence."""
    programs = {f"corpus/{e.name}": e.source()
                for e in stdlib.corpus() if e.name in _CORPUS_PICKS}
    assert len(programs) == len(_CORPUS_PICKS)
    programs.update(_SYNTHETIC)
    for name, src in programs.items():
        baseline = _observe(src, RunConfig())
        # a parked loser thread is fine (exit 4); errors are not
        assert baseline[1] in (0, 4), (name, baseline)
        for cfg in _configs():
            got = _observe(src, cfg)
            assert got == baseline, (name, cfg.slice_, cfg.reverse_queue,
                                     got, baseline)
    return len(programs)


def test_schedule_invariance():
    assert run_matrix() == 37
