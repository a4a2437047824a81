"""By-need triggers: installed lazily, fired at most once, only on demand."""

import pytest

from conftest import browse, run


def counters(out):
    return out.vm.triggers_installed, out.vm.triggers_fired


def test_untouched_trigger_never_fires():
    src = """
    local X in
       {ByNeed proc {$ R} R = 99 end X}
       {Browse ready}
    end
    """
    out = run(src)
    assert out.status == "ok"
    assert out.browse == ["ready"]
    assert counters(out) == (1, 0)


def test_wait_demands():
    src = """
    local X in
       {ByNeed proc {$ R} R = 7 end X}
       {Wait X} {Browse X}
    end
    """
    out = run(src)
    assert out.browse == ["7"]
    assert counters(out) == (1, 1)


def test_arithmetic_demands():
    src = """
    local X Y in
       {ByNeed proc {$ R} R = 20 end X}
       Y = X + 1
       {Browse Y}
    end
    """
    out = run(src)
    assert out.browse == ["21"]
    assert counters(out) == (1, 1)


def test_case_demands():
    src = """
    local X in
       {ByNeed proc {$ R} R = f(inner) end X}
       case X of f(A) then {Browse A} end
    end
    """
    out = run(src)
    assert out.browse == ["inner"]
    assert counters(out) == (1, 1)


def test_unification_with_determined_value_demands():
    src = """
    local X in
       {ByNeed proc {$ R} R = 5 end X}
       X = 5
       {Browse X}
    end
    """
    out = run(src)
    assert out.browse == ["5"]
    assert counters(out) == (1, 1)


def test_var_var_unification_does_not_demand():
    # aliasing two unbound variables is not a demand
    src = """
    local X Y in
       {ByNeed proc {$ R} R = 1 end X}
       Y = X
       {Browse done}
    end
    """
    out = run(src)
    assert out.browse == ["done"]
    assert counters(out) == (1, 0)


def test_single_fire_under_many_demanders():
    n = 8
    waits = "\n".join(f"thread {{Wait X}} D{i} = u end" for i in range(n))
    dvars = " ".join(f"D{i}" for i in range(n))
    sync = " ".join(f"{{Wait D{i}}}" for i in range(n))
    src = f"""
    declare X {dvars} in
    {{ByNeed proc {{$ R}} R = 3 end X}}
    {waits}
    {sync}
    {{Browse X}}
    """
    out = run(src, slice_=2)
    assert out.browse == ["3"]
    assert counters(out) == (1, 1)


def test_lazy_function_chain_counts():
    """n list elements consumed: n+1 triggers exist, n have fired.

    The producer guards every tail with a trigger; consuming k cells
    forces k of them and installs one more for the frontier.
    """
    n = 25
    src = f"""
    declare Gen Take Out in
    fun lazy {{Gen I}}
       I|{{Gen I+1}}
    end
    proc {{Take Xs K Acc Out}}
       if K == 0 then Out = Acc
       else
          case Xs of X|Xr then {{Take Xr K-1 Acc+X Out}} end
       end
    end
    {{Take {{Gen 1}} {n} 0 Out}}
    {{Browse Out}}
    """
    out = run(src)
    # sum 1..n, computed here rather than trusted from the program
    assert out.browse == [str(n * (n + 1) // 2)]
    assert counters(out) == (n + 1, n)


def test_lazy_value_shared_between_consumers():
    src = """
    declare Gen Xs A B in
    fun lazy {Gen I} I|{Gen I+1} end
    Xs = {Gen 10}
    thread case Xs of X|_ then A = X end end
    thread case Xs of X|_ then B = X end end
    {Wait A} {Wait B}
    {Browse A + B}
    """
    out = run(src)
    assert out.browse == ["20"]
    # one cell forced once, its tail trigger installed but unforced
    assert out.vm.triggers_fired == 1


def test_byneed_requires_fresh_variable():
    # a trigger can only guard an unbound variable
    src = """
    local X in
       X = 4
       try {ByNeed proc {$ R} R = 9 end X}
       catch E then {Browse E} end
    end
    """
    out = run(src)
    assert out.browse == ["error(kind:byNeed)"]
    assert counters(out) == (0, 0)


def test_second_trigger_on_same_variable_rejected():
    src = """
    local X in
       {ByNeed proc {$ R} R = 1 end X}
       try {ByNeed proc {$ R} R = 2 end X}
       catch E then {Browse E} end
    end
    """
    out = run(src)
    assert out.browse == ["error(kind:byNeed)"]
    assert counters(out) == (1, 0)


def test_clone_copies_an_unfired_trigger_and_parked_threads():
    # S holds a by-need L that has not fired and a thread parked on its own
    # W.  Its clone C must get its own trigger and its own parked thread:
    # demanding L fires each copy's trigger once, and binding W in one
    # space wakes only that space's threads.
    src = """
    declare S C Demand A1 A2 A3 A4 A5 M1 M2 in
    S = {NewSpace proc {$ R} L W Out in
           {ByNeed proc {$ V} V = W + 100 end L}
           thread Out = W * 10 end
           R = r(L W Out)
        end}
    {Ask S A1} {Wait A1}
    C = {Clone S}
    proc {Demand R} case R of r(L _ _) then {Wait L} end end
    {Inject S Demand} {Ask S A2} {Wait A2}
    {Inject C Demand} {Ask C A3} {Wait A3}
    {Inject S proc {$ R} case R of r(_ W _) then W = 1 end end}
    {Ask S A4} {Wait A4}
    {Inject C proc {$ R} case R of r(_ W _) then W = 2 end end}
    {Ask C A5} {Wait A5}
    M1 = {Merge S} M2 = {Merge C}
    {Browse A1#A5} {Browse M1#M2}
    """
    events = []
    out = run(src, trace=events.append)
    assert out.status == "ok", out.error
    assert out.browse == ["succeeded#succeeded", "r(101 1 10)#r(102 2 20)"]
    assert counters(out) == (1, 2)
    (s, c), = [ev[3:] for ev in events if ev[0] == "clone"]
    wakes = {}
    for ev in events:
        if ev[0] == "wake" and ev[2] != 0:
            wakes[ev[2]] = wakes.get(ev[2], 0) + 1
    # in each space: the Out thread, the trigger's thread (parked on W)
    # and the demanding thread (parked on L) wake once each
    assert wakes == {s: 3, c: 3}


def test_trigger_installed_in_a_merged_space_fires_in_its_heir():
    # the space that ran ByNeed has merged: its work, the trigger's
    # included, now belongs to the parent
    src = """
    declare S R A in
    S = {NewSpace proc {$ R} L in {ByNeed proc {$ V} V = 5 end L} R = L end}
    {Ask S A} {Wait A}
    R = {Merge S}
    {Browse R}
    """
    out = run(src)
    assert out.status == "ok", out.error
    assert out.browse == ["5"]
    assert counters(out) == (1, 1)


def test_clone_maps_a_trigger_installed_in_a_merged_child():
    # T installs the trigger on L, homed in S, and merges into S; the clone
    # of S must fire its copy in the clone, not in S
    src = """
    declare S C A M in
    S = {NewSpace proc {$ R} L T A in
           T = {NewSpace proc {$ _} {ByNeed proc {$ V} V = 5 end L} end}
           {Ask T A} {Wait A} {Merge T _}
           R = r(L)
        end}
    {Ask S A} {Wait A}
    C = {Clone S}
    M = {Merge C}
    case M of r(X) then {Browse X} end
    """
    out = run(src)
    assert out.status == "ok", out.error
    assert out.browse == ["5"]
    assert counters(out) == (1, 1)



# A trigger that a space installs on a variable homed above it belongs to
# that space: a demand at top level or in a sibling neither sees nor fires it
BYNEED_IN_CHILD = """
declare X S A in
S = {NewSpace proc {$ R} {ByNeed proc {$ V} V = 1 end X} end}
{Ask S A} {Wait A}
"""


def test_top_level_can_install_its_own_trigger_after_a_child():
    out = run(BYNEED_IN_CHILD + "{ByNeed proc {$ V} V = 2 end X} {Browse X}")
    assert out.exit_code == 0, out.error
    assert out.browse == ["2"]
    assert counters(out) == (2, 1)


def test_top_level_demand_does_not_fire_a_child_trigger():
    out = run(BYNEED_IN_CHILD + "{Browse X}")
    assert out.exit_code == 4
    assert counters(out) == (1, 0)


def test_sibling_demand_does_not_fire_a_child_trigger():
    out = run(BYNEED_IN_CHILD + """
    declare T in
    T = {NewSpace proc {$ R} {Wait X} R = X end}
    {Browse done}
    """)
    assert out.exit_code == 0, out.error
    assert counters(out) == (1, 0)


def test_child_demand_survives_merge():
    out = run("""
    declare X S A R in
    S = {NewSpace proc {$ R} {ByNeed proc {$ V} V = 1 end X} R = X + 0 end}
    {Ask S A} {Wait A}
    R = {Merge S}
    {Browse X#R}
    """)
    assert out.exit_code == 0, out.error
    assert out.browse == ["1#1"]
    assert counters(out) == (1, 1)


def test_unfired_child_trigger_fires_at_top_level_after_merge():
    out = run(BYNEED_IN_CHILD + "{Merge S _} {Browse X}")
    assert out.exit_code == 0, out.error
    assert out.browse == ["1"]
    assert counters(out) == (1, 1)


# Each builtin argument a thread may wait on, as (the by-need variable, the
# value its supplier binds, a program that passes it, the last browse line).
# S0, C0 and P0 are a space, a cell and a port the program makes itself.
_BYNEED_ARGS = {
    "NewSpace": ("P", "proc {$ R} R = 1 end",
                 "S0 = {NewSpace P} {Ask S0 A} {Browse A}", "succeeded"),
    "Ask": ("S", "{NewSpace proc {$ R} R = 1 end}",
            "{Ask S A} {Browse A}", "succeeded"),
    "Commit-space": ("S", "S0", "S0 = {NewSpace proc {$ R} {Choose 2 R} end}"
                     " {Commit S 2} {Browse {Merge S0}}", "2"),
    "Commit-index": ("I", "2", "S0 = {NewSpace proc {$ R} {Choose 2 R} end}"
                     " {Commit S0 I} {Browse {Merge S0}}", "2"),
    "Clone": ("S", "S0", "S0 = {NewSpace proc {$ R} R = 1 end}"
              " {Browse {Merge {Clone S}}}", "1"),
    "Inject-space": ("S", "S0", "S0 = {NewSpace proc {$ R} skip end}"
                     " {Inject S proc {$ R} R = 1 end} {Browse {Merge S0}}",
                     "1"),
    "Inject-proc": ("P", "proc {$ R} R = 1 end",
                    "S0 = {NewSpace proc {$ R} skip end}"
                    " {Inject S0 P} {Browse {Merge S0}}", "1"),
    "Merge": ("S", "S0", "S0 = {NewSpace proc {$ R} R = 1 end}"
              " {Browse {Merge S}}", "1"),
    "Choose": ("N", "2", "S0 = {NewSpace proc {$ R} {Choose N R} end}"
               " {Commit S0 2} {Browse {Merge S0}}", "2"),
    "Exchange": ("C", "C0", "{NewCell old C0} {Exchange C A new} {Browse A}",
                 "old"),
    "Send": ("P", "P0", "{NewPort Xs P0} {Send P hi}"
             " case Xs of M|_ then {Browse M} end", "hi"),
    "fd-spec": ("D", "0#5", "X ::: D X = 3 {Browse X}", "3"),
    "fd-spec-bound": ("H", "5", "X ::: 0#H X = 3 {Browse X}", "3"),
    "FDLinRel-coeffs": ("Cs", "[1 1]", "[X Y] ::: 0#9"
                        " {FDLinRel Cs [X Y] eq 4} X = 1 {Browse Y}", "3"),
    "FDLinRel-coeff": ("C", "1", "[X Y] ::: 0#9"
                       " {FDLinRel [C 1] [X Y] eq 4} X = 1 {Browse Y}", "3"),
    "FDLinRel-vars": ("Vs", "[X Y]", "[X Y] ::: 0#9"
                      " {FDLinRel [1 1] Vs eq 4} X = 1 {Browse Y}", "3"),
    "FDLinRel-tail": ("T", "[Y]", "[X Y] ::: 0#9"
                      " {FDLinRel [1 1] X|T eq 4} X = 1 {Browse Y}", "3"),
    "FD.distinct": ("L", "[X Y]", "[X Y] ::: 0#1"
                    " {FD.distinct L} X = 0 {Browse Y}", "1"),
    "FDExcl": ("N", "0", "X ::: 0#1 {FDExcl X N} {Browse X}", "1"),
}


@pytest.mark.parametrize("var, value, body, last", _BYNEED_ARGS.values(),
                         ids=list(_BYNEED_ARGS))
def test_byneed_argument_of_a_builtin_is_supplied_once(var, value, body, last):
    """A builtin waiting on a by-need argument makes it needed: the
    supplier runs once and the call then completes."""
    out = run(f"""
    declare {var} S0 C0 P0 Xs A X Y in
    {{ByNeed proc {{$ V}} {{Browse supplied}} V = {value} end {var}}}
    {body}
    """)
    assert out.exit_code == 0, out.error
    assert out.browse == ["supplied", last]
    assert counters(out) == (1, 1)
