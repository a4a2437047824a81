"""Threads, dataflow, state, exceptions, and rendering.

Expected values here are either immediate consequences of the inputs
(arithmetic, list building) or independently computed in Python next to
the assertion; nothing is copied from program output.
"""

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import browse, kind_counter, run
from kernelspace import kernel, stdlib, syntax
from kernelspace.runner import Session


# ----------------------------------------------------------------------
# arithmetic and comparisons


def test_arithmetic():
    src = """
    local A B C D in
       A = 3 + 4
       B = A - 10
       C = B * B
       {Browse A} {Browse B} {Browse C}
       if 2 < 3 then if ~3 < 2 then {Browse lt} end end
       if 3 =< 3 then {Browse le} end
       if 3 == 3 then {Browse eq} end
       D = unit
       {Wait D}
    end
    """
    assert browse(src) == ["7", "~3", "9", "lt", "le", "eq"]


def test_arithmetic_suspends_on_unbound():
    out = run("local X Y in Y = X + 1 {Browse Y} end")
    assert out.status == "deadlock" and out.exit_code == 4


def test_division_free_semantics_of_negatives():
    # ~7 is a literal; subtraction may produce negatives anywhere
    assert browse("{Browse 0 - 7}") == ["~7"]


# the integer operators run inline (codegen.int_op); these pin its edges


@pytest.mark.parametrize("expr", ["1 + a", "a < 1", "f(1) =< 2"])
def test_integer_operator_on_a_non_integer_raises_type_error(expr):
    assert browse(f"try local X in X = {expr} end catch E then {{Browse E}} "
                  "end") == ["error(kind:type)"]
    out = run(f"local X in X = {expr} end")
    assert (out.status, out.exit_code) == ("uncaught", 1)
    assert out.error == "uncaught exception: error(kind:type)"


def test_integer_operator_on_an_fd_variable_parks():
    out = run("local X Y in X ::: 0#9 Y = X + 1 {Browse Y} end")
    assert (out.status, out.exit_code) == ("deadlock", 4)


def test_integer_operator_fires_a_by_need_operand_once():
    src = """
    local F X Y in
       fun lazy {F} {Browse fired} 1 end
       X = {F}
       Y = X + X
       {Browse Y}
    end
    """
    assert browse(src) == ["fired", "2"]


@pytest.mark.parametrize("op, first", [("<", "a"), (">", "b"), ("=<", "a")])
def test_comparison_waits_on_its_left_operand_first(op, first):
    # > swaps its operands, so it waits on its right operand first
    src = f"""
    local A B C in
       A = {{ByNeed proc {{$ R}} {{Browse a}} R = 1 end}}
       B = {{ByNeed proc {{$ R}} {{Browse b}} R = 2 end}}
       C = A {op} B
       {{Browse C}}
    end
    """
    second = "b" if first == "a" else "a"
    want = {"<": "true", ">": "false", "=<": "true"}[op]
    assert browse(src) == [first, second, want]


def test_products_of_big_integers_are_exact():
    x, y = 12345678901234567890, 98765432109876543210
    assert browse(f"{{Browse {x} * {y}}} {{Browse {x} - {y}}}") \
        == [str(x * y), "~" + str(y - x)]


# ----------------------------------------------------------------------
# value slots: an inline operator writes its result into the frame slot
# of the temporary that holds it (kernel.ValueSlot), with no variable


def _temp_kinds(src):
    """A Counter of the slot classes of the temporaries the `local`s of
    src's kernel bind."""
    kinds = Counter()
    stack = [kernel.desugar(syntax.parse(src), set(stdlib.builtins()))]
    while stack:
        k = stack.pop()
        if type(k) is kernel.KLocal:
            kinds.update(type(sl).__name__
                         for name, sl in zip(k.names, k.slots) if "@" in name)
        stack.extend(getattr(k, a) for a in ("body", "then", "els", "handler")
                     if getattr(k, a, None) is not None)
        stack.extend(getattr(k, "stmts", ()))
    return kinds


def test_operator_parked_on_an_operand_resumes_when_another_thread_binds_it():
    src = """
    local X Y Started in
       thread Started = unit {Browse X + Y * 2 + 1} end
       {Wait Started}
       X = 40
       Y = 1
    end
    """
    assert _temp_kinds(src) == {"ValueSlot": 3}
    kinds, sink = kind_counter()
    out = run(src, trace=sink)
    assert (out.exit_code, out.browse) == (0, ["43"])
    assert kinds["suspend"] >= 2        # the main thread, then the operator


def test_clone_of_a_space_parked_inside_an_operator():
    # S's thread parks in R + 1 before its result slot is written; the
    # clone's copy of the frame is driven to 10 and the original to 1
    src = """
    declare S C in
    S = {NewSpace proc {$ R} {Browse R + 1} end}
    local A in {Ask S A} {Wait A} {Browse A} end
    C = {Clone S}
    {Inject C proc {$ R} R = 10 end}
    local A in {Ask C A} {Wait A} {Browse A} end
    {Inject S proc {$ R} R = 1 end}
    local A in {Ask S A} {Wait A} {Browse A} end
    """
    # the three procedure values are variables
    assert _temp_kinds(src) == {"Slot": 3, "ValueSlot": 1}
    kinds, sink = kind_counter()
    out = run(src, trace=sink)
    assert out.exit_code == 0
    assert out.browse == ["succeeded", "11", "succeeded", "2", "succeeded"]
    assert kinds["clone"] == 1


def test_type_error_in_an_operator_is_caught():
    src = """
    local A B in
       A = 1 B = b
       try {Browse A + B} catch E then {Browse caught(E)} end
       {Browse after}
    end
    """
    # caught(E) is a record temporary
    assert _temp_kinds(src) == {"Slot": 1, "ValueSlot": 1}
    out = run(src)
    assert (out.exit_code, out.browse) == (0, ["caught(error(kind:type))",
                                               "after"])


def test_greater_than_writes_its_swapped_comparison():
    src = """
    local A B in
       thread A = 2 end
       thread B = 3 end
       {Browse A > B} {Browse B > A} {Browse A - B > ~2}
       if B > A then {Browse yes} end
    end
    """
    assert _temp_kinds(src) == {"ValueSlot": 5}
    out = run(src)
    assert (out.exit_code, out.browse) == (0, ["false", "true", "true",
                                               "yes"])


def test_equality_still_tells_a_variable():
    # == calls the Equal builtin, which tells its result to a variable
    src = """
    local A in
       thread {Browse A == 1} end
       {Browse f(A) == g(A)}
       A = 1
    end
    """
    # two results and the records f(A) and g(A)
    assert _temp_kinds(src) == {"Slot": 4}
    out = run(src)
    assert (out.exit_code, out.browse) == (0, ["false", "true"])


def test_thread_expression_keeps_its_variable():
    # the caller reads a thread expression's value before the thread has
    # made it, so its temporary is a variable, though the thread's body is
    # an operator
    src = """
    local P A B X in
       proc {P Y} {Wait Y} {Browse Y} end
       {P thread 1 + 2 end}
       X = thread A + B end
       A = 3 B = 4
       {Browse X}
    end
    """
    assert _temp_kinds(src) == {"Slot": 1}
    out = run(src)
    assert (out.exit_code, out.browse) == (0, ["3", "7"])


def test_case_on_an_operator_result():
    src = """
    local A B in
       A = 1 B = 2
       case A + B of 2 then {Browse two} [] 3 then {Browse three} end
       case A + B of X then {Browse X} end
       case A * B + A of f(_) then {Browse rec} else {Browse other} end
    end
    """
    assert _temp_kinds(src) == {"ValueSlot": 4}
    out = run(src)
    assert (out.exit_code, out.browse) == (0, ["three", "3", "other"])


# ----------------------------------------------------------------------
# dataflow order independence


def test_consumer_before_producer():
    src = """
    local X Y in
       thread Y = X + 1 end
       thread {Browse Y} end
       X = 41
    end
    """
    assert browse(src) == ["42"]


def test_append_dataflow_resumes_after_tell():
    """First call runs to completion; second suspends until fed."""
    src = """
    declare Append X Y A B in
    proc {Append Xs Ys Zs}
       case Xs
       of nil then Zs=Ys
       [] X|Xr then Zr in Zs=X|Zr {Append Xr Ys Zr}
       end
    end
    thread {Append [1] X Y} end
    thread {Append A [2] B} end
    {Browse Y}
    A=[7]
    local L in {Length B L} {Wait L} {Browse B} end
    """
    kinds, sink = kind_counter()
    out = run(src, trace=sink)
    assert out.status == "ok"
    assert out.browse == ["1|_", "[7 2]"]
    # the second append really did suspend and get woken
    assert kinds["suspend"] > 0
    assert kinds["wake"] > 0


def test_deadlock_reports_suspended_threads():
    out = run("local X in case X of a then skip end end")
    assert out.status == "deadlock" and out.exit_code == 4
    assert "waits on variable" in out.error


def test_weak_fairness_both_threads_finish():
    src = """
    declare Count A B in
    proc {Count N Limit Out}
       if N < Limit then {Count N+1 Limit Out} else Out = done end
    end
    thread {Count 0 3000 A} end
    thread {Count 0 3000 B} end
    {Wait A} {Wait B} {Browse both}
    """
    assert browse(src, slice_=7) == ["both"]


# ----------------------------------------------------------------------
# exceptions


def test_raise_and_catch():
    assert browse("try raise oops(1) end catch E then {Browse got(E)} end") \
        == ["got(oops(1))"]


def test_tell_failure_is_catchable():
    assert browse("try 1 = 2 catch E then {Browse E} end") \
        == ["failure(debug:unit)"]


def test_uncaught_toplevel_sets_exit_code():
    out = run("raise boom end")
    assert out.status == "uncaught" and out.exit_code == 1
    assert "boom" in out.error


def test_case_miss_raises_error():
    assert browse("try case 5 of a then skip end catch E then {Browse E} end") \
        == ["error(kind:case)"]


def test_catch_rethrow():
    src = """
    try
       try raise first end catch E then raise pair(E second) end end
    catch F then {Browse F} end
    """
    assert browse(src) == ["pair(first second)"]


def test_handler_runs_in_catching_thread():
    src = """
    local X in
       thread try {Wait X} raise inner end catch E then {Browse h(E)} end end
       X = unit
    end
    """
    assert browse(src) == ["h(inner)"]


# ----------------------------------------------------------------------
# case: matching and the scope of pattern variables


def test_case_suspends_then_matches_or_falls_through():
    src = """
    local X R in
       thread
          case X of f(A B) then R = [A B]
          [] g(_) then R = g
          else R = other end
       end
       X = f(1 2)
       {Browse R}
    end
    """
    assert browse(src) == ["[1 2]"]
    for value, shown in (("f(1)", "other"), ("f(a:1 2)", "other"),
                         ("g(0)", "g"), ("7", "other")):
        assert browse(src.replace("f(1 2)", value)) == [shown]


def test_case_on_literal_patterns():
    src = "case SUBJ of 1 then {Browse one} [] a then {Browse atom} " \
          "else {Browse other} end"
    for subject, shown in (("1", "one"), ("a", "atom"), ("2", "other"),
                           ("'1'", "other"), ("f(1)", "other")):
        assert browse(src.replace("SUBJ", subject)) == [shown]


def test_else_of_a_nested_pattern_sees_the_outer_variable():
    src = """
    local Y X in
       Y = outer
       X = f(1 h)
       case X of f(Y g(Z)) then {Browse inner(Y Z)} else {Browse Y} end
    end
    """
    assert browse(src) == ["outer"]


def test_later_clause_of_a_nested_pattern_sees_the_outer_variable():
    src = """
    local Y X in
       Y = outer
       X = f(1 h)
       case X of f(Y g(Z)) then {Browse inner(Y Z)}
       [] f(_ _) then {Browse Y}
       end
    end
    """
    assert browse(src) == ["outer"]


def test_pattern_variable_may_reuse_the_subject_name():
    assert browse("local X in X = 5 case X of X then {Browse X} end end") \
        == ["5"]
    assert browse("local X in X = f(5) case X of f(X) then {Browse X} end "
                  "end") == ["5"]


@pytest.mark.parametrize("name", ["_T1", "_M2", "_W3", "_T4"])
def test_desugarer_temporaries_never_capture_a_program_identifier(name):
    # the record, the nested pattern, its wildcard and the pair each need a
    # temporary, and none may take over the program's variable of that name
    src = (f"local {name} X Y in {name} = 5 X = f(g({name})) "
           f"case X of f(g(_)) then Y = {name} end {{Browse X#Y}} end")
    assert browse(src) == ["f(g(5))#5"]


# The calls the desugarer makes bind to base operations: a program that
# declares one of their names does not capture the construct.

def test_a_local_intplus_does_not_capture_plus():
    assert browse("local IntPlus X in IntPlus = proc {$ A B C} C = 42 end "
                  "X = 1 + 2 {Browse X} end") == ["3"]


def test_a_local_less_does_not_capture_if():
    assert browse("local Less in Less = proc {$ A B C} C = true end "
                  "if 3 < 2 then {Browse yes} else {Browse no} end "
                  "end") == ["no"]


def test_a_local_choose_does_not_capture_choice():
    assert browse("local Choose L in Choose = proc {$ N K} K = N end "
                  "L = {Search.base.all proc {$ R} choice R = a [] R = b "
                  "end end} {Browse L} end") == ["[a b]"]


def test_a_session_declaration_does_not_capture_a_construct():
    s = Session()
    assert s.feed("declare Less DisCombinator in "
                  "Less = proc {$ A B C} C = true end "
                  "DisCombinator = proc {$ Gs Bs} skip end").status == "ok"
    assert s.feed("if 3 < 2 then {Browse yes} else {Browse no} end"
                  ).browse == ["no"]
    assert s.feed("{Browse {Search.base.all proc {$ R} "
                  "dis R = a then skip [] R = b then skip end end}}"
                  ).browse == ["[a b]"]


def _oz(i):
    return str(i) if i >= 0 else f"~{-i}"


def _truth(b):
    return "true" if b else "false"


# generated name -> (arity, a program binding X from ints A and B that
# desugars to a call of it, the value X must browse as)
_GENERATED = {
    "IntPlus": (3, "X = A + B", lambda a, b: _oz(a + b)),
    "IntMinus": (3, "X = A - B", lambda a, b: _oz(a - b)),
    "IntTimes": (3, "X = A * B", lambda a, b: _oz(a * b)),
    "Less": (3, "X = (A < B)#(A > B)",
             lambda a, b: f"{_truth(a < b)}#{_truth(a > b)}"),
    "Leq": (3, "X = A =< B", lambda a, b: _truth(a <= b)),
    "Equal": (3, "X = A == B", lambda a, b: _truth(a == b)),
    "ByNeed": (2, "local F in fun lazy {F N} N + B end X = {F A} end",
               lambda a, b: _oz(a + b)),
    "Choose": (2, "X = {Search.base.all proc {$ R} "
                  "choice R = A [] R = B end end}",
               lambda a, b: f"[{_oz(a)} {_oz(b)}]"),
    "DisCombinator": (2, "X = {Search.base.all proc {$ R} "
                         "dis R = A then skip [] R = B then skip end end}",
                      lambda a, b: f"[{_oz(a)} {_oz(b)}]"),
    "FDDomTellVec": (2, "[X] ::: A#A", lambda a, b: _oz(a)),
    "FDLinRel": (4, "X ::: 0#100 X =: A + B", lambda a, b: _oz(a + b)),
    "FDMulProp": (3, "X ::: 0#100 X =: Y * Z Y = A Z = B",
                  lambda a, b: _oz(a * b)),
}


@pytest.mark.parametrize("name", sorted(_GENERATED))
@settings(max_examples=4, deadline=None)
@given(a=st.integers(0, 9), b=st.integers(0, 9))
def test_a_local_never_captures_a_generated_call(name, a, b):
    """The construct keeps its base meaning when the program declares the
    name of the operation it desugars to and binds it to a procedure that
    raises."""
    arity, body, want = _GENERATED[name]
    params = " ".join(f"P{i}" for i in range(arity))
    body = body.replace("A", str(a)).replace("B", str(b))
    src = (f"local {name} X Y Z in {name} = proc {{$ {params}}} "
           f"raise captured end end {body} {{Browse X}} end")
    assert name in _generated_calls(src)
    assert browse(src) == [want(a, b)]


def _generated_calls(src):
    """The names of the operations src's kernel calls as the desugarer's
    own calls, in procedure bodies too: base builtins named by a Lit, and
    the `dis` combinator."""
    names = set(stdlib.builtins()) | set(stdlib._prelude()[0])
    stack = [kernel.desugar(syntax.parse(src), names)]
    calls = set()
    while stack:
        k = stack.pop()
        if type(k) is kernel.KApply:
            if type(k.f) is kernel.Lit:
                calls.add(k.f.v.name)
            elif k.f == kernel.DIS_COMBINATOR:
                calls.add("DisCombinator")
        stack.extend(getattr(k, a) for a in ("body", "then", "els", "handler")
                     if getattr(k, a, None) is not None)
        stack.extend(getattr(k, "stmts", ()))
    return calls


# ----------------------------------------------------------------------
# cells


def test_exchange_read_and_replace():
    src = """
    local C Old in
       {NewCell 10 C}
       {Exchange C Old 20}
       {Browse Old}
       local X in {Exchange C X X} {Browse X} end
    end
    """
    assert browse(src) == ["10", "20"]


def test_exchange_atomicity_under_contention():
    """n threads each add 1 k times; every increment must survive."""
    n, k = 10, 20
    incr = """
    declare Incr C in
    proc {Incr C I}
       if I > 0 then
          local Old New in {Exchange C Old New} New = Old + 1 end
          {Incr C I-1}
       else skip end
    end
    {NewCell 0 C}
    """
    src = incr + "\n".join(
        f"thread {{Incr C {k}}} end" for _ in range(n)) + """
    local X in {Exchange C X X} {Wait X} {Browse X} end
    """
    out = run(src, slice_=3)
    # the reader races the workers, so it may observe any prefix of the
    # increments, but never a lost or duplicated one
    assert out.status == "ok"
    final = int(out.browse[0].replace("~", "-"))
    assert 0 <= final <= n * k


def test_exchange_total_with_barrier():
    """As above but with a dataflow barrier: the total is exact."""
    n, k = 10, 20
    workers = "\n".join(
        f"thread {{Incr C {k}}} F{i} = done end" for i in range(n))
    waits = "\n".join(f"{{Wait F{i}}}" for i in range(n))
    fvars = " ".join(f"F{i}" for i in range(n))
    src = f"""
    declare Incr C {fvars} in
    proc {{Incr C I}}
       if I > 0 then
          local Old New in {{Exchange C Old New}} New = Old + 1 end
          {{Incr C I-1}}
       else skip end
    end
    {{NewCell 0 C}}
    {workers}
    {waits}
    local X in {{Exchange C X X}} {{Browse X}} end
    """
    assert browse(src, slice_=3) == [str(n * k)]


# ----------------------------------------------------------------------
# ports


def test_port_stream_order_single_sender():
    src = """
    declare P in
    local Xs in
       {NewPort Xs P}
       thread
          case Xs of A|B|C|_ then {Browse A} {Browse B} {Browse C} end
       end
    end
    {Send P 1} {Send P 2} {Send P 3}
    """
    out = run(src)
    # the stream tail stays open, so the program parks in deadlock state
    assert out.browse == ["1", "2", "3"]
    assert out.exit_code in (0, 4)


def test_port_sends_from_one_thread_stay_fifo():
    src = """
    declare P Got in
    local Xs in
       {NewPort Xs P}
       thread case Xs of A|B|_ then Got = r(A B) end end
    end
    thread {Send P first} {Send P second} end
    {Wait Got} {Browse Got}
    """
    assert run(src).browse == ["r(first second)"]


# ----------------------------------------------------------------------
# WaitTwo


def test_waittwo_left():
    src = """
    declare X Y I in
    thread {WaitTwo X Y I} end
    X = go
    {Wait I} {Browse I}
    """
    out = run(src)
    assert out.browse == ["1"]


def test_waittwo_right():
    src = """
    declare X Y I in
    thread {WaitTwo X Y I} end
    Y = go
    {Wait I} {Browse I}
    """
    out = run(src)
    assert out.browse == ["2"]


def test_waittwo_both_gives_one_answer():
    src = """
    declare X Y I in
    thread {WaitTwo X Y I} end
    X = go
    Y = go
    {Wait I} {Browse I}
    """
    out = run(src)
    assert out.browse in (["1"], ["2"])


# ----------------------------------------------------------------------
# names, identity, determination


def test_newname_distinct_and_equal_to_itself():
    src = """
    local N M A B in
       {NewName N} {NewName M}
       {Equal N N A} {Browse A}
       {Equal N M B} {Browse B}
    end
    """
    assert browse(src) == ["true", "false"]


@pytest.mark.parametrize("expr", ["f(a X) == f(b Y)", "f(X a) == f(Y b)"])
def test_equal_is_false_when_any_pair_differs(expr):
    """A differing pair decides Equal on either side of an unbound pair."""
    assert browse(f"declare X Y in {{Browse {expr}}}") == ["false"]


def test_equal_waits_only_while_no_pair_differs():
    out = run("declare X Y in {Browse f(X a) == f(Y a)}")
    assert (out.status, out.exit_code) == ("deadlock", 4)
    assert browse("declare X in {Browse X == X}") == ["true"]


def test_equal_parks_on_the_leftmost_unbound_variable():
    """== meets subterms in unification's order: it parks on X, which
    makes X needed, and X's supplier binds it, which wakes == to park on
    Y."""
    def suspends(src):
        events = []
        out = run(src, trace=events.append)
        assert (out.status, out.exit_code) == ("deadlock", 4)
        return [ev[0] if ev[0] == "wake" else ev[3] for ev in events
                if ev[0] in ("suspend", "wake")]
    [on] = suspends("declare X Y in {Browse f(X Y) == f(1 2)}")
    first, wake, second = suspends(
        "declare X Y in {ByNeed proc {$ V} V = 1 end X} "
        "{Browse f(X Y) == f(1 2)}")
    assert (first, wake) == (on, "wake") and second != on


@st.composite
def _equality_program(draw):
    """A declare block binding A and B to ground terms built from ints,
    atoms, records and two names, with cycles through up to two shared
    variables V0 and V1.  B is often A again, or A with one shared
    variable unfolded once, so that equal terms are common."""
    shared = [f"V{i}" for i in range(draw(st.integers(0, 2)))]
    leaf = st.one_of(st.integers(0, 2).map(str),
                     st.sampled_from(["a", "b", "N0", "N1", *shared]))

    def rec(kids):
        return st.builds(lambda label, fs: f"{label}({' '.join(fs)})",
                         st.sampled_from(["f", "g"]),
                         st.lists(kids, min_size=1, max_size=3))
    term = st.recursive(leaf, rec, max_leaves=6)
    binds = {v: draw(rec(term)) for v in shared}
    a = draw(term)
    unfolded = a
    for v, t in binds.items():
        unfolded = re.sub(rf"\b{v}\b", t, unfolded, count=1)
    b = draw(st.sampled_from([a, unfolded, draw(term)]))
    tells = " ".join(f"{v} = {t}" for v, t in binds.items())
    return (f"declare {' '.join(shared)} N0 N1 A B in "
            f"{{NewName N0}} {{NewName N1}} {tells} A = {a} B = {b}")


@settings(max_examples=200, deadline=None)
@given(_equality_program())
def test_equal_agrees_with_unification(decls):
    """A == B is true exactly when A = B succeeds, false when it fails."""
    tell = run(decls + " A = B {Browse same}")
    assert browse(decls + " {Browse A == B}") == \
        ["true" if tell.status == "ok" else "false"]
    if tell.status == "ok":
        assert tell.browse == ["same"]
    else:
        assert tell.error == "uncaught exception: failure(debug:unit)"


def test_isdet():
    src = """
    local X A B in
       {IsDet X A} {Browse A}
       X = 5
       {IsDet X B} {Browse B}
    end
    """
    assert browse(src) == ["false", "true"]


# ----------------------------------------------------------------------
# rendering


@pytest.mark.parametrize("expr,shown", [
    ("42", "42"),
    ("~7", "~7"),
    ("hello", "hello"),
    ("[1 2 3]", "[1 2 3]"),
    ("1|2|nil", "[1 2]"),
    ("a#b#c", "a#b#c"),
    ("f(x:1 y:2)", "f(x:1 y:2)"),
    ("g(10 20)", "g(10 20)"),
    ("nil", "nil"),
    ("unit", "unit"),
])
def test_render_ground_terms(expr, shown):
    assert browse(f"{{Browse {expr}}}") == [shown]


def test_render_partial_list():
    assert browse("local X T in X = 1|T {Browse X} end") == ["1|_"]


def test_render_cycle():
    src = """
    local X in
       X = f(1 X)
       {Browse X}
    end
    """
    assert browse(src) == ["f(1 @1)"]


def test_render_closure_arity():
    src = """
    declare P in
    proc {P A B} skip end
    {Browse P}
    """
    got = browse(src)
    assert len(got) == 1 and got[0].startswith("<P/2")
