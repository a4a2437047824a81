"""Parser and desugarer tests.

The main oracle is the round trip: a random closed kernel statement is
pretty-printed to surface text, reparsed, desugared, and must come back
alpha-equivalent.  Hand-written cases pin down the individual sugar rules.
The tokenizer has its own oracle, the reference tokenizer beside the tests.
"""

import ast
import functools
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import reference_tokenizer
from roundtrip import alpha_equivalent, pretty

from kernelspace import kernel, stdlib, syntax
from kernelspace.errors import ParseError
from kernelspace.kernel import (
    KApply, KCase, KEq, KIf, KLocal, KPatLit, KPatRec, KProc, KRaise, KSeq,
    KSkip, KTellRec, KThread, KTry, Lit, desugar, kseq,
)
from kernelspace.runner import run_text
from kernelspace.syntax import parse
from kernelspace.terms import Record


def ds(src, base=()):
    return desugar(parse(src), base)


def _calls(k, name):
    """The calls in k of `name`; a base builtin's Lit callee is its name."""
    return [s for s in _stmts(k) if type(s) is KApply
            and (s.f.v.name if type(s.f) is Lit else s.f) == name]


def _stmts(k):
    """The statements of k, k first, in textual order."""
    yield k
    for attr in ("body", "then", "els", "handler"):
        sub = getattr(k, attr, None)
        if sub is not None:
            yield from _stmts(sub)
    for sub in getattr(k, "stmts", ()):
        yield from _stmts(sub)


# ----------------------------------------------------------------------
# random round trip


@st.composite
def kernel_program(draw):
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"V{counter[0]}"

    def lit():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Lit(draw(st.integers(-3, 3)))
        if kind == 1:
            return Lit(draw(st.sampled_from(["a", "b", "nil"])))
        n = draw(st.integers(1, 2))
        feats = [(i + 1, draw(st.one_of(st.integers(-3, 3),
                                        st.sampled_from(["a", "b"]))))
                 for i in range(n)]
        return Lit(Record(draw(st.sampled_from(["f", "g"])), feats))

    def operand(scope):
        if draw(st.booleans()):
            return draw(st.sampled_from(scope))
        return lit()

    def stmt(scope, depth):
        kinds = ["skip", "eq", "tell", "apply", "raise"]
        if depth > 0:
            kinds += ["seq", "local", "if", "case", "proc", "thread", "try"]
        kind = draw(st.sampled_from(kinds))
        if kind == "skip":
            return KSkip()
        if kind == "eq":
            return KEq(draw(st.sampled_from(scope)), operand(scope))
        if kind == "tell":
            label = draw(st.sampled_from(["f", "g", "|"]))
            n = draw(st.integers(1, 2))
            ops = [operand(scope) for _ in range(n)]
            if all(type(o) is Lit for o in ops):
                ops[0] = draw(st.sampled_from(scope))
            return KTellRec(draw(st.sampled_from(scope)), label,
                            [(i + 1, o) for i, o in enumerate(ops)])
        if kind == "apply":
            nargs = draw(st.integers(0, 2))
            return KApply(draw(st.sampled_from(scope)),
                          [operand(scope) for _ in range(nargs)])
        if kind == "raise":
            return KRaise(draw(st.sampled_from(scope)))
        if kind == "seq":
            n = draw(st.integers(2, 3))
            return kseq([stmt(scope, depth - 1) for _ in range(n)])
        if kind == "local":
            names = [fresh() for _ in range(draw(st.integers(1, 2)))]
            return KLocal(names, stmt(scope + tuple(names), depth - 1))
        if kind == "if":
            return KIf(draw(st.sampled_from(scope)),
                       stmt(scope, depth - 1), stmt(scope, depth - 1))
        if kind == "case":
            subj = draw(st.sampled_from(scope))
            if draw(st.booleans()):
                pat = KPatLit(draw(st.one_of(st.integers(-2, 2),
                                             st.sampled_from(["a", "nil"]))))
                inner = scope
            else:
                n = draw(st.integers(1, 2))
                names = [fresh() for _ in range(n)]
                pat = KPatRec(draw(st.sampled_from(["f", "|"])),
                              [(i + 1, m) for i, m in enumerate(names)])
                inner = scope + tuple(names)
            return KCase(subj, pat, stmt(inner, depth - 1),
                         stmt(scope, depth - 1))
        if kind == "proc":
            params = [fresh() for _ in range(draw(st.integers(0, 2)))]
            return KProc(draw(st.sampled_from(scope)), params,
                         stmt(scope + tuple(params), depth - 1))
        if kind == "thread":
            return KThread(stmt(scope, depth - 1))
        if kind == "try":
            v = fresh()
            return KTry(stmt(scope, depth - 1), v,
                        stmt(scope + (v,), depth - 1))
        raise AssertionError(kind)

    a, b = fresh(), fresh()
    return KLocal([a, b], stmt((a, b), draw(st.integers(1, 3))))


@given(kernel_program())
@settings(max_examples=200, deadline=None)
def test_pretty_parse_roundtrip(k):
    text = pretty(k)
    back = ds(text)
    assert alpha_equivalent(k, back), f"\n--- printed ---\n{text}"
    _assert_proc_free_matches_reference(back)


# ----------------------------------------------------------------------
# captured identifiers: KProc.free against a reference free-variable function
# (alpha_equivalent ignores KProc.free)


def _ref_free(k):
    """Free identifiers of kernel statement k, by the scoping rules."""
    def ids(*ops):
        return {o for o in ops if type(o) is str}

    t = type(k)
    if t is KSkip:
        return set()
    if t is KEq:
        return ids(k.a, k.b)
    if t is KTellRec:
        return ids(k.x, *(o for _, o in k.feats))
    if t is KSeq:
        return set().union(*(_ref_free(s) for s in k.stmts))
    if t is KLocal:
        return _ref_free(k.body) - set(k.names)
    if t is KIf:
        return ids(k.x) | _ref_free(k.then) | _ref_free(k.els)
    if t is KCase:
        bound = ({n for _, n in k.pat.feats} if type(k.pat) is KPatRec
                 else set())
        return ids(k.x) | (_ref_free(k.then) - bound) | _ref_free(k.els)
    if t is KProc:
        return ids(k.x) | (_ref_free(k.body) - set(k.params))
    if t is KApply:
        return ids(k.f, *k.args)
    if t is KThread:
        return _ref_free(k.body)
    if t is KTry:
        return _ref_free(k.body) | (_ref_free(k.handler) - {k.var})
    if t is KRaise:
        return ids(k.x)
    raise AssertionError(k)


def _procs(k):
    return [s for s in _stmts(k) if type(s) is KProc]


def _assert_proc_free_matches_reference(k):
    for p in _procs(k):
        want = tuple(sorted(_ref_free(p.body) - set(p.params)))
        assert p.free == want, pretty(p)


@pytest.mark.parametrize(
    "entry", [None] + stdlib.corpus(),
    ids=lambda e: "prelude" if e is None else f"{e.section}/{e.name}")
def test_proc_free_matches_reference_on_library_programs(entry):
    names, k = stdlib._prelude()
    if entry is not None:
        k = desugar(parse(entry.source()), set(stdlib.builtins()) | set(names))
    _assert_proc_free_matches_reference(k)


# ----------------------------------------------------------------------
# individual sugar rules


def test_fun_desugar():
    k = ds("local F Y in fun {F X} X + 1 end {F 2 Y} end")

    def expect(plus):
        return KLocal(["F", "Y"], kseq([
            KProc("F", ["X", "R"], KApply(plus, ["X", Lit(1), "R"])),
            KApply("F", [Lit(2), "Y"]),
        ]))
    # + calls the base builtin itself, which alpha_equivalent takes for its
    # name, free, and only free
    assert alpha_equivalent(k, expect(Lit(stdlib.builtins()["IntPlus"]))), \
        pretty(k)
    assert alpha_equivalent(k, expect("IntPlus"))
    assert not alpha_equivalent(KLocal(["IntPlus"], k),
                                KLocal(["IntPlus"], expect("IntPlus")))


def test_fun_body_case_expression():
    k = ds("""local App in
      fun {App Xs Ys}
         case Xs of nil then Ys
         [] X|Xr then X|{App Xr Ys}
         end
      end
    end""")
    names = set()

    def walk(s):
        names.add(type(s).__name__)
        for attr in ("body", "then", "els", "handler"):
            sub = getattr(s, attr, None)
            if sub is not None:
                walk(sub)
        for sub in getattr(s, "stmts", ()):
            walk(sub)
    walk(k)
    assert "KCase" in names and "KProc" in names


def test_case_multi_clause_chain():
    k = ds("""local Xs Y in
      case Xs of nil then Y = 0
      [] X|Xr then Y = X
      end
    end""")
    expect = KLocal(["Xs", "Y"], KCase(
        "Xs", KPatLit("nil"), KEq("Y", Lit(0)),
        KCase("Xs", KPatRec("|", [(1, "X"), (2, "Xr")]), KEq("Y", "X"),
              KRaise(Lit(Record("error", [("kind", "case")]))))))
    assert alpha_equivalent(k, expect), pretty(k)


def test_nested_pattern_scope_and_shape():
    k = ds("local P Q in case P of pt(x:X y:g(Z)) then Q = Z Q = X end end")
    text = pretty(k)
    assert "case" in text
    # the nested sub-pattern becomes a second case on a fresh feature var
    assert text.count("case") >= 2


def test_var_pattern_matches_anything():
    k = ds("local P Q in case P of V then Q = V end end")
    expect = KLocal(["P", "Q"],
                    KLocal(["V"], kseq([KEq("V", "P"), KEq("Q", "V")])))
    assert alpha_equivalent(k, expect), pretty(k)


def test_parenthesised_pattern_is_a_pattern():
    out = run_text("case f(1 2) of (f(A B)) then {Browse A#B} end")
    assert (out.exit_code, out.browse) == (0, ["1#2"])


def test_lazy_fun_uses_by_need():
    k = ds("local F in fun lazy {F N} N + 1 end end")
    assert len(_calls(k, "ByNeed")) == 1


def test_choice_desugars_to_choose_and_case():
    k = ds("local X in choice X = 1 [] X = 2 [] X = 3 end end")
    text = pretty(k)
    assert "{Choose 3" in text
    assert text.count("case") == 2  # 1..n-1 tests, last branch in else


def test_dis_desugars_to_combinator():
    k = ds("local X in dis X = 1 then skip [] X = 2 then skip end end")
    assert len(_calls(k, kernel.DIS_COMBINATOR)) == 1
    assert len(_procs(k)) == 4  # two guards, two bodies


def test_fd_linear_equation():
    k = ds("local A B in A =: 2 * B + 3 end")
    rel = _calls(k, "FDLinRel")
    assert len(rel) == 1
    coeffs, _vars, relop, const = rel[0].args
    assert coeffs == Lit(Record("|", [(1, 1), (2, Record("|", [(1, -2), (2, "nil")]))]))
    assert relop == Lit("eq")
    assert const == Lit(3)


def test_fd_product_pairs_share_common_suffix():
    k = ds("local A B C D in A*B*C =: D*B*C end")
    # B*C is computed once and reused: B*C, A*(BC), D*(BC)
    assert len(_calls(k, "FDMulProp")) == 3


def test_fd_product_declares_nothing_itself():
    # FDMulProp gives each variable operand its domain when it posts
    k = ds("local X Y Z in X =: Y * Z end")
    assert len(_calls(k, "FDMulProp")) == 1
    assert _calls(k, "FDDecl") == []


def _power_of_sum(n):
    return "*".join(["(A+B)"] * n)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_fd_product_of_sums_keeps_one_term_per_monomial(n):
    # (A+B)^n has n + 1 monomials; multiplied out term by term without
    # combining it had 2^n, and posted a product chain for each
    out = run_text(f"""
    local A B X in
       A = 1 B = 1 X ::: 0#100000
       X =: {_power_of_sum(n)}
       {{Browse X}}
    end
    """)
    assert out.browse == [str(2 ** n)]
    k = ds(f"local A B X in X =: {_power_of_sum(n)} end")
    assert len(_calls(k, "FDMulProp")) <= n * n


def test_fd_like_terms_combine_whatever_the_factor_order():
    k = ds("local A B in A*B =: B*A end")
    assert _calls(k, "FDMulProp") == []
    assert len(_calls(k, "FDLinRel")) == 1
    assert run_text("local A B in [A B] ::: 0#3 A*B =: B*A "
                    "A = 2 B = 3 {Browse ok} end").browse == ["ok"]


def test_fd_domain_tell():
    k = ds("local Xs in Xs ::: 0#9 end")
    text = pretty(k)
    assert "FDDomTellVec" in text


def test_dotted_identifier_is_one_name():
    k = ds("{Search.base.all P X}", base=("Search.base.all", "P", "X"))
    assert alpha_equivalent(k, KApply("Search.base.all", ["P", "X"]))


def test_declare_scopes_to_rest():
    k = ds("declare X in declare Y in X = 1 Y = 2")
    expect = KLocal(["X"], KLocal(["Y"], kseq([KEq("X", Lit(1)),
                                               KEq("Y", Lit(2))])))
    assert alpha_equivalent(k, expect)


def test_binding_declaration_prefix():
    k = ds("local S in local C in C = 1 in S = C end end")
    expect = KLocal(["S"], KLocal(["C"], KLocal(
        ["C2"], kseq([KEq("C2", Lit(1)), KEq("S", "C2")]))))
    assert alpha_equivalent(k, expect), pretty(k)


def test_ground_record_becomes_literal():
    k = ds("local X in X = f(a 2:b) end")
    expect = KLocal(["X"], KEq("X", Lit(Record("f", [(1, "a"), (2, "b")]))))
    assert alpha_equivalent(k, expect)


def test_list_sugar():
    k = ds("local X in X = [1 2] end")
    expect = KLocal(["X"], KEq("X", Lit(
        Record("|", [(1, 1), (2, Record("|", [(1, 2), (2, "nil")]))]))))
    assert alpha_equivalent(k, expect)


def test_operators_desugar_to_builtins():
    k = ds("local A B C in C = A * B + 2 B = A < C B = A > C end")
    base = stdlib.builtins()
    calls = [s for s in _stmts(k) if type(s) is KApply]
    assert [s.f.v for s in calls] == [base[n] for n in
                                      ("IntTimes", "IntPlus", "Less", "Less")]
    assert calls[3].args == ("C", "A", "B")     # > swaps its operands
    text = pretty(k)
    assert "IntTimes" in text and "IntPlus" in text
    assert text.count("{Less") == 2


def test_free_names_modulo_base():
    # the program's frame starts with the outer names it uses
    k = ds("local X in {Browse X} {Foo X} end", base=("Browse", "Foo", "Bar"))
    assert k.root == (("Browse", "Foo"), 3)


def test_unresolved_variable_reports_position():
    with pytest.raises(ParseError) as e:
        ds("local X in\nY = X\nend")
    assert e.value.line == 2


def test_if_expression_requires_else():
    with pytest.raises(ParseError):
        ds("local X in X = if a then 1 end end")


def test_anonymous_proc_needs_expression_position():
    with pytest.raises(ParseError):
        ds("proc {$ X} skip end")


@pytest.mark.parametrize("where", ["last", "first"])
def test_list_literal_groundness_is_decided_once_per_cell(monkeypatch, where):
    """A list literal with one variable is not ground; every cell is still
    walked a bounded number of times (counted by its features being
    numbered), so desugaring stays linear in its length."""
    calls = []
    orig = kernel.number_feats

    def counting(*args):
        calls.append(None)
        return orig(*args)
    monkeypatch.setattr(kernel, "number_feats", counting)
    n = 400
    elems = "1 " * n + "Y" if where == "last" else "Y " + "1 " * n
    ds(f"local X Y in X = [{elems}] end")
    assert len(calls) <= 4 * n, len(calls)


def test_duplicate_feature_rejected():
    with pytest.raises(ParseError):
        ds("local X Y in X = f(1:Y 1:Y) end")


@pytest.mark.parametrize("src, msg, line, col", [
    ("local X in\n   X = (declare Y in Y)\nend",
     "this construct has no value", 2, 9),
    ("local X Y in\n   X = (Y = 1)\nend",
     "this construct has no value", 2, 11),
    ("local X in\n   X = proc {F} skip end\nend",
     "a named procedure definition is a statement", 2, 8),
    ("local X in\n   proc {$ Y} skip end\nend",
     "a procedure in statement position needs a name", 2, 4),
    ("local X in\n   X = if X then 1 end\nend",
     "an if used as an expression needs an else", 2, 8),
    ("local X in\n   X + 1\nend",
     "this expression cannot stand alone as a statement", 2, 6),
    ("local X Y in\n   X = f(1:Y 1:Y)\nend",
     "duplicate feature 1", 2, 8),
    ("local X in\n   case X of f(a:_ a:_) then skip end\nend",
     "duplicate feature a in pattern", 2, 14),
    ("case f(1 2) of f(A A) then {Browse A} end",
     "duplicate variable A in pattern", 1, 20),
    ("case f(1 f(2 3)) of f(A f(B B)) then skip end",
     "duplicate variable B in pattern", 1, 29),
    ("case x of 1+1 then skip end", "this phrase is not a pattern", 1, 12),
    ("case x of {F} then skip end", "this phrase is not a pattern", 1, 11),
    ("case x of 1+1 then skip else {Undefined} end",
     "this phrase is not a pattern", 1, 12),
    ("case x of f(A A) then skip [] 1+1 then skip end",
     "duplicate variable A in pattern", 1, 15),
    ("case x of f(g(a:_ a:_)) then {Undefined} end",
     "duplicate feature a in pattern", 1, 13),
], ids=["declare-as-value", "tell-as-value", "named-proc-as-value",
        "anonymous-proc-as-statement", "if-value-without-else",
        "value-as-statement", "duplicate-record-feature",
        "duplicate-pattern-feature", "duplicate-pattern-variable",
        "duplicate-nested-pattern-variable", "operator-as-pattern",
        "call-as-pattern", "bad-pattern-before-else",
        "duplicate-variable-before-later-pattern",
        "nested-duplicate-feature-before-body"])
def test_desugar_error_message_and_position(src, msg, line, col):
    with pytest.raises(ParseError) as e:
        ds(src)
    assert (str(e.value), e.value.line, e.value.col) == (
        f"{msg} at {line}:{col}", line, col)


# ----------------------------------------------------------------------
# nesting: deep programs run, too deep ones are parse errors


def _nested_procs(n):
    inner = "Z = 1"
    for _ in range(n):
        inner = f"Z = proc {{$ Y}} local Z in {inner} end end"
    return f"local Z in {inner} end"


def _ones(n):
    return " ".join(["1"] * n)


def _elseif_chain(n):
    arms = "".join(f"elseif X == {i} then {{Browse {i}}} " for i in range(1, n))
    return f"local X in X = {n - 1} if X == 0 then {{Browse 0}} {arms}end end"


def _case_list(n):
    """A case on an n-element list pattern that browses the list reversed."""
    names = [f"A{i}" for i in range(n)]
    return (f"local X in X = [{' '.join(map(str, range(n)))}] "
            f"case X of [{' '.join(names)}] then "
            f"{{Browse [{' '.join(reversed(names))}]}} end end")


# a space whose suspended script's frame holds a long ground list; its
# clone is merged so the copy is browsed
_CLONE_LIST = """
declare S C A B M in
S = {NewSpace proc {$ R} L X in L = [ONES] R = X#L {Wait X} end}
{Ask S A} {Wait A}
C = {Clone S}
{Inject C proc {$ R} case R of X#_ then X = done end end}
{Ask C B} {Wait B}
M = {Merge C}
{Browse M}
"""


@pytest.mark.parametrize("src, browse", [
    ("local X Y in X = [" + "1 " * 450 + "Y] Y = nil {Browse X} end", None),
    (_nested_procs(60), None),
    ("local X in X = [" + _ones(3000) + "] {Browse X} end",
     ["[" + _ones(3000) + "]"]),
    ("local X Y in X = [Y " + _ones(2999) + "] Y = 2 {Browse X} end",
     ["[2 " + _ones(2999) + "]"]),
    ("local X Y in X = [" + _ones(2999) + " Y] Y = 2 {Browse X} end",
     ["[" + _ones(2999) + " 2]"]),
    ("local X in X = " + "1|" * 2000 + "nil {Browse X} end",
     ["[" + _ones(2000) + "]"]),
    (_elseif_chain(2000), ["1999"]),
    (_CLONE_LIST.replace("ONES", _ones(3000)),
     ["done#[" + _ones(3000) + "]"]),
    (_case_list(2000), ["[" + " ".join(map(str, range(1999, -1, -1))) + "]"]),
    ("local X in X = " + "+".join(["1"] * 1000) + " {Browse X} end",
     [str(1000)]),
    ("local X in X = " + "*".join(["2"] * 1000) + " {Browse X} end",
     [str(2 ** 1000)]),
    ("local X in X ::: 0#2000 X =: " + "+".join(["1"] * 1000)
     + " {Browse X} end", [str(1000)]),
    ("local X Y in Y = 1 X ::: 0#5 X =: " + "*".join(["Y"] * 1000)
     + " {Browse X} end", ["1"]),
], ids=["list-450-variable-last", "procs-60", "list-3000-ground",
        "list-3000-variable-first", "list-3000-variable-last",
        "bar-chain-2000", "elseif-2000", "clone-list-3000", "case-list-2000",
        "plus-chain-1000", "times-chain-1000", "fd-sum-chain-1000",
        "fd-product-chain-1000"])
def test_deep_programs_still_run(src, browse):
    """Lists, | chains, elseif chains, list patterns and operator chains of
    any length are read by loops, in the parser, the desugarer and clone
    alike."""
    out = run_text(src)
    assert out.exit_code == 0, out.error
    if browse is not None:
        assert out.browse == browse


def test_long_list_literals_compare_without_host_recursion():
    """Literal operands compare with the store's iterative walk, so a
    3,000-element list in a finite-domain sum is an ordinary type error."""
    lst = "[" + _ones(3000) + "]"
    out = run_text(f"local X in X =: {lst} + {lst} end")
    assert (out.status, out.exit_code) == ("uncaught", 1)
    assert out.error == "uncaught exception: error(kind:type)"

    def literal():
        t = "nil"
        for _ in range(3000):
            t = Record("|", ((1, 1), (2, t)))
        return Lit(t)
    assert literal() == literal()


@pytest.mark.parametrize("src", [
    _nested_procs(80),
    "thread " * 500 + "skip" + " end" * 500,
    "local X in X = " + "f(" * 3000 + "1" + ")" * 3000 + " end",
], ids=["procs-80", "threads-500", "record-3000"])
def test_too_deep_programs_are_parse_errors(src):
    out = run_text(src)
    assert (out.status, out.exit_code) == ("parse-error", 2)
    assert f"nest more than {syntax.MAX_NESTING} deep" in out.error


def test_every_program_in_the_tree_parses_within_the_nesting_limit():
    """The prelude, the corpus and the bench's fixed programs parse."""
    srcs = [(stdlib._HERE / "prelude.oz").read_text()]
    srcs += [e.source() for e in stdlib.corpus()]
    bench = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    for node in ast.walk(ast.parse(bench.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith("\ndeclare"):
            srcs.append(node.value)
    assert len(srcs) == 1 + 17 + 5
    for src in srcs:
        parse(src)


def test_unknown_character_rejected():
    with pytest.raises(ParseError) as e:
        parse("X = @Y")
    assert e.value.col == 5


def test_module_syntax_rejected():
    with pytest.raises(ParseError):
        ds("functor import end")


def test_declare_not_an_expression():
    with pytest.raises(ParseError):
        parse("if declare X in skip then skip end")


# ----------------------------------------------------------------------
# case against a Python matcher

# A term is an int, an atom (a str) or ("rec", label, feats), feats the
# (feature, term) pairs in canonical order: integer features ascending, then
# atoms.  A pattern is a term whose leaves may also be ("var", name) or
# ("_",).

def _rec(label, feats):
    return ("rec", label,
            tuple(sorted(feats, key=lambda fv: (type(fv[0]) is str, fv[0]))))


def _cons(head, tail):
    return _rec("|", [(1, head), (2, tail)])


def _positional(x):
    return [f for f, _ in x[2]] == list(range(1, len(x[2]) + 1))


def _is_cons(x):
    return type(x) is tuple and x[0] == "rec" and x[1] == "|" \
        and [f for f, _ in x[2]] == [1, 2]


def _is_hashed(x):
    return type(x) is tuple and x[0] == "rec" and x[1] == "#" \
        and len(x[2]) >= 2 and _positional(x)


def _ground(depth, atoms=("a", "b", "nil"), labels=("f", "g"),
            names=("x", "y")):
    """Ground terms nested at most depth records deep, with leaf atoms,
    record labels and feature names drawn from those given."""
    leaf = st.one_of(st.integers(-3, 3), st.sampled_from(atoms))
    if depth == 0:
        return leaf
    sub = _ground(depth - 1, atoms, labels, names)
    record = st.tuples(
        st.sampled_from(labels), st.lists(sub, max_size=2),
        st.dictionaries(st.sampled_from(names), sub, max_size=2),
    ).filter(lambda r: r[1] or r[2]).map(
        lambda r: _rec(r[0], [*enumerate(r[1], 1), *r[2].items()]))
    closed = st.lists(sub, max_size=3).map(
        lambda xs: functools.reduce(lambda t, x: _cons(x, t), reversed(xs),
                                    "nil"))
    tup = st.lists(sub, min_size=2, max_size=3).map(
        lambda xs: _rec("#", enumerate(xs, 1)))
    return st.one_of(leaf, record, closed, tup,
                     st.builds(_cons, sub, sub))


_GROUND = _ground(3)


@st.composite
def _linear_pattern(draw, term):
    """A pattern made from term: each subterm becomes a fresh variable, a
    wildcard, itself (a record with patterns made from its fields), or a
    perturbed label, arity or literal.  Returns (pattern, variable names
    in order)."""
    names = []

    def make(t):
        how = draw(st.sampled_from(["var", "wild", "keep", "keep", "keep",
                                    "perturb"]))
        if how == "var":
            names.append(f"V{len(names) + 1}")
            return ("var", names[-1])
        if how == "wild":
            return ("_",)
        if type(t) is not tuple:        # an int or an atom
            if how == "keep":
                return t
            return draw(st.sampled_from(
                [x for x in (0, 1, -2, "a", "nil", "h") if x != t]
                + [_rec("f", [(1, ("_",))])]))
        what = "keep" if how == "keep" else draw(
            st.sampled_from(["label", "arity", "arity", "literal"]))
        if what == "literal":
            return draw(st.sampled_from([1, "a", "nil"]))
        fields = list(t[2])
        if what == "arity":         # drop, rename or add a feature
            i = draw(st.integers(0, len(fields) - 1))
            absent = draw(st.sampled_from(
                [f for f in ("x", "y", "z", 3) if f not in dict(fields)]))
            change = draw(st.sampled_from(["drop", "rename", "add"]))
            if change == "drop" and len(fields) > 1:
                del fields[i]
            elif change == "rename":
                fields[i] = (absent, fields[i][1])
            else:
                fields.append((absent, "a"))
        label = t[1] if what != "label" else draw(st.sampled_from(
            [x for x in ("f", "g", "#", "|") if x != t[1]]))
        return _rec(label, [(f, make(v)) for f, v in fields])

    return make(term), names


def _match(p, t, env):
    """Whether term t matches pattern p, binding p's variables in env."""
    if type(p) is tuple and p[0] == "_":
        return True
    if type(p) is tuple and p[0] == "var":
        env[p[1]] = t
        return True
    if type(p) is tuple:
        return (type(t) is tuple and t[1] == p[1]
                and [f for f, _ in t[2]] == [f for f, _ in p[2]]
                and all([_match(q, v, env)
                         for (_, q), (_, v) in zip(p[2], t[2])]))
    return type(t) is type(p) and t == p


def _lit(x):
    """An integer, or an atom quoted unless it is a plain lower-case name."""
    if type(x) is int:
        return str(x) if x >= 0 else f"~{-x}"
    if re.fullmatch("[a-z][A-Za-z0-9_]*", x) and x not in syntax.KEYWORDS:
        return x
    return f"'{x}'"


def _src(x):
    """x as Oz source text: lists in brackets or as | chains, tuples as #
    chains, with an infix operand in parentheses where the operators'
    binding powers would regroup it."""
    if type(x) is not tuple:
        return _lit(x)
    if x[0] == "var":
        return x[1]
    if x[0] == "_":
        return "_"
    if _is_cons(x):
        heads = []
        while _is_cons(x):
            heads.append(x[2][0][1])
            x = x[2][1][1]
        if x == "nil":
            return "[" + " ".join(map(_src, heads)) + "]"
        return "|".join(f"({_src(h)})" if _is_cons(h) and not _closed(h)
                        else _src(h) for h in heads) + "|" + _src(x)
    if _is_hashed(x):
        return "#".join(f"({_src(v)})" if _is_hashed(v) or
                        (_is_cons(v) and not _closed(v)) else _src(v)
                        for _, v in x[2])
    items = [_src(v) if f == i else f"{_lit(f)}:{_src(v)}"
             for i, (f, v) in enumerate(x[2], 1)]
    return f"{_lit(x[1])}({' '.join(items)})"


def _closed(x):
    while _is_cons(x):
        x = x[2][1][1]
    return x == "nil"


def _shown(t):
    """Ground term t as Browse shows it: a `#` element that is a `#` tuple
    or an open list, and an open list's head that is an open list, in
    parentheses; every feature named unless all are positional."""
    if type(t) is not tuple:
        return _lit(t)
    if _is_cons(t):
        heads = []
        while _is_cons(t):
            heads.append(t[2][0][1])
            t = t[2][1][1]
        if t == "nil":
            return "[" + " ".join(map(_shown, heads)) + "]"
        return "|".join(f"({_shown(h)})" if _is_cons(h) and not _closed(h)
                        else _shown(h) for h in heads) + "|" + _shown(t)
    if _is_hashed(t):
        return "#".join(f"({_shown(v)})" if _is_hashed(v) or
                        (_is_cons(v) and not _closed(v)) else _shown(v)
                        for _, v in t[2])
    positional = _positional(t)
    items = [_shown(v) if positional else f"{_lit(f)}:{_shown(v)}"
             for f, v in t[2]]
    return f"{_lit(t[1])}({' '.join(items)})"


@st.composite
def _case_program(draw):
    """A few case statements, each of a drawn term against a pattern made
    from it, with the lines a Python matcher expects them to browse."""
    lines, expect = [], []
    for _ in range(draw(st.integers(1, 8))):
        term = draw(_GROUND)
        pat, names = draw(_linear_pattern(term))
        shown = f"r({' '.join(names)})" if names else "yes"
        lines.append(f"case {_src(term)} of {_src(pat)} then "
                     f"{{Browse {shown}}} else {{Browse no}} end")
        env = {}
        if not _match(pat, term, env):
            expect.append("no")
        elif names:
            expect.append(f"r({' '.join(_shown(env[n]) for n in names)})")
        else:
            expect.append("yes")
    return "\n".join(lines), expect


@given(_case_program())
@settings(max_examples=400, deadline=None)
def test_case_matches_as_a_python_matcher_does(case):
    src, expect = case
    out = run_text(src)
    assert (out.exit_code, out.browse) == (0, expect), src


# Atoms, labels and feature names that Browse must quote, next to plain ones.
_QUOTED = _ground(3, atoms=("a", "nil", "A", "hello world", "end", "#", "|"),
                  labels=("f", "A", "#", "|", "of"), names=("x", "Y", "skip"))


@given(st.lists(_QUOTED, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_browse_output_reads_back_as_the_term(terms):
    """{Browse R == T} browses true, where R is what {Browse T} showed."""
    shown = run_text("".join(f"{{Browse {_src(t)}}}\n" for t in terms))
    assert shown.exit_code == 0
    assert shown.browse == [_shown(t) for t in terms]
    src = "".join(f"{{Browse {r} == {_src(t)}}}\n"
                  for r, t in zip(shown.browse, terms))
    out = run_text(src)
    assert (out.exit_code, out.browse) == (0, ["true"] * len(terms)), src


# ----------------------------------------------------------------------
# the tokenizer against the reference tokenizer

_PROGRAMS = [(stdlib._HERE / "prelude.oz").read_text(),
             *(e.source() for e in stdlib.corpus())]

_TOKEN_PIECES = st.one_of(
    st.sampled_from(sorted(syntax.KEYWORDS) + [
        "X", "Xs", "_", "_X", "_1", "A.b", "Search.base.one", "A.", "x",
        "foo_Bar9", "0", "42", "007", "{", "}", "(", ")", "[", "]", "[]",
        "|", "#", ":", "=", "==", "=<", "<", ">", "+", "-", "*", "$", "!",
        "=:", "<:", "=<:", ":::", "::"]),
    st.sampled_from([" ", "\t", "\r", "\n", "\n   ", "\u00a0", "\u2028"]),
    st.text("ab %'\t", max_size=6).map(lambda c: "%" + c),
    st.text("aB 1%\n'", max_size=5).map(lambda a: "'" + a + "'"),
    st.integers(0, 10**12).map(lambda n: f"~{n}"),
    st.sampled_from(["~", "@", '"', ";", "'", "^", "?", "\\", "\u00e9"]),
)


def _tokens_or_error(tokenize, src):
    try:
        return [t if type(t) is tuple else t.as_tuple() for t in tokenize(src)]
    except ParseError as e:
        return (str(e), e.line, e.col)


def _with_programs(test):
    for src in _PROGRAMS:
        test = example(src)(test)
    return test


@given(st.lists(_TOKEN_PIECES, max_size=40).map("".join))
@_with_programs
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_reference(src):
    """The same (kind, value, line, col, start, end) tuples, or the same
    ParseError message at the same line and column."""
    assert _tokens_or_error(syntax.tokenize, src) == \
        _tokens_or_error(reference_tokenizer.tokenize, src)
