"""Every bundled program reproduces its golden output byte for byte, in
the same number of reductions.

The reduction counts pin the machine's step semantics: one statement
run is one reduction, however statements are represented or handed to
the scheduler.
A change that moves a count changes what a step is and must say so.
The search-tree size of full fractions is pinned the same way.
"""

import pytest

from conftest import kind_counter
from kernelspace import stdlib
from kernelspace.runner import RunConfig, run_text
from kernelspace.store import Store

ENTRIES = stdlib.corpus()

REDUCTIONS = {
    "lists/append-dataflow": 70,
    "lists/nrev": 84,
    "lists/nrev-fun": 78,
    "search/append-choice-all": 440,
    "search/append-search-object": 501,
    "search/nrev-choice-one": 659,
    "streams/producer-consumer-eager": 2_401_693,
    "streams/producer-consumer-lazy": 3_600_045,
    "state/display-stream": 57,
    "state/exchange-counter": 42,
    "relational/children-fun": 300,
    "relational/children-rel-all": 2_220,
    "relational/children2": 353,
    "fd/fractions": 445_420,
    "spaces/dfs-engine": 136,
    "spaces/dis-unit-commit": 97,
    "spaces/dis-choice": 145,
}

# The spaces a search program makes, by NewSpace and by Clone: full
# fractions makes its one search space and clones it 8,561 times.  Weaker
# propagation shows as a larger tree (ROADMAP item 3: it must not grow).
SPACES = {"fd/fractions": 8_562}

# The bench's eager and lazy streams (bench/workloads.py) at 3,000 elements
# from 5: both sum to 4513500.
EAGER = """
declare Generate Sum in
proc {Generate N Limit Xs}
   if N<Limit then Xr in
      Xs=N|Xr
      {Generate N+1 Limit Xr}
   else Xs=nil end
end
proc {Sum Xs A S}
   case Xs
   of X|Xr then {Sum Xr A+X S}
   [] nil then S=A
   end
end
local Xs S in
   thread {Generate 5 3005 Xs} end
   thread {Sum Xs 0 S} end
   {Browse S}
end
"""

LAZY = """
declare Generate Sum in
fun lazy {Generate N}
   N|{Generate N+1}
end
proc {Sum Xs Limit A S}
   if Limit>0 then
      case Xs
      of X|Xr then
         {Sum Xr Limit-1 A+X S}
      end
   else S=A end
end
local Xs S in
   thread Xs={Generate 5} end
   thread {Sum Xs 3000 0 S} end
   {Browse S}
end
"""


def test_corpus_is_complete():
    sections = {e.section for e in ENTRIES}
    assert sections == {"lists", "search", "streams", "state",
                        "relational", "fd", "spaces"}
    assert len(ENTRIES) == 17


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"{e.section}/{e.name}")
def test_corpus_program(entry):
    kinds, sink = kind_counter()
    out = run_text(entry.source(), RunConfig(trace=sink))
    got = "".join(line + "\n" for line in out.browse)
    assert got == entry.golden()
    assert out.exit_code == entry.expect_exit
    key = f"{entry.section}/{entry.name}"
    assert out.vm.reductions == REDUCTIONS[key]
    if key in SPACES:
        assert kinds["newspace"] + kinds["clone"] == SPACES[key]


@pytest.mark.parametrize("src, reductions", [(EAGER, 48_076),
                                             (LAZY, 72_045)],
                         ids=["eager", "lazy"])
def test_stream_reduction_counts(src, reductions):
    out = run_text(src)
    assert (out.exit_code, out.browse) == (0, ["4513500"])
    assert out.vm.reductions == reductions


@pytest.mark.parametrize("src, allocated", [(EAGER, 3_026), (LAZY, 9_028)],
                         ids=["eager", "lazy"])
def test_stream_variable_counts(monkeypatch, src, allocated):
    """The store variables a stream run makes, its base environment
    included.  The result of `N+1`, `N<Limit` or `A+X` goes to a value
    slot (kernel.ValueSlot), not to a variable."""
    made = [0]
    new_var = Store.new_var

    def counting(self, space):
        made[0] += 1
        return new_var(self, space)
    monkeypatch.setattr(Store, "new_var", counting)
    out = run_text(src)
    assert (out.exit_code, out.browse) == (0, ["4513500"])
    assert made[0] == allocated


@pytest.mark.parametrize("src", [EAGER, LAZY], ids=["eager", "lazy"])
@pytest.mark.parametrize("slice_, budget", [(1, 500), (7, 1234),
                                            (1000, 5000)])
def test_budget_stops_at_exactly_the_budget(src, slice_, budget):
    out = run_text(src, RunConfig(slice_=slice_, max_reductions=budget))
    assert out.exit_code == 3
    assert out.vm.reductions == budget
