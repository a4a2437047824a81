"""The command line and the REPL session.

`cli.main` is called in-process with sys.stdin, sys.stdout and sys.stderr
captured; `Session.feed` is driven directly.  The trace checks look at
the event lines on stderr and at the order in which events and browse
lines are produced.
"""

import io
import re
import sys

import pytest

from kernelspace import cli
from kernelspace.runner import RunConfig, Session, run_text

# one trace line: T<tid>@S<sid> kind or T<tid>@S<sid> kind(args)
EVENT = re.compile(
    r"T\d+@S\d+ (spawn|exit|wake|suspend\(v\d+\)|raise\(\S+\)|choose\(\d+\)"
    r"|commit\(\d+\)|newspace\(\d+\)|ask\(\d+\)|clone\(\d+,\d+\)"
    r"|inject\(\d+\)|merge\(\d+\))")

SPACE_PROGRAM = """
local S A in
   {NewSpace proc {$ R} R = 1 end S}
   {Ask S A}
   {Browse A}
end
"""


def _run(tmp_path, capsys, src, *flags):
    path = tmp_path / "prog.oz"
    path.write_text(src)
    code = cli.main(["run", str(path), *flags])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err.splitlines()


# ----------------------------------------------------------------------
# exit codes of `run`


def test_run_exit_0_browse_on_stdout(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "{Browse 1} {Browse f(a)}")
    assert (code, out, err) == (0, ["1", "f(a)"], [])


def test_run_exit_1_uncaught_exception(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "{Browse 1} raise foo end")
    assert (code, out, err) == (1, ["1"], ["uncaught exception: foo"])


def test_run_exit_2_parse_error(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "{Browse 1")
    assert code == 2 and out == []
    assert len(err) == 1 and " at 1:" in err[0]


def test_run_exit_2_unusable_configuration(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "{Browse 1}", "--slice", "0")
    assert (code, out, err) == (2, [], ["error: slice budget must be at least 1"])


def test_run_exit_3_reduction_budget(tmp_path, capsys):
    src = "{Browse 1} local L in proc {L} {L} end {L} end"
    code, out, err = _run(tmp_path, capsys, src, "--max-red", "100000")
    assert (code, out, err) == (3, ["1"], ["reduction budget exhausted"])


def test_run_exit_3_budget_below_the_prelude_cost(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "{Browse 1}",
                          "--max-red", "10", "--slice", "10")
    assert (code, out, err) == (3, [], ["reduction budget exhausted"])


def test_run_text_budget_counts_the_prelude():
    """The prelude's reductions count against the budget, so a budget one
    short of the whole run ends it with exit 3, at any size."""
    full = run_text("{Browse 1}").vm.reductions
    out = run_text("{Browse 1}", RunConfig(slice_=1, max_reductions=full))
    assert (out.exit_code, out.browse) == (0, ["1"])
    for budget in (full - 1, full // 2, 1):
        out = run_text("{Browse 1}", RunConfig(slice_=1, max_reductions=budget))
        assert (out.status, out.exit_code, out.browse) == ("budget", 3, [])
        assert out.vm.reductions == budget


def test_run_text_parse_error_wins_over_a_spent_budget():
    out = run_text("{Browse 1", RunConfig(slice_=1, max_reductions=1))
    assert (out.status, out.exit_code) == ("parse-error", 2)


def test_session_budget_below_the_prelude_cost():
    s = Session(RunConfig(slice_=1, max_reductions=10))
    r = s.feed("{Browse 1}")
    assert (r.status, r.browse, r.error) == (
        "budget", [], "reduction budget exhausted")


def test_run_exit_4_deadlock(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "local X in {Browse a} {Wait X} end")
    assert code == 4 and out == ["a"]
    assert err[0] == "quiescent with suspended threads:"
    assert re.fullmatch(r"  thread T\d+ waits on variable v\d+", err[1])


# ----------------------------------------------------------------------
# the REPL session


def test_session_declare_persists_across_inputs():
    s = Session()
    r1 = s.feed("declare X in X = 5")
    assert (r1.status, r1.browse, r1.blocked) == ("ok", [], 0)
    r2 = s.feed("{Browse X + 1}")
    assert (r2.status, r2.browse) == ("ok", ["6"])


def test_session_parse_error_is_reported_and_the_session_goes_on():
    s = Session()
    r1 = s.feed("{Browse")
    assert r1.status == "parse-error" and r1.error and r1.browse == []
    r2 = s.feed("{Browse 2}")
    assert (r2.status, r2.browse, r2.error) == ("ok", ["2"], None)


def test_session_blocked_thread_finishes_after_a_later_input():
    s = Session()
    r1 = s.feed("declare X in\nthread {Browse X + 1} end")
    assert (r1.status, r1.browse, r1.blocked) == ("ok", [], 1)
    r2 = s.feed("X = 41")
    assert (r2.status, r2.browse, r2.blocked) == ("ok", ["42"], 0)


def test_session_keeps_no_browse_history():
    s = Session()
    for _ in range(1000):
        assert s.feed("{Browse 1}").browse == ["1"]
    assert s.vm.browse == []


def test_repl_reports_blocked_threads(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "declare X in\nthread {Browse X + 1} end\n\nX = 41\n"))
    assert cli.main(["repl"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == ["42"]
    assert "blocked: 1 thread" in err.splitlines()


# ----------------------------------------------------------------------
# --trace streams events to stderr


def _events(err_lines):
    return [line for line in err_lines if EVENT.fullmatch(line)]


def test_run_trace_writes_event_lines_to_stderr(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, SPACE_PROGRAM, "--trace")
    assert code == 0 and out == ["succeeded"]
    assert err and _events(err) == err
    kinds = {line.split(" ")[1].split("(")[0] for line in err}
    assert {"spawn", "exit", "suspend", "wake", "newspace", "ask"} <= kinds


def test_repl_trace_writes_event_lines_to_stderr(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SPACE_PROGRAM))
    assert cli.main(["repl", "--trace"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == ["succeeded"]
    events = _events(err.splitlines())
    assert any(line.endswith(" newspace(1)") for line in events)


def test_corpus_trace_writes_event_lines_to_stderr(capsys):
    assert cli.main(["corpus", "--tag", "state", "--trace"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "2/2 passed"
    err = err.splitlines()
    assert err and _events(err) == err


def test_run_trace_streams_while_the_program_runs(tmp_path, monkeypatch):
    """Events and browse lines share one stream in the order they happen:
    the browsing thread's spawn comes before its browse line."""
    path = tmp_path / "prog.oz"
    path.write_text("thread {Browse 1} end")
    both = io.StringIO()
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    assert cli.main(["run", str(path), "--trace"]) == 0
    lines = both.getvalue().splitlines()
    i = lines.index("1")
    tid = lines[i + 1].split("@")[0]
    assert lines[i + 1] == f"{tid}@S0 exit"
    assert f"{tid}@S0 spawn" in lines[:i]


def test_run_text_hands_events_to_the_sink_as_they_happen():
    log = []
    out = run_text("thread {Browse 1} end", RunConfig(trace=log.append),
                   on_browse=log.append)
    assert out.exit_code == 0
    i = log.index("1")
    kind, tid, sid = log[i + 1]
    assert (kind, sid) == ("exit", 0)
    assert ("spawn", tid, 0) in log[:i]


@pytest.mark.parametrize("cmd", [["run", "PROG"], ["repl"],
                                 ["corpus", "--tag", "state"]])
def test_no_trace_means_no_event_lines(cmd, tmp_path, monkeypatch, capsys):
    path = tmp_path / "prog.oz"
    path.write_text(SPACE_PROGRAM)
    monkeypatch.setattr(sys, "stdin", io.StringIO(SPACE_PROGRAM))
    cli.main([str(path) if a == "PROG" else a for a in cmd])
    _, err = capsys.readouterr()
    assert _events(err.splitlines()) == []
