"""The benchmark: each workload in its own child process, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 a run starts the workload child between SETUP_PROBES
set-up-only children, half before and half after it, and reports the
end-to-end metrics: setup_s (median of all set-ups), run_s (median pass),
both in CPU seconds of the child scaled to a reference speed (see
child.py), and peak_rss_mib (the workload child's maximum RSS).  With
--trace 1 it runs the workload untraced and then traced, half the
seconds each, and reports the per-layer metrics and the tracing
overhead; spans go to bench/out/.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A wrong answer makes
`correct` false and the exit code 1; a child that cannot run ends run.py
with exit code 2 and no JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("streams", "fd-search", "tree-search", "corpus")
SETUP_PROBES = 16
RUN_LIMIT = 170         # seconds for all children of one measurement
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB"))


class ChildFailed(Exception):
    pass


def spec():
    """BENCHMARK.json as a dict."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(deadline, *args):
    """Run child.py to completion; its JSON result.

    A child still running at `deadline` (monotonic clock) is killed.
    """
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(cmd[1:])} ran past {RUN_LIMIT} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {p.returncode}: "
                          f"{p.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """One run of one workload: (result object, the children's results)."""
    common = ("--workload", workload, "--seed", seed)
    deadline = time.monotonic() + RUN_LIMIT
    if not trace:
        # set-up probes before and after the workload child, so that
        # setup_s spans the run like run_s does
        setups = [child(deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        r = child(deadline, *common, "--seconds", seconds)
        setups.append(r["setup_s"])
        setups += [child(deadline, "--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES // 2)]
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(r["passes"]),
                  "peak_rss_mib": r["peak_rss_mib"]}
        units = dict(END_TO_END)
        runs = [r]
    else:
        OUT.mkdir(exist_ok=True)
        plain = child(deadline, *common, "--seconds", seconds / 2)
        traced = child(deadline, *common, "--seconds", seconds / 2,
                       "--trace", OUT / f"trace-{workload}-{seed}.json")
        untraced_s = statistics.median(plain["passes"])
        traced_s = statistics.median(traced["passes"])
        values = dict(traced["layers"])
        values["trace.run_s_untraced"] = untraced_s
        values["trace.run_s_traced"] = traced_s
        values["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
        units = dict(tracer.METRICS)
        units.update({"trace.run_s_untraced": "s", "trace.run_s_traced": "s",
                      "trace.overhead_pct": "%"})
        runs = [plain, traced]
    result = {
        "correct": not any(r["wrong"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    return result, runs


def _report_problems(workload, runs):
    for r in runs:
        for what, key in (("failed", "errors"), ("wrong", "wrong")):
            for msg, n in r[key].items():
                print(f"{workload}: {what} {n}x {msg}", file=sys.stderr)


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; default run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = args.seconds or spec()["run_seconds"]
    results = {}
    try:
        for name in names:
            result, runs = measure(name, args.seed, seconds, args.trace)
            _report_problems(name, runs)
            results[name] = result
    except ChildFailed as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        sys.exit(2)

    metric_names = list(results[names[0]]["metrics"])
    print(f"{'metric':28}" + "".join(f"{n:>14}" for n in names) + "  unit")
    for m in metric_names:
        unit = results[names[0]]["metrics"][m]["unit"]
        print(f"{m:28}" + "".join(
            f"{_fmt(results[n]['metrics'][m]['value']):>14}" for n in names)
            + f"  {unit}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:28}" + "".join(f"{_fmt(results[n][key]):>14}"
                                    for n in names))

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
