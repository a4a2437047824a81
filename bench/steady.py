"""Steadiness check: repeat workloads over seeds and compare spreads to bounds.

    python3 bench/steady.py [--workload NAME ...]

Each workload is measured ten times, with seeds 1 to 10, each time one
`run.py --trace 0` run of run_seconds from BENCHMARK.json.  For every
end-to-end metric the command prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median and the metric's bound.  A spread below a third of the bound is
"steady", below the bound "within", else "TOO WIDE".  It also prints the
share of failed operations, which must be the same in every run, and,
from one traced pass per seed, the counts that measure the amount of
work (reductions, search nodes, spaces, variables), so that a spread
that comes from seeds doing different work shows apart from noise.
These figures are the evidence for the bounds.
"""

import argparse
import statistics
import sys
import time

import run

SEEDS = range(1, 11)
WORK = ("vm.reductions", "search.nodes", "spaces.created",
        "store.vars_allocated")


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def work(name, seed):
    """The work counts of one traced pass of `name` with `seed`."""
    run.OUT.mkdir(exist_ok=True)
    r = run.child(time.monotonic() + run.RUN_LIMIT, "--workload", name,
                  "--seed", seed, "--seconds", 0,
                  "--trace", run.OUT / f"trace-{name}-{seed}.json")
    return [r["layers"][k] for k in WORK]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()

    spec = run.spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workload or run.WORKLOADS:
        results = []
        for seed in SEEDS:
            result, _ = run.measure(name, seed, spec["run_seconds"], False)
            results.append(result)
            vals = " ".join(f"{k}={v['value']:.5g}"
                            for k, v in result["metrics"].items())
            print(f"{name} seed={seed} {vals} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: failed share {sorted(shares)} "
              f"({'same in every run' if len(shares) == 1 else 'DIFFERS'})")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "TOO WIDE"
            print(f"{name}: {metric:14} median {med:.5g} q1 {q1:.5g} "
                  f"q3 {q3:.5g} spread {spread:.4f} bound {bound} {verdict}",
                  flush=True)
        counts = {seed: work(name, seed) for seed in SEEDS}
        print(f"{name}: work per seed ({', '.join(WORK)})")
        for seed, row in counts.items():
            print(f"{name}:   seed {seed:2} " + " ".join(f"{v:>9}" for v in row))
        for k, col in zip(WORK, zip(*counts.values())):
            if min(col) > 0:
                print(f"{name}: {k} max/min {max(col) / min(col):.3f}")
        if not all(r["correct"] for r in results):
            print(f"{name}: WRONG ANSWERS", file=sys.stderr)


if __name__ == "__main__":
    main()
