"""Small-size self-tests of the benchmark harness and its oracles.

    python3 bench/selftest.py

They run the oracles on hand-checked cases, the workload operations on
small inputs against the runtime, the pass loop with a failing and a
wrong operation, the traced child twice (its deterministic counts must
repeat), run.py on a short run, and run.py in a directory that
holds only the benchmark, where it must fail without a result.
"""

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child      # noqa: E402
import oracles    # noqa: E402
import run        # noqa: E402
import tracer     # noqa: E402
import workloads  # noqa: E402

SCRATCH = HERE / "out" / "selftest"


class Oracles(unittest.TestCase):
    def test_stream_sum_is_the_closed_form(self):
        for start, n in ((0, 0), (0, 1), (7, 10), (123456, 999)):
            self.assertEqual(oracles.stream_sum(start, n),
                             sum(range(start, start + n)))

    def test_fractions(self):
        full = oracles.fraction_digits()
        self.assertEqual(len(full), 6)
        self.assertIn((5, 3, 4, 7, 6, 8, 9, 1, 2), full)
        ordered = oracles.fraction_digits(ordered=True)
        self.assertEqual(ordered, [(9, 1, 2, 5, 3, 4, 7, 6, 8)])
        self.assertTrue(set(ordered) <= set(full))

    def test_model_brute_force(self):
        model = {"domains": [{0, 1, 2}, {0, 1, 2}, {0, 1, 2, 3, 4}],
                 "constraints": [("lin", [1, 1], [0, 1], "eq", 2),
                                 ("mul", 0, 1, 2),
                                 ("distinct", [0, 1])]}
        self.assertEqual(oracles.model_solutions(model),
                         [(0, 2, 0), (2, 0, 0)])

    def test_leaves_and_splits(self):
        self.assertEqual(oracles.live_leaves([[1, None], 2, [None, [3, 4]]]),
                         [1, 2, 3, 4])
        self.assertEqual(oracles.live_leaves(None), [])
        self.assertEqual(oracles.splits([1, 2]),
                         [([], [1, 2]), ([1], [2]), ([1, 2], [])])
        self.assertEqual(oracles.render_int_list([1, 22]), "[1 22]")


class Inputs(unittest.TestCase):
    def test_trees_have_a_fixed_size(self):
        for seed in range(20):
            tree = workloads.random_tree(random.Random(seed))
            leaves = []
            stack = [tree]
            while stack:
                t = stack.pop()
                if type(t) is list:
                    stack.extend(t)
                else:
                    leaves.append(t)
            self.assertEqual(len(leaves), 24)
            self.assertEqual(leaves.count(None), workloads.TREE_FAILS)

    def test_models_have_a_bounded_solution_count_and_are_seeded(self):
        lo, hi = workloads.MODEL_SOLUTIONS
        for seed in range(20):
            m = workloads.random_model(random.Random(seed))
            self.assertEqual(m["solutions"], oracles.model_solutions(m))
            self.assertTrue(lo <= len(m["solutions"]) <= hi)
            again = workloads.random_model(random.Random(seed))
            self.assertEqual(m["posts"], again["posts"])

    def test_same_seed_same_inputs(self):
        a = [op.label for op in workloads.build("tree-search", 5)]
        b = [op.label for op in workloads.build("tree-search", 5)]
        self.assertEqual(a, b)


class Operations(unittest.TestCase):
    """Every operation is correct on small inputs of today's runtime."""

    def check(self, ops):
        for op in ops:
            with self.subTest(op=op.label):
                self.assertIsNone(op.fn())

    def test_streams(self):
        self.check(workloads.streams(random.Random(1), n=50))

    def test_fd_search(self):
        self.check(workloads.fd_search(random.Random(1), models=3))

    def test_tree_search(self):
        self.check(workloads.tree_search(random.Random(1), trees=2,
                                         append_n=5, nrev_n=3))

    def test_corpus(self):
        ops = workloads.corpus(random.Random(1))
        self.assertEqual(len(ops), 15)
        self.check([op for op in ops if op.timed])
        big = [op for op in ops if not op.timed]
        try:
            diff = big[0].fn()
        except RecursionError:
            pass                  # the known fault; counted as failed
        else:
            self.assertIsNone(diff)

    def test_a_wrong_answer_is_caught(self):
        op = workloads._program_op("wrong", "{Browse 1+1}", "3\n")
        self.assertIn("output", op.fn())
        op = workloads._program_op("exit", "{Browse 1+1}", "2\n", want_exit=1)
        self.assertIn("exit code", op.fn())


class PassLoop(unittest.TestCase):
    def test_failures_are_counted_and_the_run_goes_on(self):
        def boom():
            raise ValueError("boom")
        ops = [workloads.Op("ok", lambda: None),
               workloads.Op("boom", boom),
               workloads.Op("wrong", lambda: "got 1, want 2"),
               workloads.Op("untimed", lambda: None, timed=False)]
        out = child.run_passes(ops, seconds=0.05)
        n = len(out["passes"])
        self.assertGreaterEqual(n, 1)
        self.assertEqual(out["attempted"], 4 * n)
        self.assertEqual(out["failed"], n)
        self.assertEqual(out["errors"], {"boom: ValueError: boom": n})
        self.assertEqual(out["wrong"], {"wrong: got 1, want 2": n})


def _child(*args):
    p = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                       capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


class Tracing(unittest.TestCase):
    def test_layers_are_complete_and_counts_repeat(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        runs = []
        for k in range(2):
            out = _child("--workload", "corpus", "--seed", "3",
                         "--seconds", "0.2",
                         "--trace", str(SCRATCH / f"trace{k}.json"))
            self.assertEqual(list(out["layers"]),
                             [name for name, _ in tracer.METRICS])
            runs.append(out["layers"])
            spans = json.loads((SCRATCH / f"trace{k}.json").read_text())
            self.assertIn("vm.run", spans["self_s"])
        for key in ("vm.reductions", "search.nodes", "spaces.created",
                    "store.vars_allocated", "syntax.tokens"):
            self.assertEqual(runs[0][key], runs[1][key], key)
            self.assertGreater(runs[0][key], 0, key)


class EntryPoint(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = run.spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        result, _ = run.measure("corpus", 1, 1, False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"] * 15, result["attempted"])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in spec["end_to_end"]])
        result, _ = run.measure("corpus", 1, 1, True)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in spec["per_layer"]])
        for m in spec["per_layer"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_runtime(self):
        root = SCRATCH / "stripped"
        shutil.rmtree(root, ignore_errors=True)
        (root / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", root)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, root / "bench")
        p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                            "corpus", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=root, capture_output=True,
                           text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("{", p.stdout)
        shutil.rmtree(root)


if __name__ == "__main__":
    unittest.main()
