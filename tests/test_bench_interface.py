"""The runtime names the bench's tracer wraps are still there.

`bench/tracer.py` replaces functions and methods of the runtime by name
and reads VM and store attributes.  A rename or a changed signature would
break `bench/run.py --trace 1` without failing any other test, so this
runs one traced pass, in a subprocess because the tracer patches the
modules for good, and checks that every metric is reported and that the
counts the wrappers make are positive.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer as tracing
t = tracing.Tracer()
t.install()
t.phase("setup")
from kernelspace import search, stdlib
from kernelspace.runner import run_text
search.fresh()
t.phase("pass0")
outs = [run_text(stdlib.corpus()[0].source()),
        run_text("{Browse {Search.base.all proc {$ R}"
                 "  choice R = 1 [] R = 2 [] R = 3 end end}}"),
        run_text("declare X Y in [X Y] ::: 0#9 X + Y =: 10 X = 3 {Browse Y}")]
print(json.dumps({"exits": [o.exit_code for o in outs],
                  "names": [n for n, _ in tracing.METRICS],
                  "layers": t.layers()}))
"""


def test_a_traced_pass_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["exits"] == [0, 0, 0]
    layers = out["layers"]
    assert set(out["names"]) <= set(layers)
    for name in ("vm.reductions", "spaces.clone", "spaces.commit",
                 "spaces.merge", "clone.vars_copied", "fd.lin_runs"):
        assert layers[name] > 0, name
