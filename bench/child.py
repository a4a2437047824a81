"""One workload in its own process: set up, run whole passes, check, report.

    python3 bench/child.py --workload W --seed N --seconds S
                           [--trace FILE] [--setup-only]

The runtime is imported from the src/ directory next to this one and
nowhere else.  The last line of standard output is one JSON object:
`setup_s` (the scaled CPU seconds of this process until its first VM
had its base environment), the timed and scaled CPU seconds of each
pass, operations attempted and failed, wrong answers, and peak RSS.  With --trace the
public functions are wrapped before set-up, spans go to FILE and
per-layer metrics to `layers`.

Times are CPU time of this process, not wall time: the runtime runs on
one host thread, so on an idle machine the two are the same, and CPU
time leaves out the stretches in which a shared host runs other guests
on the core.  A shared host also changes how fast it runs this process,
for seconds to minutes at a time, so the timed work is cut into
segments of about CAL_EVERY CPU seconds with a short calibration loop
between them, and each segment is scaled by CAL_REF_S over the mean of
the two loops around it: the times read as seconds on a host that runs
the loop in CAL_REF_S.
"""

import argparse
import gc
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# About the CPU seconds of calibrate() on the reference machine when no
# other guest slows its core (bench/README.md).
CAL_REF_S = 0.01
CAL_N = 20_000
CAL_EVERY = 0.1


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibrate():
    """CPU seconds of a fixed loop of Python object work.

    It uses nothing from the runtime and runs with the cyclic collector
    off, so its work does not depend on the runtime's heap: it measures
    how fast the host runs Python at this moment.
    """
    gc.disable()
    t0 = time.process_time()
    d = {}
    for i in range(CAL_N):
        c = _Cell(i, (i, str(i)))
        d[i & 1023] = c
        if c.a % 7 == 0:
            d.get(c.b[0])
    del d
    dt = time.process_time() - t0
    gc.enable()
    return dt


class Scaler:
    """Scales CPU seconds to the reference speed (see the module doc)."""

    def __init__(self):
        self.cal = calibrate()

    def close(self, seg):
        """`seg` CPU seconds since the last calibration, scaled."""
        before, self.cal = self.cal, calibrate()
        return seg * CAL_REF_S * 2 / (before + self.cal)


def collect():
    """A full garbage collection; returns its CPU seconds."""
    t0 = time.process_time()
    gc.collect()
    return time.process_time() - t0


def run_passes(ops, seconds, tracer=None):
    """Run whole passes over `ops` while another pass fits in `seconds`.

    Returns the timed CPU seconds of each pass, scaled to the reference
    speed, operations attempted and failed, and counts of failure
    messages and wrong answers.  A host exception fails its operation
    only; the pass goes on.  Each pass ends with a full garbage
    collection inside its timed region.
    Untimed operations run first in each pass and are followed by a
    collection outside the timing, so their garbage stays out of run_s.
    """
    ops = sorted(ops, key=lambda op: op.timed)     # untimed first
    passes, attempted, failed = [], 0, 0
    wrong, errors = Counter(), Counter()
    gc.collect()        # set-up's garbage, before the first pass
    scaler = Scaler()
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.phase(f"pass{len(passes)}")
        t_pass = time.perf_counter()
        timed = seg = 0.0
        for op in ops:
            attempted += 1
            rec = tracer.begin("op " + op.label) if tracer else None
            t0 = time.process_time()
            try:
                diff = op.fn()
            except Exception as e:
                failed += 1
                errors[f"{op.label}: {type(e).__name__}: {str(e)[:120]}"] += 1
                diff = None
            dt = time.process_time() - t0
            if rec:
                tracer.end(rec)
            if op.timed:
                seg += dt
            else:
                collect()
            if diff:
                wrong[f"{op.label}: {diff}"] += 1
            if seg > CAL_EVERY:
                timed += scaler.close(seg)
                seg = 0.0
        # A finished VM is freed only by the cyclic collector.  Collecting
        # here charges each pass with the garbage it made and starts the
        # next one from the same heap, so peak RSS does not depend on how
        # many passes ran before.
        seg += collect()
        passes.append(timed + scaler.close(seg))
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "wrong": dict(wrong), "errors": dict(errors)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    scaler = Scaler()
    first_cal = scaler.cal

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase("setup")

    import kernelspace
    if not Path(kernelspace.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"kernelspace was imported from {kernelspace.__file__}, "
                 f"not from {SRC}")
    from kernelspace import search
    search.fresh()
    # CPU time since the process began, less the first calibration loop
    setup_s = scaler.close(time.process_time() - first_cal)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import workloads
    out = run_passes(workloads.build(args.workload, args.seed), args.seconds,
                     tracer)
    out["setup_s"] = setup_s
    out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
    if tracer:
        out["layers"] = tracer.layers()
        tracer.dump(args.trace, workload=args.workload, seed=args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
