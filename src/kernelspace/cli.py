"""Command line entry point.

    kernelspace run FILE      run a program; browse output goes to stdout
    kernelspace repl          interactive session; submit input with a
                              blank line; declare persists across inputs
    kernelspace corpus        run the bundled programs against their
                              recorded outputs and print a pass/fail table

Common flags: --slice N, --max-red N, --trace, --reverse-queue.
Only browse lines are written to stdout by `run`; everything else
(errors, trace, notices) goes to stderr.  With --trace every subcommand
writes each event to stderr as it happens, one line per event in the form
T<tid>@S<sid> kind or T<tid>@S<sid> kind(args), for example T1@S0 spawn,
T3@S2 suspend(v40) or T2@S0 clone(1,4).
"""

import argparse
import difflib
import sys

from . import stdlib
from .runner import RunConfig, Session, run_text


def _add_common(p):
    p.add_argument("--slice", type=int, default=1000, metavar="N",
                   help="reductions per thread time slice (default 1000)")
    p.add_argument("--max-red", type=int, default=200_000_000, metavar="N",
                   help="total reduction budget (default 200000000)")
    p.add_argument("--trace", action="store_true",
                   help="stream thread and space events to stderr")
    p.add_argument("--reverse-queue", action="store_true",
                   help="enqueue woken threads at the front instead of the back")


def _print_event(ev):
    kind, tid, sid, *args = ev
    if kind == "suspend":
        args = [f"v{args[0]}"]
    text = f"{kind}({','.join(map(str, args))})" if args else kind
    print(f"T{tid}@S{sid} {text}", file=sys.stderr)


def _config(args):
    cfg = RunConfig(slice_=args.slice, max_reductions=args.max_red,
                    trace=_print_event if args.trace else None,
                    reverse_queue=args.reverse_queue)
    cfg.validate()
    return cfg


def cmd_run(args, cfg):
    try:
        with open(args.file) as f:
            src = f.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = run_text(src, cfg, on_browse=lambda line: print(line, flush=True))
    if out.error is not None:
        print(out.error, file=sys.stderr)
    return out.exit_code


def cmd_repl(args, cfg):
    session = Session(cfg, on_browse=lambda line: print(line, flush=True))
    print("kernelspace repl; submit with a blank line, end with ctrl-d",
          file=sys.stderr)
    buf = []

    def submit():
        src = "\n".join(buf)
        buf.clear()
        if not src.strip():
            return
        r = session.feed(src)
        if r.error is not None:
            print(r.error, file=sys.stderr)
        if r.blocked:
            noun = "thread" if r.blocked == 1 else "threads"
            print(f"blocked: {r.blocked} {noun}", file=sys.stderr)

    for line in sys.stdin:
        if line.strip() == "":
            submit()
        else:
            buf.append(line.rstrip("\n"))
    submit()
    return 0


def cmd_corpus(args, cfg):
    entries = stdlib.corpus(args.tag)
    if not entries:
        print(f"no corpus entries tagged {args.tag!r}", file=sys.stderr)
        return 2
    failures = 0
    for entry in entries:
        out = run_text(entry.source(), cfg)
        got = "".join(line + "\n" for line in out.browse)
        want = entry.golden() if entry.golden_path.exists() else None
        if args.update_goldens:
            entry.golden_path.write_text(got)
            want = got
        ok = (want == got) and (out.exit_code == entry.expect_exit)
        label = f"{entry.section}/{entry.name}"
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures += 1
            if out.exit_code != entry.expect_exit:
                print(f"  exit code {out.exit_code}, expected {entry.expect_exit}")
                if out.error:
                    print("  " + out.error.replace("\n", "\n  "))
            if want is None:
                print("  no recorded output")
            elif want != got:
                diff = difflib.unified_diff(
                    want.splitlines(keepends=True), got.splitlines(keepends=True),
                    fromfile=f"{label}.golden", tofile=f"{label}.actual")
                sys.stdout.writelines(diff)
    total = len(entries)
    print(f"{total - failures}/{total} passed")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kernelspace",
        description="a concurrent constraint kernel with spaces and search")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a program file")
    p_run.add_argument("file")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_repl = sub.add_parser("repl", help="interactive session")
    _add_common(p_repl)
    p_repl.set_defaults(fn=cmd_repl)

    p_corpus = sub.add_parser("corpus", help="run the bundled programs")
    p_corpus.add_argument("--tag", default=None,
                          help="only run entries carrying this tag")
    p_corpus.add_argument("--update-goldens", action="store_true",
                          help=argparse.SUPPRESS)
    _add_common(p_corpus)
    p_corpus.set_defaults(fn=cmd_corpus)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors already
        return int(e.code) if e.code is not None else 0
    try:
        cfg = _config(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return args.fn(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
