"""The four workloads: inputs made from a seed, operations, and their checks.

`build(name, seed)` returns the operations of one pass.  Every operation
runs in a fresh VM and returns None when its output matches the oracle,
or a short description of the difference.  A host exception is left to
the caller, which counts it as a failed operation.  The inputs depend
only on the workload and the seed, and each pass repeats the same
operations, so every pass does the same work.
"""

import random

from kernelspace import kernel, search, stdlib, syntax
from kernelspace.runner import run_text
from kernelspace.terms import Record, is_cons, record_get

import oracles

# Sizes of one pass.  They keep a pass between about 0.05 and 2.5 s on a
# 2-core machine, so a 20 s run holds eight passes or more and run_s is
# their median.
STREAM_N = 10_000          # elements in each of the eager and lazy streams
FD_MODELS = 60             # random fd models next to the fractions search
MODEL_VARS = 5             # variables per model
MODEL_WIDTH = 6            # values per variable's initial domain
MODEL_SOLUTIONS = (4, 10)  # models are drawn until their count is in range
TREES = 40                 # random choice trees, each run by four engines
TREE_SPLITS = (4, 15)      # ternary and binary splits: 24 leaves per tree
TREE_FAILS = 8             # failing leaves per tree
APPEND_N = 40              # list run backwards through relational append
NREV_N = 8                 # list run backwards through relational nrev

# Corpus programs left out of the corpus workload: the two streams and
# fractions take seconds each and are measured by their own workloads.
HEAVY = ("producer-consumer-eager", "producer-consumer-lazy", "fractions")
BIG_BROWSE_N = 1000


class Op:
    """One operation: `fn()` returns None when correct, else what differs.

    Untimed operations are attempted and checked like the others but kept
    out of run_s.
    """

    __slots__ = ("label", "fn", "timed")

    def __init__(self, label, fn, timed=True):
        self.label = label
        self.fn = fn
        self.timed = timed


def build(name, seed):
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng)


# ----------------------------------------------------------------------
# running programs and reading results


def load(src):
    """Run a declare block in a fresh VM; returns (vm, env, name -> term)."""
    vm, env = search.fresh()
    phrase = syntax.parse(src)
    names = tuple(phrase.names)
    body = kernel.desugar(phrase.body, set(env) | set(names))
    env2 = dict(env)
    for n in names:
        env2[n] = vm.store.new_var(vm.top)
    vm.spawn(body, env2, vm.top)
    status = vm.run()
    if status != "done" or vm.uncaught is not None:
        raise RuntimeError(f"declare block ended with {status}")
    return vm, env, {n: vm.store.deref(env2[n], vm.top) for n in names}


def to_py(vm, t):
    """A determined term as Python data: lists, (label, *fields), scalars."""
    deref, top = vm.store.deref, vm.top
    t = deref(t, top)
    if type(t) is Record:
        if is_cons(t):
            out = []
            while type(t) is Record and is_cons(t):
                out.append(to_py(vm, record_get(t, 1)))
                t = deref(record_get(t, 2), top)
            return out if t == "nil" else out + ["<improper>"]
        return (t.label,) + tuple(to_py(vm, v) for _, v in t.feats)
    if t == "nil":
        return []
    return t


def _diff(what, got, want):
    if got == want:
        return None
    return f"{what}: got {str(got)[:80]}, want {str(want)[:80]}"


def _program_op(label, src, want_text, want_exit=0, timed=True):
    """Run a program with run_text; its Browse lines must equal want_text."""
    def fn():
        out = run_text(src)
        return (_diff("exit code", out.exit_code, want_exit)
                or _diff("output", "".join(line + "\n" for line in out.browse),
                         want_text))
    return Op(label, fn, timed)


def _oz_int(v):
    return str(v) if v >= 0 else f"~{-v}"


def _oz_list(xs):
    return "[" + " ".join(_oz_int(x) for x in xs) + "]"


# ----------------------------------------------------------------------
# streams: scheduler, suspension and wake, by-need triggers


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
   thread {Generate START LIMIT Xs} end
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
   thread Xs={Generate START} end
   thread {Sum Xs COUNT 0 S} end
   {Browse S}
end
"""


def streams(rng, n=STREAM_N):
    ops = []
    for kind in ("eager", "lazy"):
        start = rng.randrange(1_000_000)
        src = (EAGER if kind == "eager" else LAZY).replace(
            "START", str(start)).replace("LIMIT", str(start + n)).replace(
            "COUNT", str(n))
        want = f"{oracles.stream_sum(start, n)}\n"
        ops.append(_program_op(f"{kind}-{n}", src, want))
    return ops


# ----------------------------------------------------------------------
# fd-search: propagation, cloning and the depth-first engine


# fd/fractions from the corpus with its denominators ordered, which keeps
# one solution of each 3! symmetric family; the complete search takes
# about 18 s, longer than a run.
FRACTIONS = """
declare P Sols in
proc {P Sol}
   A B C D E F G H I BC EF HI
in
   Sol=sol(a:A b:B c:C d:D e:E f:F g:G h:H i:I)
   BC={FD.decl} EF={FD.decl} HI={FD.decl}
   Sol:::1#9
   {FD.distinct Sol}
   BC=:10*B+C
   EF=:10*E+F
   HI=:10*H+I
   A*EF*HI+D*BC*HI+G*BC*EF=:BC*EF*HI
   BC<:EF
   EF<:HI
   {FD.distribute ff Sol}
end
{Search.base.all P Sols}
"""


def _fractions_op(want):
    def fn():
        vm, _, tbl = load(FRACTIONS)
        got = sorted(tuple(s[1:]) for s in
                     (to_py(vm, t) for t in search.to_pylist(vm, tbl["Sols"])))
        return _diff("fractions solutions", got, want)
    return Op("fractions-ordered", fn)


def random_model(rng):
    """A random fd model with MODEL_SOLUTIONS[0]..[1] solutions.

    Candidates are drawn until the brute-force count is in that range: the
    search tree of an all-solutions search grows with the solution count,
    so every model costs about the same and the pass does not depend on
    how many large models a seed happens to draw.
    """
    while True:
        model = _candidate_model(rng)
        model["solutions"] = oracles.model_solutions(model)
        lo, hi = MODEL_SOLUTIONS
        if lo <= len(model["solutions"]) <= hi:
            return model


def _candidate_model(rng):
    """A satisfiable fd model: every constraint holds at a hidden point.

    Domains are MODEL_WIDTH consecutive values around the point's, half of
    them with one other value excluded.  The constraints are one product,
    one linear equation and one linear inequality over three variables
    each, and an all-different over the whole vector when the hidden
    point's values differ.
    """
    nvars, width = MODEL_VARS, MODEL_WIDTH
    point = rng.sample(range(8), nvars)
    x, y = rng.sample(range(nvars - 1), 2)
    z = nvars - 1
    point[z] = point[x] * point[y]
    domains, posts = [], []
    for i, p in enumerate(point):
        lo = rng.randint(max(0, p - width + 1), p)
        dom = set(range(lo, lo + width))
        posts.append(f"{{FDDomTellVec [X{i}] {lo}#{lo + width - 1}}}")
        gone = rng.choice(sorted(dom - {p}))
        if rng.random() < 0.5:
            dom.discard(gone)
            posts.append(f"{{FDExcl X{i} {gone}}}")
        domains.append(dom)
    cons = [("mul", x, y, z)]
    for rel in ("eq", "leq"):
        idx = rng.sample(range(nvars), 3)
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in idx]
        k = sum(c * point[i] for c, i in zip(coeffs, idx))
        if rel == "leq":
            k += rng.randint(0, 3)
        cons.append(("lin", coeffs, idx, rel, k))
    if len(set(point)) == nvars:
        cons.append(("distinct", list(range(nvars))))
    for c in cons:
        if c[0] == "mul":
            posts.append(f"{{FDMulProp X{c[1]} X{c[2]} X{c[3]}}}")
        elif c[0] == "lin":
            _, coeffs, idx, rel, k = c
            vl = " ".join(f"X{i}" for i in idx)
            posts.append(f"{{FDLinRel {_oz_list(coeffs)} [{vl}] {rel} "
                         f"{_oz_int(k)}}}")
        else:
            posts.append(f"{{FDDistinct [{' '.join(f'X{i}' for i in c[1])}]}}")
    return {"domains": domains, "constraints": cons, "posts": posts}


def _model_op(label, model):
    n = len(model["domains"])
    vl = " ".join(f"X{i}" for i in range(n))
    src = ("declare Script in\n"
           "proc {Script Root}\n"
           f"   {vl} in\n"
           f"   Root = sol({vl})\n   " + "\n   ".join(model["posts"]) + "\n"
           f"   {{FD.distribute ff [{vl}]}}\n"
           "end\n")
    want = model["solutions"]

    def fn():
        vm, env, tbl = load(src)
        got = sorted(tuple(to_py(vm, s)[1:])
                     for s in search.dfs_all(vm, env, tbl["Script"]))
        return _diff(label, got, want)
    return Op(label, fn)


def fd_search(rng, models=FD_MODELS):
    ops = [_fractions_op(oracles.fraction_digits(ordered=True))]
    for k in range(models):
        ops.append(_model_op(f"model{k}", random_model(rng)))
    return ops


# ----------------------------------------------------------------------
# tree-search: spaces, cloning and all four engines, no finite domains


def random_tree(rng):
    """A choice tree of fixed size with a random shape and leaf values.

    Starting from one leaf, a randomly picked leaf is split into three
    leaves TREE_SPLITS[0] times and into two TREE_SPLITS[1] times, in
    random order.  TREE_FAILS leaves fail; the rest get distinct values.
    """
    root = [None]               # a holder; root[0] is the tree
    leaves = [(root, 0)]        # (list holding the leaf, index in it)
    kinds = [3] * TREE_SPLITS[0] + [2] * TREE_SPLITS[1]
    rng.shuffle(kinds)
    for k in kinds:
        holder, i = leaves.pop(rng.randrange(len(leaves)))
        node = [None] * k
        holder[i] = node
        leaves.extend((node, j) for j in range(k))
    values = (rng.sample(range(1, 1000), len(leaves) - TREE_FAILS)
              + [None] * TREE_FAILS)
    rng.shuffle(values)
    for (holder, i), v in zip(leaves, values):
        holder[i] = v
    return root[0]


def _choice_src(tree, indent=3):
    pad = " " * indent
    if type(tree) is not list:
        return pad + ("1 = 2" if tree is None else f"Root = {tree}")
    arms = f"\n{pad}[]\n".join(_choice_src(k, indent + 3) for k in tree)
    return f"{pad}choice\n{arms}\n{pad}end"


BETTER = """
proc {Better Best New}
   B in
   {Less Best New B}
   B = true
end
"""


def _tree_ops(label, tree):
    src = ("declare T Better in\nproc {T Root}\n" + _choice_src(tree)
           + "\nend\n" + BETTER)
    leaves = oracles.live_leaves(tree)

    def all_():
        vm, env, tbl = load(src)
        return _diff("all", search.dfs_all(vm, env, tbl["T"]), leaves)

    def one():
        vm, env, tbl = load(src)
        return _diff("one", search.dfs_one(vm, env, tbl["T"]), leaves[:1])

    def object_():
        vm, env, tbl = load(src)
        so = search.SearchObject(vm, env, tbl["T"])
        got = []
        while (sol := so.next()) is not None:
            got.append(sol)
        again = so.next()
        so.close()
        return _diff("object", got, leaves) or _diff("exhausted", again, None)

    def bab():
        vm, env, tbl = load(src)
        best = search.bab(vm, env, tbl["T"], tbl["Better"])
        return _diff("bab", best, [max(leaves)] if leaves else [])

    return [Op(f"{label}.{name}", fn) for name, fn in
            (("all", all_), ("one", one), ("object", object_), ("bab", bab))]


APPEND = """
declare Append NRev P Q in
proc {Append Xs Ys Zs}
   choice        Xs=nil  Zs=Ys
   [] X Xr Zr in Xs=X|Xr Zs=X|Zr {Append Xr Ys Zr}
   end
end
proc {NRev Xs Ys}
   choice     Xs=nil  Ys=nil
   [] X Xr in Xs=X|Xr {Append {NRev Xr} [X] Ys}
   end
end
proc {P S} X Y in {Append X Y APPENDED} S=sol(X Y) end
proc {Q X} {NRev X REVERSED} end
"""


def _relational_ops(xs, ys):
    src = APPEND.replace("APPENDED", _oz_list(xs)).replace(
        "REVERSED", _oz_list(ys))
    want_splits = [("sol", a, b) for a, b in oracles.splits(xs)]

    def append_all():
        vm, env, tbl = load(src)
        got = [to_py(vm, s) for s in search.dfs_all(vm, env, tbl["P"])]
        return _diff("append splits", got, want_splits)

    def nrev_one():
        vm, env, tbl = load(src)
        got = [to_py(vm, s) for s in search.dfs_one(vm, env, tbl["Q"])]
        return _diff("nrev", got, [ys[::-1]])

    return [Op(f"append-{len(xs)}.all", append_all),
            Op(f"nrev-{len(ys)}.one", nrev_one)]


def tree_search(rng, trees=TREES, append_n=APPEND_N, nrev_n=NREV_N):
    ops = []
    for k in range(trees):
        ops.extend(_tree_ops(f"tree{k}", random_tree(rng)))
    xs = rng.sample(range(1000), append_n)
    ys = rng.sample(range(1000), nrev_n)
    ops.extend(_relational_ops(xs, ys))
    return ops


# ----------------------------------------------------------------------
# corpus: front end and per-VM prelude set-up on short programs


# Browse of a long list: the recursive render in vm.py overflows the host
# stack at this length today, so this operation fails every pass.
BIG_BROWSE = """
declare Gen L in
proc {Gen I N Xs}
   if I =< N then Xr in
      Xs = I|Xr
      {Gen I+1 N Xr}
   else Xs = nil end
end
{Gen 1 COUNT L}
{Browse L}
"""


def corpus(rng):
    entries = [e for e in stdlib.corpus() if e.name not in HEAVY]
    rng.shuffle(entries)
    ops = [_program_op(e.name, e.source(), e.golden(), e.expect_exit)
           for e in entries]
    ops.append(_program_op(
        f"browse-{BIG_BROWSE_N}",
        BIG_BROWSE.replace("COUNT", str(BIG_BROWSE_N)),
        oracles.render_int_list(range(1, BIG_BROWSE_N + 1)) + "\n",
        timed=False))
    return ops


WORKLOADS = {
    "streams": streams,
    "fd-search": fd_search,
    "tree-search": tree_search,
    "corpus": corpus,
}
