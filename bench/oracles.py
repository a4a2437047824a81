"""Independent answers for the benchmark's inputs, computed in plain Python.

Nothing here imports the runtime: every expected output comes from closed
forms, brute-force enumeration or the corpus goldens, never from a saved
run of the program under test.
"""

import itertools


def stream_sum(start, n):
    """Sum of start, start+1, ..., start+n-1: n*start + n(n-1)/2."""
    return n * start + n * (n - 1) // 2


def fraction_digits(ordered=False):
    """Digit tuples (a..i) with a/bc + d/ef + g/hi = 1, all digits distinct.

    With `ordered`, only the tuples whose denominators increase, bc < ef < hi,
    which leaves one of each 3! symmetric family.
    """
    sols = []
    for p in itertools.permutations(range(1, 10)):
        a, b, c, d, e, f, g, h, i = p
        bc, ef, hi = 10 * b + c, 10 * e + f, 10 * h + i
        if ordered and not bc < ef < hi:
            continue
        if a * ef * hi + d * bc * hi + g * bc * ef == bc * ef * hi:
            sols.append(p)
    return sorted(sols)


def model_solutions(model):
    """Every assignment of an fd model that meets all its constraints.

    A model is a dict with `domains` (one set of ints per variable) and
    `constraints` (tuples as made by workloads.random_model).  Returns the
    solutions as sorted tuples.
    """
    sols = []
    for a in itertools.product(*(sorted(d) for d in model["domains"])):
        if all(_holds(c, a) for c in model["constraints"]):
            sols.append(a)
    return sols


def _holds(c, a):
    kind = c[0]
    if kind == "lin":
        _, coeffs, idx, rel, k = c
        s = sum(cf * a[i] for cf, i in zip(coeffs, idx))
        return {"eq": s == k, "leq": s <= k, "lt": s < k}[rel]
    if kind == "mul":
        _, x, y, z = c
        return a[x] * a[y] == a[z]
    if kind == "distinct":
        idx = c[1]
        return len({a[i] for i in idx}) == len(idx)
    raise ValueError(f"unknown constraint {kind}")


def live_leaves(tree):
    """Values of the non-failing leaves of a choice tree, left to right.

    A tree is an int (a leaf binding the root), None (a failing leaf) or a
    list of subtrees (a choice among them).
    """
    out = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if type(t) is list:
            stack.extend(reversed(t))
        elif t is not None:
            out.append(t)
    return out


def splits(xs):
    """Every (prefix, suffix) pair that concatenates to xs, shortest first."""
    return [(xs[:k], xs[k:]) for k in range(len(xs) + 1)]


def render_int_list(xs):
    """How Browse shows a proper list of non-negative ints."""
    return "[" + " ".join(str(x) for x in xs) + "]"
