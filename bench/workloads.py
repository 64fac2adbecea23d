"""Seeded input generation for the four benchmark workloads.

A workload is an endless sequence of *cycles*.  Cycle ``i`` of a workload
is a list of op specs (plain JSON values) made by ``make_cycle(workload,
seed, i)`` from its own ``random.Random``, so any process can rebuild any
cycle from the seed alone.  Each cycle visits a fixed set of *cells*
(input-size classes) once, in a seeded order, and the seed picks the
values inside each cell.  A run measures whole cycles, so its total work
depends on the seed only through the values inside the cells; that keeps
the spread between seeds small while every run still sees fresh inputs.

Cycle 0 starts with cell 0, a light op, because the first op of a run is
part of ``setup_s``.

Cells are chosen so that the 50th and 90th percentiles of a run's
latencies fall inside one cell's cluster of latencies, not on the gap
between two clusters, where the percentile would jump with noise:
``tables`` runs d = 5 once and d = 6 twice per cycle, and the other
workloads have 15 or 25 cells.
"""

from __future__ import annotations

import random
from math import isqrt

WORKLOADS = ("tables", "search", "colength", "cli")

# Prime powers q <= 32: the Frobenius powers a ring of characteristic p has.
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def make_cycle(workload: str, seed: int, index: int) -> list[dict]:
    rng = random.Random(f"hkcert-bench:{workload}:{seed}:{index}")
    ops = _MAKERS[workload](rng, index)
    head, rest = (ops[:1], ops[1:]) if index == 0 else ([], ops)
    rng.shuffle(rest)
    return head + rest


# -- tables: the paper's headline computation ------------------------------


def _tables(rng: random.Random, index: int) -> list[dict]:
    return [{"cell": 0, "d": 5}, {"cell": 1, "d": 6}, {"cell": 2, "d": 6}]


# -- search: optimize_slice over long rationals -----------------------------

# 25 cells: d in 4..8 times r in (1, 4, 8, 12, 16), each with its own
# base resolution (a Latin square over 40, 55, 70, 85, 100) and base e
# (another over 8, 15, 22, 29, 36).  The seed moves the resolution by at
# most 3 and e by at most 2 (kept in [max(5, r+2), 40]), which changes the
# values but hardly the cost of a cell.  The cost grows with e and r, so
# letting the seed move them further would let the cells near the 50th
# and 90th percentiles trade places from seed to seed and move them.
SEARCH_RS = (1, 4, 8, 12, 16)
SEARCH_CELLS = tuple(
    (d, r, 40 + 15 * ((i + 2 * j) % 5), 8 + 7 * ((i + 3 * j) % 5))
    for i, d in enumerate(range(4, 9))
    for j, r in enumerate(SEARCH_RS)
)


def _search(rng: random.Random, index: int) -> list[dict]:
    ops = []
    for cell, (d, r, res, e) in enumerate(SEARCH_CELLS):
        res = min(100, max(40, res + rng.randint(-3, 3)))
        e = min(40, max(5, r + 2, e + rng.randint(-2, 2)))
        ops.append({"cell": cell, "d": d, "e": e, "r": r, "res": res})
    return ops


# -- colength: lattice scans of the monomial module --------------------------

# 15 cells of (pure-power exponents, largest q), sized so that an op scans
# between about 10^2 and 3*10^4 prefix points.  The seed picks the two
# mixed generators of each ideal, one smaller q in the sequence, and s.
COLENGTH_EHK_CELLS = (
    ((2, 3), 16), ((3, 4), 32), ((4, 4), 27),
    ((2, 2, 3), 8), ((3, 2, 4), 13), ((4, 3, 4), 16),
    ((2, 2, 2, 2), 4), ((3, 2, 2, 3), 5), ((2, 3, 2, 2), 7),
)
COLENGTH_MIXED_CELLS = (
    ((3, 4), 32), ((4, 2), 27),
    ((2, 3, 4), 16), ((4, 4, 3), 25),
    ((2, 2, 2, 2), 8), ((3, 2, 3, 2), 11),
)


def _random_ideal(rng: random.Random, cs, mixed: int) -> list[list[int]]:
    """Pure powers x_i^c_i plus ``mixed`` generators with support of size >= 2."""
    n = len(cs)
    gens = [[c if j == i else 0 for j in range(n)] for i, c in enumerate(cs)]
    for _ in range(mixed):
        support = rng.sample(range(n), rng.randint(2, n))
        gens.append([rng.randint(1, cs[j] - 1) if j in support else 0 for j in range(n)])
    return gens


def _colength(rng: random.Random, index: int) -> list[dict]:
    ops = []
    for cs, q in COLENGTH_EHK_CELLS:
        smaller = rng.choice([p for p in (1,) + PRIME_POWERS if 2 * p <= q])
        gens = _random_ideal(rng, cs, 2)
        ops.append({"cell": len(ops), "kind": "ehk", "n": len(cs), "gens": gens, "qs": [smaller, q]})
    for cs, q in COLENGTH_MIXED_CELLS:
        s = [rng.randint(1, 4 * len(cs)), 4]
        ops.append({"cell": len(ops), "kind": "mixed", "n": len(cs), "cs": list(cs), "s": s, "q": q})
    return ops


# -- cli: one `python -m hkcert` process per op -------------------------------


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> str:
    """A rational k/den in [lo, hi], written as p/q or as a decimal literal."""
    k = rng.randint(lo * den, hi * den)
    if den == 10 and rng.random() < 0.5:
        return f"{k // 10}.{k % 10}"
    return f"{k}/{den}"


def _odd_prime(rng: random.Random, limit: int) -> int:
    while True:
        p = rng.randrange(3, limit, 2)
        if all(p % f for f in range(3, isqrt(p) + 1, 2)):
            return p


def _cli_vol(rng, tag):
    d = rng.randint(1, 12)
    return {"cmd": "vol", "args": ["vol", "--dim", str(d), "--s", _rational(rng, 0, d, 10)]}


def _cli_md(rng, tag):
    return {"cmd": "md", "args": ["md", "--max", str(rng.randint(1, 16))]}


def _cli_bound(rng, tag, variant):
    d = rng.randint(3, 8)
    e = rng.randint(2, 40)
    args = ["bound", "--dim", str(d), "--e", str(e)]
    if variant == "t":
        ts = [f"{rng.randint(1, 8)}/4" for _ in range(rng.randint(1, 4))]
        args += ["--t", ",".join(ts)]
    else:
        args += ["--r", str(rng.randint(0, min(e, 16)))]
    args += ["--s", _rational(rng, 0, d, 10)]
    if variant == "target":
        args += ["--target", _rational(rng, 0, 2, 1000)]
    return {"cmd": "bound", "args": args}


def _cli_optimize(rng, tag):
    """The heavy cli op: a grid search of about 250 exact evaluations on top of the start-up."""
    args = ["bound", "--dim", "6", "--e", str(rng.randint(18, 22)), "--r", "5",
            "--optimize", "--resolution", str(rng.randint(38, 42))]
    return {"cmd": "bound", "args": args}


def _cli_certify(rng, tag):
    d = rng.randint(4, 7)
    e_low = rng.randint(5, 30)
    e_high = e_low + rng.randint(0, 40)
    args = ["certify-interval", "--dim", str(d), "--e-low", str(e_low), "--e-high", str(e_high),
            "--s", _rational(rng, 1, 3, 10), "--target", _rational(rng, 1, 2, 1000)]
    return {"cmd": "certify-interval", "args": args}


def _cli_quadric(rng, tag):
    args = ["quadric", "--p", str(_odd_prime(rng, 10**6)), "--d", str(rng.choice((5, 6)))]
    return {"cmd": "quadric", "args": args}


def _cli_radical_case(rng, tag):
    dim = rng.randint(2, 8)
    args = ["radical", "--dim", str(dim), "--e", str(rng.randint(6, 60)),
            "--case", rng.choice(("minimal_gap", "general"))]
    return {"cmd": "radical", "args": args}


def _cli_radical_recursion(rng, tag):
    e = rng.randint(6, 20)
    args = ["radical", "--dim", str(rng.randint(2, 6)), "--e", str(e), "--k", str(rng.randint(3, e - 2)),
            "--n", str(rng.randint(2, 5)), "--iterations", str(rng.randint(0, 6))]
    return {"cmd": "radical", "args": args}


def _cli_monomial(rng, tag):
    cs = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
    gens = _random_ideal(rng, cs, rng.randint(1, 3))
    qs = sorted(rng.sample((1, 2, 3, 4, 5, 7, 8), rng.randint(1, 3)))
    path = f"{tag}.ideal"
    args = ["monomial", "--file", path, "--q", ",".join(map(str, qs))]
    return {"cmd": "monomial", "args": args, "file": path, "gens": gens}


def _cli_verify_tables(rng, tag):
    args = ["verify-tables", "--dim", str(rng.choice((5, 6)))]
    spec = {"cmd": "verify-tables", "args": args}
    if rng.random() < 0.5:
        spec["csv"] = f"{tag}.csv"
        args += ["--csv", spec["csv"]]
    return spec


# Usage errors that the README contract says exit 2, and that do at the
# commit the benchmark was written against.
_USAGE_ERRORS = (
    ["vol", "--dim", "3"],                                  # missing required argument
    ["vol", "--dim", "3", "--s", "half"],                   # not a rational literal
    ["verify-tables", "--dim", "7"],                        # invalid choice
    ["quadric", "--p", "91", "--d", "5"],                   # p not prime
    ["vol", "--dim", "0", "--s", "1"],                      # dimension < 1
    ["certify-interval", "--dim", "6", "--e-low", "9", "--e-high", "5", "--s", "2", "--target", "1"],
    ["md", "--max", "0"],                                   # order < 1
    ["bogus-command"],                                      # unknown subcommand
)

# Usage errors raised in cli.py as SystemExit("message"), which exits 1
# where the README promises 2.  They are not ops, since every op of a
# workload must succeed; the traced run invokes each once and counts the
# wrong exit codes in cli.exit_mismatches.
SYSTEMEXIT_ERRORS = (
    ["bound", "--dim", "5", "--e", "5", "--t", "1,1", "--optimize"],
    ["radical", "--dim", "4", "--case", "general", "--k", "3"],
    ["radical", "--dim", "4", "--k", "3", "--n", "2"],
)


def _cli(rng: random.Random, index: int) -> list[dict]:
    # Almost every invocation costs the interpreter start-up and little
    # more, so the 90th percentile would fall in the jitter of that cluster.
    # Four of the 25 ops are the heavy optimize cell instead, and the 90th
    # percentile falls inside their cluster.
    makers = [
        _cli_vol, _cli_vol, _cli_vol, _cli_md, _cli_md,
        lambda r, t: _cli_bound(r, t, "r"), lambda r, t: _cli_bound(r, t, "r"),
        lambda r, t: _cli_bound(r, t, "t"), lambda r, t: _cli_bound(r, t, "target"),
        _cli_optimize, _cli_optimize, _cli_optimize, _cli_optimize,
        _cli_certify, _cli_certify, _cli_quadric, _cli_quadric, _cli_radical_case, _cli_radical_recursion,
        _cli_monomial, _cli_monomial, _cli_verify_tables, _cli_verify_tables,
    ]
    ops = []
    for cell, maker in enumerate(makers):
        spec = maker(rng, f"c{index}-{cell}")
        spec["cell"] = cell
        ops.append(spec)
    for _ in range(2):
        ops.append({"cell": len(ops), "cmd": "usage", "args": list(rng.choice(_USAGE_ERRORS))})
    return ops


_MAKERS = {"tables": _tables, "search": _search, "colength": _colength, "cli": _cli}
