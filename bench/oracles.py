"""Exact reference values for every benchmark op.

These are the benchmark's own implementations, independent of the code
under test: the Irwin-Hall sum with an integer numerator, Euler zigzag
numbers from the convolution recurrence, brute-force lattice counts and
the closed-form colength identities.  Every comparison is between
``Fraction``s, ints or bytes; no float enters a check.

Each ``check_*`` returns None when the op's output is right, or a short
reason.  ``OracleError`` means two reference paths disagree, which is a
defect of the benchmark, not of the program.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

# Full lattice boxes up to this many points are also counted by brute force.
BRUTE_MAX = 1024


class OracleError(AssertionError):
    pass


# -- rationals and rendering --------------------------------------------------


def fr(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def trunc4(x: Fraction) -> str:
    """Decimal truncated toward minus infinity, four places."""
    x = Fraction(x)
    scaled = x.numerator * 10**4 // x.denominator
    whole, frac = divmod(abs(scaled), 10**4)
    return f"{'-' if scaled < 0 else ''}{whole}.{frac:04d}"


def fmt(x: Fraction) -> str:
    return f"{fr(x)} ≈ {trunc4(x)}"


# -- slab volumes and volume bounds ---------------------------------------------


def vol(d: int, s: Fraction) -> Fraction:
    """Irwin-Hall CDF: sum_n (-1)^n C(d,n) (a - n b)^d / (d! b^d) for s = a/b."""
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= d:
        return Fraction(1)
    a, b = s.numerator, s.denominator
    num = sum((-1) ** n * comb(d, n) * (a - n * b) ** d for n in range(a // b + 1))
    return Fraction(num, factorial(d) * b**d)


def volume_bound(d: int, e: Fraction, s: Fraction, valuations) -> Fraction:
    s = Fraction(s)
    return Fraction(e) * (vol(d, s) - sum(vol(d, s - Fraction(t)) for t in valuations))


def grid_best(d: int, e: Fraction, r: int, res: int) -> Fraction:
    """max over k in [0, d*res] of the uniform bound at s = k/res."""
    den = factorial(d) * res**d

    def numerator(k: int) -> int:
        if k <= 0:
            return 0
        if k >= d * res:
            return den
        return sum((-1) ** n * comb(d, n) * (k - n * res) ** d for n in range(k // res + 1))

    nums = [numerator(k) for k in range(-res, d * res + 1)]
    best = max(nums[k + res] - r * nums[k] for k in range(d * res + 1))
    return Fraction(e) * Fraction(best, den)


# -- series ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def threshold(d: int) -> Fraction:
    """1 + E_d/d!, with E from 2 E_{n+1} = sum_k C(n,k) E_k E_{n-k} (n >= 1)."""
    euler = [1, 1]
    for n in range(1, d):
        euler.append(sum(comb(n, k) * euler[k] * euler[n - k] for k in range(n + 1)) // 2)
    return 1 + Fraction(euler[d], factorial(d))


# -- monomial colengths -----------------------------------------------------------


def _outside(gens, box) -> int:
    """Points of the box that dominate no generator, by full enumeration."""
    return sum(
        1
        for a in itertools.product(*(range(b) for b in box))
        if not any(all(x >= y for x, y in zip(a, g)) for g in gens)
    )


def pure_powers(gens) -> list[int]:
    n = len(gens[0])
    return [min(g[i] for g in gens if g[i] and not any(g[j] for j in range(n) if j != i)) for i in range(n)]


@lru_cache(maxsize=4096)
def staircase(gens: tuple) -> int:
    """lambda(R/I): monomials outside I, all inside the pure-power box."""
    return _outside(gens, pure_powers(gens))


def frobenius_colength(gens: tuple, q: int) -> int:
    """q^n * lambda(R/I); cross-checked by brute force on small boxes."""
    n = len(gens[0])
    expected = q**n * staircase(gens)
    box = [q * c for c in pure_powers(gens)]
    if prod(box) <= BRUTE_MAX:
        brute = _outside([tuple(q * c for c in g) for g in gens], box)
        if brute != expected:
            raise OracleError(f"Frobenius identity {expected} != brute force {brute} for {gens}, q={q}")
    return expected


def mixed_colength(cs: list[int], s: Fraction, q: int) -> int:
    """prod c_i * #{b in [0,q)^n : sum b <= m}, m = floor(sq) - 1; brute-forced on small boxes."""
    n = len(cs)
    m = s.numerator * q // s.denominator - 1
    count = sum((-1) ** j * comb(n, j) * comb(m - j * q + n, n) for j in range(n + 1) if m - j * q >= 0)
    expected = prod(cs) * count
    box = [q * c for c in cs]
    if prod(box) <= BRUTE_MAX:
        brute = sum(
            1 for a in itertools.product(*(range(b) for b in box)) if sum(x // c for x, c in zip(a, cs)) <= m
        )
        if brute != expected:
            raise OracleError(f"mixed-colength identity {expected} != brute force {brute} for {cs}, s={s}, q={q}")
    return expected


def minimal_generators(gens) -> list[tuple[int, ...]]:
    unique = sorted(set(tuple(g) for g in gens))
    return [g for g in unique if not any(h != g and all(a >= b for a, b in zip(g, h)) for h in unique)]


# -- in-process checks ---------------------------------------------------------------


def check_tables(spec: dict, obs: str, digests: dict) -> str | None:
    text, _, csv = obs.partition("\x1e")
    want = digests[str(spec["d"])]
    if hashlib.sha256(text.encode()).hexdigest() != want["text_sha256"]:
        return "to_text() differs from the committed digest"
    if hashlib.sha256(csv.encode()).hexdigest() != want["csv_sha256"]:
        return "to_csv() differs from the committed digest"
    return None


def check_search(spec: dict, obs: str) -> str | None:
    d, e, r, res = spec["d"], spec["e"], spec["r"], spec["res"]
    s_text, bound_text = obs.split(" ")
    s, bound = Fraction(s_text), Fraction(bound_text)
    if not 0 <= s <= d:
        return f"slice {s} outside [0, {d}]"
    if bound != volume_bound(d, e, s, [1] * r):
        return f"bound {bound} is not the volume bound at s = {s}"
    if bound < grid_best(d, e, r, res):
        return f"bound {bound} is below the best grid point"
    return None


def check_colength(spec: dict, obs: str) -> str | None:
    if spec["kind"] == "mixed":
        want = mixed_colength(spec["cs"], Fraction(*spec["s"]), spec["q"])
        return None if obs == str(want) else f"mixed colength {obs} != {want}"
    gens = tuple(tuple(g) for g in spec["gens"])
    n = spec["n"]
    want = []
    for q in spec["qs"]:
        col = frobenius_colength(gens, q)
        want.append(f"{q}:{col}:{Fraction(col, q**n)}")
    got = " ".join(want)
    return None if obs == got else f"colength sequence {obs} != {got}"


# -- cli checks ------------------------------------------------------------------------


def _flags(args: list[str]) -> dict[str, str]:
    out = {}
    for i, tok in enumerate(args):
        if tok.startswith("--"):
            nxt = args[i + 1] if i + 1 < len(args) else ""
            out[tok[2:]] = "" if nxt.startswith("--") or not nxt else nxt
    return out


def _target_line(bound: Fraction, target: Fraction) -> tuple[str, int]:
    passed = bound >= target
    return f"target: {fr(target)} -> {'PASS' if passed else 'FAIL'}", 0 if passed else 1


def _fixed_dimension(d: int, e: Fraction, case: str) -> Fraction:
    if e >= factorial(d) + 1:
        return 1 + Fraction(1, factorial(d))
    if case == "minimal_gap":
        return 1 + Fraction(4, 6 * -(-d // 2) - 2) ** d * 2
    return 1 + Fraction(4, -(-d // 3) * factorial(d) + 4) ** d * Fraction(1, d)


def _radical_iterated(d: int, e: Fraction, k: int, n: int, iterations: int) -> Fraction:
    """Apply the one-step radical bound (b = n) ``iterations`` times to its base value."""
    if k == e - 2:
        x, den = e / 2, e * n - 2
        step = lambda x: e * (n - 1) / den + (e - 2) / den * x  # noqa: E731
    else:
        x, den = 1 + Fraction(1, d), (n - 1) * e + k + 1
        step = lambda x: e * (n - 1) / den + (k + 1) / den * x  # noqa: E731
    for _ in range(iterations):
        x = step(x)
    return x


def cli_expected(spec: dict) -> tuple[list[str], int]:
    """Expected stdout lines and exit code of a command whose output is fully predictable."""
    cmd, f = spec["cmd"], _flags(spec["args"])
    if cmd == "usage":
        return [], 2
    if cmd == "vol":
        return [fmt(vol(int(f["dim"]), Fraction(f["s"])))], 0
    if cmd == "md":
        lines = []
        for d in range(1, int(f["max"]) + 1):
            t = threshold(d)
            lines.append(f"{d}\t{fr(t - 1)}\t{fr(t)}\t{trunc4(t)}")
        return lines, 0
    if cmd == "bound" and "optimize" not in f:
        d, e, s = int(f["dim"]), Fraction(f["e"]), Fraction(f["s"])
        ts = [Fraction(t) for t in f["t"].split(",")] if "t" in f else [1] * int(f["r"])
        bound = volume_bound(d, e, s, ts)
        lines, code = [f"bound: {fmt(bound)}"], 0
        if "target" in f:
            line, code = _target_line(bound, Fraction(f["target"]))
            lines.append(line)
        return lines, code
    if cmd == "quadric":
        p, d = int(f["p"]), int(f["d"])
        value = (Fraction(17 * p**2 + 12, 15 * p**2 + 10) if d == 5
                 else Fraction(781 * p**4 + 656 * p**2 + 315, 720 * p**4 + 570 * p**2 + 270))
        exceeds = value > threshold(d)
        return [f"{fmt(value)}; exceeds {fr(threshold(d))}: {'yes' if exceeds else 'no'}"], 0 if exceeds else 1
    if cmd == "radical":
        d, e = int(f["dim"]), Fraction(f["e"])
        if "case" in f:
            bound = _fixed_dimension(d, e, f["case"])
        else:
            bound = _radical_iterated(d, e, int(f["k"]), int(f["n"]), int(f["iterations"]))
        return [f"bound: {fmt(bound)}"], 0
    if cmd == "monomial":
        gens = tuple(tuple(g) for g in spec["gens"])
        minimal = minimal_generators(gens)
        n = len(gens[0])
        lines = [f"variables: {n}", "generators: " + " / ".join(" ".join(map(str, g)) for g in minimal)]
        for q in map(int, f["q"].split(",")):
            col = frobenius_colength(tuple(minimal), q)
            lines.append(f"q={q}\tcolength={col}\tnormalized={fmt(Fraction(col, q**n))}")
        return lines, 0
    raise ValueError(f"no oracle for command {cmd!r}")


def _check_optimize(f: dict, lines: list[str]) -> tuple[str | None, int]:
    d, e, r, res = int(f["dim"]), Fraction(f["e"]), int(f["r"]), int(f["resolution"])
    if len(lines) != 2 or not lines[0].startswith("s: ") or not lines[1].startswith("bound: "):
        return "unexpected output shape", 0
    s = Fraction(lines[0][3:])
    bound = volume_bound(d, e, s, [1] * r)
    if not 0 <= s <= d or lines[1] != f"bound: {fmt(bound)}":
        return f"bound at s = {fr(s)} is not the volume bound", 0
    if bound < grid_best(d, e, r, res):
        return "bound below the best grid point", 0
    return None, 0


def _check_certify(f: dict, lines: list[str]) -> tuple[str | None, int]:
    d, a, b = int(f["dim"]), int(f["e-low"]), int(f["e-high"])
    s, target = Fraction(f["s"]), Fraction(f["target"])
    v, v_prev = vol(d, s), vol(d, s - 1)
    g = {e: e * (v - (e - 2) * v_prev) for e in range(a, b + 1)}
    certified = min(g.values())  # second path: every integer in the interval
    apex = None if v_prev == 0 else (v + 2 * v_prev) / (2 * v_prev)
    if apex is None:
        branch = "degenerate-linear-increasing"
    elif a <= apex <= b:
        branch = "apex-interior"
    else:
        branch = "increasing" if apex > b else "decreasing"
    target_line, code = _target_line(certified, target)
    want = [
        f"interval: [{a}, {b}]",
        f"s: {fr(s)}",
        f"apex: {'-' if apex is None else fmt(apex)}",
        f"branch: {branch}",
        f"certified-bound: {fmt(certified)}",
    ]
    if len(lines) != 7 or lines[:5] != want or not lines[5].startswith("notes: ") or lines[6] != target_line:
        return "certify-interval output differs from the reference", code
    return None, code


def check_cli(spec: dict, code: int, stdout: str, csv_text: str | None, digests: dict) -> tuple[str, str | None]:
    """Returns (kind, reason): kind "ok", "value" (wrong output) or "exit" (wrong exit code)."""
    lines = stdout.splitlines()
    f = _flags(spec["args"])
    cmd = spec["cmd"]
    reason: str | None = None
    if cmd == "bound" and "optimize" in f:
        reason, want_code = _check_optimize(f, lines)
    elif cmd == "certify-interval":
        reason, want_code = _check_certify(f, lines)
    elif cmd == "verify-tables":
        want = digests[f["dim"]]
        want_code = 0
        if hashlib.sha256(stdout.encode()).hexdigest() != want["text_sha256"]:
            reason = "report text differs from the committed digest"
        elif "csv" in spec and (csv_text is None or hashlib.sha256(csv_text.encode()).hexdigest() != want["csv_sha256"]):
            reason = "CSV file missing or different from the committed digest"
    else:
        want_lines, want_code = cli_expected(spec)
        if lines != want_lines:
            reason = f"stdout {lines[:3]!r} != expected {want_lines[:3]!r}"
    if reason is not None:
        return "value", reason
    if code != want_code:
        return "exit", f"exit code {code}, contract says {want_code}"
    return "ok", None
