"""The in-process ops: one call into the public hkcert API per spec.

Specs hold plain JSON values and every conversion into hkcert types
happens inside the op, as it would for a caller of the library.  Each
function is looked up on the ``hkcert`` package when the op runs, so a
traced run sees the wrapped versions.  ``render`` turns a result into the
string the oracles check; it runs outside the op's timing.
"""

from __future__ import annotations

from fractions import Fraction

import hkcert


def run_tables(spec: dict):
    report = hkcert.verify_tables(spec["d"])
    return report.to_text(), report.to_csv()


def run_search(spec: dict):
    return hkcert.optimize_slice(spec["d"], spec["e"], spec["r"], spec["res"])


def run_colength(spec: dict):
    n = spec["n"]
    if spec["kind"] == "ehk":
        ideal = hkcert.MonomialIdeal(n, tuple(tuple(g) for g in spec["gens"]))
        return hkcert.ehk_estimate(ideal, spec["qs"])
    gens = tuple(tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(spec["cs"]))
    return hkcert.mixed_colength(hkcert.MonomialIdeal(n, gens), Fraction(*spec["s"]), spec["q"])


def render(workload: str, value) -> str:
    if workload == "tables":
        text, csv = value
        return text + "\x1e" + csv
    if workload == "search":
        s, bound = value
        return f"{s} {bound}"
    if isinstance(value, int):
        return str(value)
    return " ".join(f"{e.q}:{e.colength}:{e.normalized}" for e in value.entries)


RUNNERS = {"tables": run_tables, "search": run_search, "colength": run_colength}
