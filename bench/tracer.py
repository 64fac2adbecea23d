"""Spans around calls into hkcert, recorded from outside the package.

``install`` wraps the public functions of every layer module, plus
``CertificationReport.to_text``/``to_csv``, and rebinds each wrapper
wherever the original is bound: in its own module, in the ``hkcert``
package, and in the modules that import it (``bounds`` binds
``vol_slab``; ``tables`` binds ``volume_lower_bound``,
``certify_interval``, ``quadratic_apex`` and ``conjecture_threshold``).

A span is (op, id, parent, name, start_ns, end_ns, thread, value), kept
in memory and written out as tab-separated lines by ``dump``.  ``value``
is a per-function observation taken after the call returns (result bit
length, scanned box, report bytes), or -1.  A span opened on a thread
with no open span of its own (a ``tables`` worker thread) gets as parent
the innermost open span of the main thread, which is the
``verify_tables`` call waiting on it.

``aggregate`` turns a spans file into the per-layer metrics; self time
is a span's duration minus the union of its children's intervals, so
children that overlap in worker threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from math import prod

LAYERS = ("slab", "series", "monomial", "bounds", "tables", "report")


def _bits(args, result) -> int:
    return max(result.numerator.bit_length(), result.denominator.bit_length())


def _box(args, result) -> int:
    ideal, q = args[0], args[-1]
    return prod(q * c for c in ideal.pure_power_exponents())


def _bytes(args, result) -> int:
    return len(result.encode())


OBSERVERS = {
    "slab.vol_slab": _bits,
    "monomial.frobenius_colength": _box,
    "monomial.mixed_colength": _box,
    "report.to_text": _bytes,
    "report.to_csv": _bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        main_stack = self._main_stack
        append = self.spans.append
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                append((self.op, sid, parent, name, start, end, threading.get_ident(), -1))
                raise
            end = clock()
            stack.pop()
            value = -1 if observe is None else observe(args, result)
            append((self.op, sid, parent, name, start, end, threading.get_ident(), value))
            return result

        return traced

    def dump(self, path: str, mode: str = "w") -> None:
        with open(path, mode) as fh:
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def install(tracer: Tracer):
    """Wrap the layer functions of the imported hkcert package.

    Returns ``switch(on)``, which binds the wrappers (on) or the original
    functions (off) everywhere; the wrappers start bound.
    """
    import hkcert

    modules = {layer: importlib.import_module(f"hkcert.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}"))
    report_cls = modules["report"].CertificationReport
    bindings = [(report_cls, method, getattr(report_cls, method)) for method in ("to_text", "to_csv")]
    bindings = [(owner, attr, fn, tracer.wrap(fn, f"report.{attr}")) for owner, attr, fn in bindings]
    for module in (hkcert, *modules.values(), importlib.import_module("hkcert.cli")):
        for attr, obj in vars(module).items():
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                bindings.append((module, attr, obj, entry[1]))

    def switch(on: bool) -> None:
        for owner, attr, original, wrapper in bindings:
            setattr(owner, attr, wrapper if on else original)

    switch(True)
    return switch


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def read_spans(path: str) -> list[tuple]:
    spans = []
    with open(path) as fh:
        for line in fh:
            op, sid, parent, name, start, end, thread, value = line.rstrip("\n").split("\t")
            spans.append((int(op), int(sid), int(parent), name, int(start), int(end), int(thread), int(value)))
    return spans


def aggregate(spans: list[tuple]) -> dict:
    """Per-function calls, self time (ns) and observations, plus op wall (ns)."""
    children = defaultdict(list)
    names = {}
    for op, sid, parent, name, start, end, thread, value in spans:
        children[(op, parent)].append((start, end, thread))
        names[(op, sid)] = name
    stats = defaultdict(lambda: {"calls": 0, "self_ns": 0, "value_max": 0, "value_sum": 0, "threads_max": 0})
    child_calls = defaultdict(int)
    for op, sid, parent, name, start, end, thread, value in spans:
        kids = children.get((op, sid), [])
        entry = stats[name]
        entry["calls"] += 1
        entry["self_ns"] += (end - start) - _covered([(k_start, k_end) for k_start, k_end, _ in kids], start, end)
        if value >= 0:
            entry["value_max"] = max(entry["value_max"], value)
            entry["value_sum"] += value
        foreign = {k_thread for _, _, k_thread in kids if k_thread != thread}
        entry["threads_max"] = max(entry["threads_max"], len(foreign))
        child_calls[(names.get((op, parent)), name)] += 1
    root_ns = sum(end - start for op, sid, parent, name, start, end, thread, value in spans if parent == -1)
    return {"stats": stats, "child_calls": child_calls, "root_ns": root_ns}
