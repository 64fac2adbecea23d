"""A fixed reference computation that tells how fast the machine runs now.

On a shared host the CPU time of the same Python code drifts by a
quarter or more over tens of seconds, as the host changes clock speed
and other guests share its cores.  The benchmark times ``reference()``
between ops, outside their timings, and scales each op's CPU time by
``NOMINAL_NS`` over the reference's CPU time around that op.  The result
is the op's CPU time at the speed where the reference takes
``NOMINAL_NS``: a machine that runs everything 20 % slower for a while
leaves it unchanged, a program that runs 20 % slower does not.

The reference does the kind of work hkcert does, in the same
interpreter: ``Fraction`` arithmetic on growing integers, and dict and
list traffic.  It imports nothing from hkcert, so no change to the
program moves it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Roughly the CPU time of one reference() on the 2-vCPU VM the benchmark
# was written on (Python 3.11), so that scaled times read close to raw
# ones there.  Only the unit scale of the metrics depends on it.
NOMINAL_NS = 700_000
EVERY_NS = 20_000_000  # op CPU time per reference sample
WINDOW = 45            # samples in the median an op is scaled by: about 1 s of op CPU time
SETUP_SAMPLES = 9      # samples a set-up probe takes after its first op


def reference() -> int:
    acc = Fraction(0)
    for k in range(1, 110):
        acc += Fraction(k * k + 1, 3 * k + 7)
    counts: dict[int, int] = {}
    for i in range(1200):
        counts[i % 37] = counts.get(i % 37, 0) + i * i
    return acc.numerator % 1_000_003 + sum(sorted(counts.values()))


def sample() -> int:
    """CPU time of one reference(), in ns."""
    start = time.process_time_ns()
    reference()
    return time.process_time_ns() - start


class Meter:
    """Reference samples taken between ops, one per ``EVERY_NS`` of op CPU time.

    An op longer than ``EVERY_NS`` is followed by as many samples as it
    owes, so the samples cover the run evenly whatever the op size.
    """

    def __init__(self) -> None:
        self.samples = [sample()]
        self.positions: list[int] = []  # per op: samples taken before it
        self._owed = 0

    def after_op(self, cpu_ns: int) -> None:
        self.positions.append(len(self.samples))
        self._owed += cpu_ns
        while self._owed >= EVERY_NS:
            self.samples.append(sample())
            self._owed -= EVERY_NS


def scale(cpu_ns: list[int], positions: list[int], ref_ns: list[int]) -> list[float]:
    """Each op's CPU time at nominal speed, from the median of the WINDOW samples around it."""
    medians: dict[int, float] = {}
    out = []
    for cpu, position in zip(cpu_ns, positions):
        lo = max(0, min(position - WINDOW // 2, len(ref_ns) - WINDOW))
        if lo not in medians:
            medians[lo] = statistics.median(ref_ns[lo:lo + WINDOW])
        out.append(cpu * NOMINAL_NS / medians[lo])
    return out
