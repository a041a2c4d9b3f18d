"""Reference speed for the benchmark's end-to-end timings.

The benchmark runs on shared machines whose CPU speed drifts.  On the 2-vCPU
virtual machine it was written on, a fixed pure-Python loop took anywhere
from 0.22 s to 0.35 s within one minute.  Over ten 30-second runs, the
quartiles of a workload's ops/s lay up to 26% apart, which is more than a
regression bound can absorb.

So every end-to-end timing is scaled to a reference speed.  `reference()`
is a fixed piece of interpreter work that uses no whilesem code: character
scanning, small-object allocation, dict stores, sorting and joining strings.
It is timed before the first op, about every 250 ms between ops, and after
the last op.  Each op's latency is multiplied by REF_NS / r, where r is the
mean of the reference times taken just before and just after the op.  A
reported millisecond is thus a millisecond on a machine where `reference()`
takes 10 ms.  A change to the program moves the scaled figures exactly as it
moves the raw ones; only the host's drift cancels.  The raw figures are
printed next to the scaled ones.
"""

from __future__ import annotations

import time

REF_NS = 10_000_000
SAMPLE_EVERY_NS = 250_000_000

_TEXT = "alloc x; x := x + 1; while x { if x - 2 { x := x - 1 } else { skip } }\n" * 40


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference() -> int:
    letters = 0
    for ch in _TEXT:
        if ch.isalpha():
            letters += 1
    table = {}
    for i in range(12_000):
        item = _Item(i, (i, letters))
        table[i & 1023] = item
        letters += item.value[0] & 3
    words = _TEXT.split()
    return letters + len(" ".join(sorted(words))) + len(table)


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - start


def scaled(latencies: list, samples: list) -> list:
    """Latencies at reference speed.  `samples` holds (op index, reference
    ns) pairs in order: each was taken just before the op of that index, and
    the last one after the final op."""
    out, k = [], 0
    for i, ns in enumerate(latencies):
        while samples[k + 1][0] <= i:
            k += 1
        out.append(ns * 2 * REF_NS / (samples[k][1] + samples[k + 1][1]))
    return out
