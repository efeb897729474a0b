"""How fast this process runs Python right now, for reading times at a
nominal speed.

The benchmark shares a small machine with other tenants.  Their load changes
the speed of the same code by up to 2x, in episodes from a fraction of a
second to minutes.  run.py takes each input's fastest run, and reads that
run at nominal speed: scaled by NOMINAL_S over the mean of the probes just
before and just after it (each the median of three).  ``probe()`` times a fixed slice of interpreter
work that uses no amalg code: exact 2x2 products of a fixed letter word
(big ints), a triple loop of table lookups, a list used as a queue, and dict
and tuple traffic.  Over ten 40-second runs of each workload, the quartile
spread of ops_per_s, p50_ms and tail_ms was 4-10% scaled this way and 6-15%
unscaled; on six runs of one verify seed in a noisier period, 3-6% against
11-21%.
"""

from __future__ import annotations

import random
import statistics
import time

import oracle

# About the median probe on the 2-core Xeon (2.0 GHz) VM the benchmark was
# written on, so that scaled times read close to measured ones there.
NOMINAL_S = 0.5e-3

_TABLE = tuple(tuple((7 * i + 5 * j + i * j) % 24 for j in range(24)) for i in range(24))
_WORD = oracle.random_letter_word(random.Random(5), 60)


def probe() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = time.perf_counter()
    oracle.letters_value(_WORD)
    table = _TABLE
    hits = 0
    for x in range(12):
        for y in range(12):
            xy = table[x][y]
            for z in range(12):
                hits += table[xy][z] == table[x][table[y][z]]
    queue: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    acc = hits % 24
    for i in range(600):
        acc = table[acc][i % 24]
        queue.insert(0, (acc, i))
        if len(queue) > 64:
            queue.pop()
        seen[acc, i & 63] = i
    return time.perf_counter() - t0


def between() -> float:
    """The median of three probes: the speed between two timed intervals,
    with less of a single probe's jitter."""
    return statistics.median(probe() for _ in range(3))


def scaled(seconds: float, before: float, after: float) -> float:
    """An interval measured between two probes, at nominal speed."""
    return seconds * 2 * NOMINAL_S / (before + after)
