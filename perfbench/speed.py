"""The host's speed, read from a fixed kernel timed next to the measurements.

The benchmark runs on a shared host whose speed drifts: in busy minutes the
same code, and even its process CPU time, takes 30-50 % longer than in calm
ones, and each core drifts on its own.  run.py therefore pins its untraced
runs to one core and times KERNEL right before and right after each
measured stretch (`probe`): each sample of set-up time, each command, each
campaign and, inside the query client, each window of requests.  It scales
the stretch's wall and CPU time by `factors` of the two probes, so that it
reads as on a host where one kernel run takes REFERENCE_S.  The kernel is part of the
benchmark and never changes with the program, so a change to the program
moves the scaled timings as much as the raw ones.

On the 2-core host used to build the benchmark, query_mix and verify work
scaled this way varied by 0.05-0.06 (coefficient of variation over 15 s
stretches, five minutes), against 0.13-0.17 unscaled; a kernel timed at the
same moments on the other core brought it only to 0.06-0.09.

The kernel does, in small, what the program spends its time on: tuple
permutations hashed into a set (group closures), small numpy index arrays
and big-integer bit sets (the oracle's subgroup lattice) and big-integer
division (valuations of group orders).
"""

from __future__ import annotations

import time

import numpy as np

# Wall (and CPU) seconds of one kernel run on a calm 2-core x86-64 host.
REFERENCE_S = 0.025


def kernel() -> int:
    seen, frontier = set(), [tuple(range(8))]
    for i in range(2000):
        p = frontier[i % len(frontier)]
        for q in (p[1:] + p[:1], (p[1], p[0]) + p[2:]):
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    perm = np.arange(64, dtype=np.int64)
    bits = 0
    for i in range(600):
        perm = np.roll(perm, 1)[np.argsort(perm[::-1], kind="stable")]
        bits |= int(perm[i % 64]) << (i * 7 % 4096)
        bits &= ~(1 << (i * 11 % 4096))
    x, count = 3 ** 3000 * 7 ** 1500, 0
    while x % 3 == 0:
        x //= 3
        count += 1
    return len(seen) + bits.bit_count() + count


def probe(runs: int = 1) -> tuple[float, float]:
    """Mean (wall, CPU) seconds of `runs` kernel runs."""
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - t0) / runs, (time.process_time() - c0) / runs


def factors(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """(wall, CPU) factors that turn the timings of a stretch into
    reference-host timings, from the probes on either side of it."""
    return (2 * REFERENCE_S / (before[0] + after[0]),
            2 * REFERENCE_S / (before[1] + after[1]))
