"""Timing helpers: the reference loop, medians and per-solve normalisation.

The host this benchmark was written on changes speed by tens of percent
within a minute, so every solve is bracketed by a fixed reference loop and
reported also as a multiple of that loop's time.  The loop is benchmark
code only, in the kinds of work the solvers do: pure-Python integer
arithmetic, dictionary and set work on small tuples, and a numpy uint64
kernel.  Without the dictionary part, the exact engine's search drifted
against the loop by about 10% between runs.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

REF_PY_ITERS = 15_000
REF_OBJ_ITERS = 4_000
REF_WORDS = 1 << 18  # 2 MiB, a core's whole L2 cache here, streamed like the detection arrays
REF_NP_ROUNDS = 1
REF_REPEATS = 3


def _reference_kernel() -> None:
    acc = 0
    for i in range(REF_PY_ITERS):
        acc = (acc * 1_103_515_245 + i) & 0xFFFF_FFFF
    table: dict = {}
    seen = set()
    for i in range(REF_OBJ_ITERS):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i & 7, i % 5)))
    x = np.arange(REF_WORDS, dtype=np.uint64)
    for _ in range(REF_NP_ROUNDS):
        x ^= x << np.uint64(13)
        x ^= x >> np.uint64(7)
        x ^= x << np.uint64(17)
    if (acc ^ int(x[-1]) ^ len(table) ^ len(seen)) < 0:  # consume every result
        raise AssertionError("unreachable")


def reference_loop() -> float:
    """Run the fixed reference work REF_REPEATS times; return the median seconds.

    The median of a few short repetitions ignores a single stall, which one
    long loop would absorb.
    """
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return median(times)


def normalised(solve_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """Solve time in units of the reference loop timed just before and after."""
    return solve_s / ((ref_before_s + ref_after_s) / 2)
