"""A fixed reference computation that gauges how fast the host runs now.

On a shared virtual machine the same Python code runs up to twice as slow
for stretches of seconds to minutes, as other tenants load the physical
cores. The library is pure Python, and its ops slow down in those stretches
by about the same factor as this loop of dict, set, tuple and sort work. The
runner times ``reference()`` right before and right after every op and every
set-up, and scales the op's time by ``NOMINAL_S`` over the mean of the two.
A reported time therefore reads as the time the op would take on a host on
which the loop takes ``NOMINAL_S``. The loop is part of the benchmark, not of
the library, so a change to the library leaves it as it is and shows in full
in the scaled times.
"""

from __future__ import annotations

import time

# about the loop's time on an unloaded core of a 2-vCPU Xeon VM, CPython 3.11
NOMINAL_S = 0.010


def reference() -> int:
    """A fixed amount of interpreter work; returns its checksum."""
    counts = {}
    seen = set()
    x = 12345
    for i in range(12_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 509, i & 7)
        counts[key] = counts.get(key, 0) + 1
        if x % 3 and key not in seen:
            seen.add(key)
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len(seen) + ranked[-1][1] + ranked[0][0][0]


def timed() -> float:
    """Seconds one ``reference()`` call takes."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
