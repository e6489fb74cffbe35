"""A fixed piece of pure-Python work that measures how fast the machine is now.

On a shared host the speed of the same code drifts by up to about 2x over
periods from seconds to minutes, and a run of a minute can fall mostly in a
slow or mostly in a fast stretch. ``run.py`` times ``work()`` before every
untraced round and after each of its tasks, and ``scaled()`` divides each
task's time by the mean of the two samples around it: the timings it reports
are seconds at the speed at which ``work()`` takes ``REFERENCE_S``.

The work is the benchmark's own and never touches hmstep, so a change to
hmstep moves the task times and not the yardstick. It is built from what
hmstep spends its time on: Fraction arithmetic and comparisons, tuples as
dict keys, and many small objects alive at once.
"""

from __future__ import annotations

import time
from fractions import Fraction

# seconds ``work()`` takes at the reference speed (its median on a shared
# 2-vCPU Xeon host, Python 3.11.7); only the scale of the reported timings
# depends on it
REFERENCE_S = 0.08
SIZE = 10000


def work() -> int:
    """Build, compare and reduce a few thousand Fractions; return a checksum."""
    table = {}
    for i in range(1, SIZE):
        key = (i % 61, i % 53, i)
        table[key] = Fraction(i % 97 + 1, i % 89 + 2) - Fraction(i % 13, i % 7 + 1)
    lowest = Fraction(10**6)
    total = Fraction(0)
    for key, value in table.items():
        if value < lowest:
            lowest = value
        if key[0] < key[1]:
            total += value
    return len(table) + int(lowest * 1000) + total.numerator % 1000


def sample() -> float:
    """Seconds one ``work()`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference the machine ran on average."""
    return sum(samples) / len(samples) / REFERENCE_S


def scaled(times: list[float], samples: list[float]) -> list[float]:
    """``times[i]`` at the reference speed, given ``samples[i]`` taken just
    before it and ``samples[i + 1]`` just after."""
    assert len(samples) == len(times) + 1
    return [t * 2 * REFERENCE_S / (before + after) for t, before, after in zip(times, samples, samples[1:])]
