"""Shared oracles and generators for the test suite.

The oracles here recompute expected values by a route independent of the
implementation under test: midpoint scans over merged breakpoint lists
instead of two-pointer refinements, and blockwise sums instead of the
integral operators. Frozen expected constants in the tests come from these.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hmstep.core import FiniteSpace, Window
from hmstep.stepfn import StepFn, evaluate


def merged_breakpoints(*fns: StepFn, extra: tuple[Fraction, ...] = ()) -> list[Fraction]:
    points: set[Fraction] = set(extra)
    for f in fns:
        points.update(f.breakpoints)
    return sorted(points)


def oracle_d_hm(space: FiniteSpace, f: StepFn, g: StepFn) -> Fraction:
    """Integral of the pointwise distance via a midpoint scan."""
    total = Fraction(0)
    bps = merged_breakpoints(f, g)
    for a, b in zip(bps, bps[1:]):
        if b > a:
            mid = (a + b) / 2
            total += (b - a) * space.distance(evaluate(f, mid), evaluate(g, mid))
    return total


def oracle_d_hm2(space: FiniteSpace, F: StepFn, G: StepFn) -> Fraction:
    """Outer midpoint scan, inner distances via :func:`oracle_d_hm`."""
    total = Fraction(0)
    bps = merged_breakpoints(F, G)
    for a, b in zip(bps, bps[1:]):
        if b > a:
            mid = (a + b) / 2
            total += (b - a) * oracle_d_hm(space, evaluate(F, mid), evaluate(G, mid))
    return total


def oracle_functional(phi, window: Window, f: StepFn) -> Fraction:
    """Window average of phi(f(t)) via a midpoint scan."""
    total = Fraction(0)
    bps = merged_breakpoints(f, extra=(window.a, window.b))
    for a, b in zip(bps, bps[1:]):
        if b > a and window.a <= a and b <= window.b:
            mid = (a + b) / 2
            total += (b - a) * phi(evaluate(f, mid))
    return total / (window.b - window.a)


def random_metric_space(rng: random.Random, n: int) -> FiniteSpace:
    """Random metric with distances in [1/2, 1], so triangles always close."""
    labels = tuple(range(1, n + 1))
    table = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = Fraction(rng.randint(6, 12), 12)
            table[i][j] = table[j][i] = d
    return FiniteSpace(labels, tuple(tuple(row) for row in table))
