"""Second and third levels of the step-function construction.

A level-2 function is a step function whose values are step functions over
one base space; level 3 nests once more. Because ``StepFn`` treats values as
opaque, the same type serves every level, and the operations here are the
level-aware ones: the two nestings of the unit, the level-2 functor action,
the level-2 integral metric, iterated window-average coordinates, and
flatten candidates (multiplication proposals) with their level-3 lifts.
The level-2 functor action, metric and coordinates reuse the ``stepfn``
kernels behind their level-1 twins in ``hm``, with a level-1 operation as
the callable; the metric and coordinates check every inner point once, up
front, and then call the bare level-1 kernel.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from math import lcm
from typing import Callable

from .core import FiniteSpace, Rat, TestFn, Window, ZERO
from .hm import SpaceMap, _check_points, hm_map
from .stepfn import (
    StepFn,
    _canonical,
    _trusted,
    as_rng,
    blocks,
    canonicalize,
    constant,
    evaluate,
    map_values,
    random_stepfn,
    refinement_integral,
    window_average,
)

StepFn2 = StepFn
StepFn3 = StepFn


def _check_nested(F: StepFn, space: FiniteSpace | None = None) -> None:
    for v in F.values:
        if not isinstance(v, StepFn):
            raise ValueError("expected a nested step function (values must be step functions)")
    if space is not None:
        _check_points(space, (x for g in F.values for x in g.values))


def h_eta(f: StepFn) -> StepFn2:
    """Apply the unit inside: replace each value by its constant function.

    This is the image of f under the functor action of the unit map.
    """
    return map_values(f, constant)


def eta_h(f: StepFn) -> StepFn2:
    """Apply the unit outside: the constant level-2 function at f."""
    return constant(canonicalize(f))


def h2_map(h: SpaceMap, F: StepFn2) -> StepFn2:
    """Level-2 functor action: post-compose every inner function with h."""
    _check_nested(F)
    return map_values(F, partial(hm_map, h))


def diagonal_flatten(F: StepFn2) -> StepFn:
    """The diagonal multiplication candidate: s maps to F(s)(s).

    On each outer piece the inner function's breakpoints are clipped to the
    piece, so the result is again an exact step function; the outer ticks
    and those of every inner function read are rescaled to the lcm of their
    dens. Satisfies both unit laws, associativity, and naturality at the
    step-function level.
    """
    _check_nested(F)
    live = [(u, v, g) for u, v, g in zip(F.ticks, F.ticks[1:], F.values) if v > u]
    den = lcm(F.den, *(g.den for _, _, g in live))
    s = den // F.den
    pieces = []
    for u, v, g in live:
        u, v, sg, ticks = u * s, v * s, den // g.den, g.ticks
        # the inner pieces meeting [u, v): from the one holding u to the last starting before v
        for i in range(bisect_right(ticks, u // sg) - 1, bisect_left(ticks, -(-v // sg))):
            end = ticks[i + 1] * sg
            pieces.append((end if end <= v else v, g.values[i]))
    return _canonical(den, pieces)


def d_hm2(space: FiniteSpace, F: StepFn2, G: StepFn2) -> Rat:
    """Integral over the outer variable of d_hm between inner functions."""
    _check_nested(F, space)
    _check_nested(G, space)
    return refinement_integral(F, G, partial(refinement_integral, dist=space.distance))


def iterated_functional_eval(
    phi: TestFn, inner: Window, outer: Window, F: StepFn2
) -> Rat:
    """Mean over the outer window of the inner window-average coordinate.

    This is the level-2 coordinate obtained by averaging the level-1
    coordinate (phi over ``inner``) of F(s) for s in ``outer``.
    """
    _check_nested(F, phi.space)
    return window_average(F, partial(window_average, weight=phi, window=inner), outer)


@dataclass(frozen=True)
class MuCandidate:
    """A multiplication proposal: a transformation taking a nested step
    function to a plain one, applied uniformly at every level (values are
    opaque). ``lift`` maps the candidate over the outer values of a level-3
    function, which is the other composite the associativity law compares."""

    name: str
    transform: Callable[[StepFn2], StepFn]

    def __call__(self, F: StepFn2) -> StepFn:
        # the control candidates return raw inner functions
        return canonicalize(self.transform(F))

    def lift(self, F3: StepFn3) -> StepFn2:
        _check_nested(F3)
        return map_values(F3, self)


def _constant_left(F: StepFn2) -> StepFn:
    # deliberately broken: forgets everything but the leftmost inner function
    _check_nested(F)
    g = evaluate(F, ZERO)
    assert isinstance(g, StepFn)
    return g


def _remap_last(F: StepFn2) -> StepFn:
    # deliberately broken: flattens, then overwrites the last piece's value
    # with the first piece's value; not natural under collapsing maps
    flat = diagonal_flatten(F)
    if flat.pieces == 1:
        return flat
    return _trusted(flat.den, flat.ticks, flat.values[:-1] + (flat.values[0],))


DIAGONAL = MuCandidate("diagonal", diagonal_flatten)
CONSTANT_LEFT = MuCandidate("constant-left", _constant_left)
REMAP_LAST = MuCandidate("remap-last", _remap_last)


def random_stepfn2(
    space: FiniteSpace,
    outer_grid: int,
    inner_grid: int,
    seed: int | random.Random,
) -> StepFn2:
    """A canonical level-2 function: outer breakpoints on the 1/outer_grid
    grid, each inner function drawn by :func:`random_stepfn`."""
    rng = as_rng(seed)
    if outer_grid < 1:
        raise ValueError("outer grid must be at least 1")
    return blocks(random_stepfn(space, rng.randint(1, inner_grid), rng) for _ in range(outer_grid))


def random_stepfn3(
    space: FiniteSpace,
    outer_grid: int,
    mid_grid: int,
    inner_grid: int,
    seed: int | random.Random,
) -> StepFn3:
    """A canonical level-3 function built from random level-2 values."""
    rng = as_rng(seed)
    if outer_grid < 1:
        raise ValueError("outer grid must be at least 1")
    return blocks(random_stepfn2(space, rng.randint(1, mid_grid), inner_grid, rng) for _ in range(outer_grid))
