"""Second and third levels of the step-function construction.

A level-2 function is a step function whose values are step functions over
one base space; level 3 nests once more. Because ``StepFn`` treats values as
opaque, the same type serves every level, and the operations here are the
level-aware ones: the two nestings of the unit, the level-2 functor action,
the level-2 integral metric, iterated window-average coordinates, and
flatten candidates (multiplication proposals) with their level-3 lifts.
Each operation checks its nesting (the metric and coordinates also every
inner point, once, up front), then calls a ``stepfn`` kernel with a level-1
operation as its callable: ``hm_map``, or for the metric and coordinates the
level-1 pair kernel, whose exact (num, den) int pairs the outer kernel sums
before the call's one ``Rat``. The diagonal flatten is ``stepfn.diagonal``.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import chain
from typing import Callable

from .core import FiniteSpace, Frozen, Rat, TestFn, Window, ZERO
from .hm import SpaceMap, _check_points, hm_map
from .stepfn import (
    StepFn,
    as_rng,
    blocks,
    canonicalize,
    constant,
    diagonal,
    evaluate,
    map_values,
    random_stepfn,
    refinement_ratio,
    window_ratio,
)

StepFn2 = StepFn
StepFn3 = StepFn


def _check_nested(F: StepFn, space: FiniteSpace | None = None) -> set:
    """Check that the values are step functions; given a space, return the checked inner points."""
    for v in F.values:
        if not isinstance(v, StepFn):
            raise ValueError("expected a nested step function (values must be step functions)")
    return set() if space is None else _check_points(space, chain.from_iterable(g.values for g in F.values))


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
    piece, so the result is again an exact step function. Satisfies both
    unit laws, associativity, and naturality at the step-function level.
    """
    _check_nested(F)
    return diagonal(F)


def d_hm2(space: FiniteSpace, F: StepFn2, G: StepFn2) -> Rat:
    """Integral over the outer variable of d_hm between inner functions."""
    _check_nested(F, space)
    _check_nested(G, space)
    dist = cache(lambda a, b: space.distance(a, b).as_integer_ratio())
    return Rat(*refinement_ratio(F, G, partial(refinement_ratio, dist=dist)))


def iterated_functional_eval(
    phi: TestFn, inner: Window, outer: Window, F: StepFn2
) -> Rat:
    """Mean over the outer window of the inner window-average coordinate.

    This is the level-2 coordinate obtained by averaging the level-1
    coordinate (phi over ``inner``) of F(s) for s in ``outer``.
    """
    weights = {x: phi(x).as_integer_ratio() for x in _check_nested(F, phi.space)}
    return Rat(*window_ratio(F, partial(window_ratio, weight=weights.__getitem__, window=inner), outer))


class MuCandidate(Frozen):
    """A multiplication proposal: a transformation taking a nested step
    function to a plain one, applied uniformly at every level (values are
    opaque). ``lift`` maps the candidate over the outer values of a level-3
    function, which is the other composite the associativity law compares."""

    _fields = ("name", "transform")
    name: str
    transform: Callable[[StepFn2], StepFn]

    def __init__(self, name: str, transform: Callable[[StepFn2], StepFn]) -> None:
        self._set(name=name, transform=transform)

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
    return StepFn(flat.breakpoints, flat.values[:-1] + (flat.values[0],))


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
