"""Consumers read raw step functions as their canonical forms.

A function that returns a step function canonicalizes its result once; a
consumer whose answer depends only on the almost-everywhere class of its
input reads that input as given. Each such consumer is checked here on a
canonical function and on a raw copy of it (one piece split in two, one
zero-length piece inserted), at the nesting levels it serves.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hmstep.core import FiniteSpace, TestFn, Window
from hmstep.hm import Functional, SpaceMap, d_hm, functional_eval, hm_map
from hmstep.laws import default_spaces
from hmstep.stepfn import StepFn, canonicalize, common_refinement, random_stepfn
from hmstep.tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    d_hm2,
    h2_map,
    h_eta,
    iterated_functional_eval,
    random_stepfn2,
    random_stepfn3,
)

SPACES = default_spaces()

spaces = st.sampled_from(SPACES)
rngs = st.randoms(use_true_random=False)


def sample(space: FiniteSpace, level: int, rng: random.Random) -> StepFn:
    """A canonical step function nested ``level`` deep over the space."""
    if level == 1:
        return random_stepfn(space, rng.randint(1, 6), rng)
    if level == 2:
        return random_stepfn2(space, rng.randint(1, 4), 4, rng)
    return random_stepfn3(space, rng.randint(1, 3), 3, 3, rng)


def raw(f: StepFn, space: FiniteSpace, level: int, rng: random.Random) -> StepFn:
    """A non-canonical copy of canonical f in the same almost-everywhere
    class: one piece split at its midpoint, then a zero-length piece inserted
    at a breakpoint, carrying a value of another sample of the same level."""
    i = rng.randrange(f.pieces)
    mid = (f.breakpoints[i] + f.breakpoints[i + 1]) / 2
    bps = f.breakpoints[: i + 1] + (mid,) + f.breakpoints[i + 1 :]
    vals = f.values[: i + 1] + (f.values[i],) + f.values[i + 1 :]
    k = rng.randrange(len(bps))
    stray = rng.choice(sample(space, level, rng).values)
    copy = StepFn(bps[: k + 1] + (bps[k],) + bps[k + 1 :], vals[:k] + (stray,) + vals[k:])
    assert canonicalize(copy) is not copy and canonicalize(copy) == f
    return copy


def window(rng: random.Random) -> Window:
    a, b = sorted(rng.sample(range(13), 2))
    return Window(Fraction(a, 12), Fraction(b, 12))


@given(spaces, st.sampled_from((1, 2)), rngs)
def test_common_refinement_gives_the_same_cells(space, level, rng):
    f, g = sample(space, level, rng), sample(space, level, rng)
    rf, rg = raw(f, space, level, rng), raw(g, space, level, rng)
    cells = common_refinement(f, g)
    assert common_refinement(rf, g) == cells
    assert common_refinement(f, rg) == cells
    assert common_refinement(rf, rg) == cells


@given(spaces, rngs)
def test_metrics_at_both_levels(space, rng):
    f, g = sample(space, 1, rng), sample(space, 1, rng)
    assert d_hm(space, raw(f, space, 1, rng), raw(g, space, 1, rng)) == d_hm(space, f, g)
    F, G = sample(space, 2, rng), sample(space, 2, rng)
    assert d_hm2(space, raw(F, space, 2, rng), raw(G, space, 2, rng)) == d_hm2(space, F, G)


@given(spaces, rngs)
def test_coordinates_at_both_levels(space, rng):
    phi = TestFn(space, tuple(Fraction(rng.randint(-3, 3)) for _ in space.labels))
    inner, outer = window(rng), window(rng)
    f = sample(space, 1, rng)
    fnl = Functional(phi, inner)
    assert functional_eval(fnl, raw(f, space, 1, rng)) == functional_eval(fnl, f)
    F = sample(space, 2, rng)
    assert iterated_functional_eval(phi, inner, outer, raw(F, space, 2, rng)) == (
        iterated_functional_eval(phi, inner, outer, F)
    )


@given(spaces, spaces, rngs)
def test_functor_actions_and_inner_unit(space, target, rng):
    h = SpaceMap(space, target, tuple(rng.choice(target.labels) for _ in space.labels))
    f = sample(space, 1, rng)
    assert hm_map(h, raw(f, space, 1, rng)) == hm_map(h, f)
    assert h_eta(raw(f, space, 1, rng)) == h_eta(f)
    F = sample(space, 2, rng)
    assert h2_map(h, raw(F, space, 2, rng)) == h2_map(h, F)


@pytest.mark.parametrize("mu", (DIAGONAL, CONSTANT_LEFT, REMAP_LAST), ids=lambda mu: mu.name)
@given(space=spaces, rng=rngs)
def test_candidates_and_their_lifts(mu, space, rng):
    F = sample(space, 2, rng)
    assert mu(raw(F, space, 2, rng)) == mu(F)
    F3 = sample(space, 3, rng)
    assert mu.lift(raw(F3, space, 3, rng)) == mu.lift(F3)
