"""Internal producers build valid canonical step functions without re-validation.

Every producer that skips the validating ``StepFn`` constructor is checked
here on its output: the public constructor accepts the same partition and
gives an equal function, the partition is canonical by the definition
written out below (not by the merge scan, which ``canonicalize`` runs),
every breakpoint is a ``Fraction``, and ``canonicalize`` hands a canonical
function back unchanged. The fast ``canonicalize`` and ``diagonal_flatten``
are compared with midpoint oracles that rebuild the canonical form through
the public constructor; so are the flatten's two searchless cases, a
one-piece outer function and one-piece inner functions (the unit's two
nestings), on raw inputs with zero-length and mergeable pieces. The inside
unit of a canonical function of several pieces flattens onto that
function's own tick tuple, rebuilding none.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hmstep.core import FiniteSpace
from hmstep.hm import SpaceMap, hm_map
from hmstep.laws import bump_fn, default_spaces
from hmstep.stepfn import (
    StepFn,
    blocks,
    canonicalize,
    constant,
    diagonal,
    evaluate,
    map_values,
    random_stepfn,
)
from hmstep.tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    diagonal_flatten,
    h2_map,
    h_eta,
    random_stepfn2,
    random_stepfn3,
)

from conftest import merged_breakpoints

SPACES = default_spaces()
CANDIDATES = (DIAGONAL, CONSTANT_LEFT, REMAP_LAST)

spaces = st.sampled_from(SPACES)
rngs = st.randoms(use_true_random=False)


def assert_trusted_ok(f: StepFn, deep: bool = True) -> None:
    """f is what the validating constructor would build, canonical, and a
    fixed point of ``canonicalize``; with ``deep``, nested values are too."""
    assert StepFn(f.breakpoints, f.values) == f
    assert type(f.breakpoints) is tuple and type(f.values) is tuple
    assert all(type(t) is Fraction for t in f.breakpoints)
    assert all(t0 < t1 for t0, t1 in zip(f.breakpoints, f.breakpoints[1:]))
    assert all(a != b for a, b in zip(f.values, f.values[1:]))
    assert canonicalize(f) is f
    if deep:
        for v in f.values:
            if isinstance(v, StepFn):
                assert_trusted_ok(v)


def oracle_canonical(f: StepFn) -> StepFn:
    """f's canonical form rebuilt from its values at the midpoints between
    distinct breakpoints, merged by hand and checked by the public constructor."""
    bps = merged_breakpoints(f)
    ends: list[Fraction] = [Fraction(0)]
    vals: list = []
    for a, b in zip(bps, bps[1:]):
        v = evaluate(f, (a + b) / 2)
        if vals and vals[-1] == v:
            ends[-1] = b
        else:
            ends.append(b)
            vals.append(v)
    return StepFn(tuple(ends), tuple(vals))


def oracle_flatten(F: StepFn) -> StepFn:
    """s maps to F(s)(s), read at midpoints of every breakpoint in sight."""
    extra = tuple(t for g in F.values for t in g.breakpoints)
    bps = merged_breakpoints(F, extra=extra)
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return oracle_canonical(StepFn(bps, [evaluate(evaluate(F, mid), mid) for mid in mids]))


@st.composite
def raw_stepfns(draw, values=st.sampled_from((1, 2, 3))):
    """Any valid partition on a small grid: repeated breakpoints (zero-length
    pieces) and equal neighbours are both likely."""
    den = draw(st.integers(1, 6))
    inner = draw(st.lists(st.integers(0, den), max_size=8))
    bps = (0, *sorted(Fraction(k, den) for k in inner), 1)
    vals = draw(st.lists(values, min_size=len(bps) - 1, max_size=len(bps) - 1))
    return StepFn(bps, tuple(vals))


raw_level2 = raw_stepfns(values=raw_stepfns())


def sample(space: FiniteSpace, level: int, rng: random.Random) -> StepFn:
    if level == 1:
        return random_stepfn(space, rng.randint(1, 6), rng)
    if level == 2:
        return random_stepfn2(space, rng.randint(1, 4), 4, rng)
    return random_stepfn3(space, rng.randint(1, 3), 3, 3, rng)


@given(spaces, rngs)
def test_random_samplers_at_every_level(space, rng):
    for level in (1, 2, 3):
        assert_trusted_ok(sample(space, level, rng))


@given(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=12))
def test_blocks(values):
    f = blocks(values)
    assert_trusted_ok(f)
    n = len(values)
    assert all(evaluate(f, Fraction(2 * i + 1, 2 * n)) == v for i, v in enumerate(values))


@given(raw_level2)
def test_blocks_of_raw_values_merges_equal_ones(F):
    f = blocks(F.values)
    assert_trusted_ok(f, deep=False)
    assert f.pieces <= F.pieces


@given(raw_stepfns())
def test_canonicalize_matches_the_midpoint_oracle(f):
    c = canonicalize(f)
    assert_trusted_ok(c)
    assert c == oracle_canonical(f)
    assert (c is f) == (c.pieces == f.pieces)


@given(raw_stepfns(), st.sampled_from((lambda v: v, lambda v: v % 2, lambda v: -v, lambda v: 0)))
def test_map_values(f, fn):
    g = map_values(f, fn)
    assert_trusted_ok(g)
    assert g == oracle_canonical(StepFn(f.breakpoints, tuple(fn(v) for v in f.values)))


@given(st.one_of(st.integers(), st.sampled_from((1, 2, 3)).map(constant)))
def test_constant(value):
    assert_trusted_ok(constant(value))


@pytest.mark.parametrize("n", range(1, 9))
def test_bump_fn(n):
    for i in range(1, n + 1):
        f = bump_fn(i, n)
        assert_trusted_ok(f)
        assert f == oracle_canonical(StepFn((0, Fraction(i - 1, n), Fraction(i, n), 1), (0, 1, 0)))
    for i in (0, n + 1):
        with pytest.raises(ValueError):
            bump_fn(i, n)


@given(raw_level2)
def test_diagonal_flatten_of_raw_input_matches_the_oracle(F):
    f = diagonal_flatten(F)
    assert_trusted_ok(f)
    assert f == oracle_flatten(F)


@example(StepFn((0, Fraction(1, 2), Fraction(1, 2), 1), (1, 2, 2)))  # a zero-length piece, then a merge
@given(raw_stepfns())
def test_diagonal_flatten_of_a_one_piece_outer_function_matches_the_oracle(g):
    F = StepFn((0, 1), (g,))
    f = diagonal_flatten(F)
    assert_trusted_ok(f)
    assert f == oracle_flatten(F) == canonicalize(g)


one_piece = st.sampled_from((1, 2, 3)).map(constant)


@example(StepFn((0, Fraction(1, 3), Fraction(1, 3), 1), (constant(1), constant(2), constant(1))))
@example(StepFn((0, Fraction(1, 2), 1), (constant(1), StepFn((0, Fraction(1, 3), 1), (1, 2)))))
# zero-length outer pieces at both ends and inside, equal neighbouring constants, and a den of 4 that merges to 2
@example(StepFn((0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1, 1),
                (constant(3), constant(2), constant(2), constant(3), constant(1), constant(2))))
@example(StepFn((0, Fraction(1, 4), 1), (constant(1), constant(1))))  # one value over a den of 4
@given(raw_stepfns(values=one_piece) | raw_stepfns(values=one_piece | raw_stepfns()))
def test_diagonal_flatten_of_one_piece_inner_functions_matches_the_oracle(F):
    f = diagonal_flatten(F)
    assert_trusted_ok(f)
    assert f == diagonal(F) == oracle_flatten(F)


@given(spaces, rngs)
def test_diagonal_of_the_inside_unit_keeps_the_ticks_of_a_canonical_function(space, rng):
    f = sample(space, 1, rng)
    assume(f.pieces > 1)  # a one-piece F flattens to its one inner function, the constant
    flat = diagonal(h_eta(f))
    assert flat == f and flat.ticks is f.ticks
    staircase = blocks(range(1, 27))
    assert diagonal(h_eta(staircase)).ticks is staircase.ticks


@given(spaces, rngs)
def test_diagonal_flatten_of_samples_matches_the_oracle(space, rng):
    F = sample(space, 2, rng)
    assert diagonal_flatten(F) == oracle_flatten(F)


@given(spaces, spaces, rngs)
def test_functor_actions_and_inner_unit(space, target, rng):
    h = SpaceMap(space, target, tuple(rng.choice(target.labels) for _ in space.labels))
    f = sample(space, 1, rng)
    assert_trusted_ok(hm_map(h, f))
    assert_trusted_ok(h_eta(f))
    assert_trusted_ok(h2_map(h, sample(space, 2, rng)))


@pytest.mark.parametrize("mu", CANDIDATES, ids=lambda mu: mu.name)
@given(space=spaces, rng=rngs)
def test_candidates_and_their_lifts(mu, space, rng):
    assert_trusted_ok(mu(sample(space, 2, rng)))
    assert_trusted_ok(mu.lift(sample(space, 3, rng)))


@pytest.mark.parametrize("mu", CANDIDATES, ids=lambda mu: mu.name)
@given(F=raw_level2)
def test_candidates_on_raw_input(mu, F):
    assert_trusted_ok(mu(F), deep=False)


def test_probe_tower_and_its_image():
    for n in (1, 2, 5):
        F = blocks(bump_fn(i, n) for i in range(1, n + 1))
        assert_trusted_ok(F)
        assert_trusted_ok(DIAGONAL(F))
