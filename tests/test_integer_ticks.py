"""Step functions on one integer grid: representation, producers and kernels.

A ``StepFn`` stores ``den``, the least common denominator of its reduced
breakpoints, and integer ``ticks`` over it; ``breakpoints`` is a ``Fraction``
view built from them. Checked here:

* the representation: raw partitions with denominators up to 60 and
  zero-length pieces round-trip through ``breakpoints``, ``den`` is the lcm
  of the reduced denominators, and ``==`` and ``hash`` agree with comparing
  (breakpoints, values) as ``Fraction`` tuples;
* the producers that skip the validating constructor: each result has the
  fields the constructor gives its own breakpoints and values (so a common
  factor left by a merge is divided out), and takes the right value at the
  midpoint of every gap, read by a linear scan over the ``Fraction`` view;
  ``pairing``'s walk hands the merge scan one piece per breakpoint of its
  canonical inputs, so a shared breakpoint advances both pointers at once;
* the kernels, through their level-1 callers: ``functional_eval`` (window
  averages), preimage measures and ``d_hm`` (refinement integrals), with
  window ends off the step function's grid (such as (1/7, 3/11)) and a table
  metric, against midpoint oracles in ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hmstep import stepfn
from hmstep.core import FiniteSpace, TestFn, Window
from hmstep.hm import d_hm, functional_eval, pairing
from hmstep.laws import bump_fn, fixed_rational_space
from hmstep.stepfn import (
    StepFn,
    blocks,
    canonicalize,
    map_values,
    measure_preimage,
)
from hmstep.tower import REMAP_LAST, diagonal_flatten

from conftest import merged_breakpoints, oracle_d_hm, oracle_functional, oracle_measure

TABLE = fixed_rational_space()

fractions_to_60 = st.integers(1, 60).flatmap(lambda d: st.integers(0, d).map(lambda k: Fraction(k, d)))


@st.composite
def partitions(draw, max_inner=6):
    """0, then sorted breakpoints with denominators up to 60, then 1; some
    are repeated, so zero-length pieces are likely."""
    inner = draw(st.lists(fractions_to_60, max_size=max_inner))
    inner += draw(st.lists(st.sampled_from(inner), max_size=2)) if inner else []
    return (Fraction(0), *sorted(inner), Fraction(1))


@st.composite
def raw_stepfns(draw, values=st.sampled_from((1, 2, 3))):
    bps = draw(partitions())
    return StepFn(bps, tuple(draw(st.lists(values, min_size=len(bps) - 1, max_size=len(bps) - 1))))


raw_level2 = raw_stepfns(values=raw_stepfns())


def value_at(f: StepFn, t: Fraction) -> object:
    """f(t) by a linear scan of the ``Fraction`` breakpoints."""
    bps = f.breakpoints
    return next(v for a, b, v in zip(bps, bps[1:], f.values) if a <= t < b)


def assert_fields_normal(f: StepFn) -> None:
    """f has the fields the validating constructor builds from its own view."""
    ref = StepFn(f.breakpoints, f.values)
    assert (f.den, f.ticks, f.values) == (ref.den, ref.ticks, ref.values)
    assert type(f.den) is int and all(type(t) is int for t in f.ticks)


def assert_same_function(f: StepFn, reference: StepFn) -> None:
    """f and reference agree at the midpoint of every gap between their breakpoints."""
    bps = merged_breakpoints(f, reference)
    for a, b in zip(bps, bps[1:]):
        assert value_at(f, (a + b) / 2) == value_at(reference, (a + b) / 2)


# ---------------------------------------------------------------------------
# representation


@given(partitions(), st.data())
def test_breakpoints_round_trip_and_den_is_the_lcm(bps, data):
    vals = tuple(data.draw(st.lists(st.integers(0, 3), min_size=len(bps) - 1, max_size=len(bps) - 1)))
    f = StepFn(bps, vals)
    assert f.breakpoints == bps and f.values == vals
    assert all(type(t) is Fraction for t in f.breakpoints)
    assert f.den == lcm(*(t.denominator for t in bps))
    assert f.ticks == tuple(t.numerator * (f.den // t.denominator) for t in bps)
    assert f.ticks[0] == 0 and f.ticks[-1] == f.den


def unreduced(bps: tuple[Fraction, ...], scale: int) -> tuple[str, ...]:
    return tuple(f"{t.numerator * scale}/{t.denominator * scale}" for t in bps)


@given(raw_stepfns(), raw_stepfns(), st.integers(1, 5), st.booleans())
def test_equality_and_hash_follow_the_fraction_tuples(f, g, scale, same_partition):
    if same_partition:
        # the same partition again, written unreduced, with g's values where they fit
        g = StepFn(unreduced(f.breakpoints, scale), g.values[: f.pieces] + f.values[g.pieces :])
    by_fractions = (f.breakpoints, f.values) == (g.breakpoints, g.values)
    assert (f == g) == by_fractions
    if by_fractions:
        assert hash(f) == hash(g)
    assert len({f, g}) == len({(f.breakpoints, f.values), (g.breakpoints, g.values)})


def test_merged_blocks_have_the_least_denominator():
    f = blocks("aabb")
    assert f == StepFn((0, Fraction(1, 2), 1), "ab")
    assert (f.den, f.ticks) == (2, (0, 1, 2))
    assert hash(f) == hash(StepFn(("0", "2/4", "4/4"), ("a", "b")))


# ---------------------------------------------------------------------------
# producers


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=12))
def test_blocks(values):
    f = blocks(values)
    assert_fields_normal(f)
    n = len(values)
    assert all(value_at(f, Fraction(2 * i + 1, 2 * n)) == v for i, v in enumerate(values))


@given(raw_stepfns())
def test_canonicalize(f):
    c = canonicalize(f)
    assert_fields_normal(c)
    assert_same_function(c, f)


@given(raw_stepfns(), st.sampled_from((lambda v: v % 2, lambda v: 0, lambda v: v // 2)))
def test_merging_map_values(f, fn):
    g = map_values(f, fn)
    assert_fields_normal(g)
    assert_same_function(g, StepFn(f.breakpoints, tuple(fn(v) for v in f.values)))


def oracle_flatten_at(F: StepFn, t: Fraction) -> object:
    return value_at(value_at(F, t), t)


@given(raw_level2)
def test_diagonal_flatten(F):
    f = diagonal_flatten(F)
    assert_fields_normal(f)
    extra = tuple(t for g in F.values for t in g.breakpoints)
    bps = merged_breakpoints(F, f, extra=extra)
    for a, b in zip(bps, bps[1:]):
        assert value_at(f, (a + b) / 2) == oracle_flatten_at(F, (a + b) / 2)


@given(raw_level2)
def test_remap_last(F):
    f = REMAP_LAST.transform(F)
    assert_fields_normal(f)
    flat = diagonal_flatten(F)
    assert f.breakpoints == flat.breakpoints
    assert f.values == (flat.values if flat.pieces == 1 else flat.values[:-1] + flat.values[:1])


@given(raw_stepfns(), raw_stepfns(values=st.sampled_from("xy")))
def test_pairing(f, g):
    p = pairing(f, g)
    assert_fields_normal(p)
    bps = merged_breakpoints(f, g, p)
    for a, b in zip(bps, bps[1:]):
        t = (a + b) / 2
        assert value_at(p, t) == (value_at(f, t), value_at(g, t))


# a breakpoint shared inside (0, 1), where a tie must advance both pointers
@example(StepFn((0, Fraction(1, 3), 1), (1, 2)), StepFn((0, Fraction(1, 3), Fraction(2, 3), 1), "xyx"))
@given(raw_stepfns(), raw_stepfns(values=st.sampled_from("xy")))
def test_pairing_walk_ends_once_at_each_breakpoint(f, g):
    """On canonical inputs the walk hands the merge scan one piece per
    breakpoint of f or g, in order, the last at 1."""
    f, g = canonicalize(f), canonicalize(g)
    handed = []
    with mock.patch.object(stepfn, "_canonical", lambda den, pieces: handed.append((den, list(pieces)))):
        pairing(f, g)
    ((den, pieces),) = handed
    assert [Fraction(end, den) for end, _ in pieces] == sorted(set(f.breakpoints[1:]) | set(g.breakpoints[1:]))


@pytest.mark.parametrize("n", (1, 2, 3, 7, 12, 60))
def test_bump_fn(n):
    for i in range(1, n + 1):
        f = bump_fn(i, n)
        assert_fields_normal(f)
        assert_same_function(f, StepFn((0, Fraction(i - 1, n), Fraction(i, n), 1), (0, 1, 0)))


# ---------------------------------------------------------------------------
# kernels


@st.composite
def off_grid_windows(draw):
    """Windows whose ends have denominators 7, 11, 13 or 97: 97 is coprime to
    every den built from denominators up to 60, and the others divide few of
    them, so the window ends usually fall strictly inside pieces."""
    d1, d2 = draw(st.sampled_from((7, 11, 13, 97))), draw(st.sampled_from((7, 11, 13, 97)))
    a = Fraction(draw(st.integers(0, d1 - 1)), d1)
    b = Fraction(draw(st.integers(1, d2)), d2)
    return Window(*sorted((a, b))) if a != b else Window(Fraction(1, 7), Fraction(3, 11))


windows = st.one_of(st.just(Window(Fraction(1, 7), Fraction(3, 11))), off_grid_windows())
table_points = st.sampled_from(TABLE.labels)
phi = TestFn(TABLE, (Fraction(-1, 3), Fraction(2, 5), Fraction(7), Fraction(5, 6)))


@given(raw_stepfns(values=table_points), windows)
def test_functional_eval(f, window):
    assert functional_eval(phi, window, f) == oracle_functional(phi, window, f)


@given(raw_stepfns(values=table_points), windows, st.sets(table_points))
def test_measure_preimage(f, window, targets):
    assert measure_preimage(f, targets, window) == oracle_measure(f, frozenset(targets), window)


@given(raw_stepfns(values=table_points), raw_stepfns(values=table_points))
def test_d_hm_with_a_table_metric(f, g):
    assert d_hm(TABLE, f, g) == oracle_d_hm(TABLE, f, g)


@given(raw_stepfns(values=st.sampled_from((0, 1))), raw_stepfns(values=st.sampled_from((0, 1))))
def test_d_hm_with_the_discrete_metric(f, g):
    two = FiniteSpace((0, 1))
    assert d_hm(two, f, g) == oracle_d_hm(two, f, g)
