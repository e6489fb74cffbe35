"""Step functions: canonical form, refinement, evaluation, measure,
generation, serialization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hmstep.core import FULL_WINDOW, FiniteSpace, Window, make_discrete_space, product_space
from hmstep.stepfn import (
    RefinementCell,
    StepFn,
    canonicalize,
    common_refinement,
    constant,
    evaluate,
    format_stepfn,
    measure_preimage,
    parse_stepfn,
    random_stepfn,
)

from conftest import oracle_measure

K3 = make_discrete_space(3)


def staircase(n: int) -> StepFn:
    return StepFn(
        tuple(Fraction(i, n) for i in range(n + 1)), tuple(range(1, n + 1))
    )


@st.composite
def stepfns(draw, labels=(1, 2, 3), max_grid=8):
    g = draw(st.integers(1, max_grid))
    vals = draw(st.lists(st.sampled_from(labels), min_size=g, max_size=g))
    bps = tuple(Fraction(k, g) for k in range(g + 1))
    return StepFn(bps, tuple(vals))


class TestConstruction:
    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            StepFn((0,), ())
        with pytest.raises(ValueError):
            StepFn((0, 1), (1, 2))
        with pytest.raises(ValueError):
            StepFn((Fraction(1, 4), 1), (1,))
        with pytest.raises(ValueError):
            StepFn((0, Fraction(3, 4)), (1,))
        with pytest.raises(ValueError):
            StepFn((0, Fraction(2, 3), Fraction(1, 3), 1), (1, 2, 3))

    def test_admits_mergeable_and_zero_length(self):
        raw = StepFn((0, Fraction(1, 3), Fraction(1, 3), 1), (1, 2, 1))
        assert canonicalize(raw) is not raw

    def test_breakpoints_coerced_to_rationals(self):
        f = StepFn((0, "1/2", 1), (1, 2))
        assert f.breakpoints == (Fraction(0), Fraction(1, 2), Fraction(1))


class TestCanonicalize:
    def test_merges_equal_neighbours(self):
        f = StepFn((0, Fraction(1, 3), Fraction(2, 3), 1), (1, 1, 2))
        c = canonicalize(f)
        assert c.breakpoints == (0, Fraction(2, 3), 1)
        assert c.values == (1, 2)

    def test_drops_zero_length_pieces(self):
        f = StepFn((0, Fraction(1, 3), Fraction(1, 3), 1), (1, 2, 1))
        c = canonicalize(f)
        assert c.breakpoints == (0, 1) and c.values == (1,)

    def test_constant_untouched(self):
        assert canonicalize(constant(1)) == constant(1)

    @given(stepfns())
    def test_idempotent_and_canonical(self, f):
        c = canonicalize(f)
        assert canonicalize(c) is c
        assert canonicalize(c) == c

    @given(stepfns())
    def test_preserves_pointwise_values(self, f):
        c = canonicalize(f)
        for t0, t1, _ in f.segments():
            if t1 > t0:
                mid = (t0 + t1) / 2
                assert evaluate(c, mid) == evaluate(f, mid)

    def test_ae_equality_iff_canonical_equality(self):
        f = staircase(2)
        split = StepFn((0, Fraction(1, 4), Fraction(1, 2), 1), (1, 1, 2))
        assert canonicalize(split) == canonicalize(f)
        other = StepFn((0, Fraction(1, 2), 1), (2, 1))
        assert canonicalize(other) != canonicalize(f)


class TestEvaluate:
    def test_staircase_two(self):
        f = staircase(2)
        assert evaluate(f, 0) == 1
        assert evaluate(f, Fraction(1, 4)) == 1
        assert evaluate(f, Fraction(1, 2)) == 2  # breakpoint takes right piece

    def test_staircase_three_at_one_third(self):
        assert evaluate(staircase(3), Fraction(1, 3)) == 2

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            evaluate(constant(1), 1)
        with pytest.raises(ValueError):
            evaluate(constant(1), Fraction(-1, 2))

    def test_skips_zero_length_pieces(self):
        raw = StepFn((0, Fraction(1, 3), Fraction(1, 3), 1), (1, 9, 2))
        assert evaluate(raw, Fraction(1, 3)) == 2


class TestCommonRefinement:
    def test_example_cells(self):
        f = StepFn((0, Fraction(1, 2), 1), (1, 2))
        g = StepFn((0, Fraction(1, 3), 1), (5, 6))
        cells = common_refinement(f, g)
        assert [c.end - c.start for c in cells] == [
            Fraction(1, 3),
            Fraction(1, 6),
            Fraction(1, 2),
        ]
        assert cells[0] == RefinementCell(0, Fraction(1, 3), 1, 5)
        assert cells[1] == RefinementCell(Fraction(1, 3), Fraction(1, 2), 1, 6)
        assert cells[2] == RefinementCell(Fraction(1, 2), 1, 2, 6)

    def test_constants_give_single_cell(self):
        assert common_refinement(constant(1), constant(2)) == [
            RefinementCell(0, 1, 1, 2)
        ]

    @given(stepfns(), stepfns())
    def test_partition_properties(self, f, g):
        cells = common_refinement(f, g)
        assert sum((c.end - c.start for c in cells), Fraction(0)) == 1
        assert all(c.end > c.start for c in cells)
        assert cells[0].start == 0 and cells[-1].end == 1
        for a, b in zip(cells, cells[1:]):
            assert a.end == b.start
        fc, gc = canonicalize(f), canonicalize(g)
        assert len(cells) <= fc.pieces + gc.pieces - 1

    @given(stepfns(), stepfns())
    def test_cells_carry_the_functions_values(self, f, g):
        for c in common_refinement(f, g):
            mid = (c.start + c.end) / 2
            assert evaluate(f, mid) == c.left
            assert evaluate(g, mid) == c.right


class TestMeasurePreimage:
    def test_staircase_single_level(self):
        f = staircase(4)
        assert measure_preimage(f, {2}, FULL_WINDOW) == Fraction(1, 4)
        assert measure_preimage(f, {1, 2, 3, 4}, FULL_WINDOW) == 1
        assert measure_preimage(f, {9}, FULL_WINDOW) == 0

    def test_restricted_window(self):
        f = staircase(2)
        w = Window(Fraction(1, 4), Fraction(3, 4))
        assert measure_preimage(f, {1}, w) == Fraction(1, 4)
        assert measure_preimage(f, {2}, w) == Fraction(1, 4)

    def test_additive_over_disjoint_value_sets(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_stepfn(K3, rng.randint(1, 10), rng)
            w = Window(Fraction(1, 8), Fraction(7, 8))
            total = sum(
                (measure_preimage(f, {x}, w) for x in K3.labels), Fraction(0)
            )
            assert total == w.length

    def test_agrees_with_midpoint_oracle(self):
        rng = random.Random(4)
        for _ in range(100):
            f = random_stepfn(K3, rng.randint(1, 10), rng)
            targets = frozenset(rng.sample(K3.labels, rng.randint(1, 3)))
            den = rng.randint(1, 8)
            i = rng.randint(0, den - 1)
            w = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            assert measure_preimage(f, targets, w) == oracle_measure(f, targets, w)


class TestRandomStepFn:
    def test_deterministic_for_fixed_seed(self):
        a = random_stepfn(K3, 7, 123)
        b = random_stepfn(K3, 7, 123)
        assert a == b

    def test_grid_one_gives_constant(self):
        f = random_stepfn(K3, 1, 9)
        assert f.pieces == 1

    def test_respects_grid_bound_and_domain(self):
        for seed in range(30):
            f = random_stepfn(K3, 4, seed)
            assert canonicalize(f) is f
            assert f.pieces <= 4
            assert all(t.denominator in (1, 2, 4) for t in f.breakpoints)
            assert set(f.values) <= set(K3.labels)

    def test_sequence_domain(self):
        f = random_stepfn(FiniteSpace(("a", "b")), 4, 2)
        assert set(f.values) <= {"a", "b"}

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            random_stepfn(K3, 0, 1)


class TestSerialization:
    def test_format_example(self):
        f = StepFn((0, Fraction(1, 2), 1), (1, 2))
        assert format_stepfn(f) == "0 1 1/2 2 1"

    def test_parse_inverts_format(self):
        f = staircase(3)
        assert parse_stepfn(format_stepfn(f)) == f

    def test_pair_labels_round_trip(self):
        p = product_space(make_discrete_space(2), make_discrete_space(2))
        f = StepFn((0, Fraction(1, 2), 1), ((1, 2), (2, 1)))
        text = format_stepfn(f)
        assert text == "0 (1,2) 1/2 (2,1) 1"
        assert parse_stepfn(text) == f
        assert all(v in p for v in parse_stepfn(text).values)

    def test_nested_round_trip(self):
        inner1 = StepFn((0, Fraction(1, 2), 1), (1, 2))
        inner2 = constant(2)
        outer = StepFn((0, Fraction(1, 2), 1), (inner1, inner2))
        text = format_stepfn(outer)
        assert text == "0 [0 1 1/2 2 1] 1/2 [0 2 1] 1"
        assert parse_stepfn(text) == outer

    def test_doubly_nested_round_trip(self):
        inner = StepFn((0, Fraction(1, 3), 1), (1, 2))
        level2 = StepFn((0, Fraction(1, 2), 1), (inner, constant(1)))
        level3 = StepFn((0, Fraction(1, 4), 1), (level2, constant(constant(2))))
        assert parse_stepfn(format_stepfn(level3)) == level3

    @given(stepfns())
    def test_random_round_trip(self, f):
        assert parse_stepfn(format_stepfn(f)) == f

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_stepfn("0 1")
        with pytest.raises(ValueError):
            parse_stepfn("")


def test_a_built_stepfn_cannot_be_rewritten():
    # the validation hook is public by name; calling it again must not change
    # the values, and so the hash, of a function a set already holds
    f = StepFn((0, 1), (1,))
    held = {f}
    with pytest.raises(AttributeError):
        f.__post_init__((0, "1/2", 1), (7, 8))
    assert (f.den, f.ticks, f.values) == (1, (0, 1), (1,))
    assert f in held and f == StepFn((0, 1), (1,))
