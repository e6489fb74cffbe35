"""Level-1 machinery: metric, coordinates, functor action, unit, support."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hmstep.core import (
    FULL_WINDOW,
    FiniteSpace,
    TestFn,
    Window,
    make_discrete_space,
    product_space,
)
from hmstep.hm import (
    SpaceMap,
    compose_testfn,
    d_hm,
    functional_eval,
    hm_map,
    product_projections,
    support,
    support_criterion_check,
    support_membership_check,
    unit,
)
from hmstep.stepfn import StepFn, canonicalize, constant, random_stepfn

from conftest import oracle_d_hm, oracle_functional, random_metric_space

K2 = make_discrete_space(2)
K3 = make_discrete_space(3)
TWO = FiniteSpace((0, 1))


def staircase(n: int) -> StepFn:
    return StepFn(tuple(Fraction(i, n) for i in range(n + 1)), tuple(range(1, n + 1)))


class TestDhm:
    def test_zero_on_same_class(self):
        f = staircase(2)
        split = StepFn((0, Fraction(1, 4), Fraction(1, 2), 1), (1, 1, 2))
        assert d_hm(K2, f, f) == 0
        assert d_hm(K2, f, split) == 0

    def test_staircase_vs_constant_is_half(self):
        # disagree exactly on [1/2, 1), where the discrete distance is 1
        assert d_hm(K2, staircase(2), unit(1, K2)) == Fraction(1, 2)

    def test_full_disagreement_is_one(self):
        assert d_hm(K2, unit(1, K2), unit(2, K2)) == 1

    def test_agrees_with_midpoint_oracle(self):
        rng = random.Random(21)
        for _ in range(150):
            space = random.Random(rng.random()).choice(
                [K2, K3, random_metric_space(rng, 4)]
            )
            f = random_stepfn(space, rng.randint(1, 10), rng)
            g = random_stepfn(space, rng.randint(1, 10), rng)
            assert d_hm(space, f, g) == oracle_d_hm(space, f, g)

    def test_rejects_foreign_values(self):
        with pytest.raises(ValueError):
            d_hm(K2, staircase(3), staircase(3))


class TestFunctionalEval:
    def test_constant_function_returns_value(self):
        phi = TestFn(K3, (Fraction(1, 2), 1, 0))
        for w in (FULL_WINDOW, Window(Fraction(1, 3), Fraction(2, 3))):
            assert functional_eval(phi, w, unit(1, K3)) == Fraction(1, 2)

    def test_staircase_indicator_average(self):
        for n in (2, 3, 5):
            space = make_discrete_space(n)
            f = staircase(n)
            ind = TestFn.indicator(space, 1)
            assert functional_eval(ind, FULL_WINDOW, f) == Fraction(1, n)

    def test_window_picks_out_pieces(self):
        f = staircase(2)
        ind2 = TestFn.indicator(K2, 2)
        w = Window(Fraction(1, 2), 1)
        assert functional_eval(ind2, w, f) == 1
        assert functional_eval(ind2, Window(0, Fraction(1, 2)), f) == 0

    def test_agrees_with_midpoint_oracle(self):
        rng = random.Random(31)
        for _ in range(150):
            f = random_stepfn(K3, rng.randint(1, 10), rng)
            phi = TestFn(
                K3, tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(3))
            )
            den = rng.randint(1, 10)
            i = rng.randint(0, den - 1)
            w = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            assert functional_eval(phi, w, f) == oracle_functional(phi, w, f)

    def test_linearity_lemma(self):
        rng = random.Random(41)
        for _ in range(100):
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            phi1 = TestFn(K3, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(3)))
            phi2 = TestFn(K3, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(3)))
            lam1, lam2 = Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2)
            w = FULL_WINDOW
            combo = phi1.scaled(lam1) + phi2.scaled(lam2)
            assert functional_eval(combo, w, f) == lam1 * functional_eval(phi1, w, f) + lam2 * functional_eval(
                phi2, w, f
            )

    def test_monotonicity_lemma(self):
        rng = random.Random(42)
        for _ in range(100):
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            phi1 = TestFn(K3, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(3)))
            delta = TestFn(K3, tuple(Fraction(rng.randint(0, 6), 3) for _ in range(3)))
            assert functional_eval(phi1, FULL_WINDOW, f) <= functional_eval(
                phi1 + delta, FULL_WINDOW, f
            )


class TestHmMap:
    def test_identity_map(self):
        f = staircase(3)
        assert hm_map(SpaceMap(K3, K3, K3.labels), f) == f

    def test_projecting_the_diagonal_staircase(self):
        p = product_space(K3, K3)
        pr1, pr2 = product_projections(p)
        grid = tuple(Fraction(i, 3) for i in range(4))
        diag = StepFn(grid, ((1, 1), (2, 2), (3, 3)))
        assert hm_map(pr1, diag) == staircase(3)
        assert hm_map(pr2, diag) == staircase(3)

    def test_collapsing_the_diagonal_staircase(self):
        # the equality collapse sends every diagonal pair to 1
        p = product_space(K3, K3)
        collapse = SpaceMap(p, TWO, tuple(1 if a == b else 0 for a, b in p.labels))
        grid = tuple(Fraction(i, 3) for i in range(4))
        diag = StepFn(grid, ((1, 1), (2, 2), (3, 3)))
        assert hm_map(collapse, diag) == unit(1, TWO)

    def test_merges_pieces_and_never_grows(self):
        to_one = SpaceMap(K3, make_discrete_space(1), (1, 1, 1))
        f = staircase(3)
        image = hm_map(to_one, f)
        assert image == constant(1)
        rng = random.Random(61)
        for _ in range(50):
            f = random_stepfn(K3, rng.randint(1, 10), rng)
            h = SpaceMap(K3, K2, tuple(rng.choice(K2.labels) for _ in K3.labels))
            assert hm_map(h, f).pieces <= canonicalize(f).pieces

    def test_functorial(self):
        rng = random.Random(62)
        for _ in range(50):
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            h = SpaceMap(K3, K2, tuple(rng.choice(K2.labels) for _ in K3.labels))
            g = SpaceMap(K2, TWO, tuple(rng.choice(TWO.labels) for _ in K2.labels))
            g_after_h = SpaceMap(K3, TWO, tuple(g(h(x)) for x in K3.labels))
            assert hm_map(g, hm_map(h, f)) == hm_map(g_after_h, f)
        assert hm_map(SpaceMap(K3, K3, K3.labels), staircase(3)) == staircase(3)

    def test_unit_naturality(self):
        h = SpaceMap(K3, K2, (1, 2, 2))
        for x in K3.labels:
            assert hm_map(h, unit(x, K3)) == unit(h(x), K2)

    def test_one_lipschitz_for_discrete_collapses(self):
        rng = random.Random(63)
        p = product_space(K2, K2)
        for _ in range(60):
            space = rng.choice([K2, K3, p])
            target = rng.choice([K2, K3, TWO])
            h = SpaceMap(space, target, tuple(rng.choice(target.labels) for _ in space.labels))
            f = random_stepfn(space, rng.randint(1, 8), rng)
            g = random_stepfn(space, rng.randint(1, 8), rng)
            assert d_hm(target, hm_map(h, f), hm_map(h, g)) <= d_hm(space, f, g)

    def test_coordinate_naturality(self):
        rng = random.Random(64)
        for _ in range(80):
            h = SpaceMap(K3, K2, tuple(rng.choice(K2.labels) for _ in K3.labels))
            phi = TestFn(K2, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(2)))
            den = rng.randint(1, 8)
            i = rng.randint(0, den - 1)
            w = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            assert functional_eval(phi, w, hm_map(h, f)) == functional_eval(
                compose_testfn(phi, h), w, f
            )

    def test_rejects_foreign_values(self):
        h = SpaceMap(K2, K3, (1, 2))
        with pytest.raises(ValueError):
            hm_map(h, staircase(3))


class TestUnit:
    def test_single_piece_constant(self):
        f = unit(2, K3)
        assert f.pieces == 1 and f.values == (2,)

    def test_unit_coordinate_law(self):
        rng = random.Random(71)
        for _ in range(60):
            x = rng.choice(K3.labels)
            phi = TestFn(K3, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)))
            den = rng.randint(1, 8)
            i = rng.randint(0, den - 1)
            w = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            assert functional_eval(phi, w, unit(x, K3)) == phi(x)

    def test_distinct_points_at_distance_of_the_base(self):
        rng = random.Random(72)
        space = random_metric_space(rng, 4)
        for x in space.labels:
            for y in space.labels:
                assert d_hm(space, unit(x, space), unit(y, space)) == space.distance(x, y)

    def test_rejects_foreign_point(self):
        with pytest.raises(ValueError):
            unit(7, K3)


class TestSupport:
    def test_staircase_support_is_everything(self):
        assert support(staircase(3)) == frozenset({1, 2, 3})

    def test_unit_support_is_singleton(self):
        assert support(unit(2, K3)) == frozenset({2})

    def test_zero_length_values_ignored(self):
        raw = StepFn((0, Fraction(1, 2), Fraction(1, 2), 1), (1, 3, 1))
        assert support(raw) == frozenset({1})

    def test_criterion_examples(self):
        f = staircase(3)
        assert support_criterion_check(K3, f, {1, 2, 3})
        assert not support_criterion_check(K3, f, {1, 2})
        assert support_criterion_check(K3, unit(1, K3), {1})
        assert support_criterion_check(K3, unit(1, K3), {1, 3})

    def test_criterion_rejects_empty_set(self):
        with pytest.raises(ValueError):
            support_criterion_check(K3, staircase(3), set())

    def test_criterion_agrees_with_piece_scan(self):
        rng = random.Random(81)
        for _ in range(200):
            f = random_stepfn(K3, rng.randint(1, 10), rng)
            b_set = frozenset(rng.sample(K3.labels, rng.randint(1, 3)))
            assert support_criterion_check(K3, f, b_set) == (support(f) <= b_set)

    def test_membership_examples(self):
        f = staircase(3)
        assert support_membership_check(K3, f, 2)
        assert not support_membership_check(K3, unit(1, K3), 2)

    def test_membership_agrees_with_piece_scan(self):
        rng = random.Random(82)
        for _ in range(200):
            f = random_stepfn(K3, rng.randint(1, 10), rng)
            x = rng.choice(K3.labels)
            assert support_membership_check(K3, f, x) == (x in support(f))


class TestSpaceMap:
    def test_total_and_validated(self):
        with pytest.raises(ValueError):
            SpaceMap(K3, K2, (1, 2))
        with pytest.raises(ValueError):
            SpaceMap(K3, K2, (1, 2, 9))
