"""Nested step functions: the two unit nestings, flattening, level-2 metric."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hmstep.core import FULL_WINDOW, FiniteSpace, TestFn, Window, make_discrete_space, product_space
from hmstep.hm import SpaceMap, d_hm, hm_map, product_projections, unit
from hmstep.stepfn import StepFn, canonicalize, constant, evaluate, random_stepfn
from hmstep.tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    MuCandidate,
    d_hm2,
    diagonal_flatten,
    eta_h,
    h2_map,
    h_eta,
    iterated_functional_eval,
    random_stepfn2,
    random_stepfn3,
)

from conftest import oracle_d_hm2

K2 = make_discrete_space(2)
K3 = make_discrete_space(3)
TWO = FiniteSpace((0, 1))


def block_grid(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(i, n) for i in range(n + 1))


def staircase(n: int) -> StepFn:
    return StepFn(block_grid(n), tuple(range(1, n + 1)))


def bump(i: int, n: int) -> StepFn:
    # two-point indicator of block i: 1 there, 0 elsewhere
    return canonicalize(
        StepFn((0, Fraction(i - 1, n), Fraction(i, n), 1), (0, 1, 0))
    )


def row_staircase(i: int, n: int) -> StepFn:
    return StepFn(block_grid(n), tuple((i, j) for j in range(1, n + 1)))


def nested_rows(n: int) -> StepFn:
    return StepFn(block_grid(n), tuple(row_staircase(i, n) for i in range(1, n + 1)))


def nested_bumps(n: int) -> StepFn:
    return canonicalize(StepFn(block_grid(n), tuple(bump(i, n) for i in range(1, n + 1))))


def diagonal_staircase(n: int) -> StepFn:
    return StepFn(block_grid(n), tuple((i, i) for i in range(1, n + 1)))


class TestNestings:
    def test_h_eta_wraps_each_value(self):
        F = h_eta(staircase(2))
        assert F.breakpoints == block_grid(2)
        assert F.values == (constant(1), constant(2))

    def test_eta_h_wraps_the_whole_function(self):
        F = eta_h(staircase(2))
        assert F.pieces == 1
        assert F.values == (staircase(2),)

    def test_both_agree_on_units(self):
        assert h_eta(unit(1, K2)) == eta_h(unit(1, K2))

    def test_nested_checker_rejects_plain_functions(self):
        with pytest.raises((TypeError, ValueError, AssertionError)):
            diagonal_flatten(staircase(2))


class TestH2Map:
    def test_projections_of_nested_rows(self):
        # first coordinate is constant per row, second sweeps the staircase
        p = product_space(K3, K3)
        pr1, pr2 = product_projections(p)
        A = nested_rows(3)
        assert h2_map(pr1, A) == h_eta(staircase(3))
        assert h2_map(pr2, A) == eta_h(staircase(3))

    def test_collapse_of_nested_rows_is_nested_bumps(self):
        p = product_space(K3, K3)
        collapse = SpaceMap(p, TWO, tuple(1 if a == b else 0 for a, b in p.labels))
        assert h2_map(collapse, nested_rows(3)) == nested_bumps(3)

    def test_commutes_with_flattening(self):
        rng = random.Random(11)
        h = SpaceMap(K3, K2, (1, 2, 2))
        for _ in range(60):
            F = random_stepfn2(K3, rng.randint(1, 5), 5, rng)
            assert hm_map(h, diagonal_flatten(F)) == diagonal_flatten(h2_map(h, F))


class TestDiagonalFlatten:
    def test_flattening_nested_rows_gives_the_diagonal(self):
        for n in (1, 2, 3, 5):
            assert diagonal_flatten(nested_rows(n)) == diagonal_staircase(n)

    def test_flattening_nested_bumps_gives_constant_one(self):
        for n in (1, 2, 3, 5):
            assert diagonal_flatten(nested_bumps(n)) == unit(1, TWO)

    def test_unit_laws_pointwise(self):
        rng = random.Random(12)
        for _ in range(80):
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            assert diagonal_flatten(h_eta(f)) == canonicalize(f)
            assert diagonal_flatten(eta_h(f)) == canonicalize(f)

    def test_diagonal_reads_inner_value_at_the_outer_time(self):
        rng = random.Random(13)
        for _ in range(60):
            F = random_stepfn2(K3, rng.randint(1, 5), 5, rng)
            flat = diagonal_flatten(F)
            for t in (Fraction(k, 16) for k in range(16)):
                inner = evaluate(F, t)
                assert evaluate(flat, t) == evaluate(inner, t)


class TestDhm2:
    def test_nested_bumps_approach_the_constant_zero_unit(self):
        limit = eta_h(unit(0, TWO))
        for n in (1, 2, 4, 8):
            assert d_hm2(TWO, nested_bumps(n), limit) == Fraction(1, n)

    def test_the_two_nestings_of_a_staircase(self):
        F, G = eta_h(staircase(2)), h_eta(staircase(2))
        assert d_hm2(K2, F, G) == Fraction(1, 2)

    def test_agrees_with_midpoint_oracle(self):
        rng = random.Random(14)
        for _ in range(80):
            F = random_stepfn2(K3, rng.randint(1, 4), 4, rng)
            G = random_stepfn2(K3, rng.randint(1, 4), 4, rng)
            assert d_hm2(K3, F, G) == oracle_d_hm2(K3, F, G)

    def test_zero_iff_same_class(self):
        F = nested_rows(2)
        G = StepFn(
            (0, Fraction(1, 4), Fraction(1, 2), 1),
            (row_staircase(1, 2), row_staircase(1, 2), row_staircase(2, 2)),
        )
        p = product_space(K2, K2)
        assert d_hm2(p, F, G) == 0
        assert d_hm2(p, F, nested_rows(2)) == 0


class TestIteratedFunctional:
    def test_h_eta_reduces_to_outer_average(self):
        # inner functions are constants, so the inner window is irrelevant
        rng = random.Random(15)
        from hmstep.hm import functional_eval

        for _ in range(60):
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            phi = TestFn(K3, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(3)))
            den = rng.randint(1, 6)
            i = rng.randint(0, den - 1)
            outer = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            inner = Window(Fraction(1, 3), Fraction(2, 3))
            assert iterated_functional_eval(phi, inner, outer, h_eta(f)) == functional_eval(
                phi, outer, f
            )

    def test_eta_h_reduces_to_inner_average(self):
        rng = random.Random(16)
        from hmstep.hm import functional_eval

        for _ in range(60):
            f = random_stepfn(K3, rng.randint(1, 8), rng)
            phi = TestFn(K3, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(3)))
            den = rng.randint(1, 6)
            i = rng.randint(0, den - 1)
            inner = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            outer = Window(Fraction(1, 4), Fraction(3, 4))
            assert iterated_functional_eval(phi, inner, outer, eta_h(f)) == functional_eval(
                phi, inner, f
            )

    def test_nested_bumps_full_window_coordinate(self):
        ident = TestFn(TWO, (Fraction(0), Fraction(1)))
        for n in (1, 2, 4, 8):
            got = iterated_functional_eval(ident, FULL_WINDOW, FULL_WINDOW, nested_bumps(n))
            assert got == Fraction(1, n)

    def test_unit_interval_functionals_are_lipschitz(self):
        rng = random.Random(17)
        for _ in range(80):
            phi = TestFn(K3, tuple(Fraction(rng.randint(0, 12), 12) for _ in range(3)))
            den = rng.randint(1, 4)
            i = rng.randint(0, den - 1)
            inner = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            den = rng.randint(1, 4)
            i = rng.randint(0, den - 1)
            outer = Window(Fraction(i, den), Fraction(rng.randint(i + 1, den), den))
            F = random_stepfn2(K3, rng.randint(1, 4), 4, rng)
            G = random_stepfn2(K3, rng.randint(1, 4), 4, rng)
            lhs = abs(
                iterated_functional_eval(phi, inner, outer, F)
                - iterated_functional_eval(phi, inner, outer, G)
            )
            # window averages dilute by at most the inverse window lengths
            assert lhs * (inner.b - inner.a) * (outer.b - outer.a) <= d_hm2(K3, F, G)


class TestMuCandidates:
    def test_diagonal_associativity(self):
        rng = random.Random(18)
        for _ in range(40):
            F3 = random_stepfn3(K2, rng.randint(1, 3), 3, 3, rng)
            assert DIAGONAL(diagonal_flatten(F3)) == DIAGONAL(DIAGONAL.lift(F3))

    def test_diagonal_naturality(self):
        rng = random.Random(19)
        for _ in range(60):
            F = random_stepfn2(K3, rng.randint(1, 5), 5, rng)
            h = SpaceMap(K3, K2, tuple(rng.choice(K2.labels) for _ in K3.labels))
            assert hm_map(h, DIAGONAL(F)) == DIAGONAL(h2_map(h, F))

    def test_lift_applies_per_outer_piece(self):
        F3 = StepFn(block_grid(2), (h_eta(staircase(2)), eta_h(staircase(2))))
        lifted = DIAGONAL.lift(F3)
        assert lifted == canonicalize(
            StepFn(block_grid(2), (staircase(2), staircase(2)))
        )

    def test_constant_left_forgets_later_pieces(self):
        F = StepFn(block_grid(2), (constant(1), constant(2)))
        assert CONSTANT_LEFT(F) == constant(1)
        assert CONSTANT_LEFT(h_eta(staircase(2))) == constant(1)

    def test_constant_left_breaks_a_unit_law(self):
        f = staircase(2)
        assert CONSTANT_LEFT(h_eta(f)) != canonicalize(f)

    def test_remap_last_rewrites_the_final_piece(self):
        F = h_eta(staircase(3))
        assert REMAP_LAST(F) == StepFn(block_grid(3), (1, 2, 1))

    def test_remap_last_breaks_naturality(self):
        # send the first and last staircase values to the same point and the
        # remap becomes visible on one side only
        F = h_eta(staircase(3))
        h = SpaceMap(K3, K2, (1, 2, 2))
        assert hm_map(h, REMAP_LAST(F)) != REMAP_LAST(h2_map(h, F))

    def test_candidates_canonicalize_their_output(self):
        F = StepFn(
            (0, Fraction(1, 2), 1),
            (constant(1), StepFn((0, Fraction(1, 2), 1), (1, 1))),
        )
        out = DIAGONAL(F)
        assert canonicalize(out) is out and out == constant(1)

    def test_custom_candidate_roundtrip(self):
        mu = MuCandidate("diag-again", diagonal_flatten)
        F = nested_rows(2)
        assert mu(F) == DIAGONAL(F)


class TestRandomNested:
    def test_deterministic_and_well_formed(self):
        F1 = random_stepfn2(K3, 4, 5, 101)
        F2 = random_stepfn2(K3, 4, 5, 101)
        assert F1 == F2
        for _, _, g in F1.segments():
            assert isinstance(g, StepFn)

    def test_level3_values_are_nested(self):
        F3 = random_stepfn3(K2, 3, 3, 3, 7)
        for _, _, G in F3.segments():
            assert isinstance(G, StepFn)
            for _, _, g in G.segments():
                assert isinstance(g, StepFn)
