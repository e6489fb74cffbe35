"""Exact arithmetic, finite metric spaces, test functions, windows."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hmstep.core import (
    FULL_WINDOW,
    FiniteSpace,
    TestFn,
    Window,
    as_rat,
    make_discrete_space,
    product_space,
    validate_metric,
)

from conftest import random_metric_space

rats = st.fractions(max_denominator=64)


class TestRatArithmetic:
    def test_example_values(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(1, 2) - Fraction(1, 2) == 0
        assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
        assert Fraction(1, 3) / Fraction(2, 3) == Fraction(1, 2)
        assert min(Fraction(1, 3), Fraction(1, 4)) == Fraction(1, 4)
        assert max(Fraction(1, 3), Fraction(1, 4)) == Fraction(1, 3)
        assert abs(Fraction(-3, 7)) == Fraction(3, 7)
        assert Fraction(1, 3) < Fraction(1, 2) < Fraction(2, 3)

    def test_always_reduced(self):
        q = Fraction(6, -8)
        assert (q.numerator, q.denominator) == (-3, 4)

    @given(rats, rats, rats)
    def test_field_laws_exact(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0
        if y != 0:
            assert (x / y) * y == x

    def test_as_rat_parsing(self):
        assert as_rat("3/4") == Fraction(3, 4)
        assert as_rat(2) == Fraction(2)
        assert as_rat(Fraction(1, 2)) == Fraction(1, 2)

    def test_as_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rat(0.5)


class TestDiscreteSpace:
    def test_two_points(self):
        k2 = make_discrete_space(2)
        assert k2.labels == (1, 2)
        assert k2.distance(1, 2) == 1
        assert k2.distance(1, 1) == 0

    def test_single_point(self):
        k1 = make_discrete_space(1)
        assert k1.n == 1 and k1.distance(1, 1) == 0

    def test_labels_override(self):
        d = FiniteSpace((0, 1))
        assert d.labels == (0, 1)
        assert d.distance(0, 1) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_discrete_space(0)

    def test_membership_and_index(self):
        k3 = make_discrete_space(3)
        assert 2 in k3 and 5 not in k3
        with pytest.raises(ValueError):
            k3.index_of(5)


class TestFiniteSpaceValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FiniteSpace((1, 2), ((0, Fraction(1, 2)), (Fraction(1, 3), 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            FiniteSpace((1,), ((Fraction(1, 2),),))

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(ValueError):
            FiniteSpace((1, 2), ((0, 0), (0, 0)))

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            FiniteSpace((1, 2), ((0, 2), (2, 0)))

    def test_validator_catches_broken_triangle(self):
        # the pairwise axioms hold and the triangle inequality does not:
        # construction refuses the table, like every other axiom
        q = Fraction(1, 4)
        with pytest.raises(ValueError, match="triangle inequality"):
            FiniteSpace((1, 2, 3), ((0, 1, q), (1, 0, q), (q, q, 0)))

    def test_validator_passes_discrete_exhaustively(self):
        for n in range(1, 7):
            validate_metric(make_discrete_space(n))

    def test_validator_passes_random_spaces(self):
        rng = random.Random(11)
        for _ in range(25):
            validate_metric(random_metric_space(rng, rng.randint(2, 5)))


class TestProductSpace:
    def test_labels_and_max_metric(self):
        k2 = make_discrete_space(2)
        p = product_space(k2, k2)
        assert p.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert p.distance((1, 1), (1, 2)) == 1
        assert p.distance((1, 1), (2, 2)) == 1
        assert p.distance((1, 2), (1, 2)) == 0

    def test_max_of_component_distances(self):
        rng = random.Random(5)
        x = random_metric_space(rng, 3)
        y = random_metric_space(rng, 2)
        p = product_space(x, y)
        for a, b in p.labels:
            for c, d in p.labels:
                assert p.distance((a, b), (c, d)) == max(
                    x.distance(a, c), y.distance(b, d)
                )

    def test_product_is_a_metric(self):
        rng = random.Random(6)
        for _ in range(10):
            x = random_metric_space(rng, rng.randint(1, 4))
            y = random_metric_space(rng, rng.randint(1, 4))
            validate_metric(product_space(x, y))
        validate_metric(product_space(make_discrete_space(3), make_discrete_space(3)))


class TestTestFn:
    def test_call_and_combinators(self):
        k3 = make_discrete_space(3)
        phi = TestFn(k3, (Fraction(1, 2), 0, 1))
        assert phi(1) == Fraction(1, 2)
        assert phi.scaled(2)(1) == 1
        psi = phi + TestFn(k3, (Fraction(1, 2),) * k3.n)
        assert psi(2) == Fraction(1, 2)

    def test_indicator(self):
        k3 = make_discrete_space(3)
        ind = TestFn.indicator(k3, 2)
        assert ind(2) == 1 and ind(1) == 0 and ind(3) == 0

    def test_shape_checked(self):
        k2 = make_discrete_space(2)
        with pytest.raises(ValueError):
            TestFn(k2, (Fraction(1),))
        with pytest.raises(ValueError):
            TestFn(k2, (1, 2)) + TestFn(make_discrete_space(3), (1, 2, 3))


class TestWindow:
    def test_full_window(self):
        assert FULL_WINDOW.a == 0 and FULL_WINDOW.b == 1 and FULL_WINDOW.length == 1

    def test_endpoints_zero_one_permitted(self):
        w = Window(0, Fraction(1, 3))
        assert w.length == Fraction(1, 3)
        Window(Fraction(2, 3), 1)

    def test_rejects_degenerate_and_out_of_range(self):
        with pytest.raises(ValueError):
            Window(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            Window(Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(ValueError):
            Window(Fraction(-1, 4), Fraction(1, 2))
        with pytest.raises(ValueError):
            Window(Fraction(1, 2), Fraction(5, 4))
