"""Structural product spaces and rule-form point maps against dense references.

``product_space`` of two table-free factors answers membership, ``index_of``,
``n`` and ``distance`` from its factors and builds its row-major ``labels``
only when asked. The reference here is built in the test from the factors'
label lists: an explicit ``FiniteSpace`` over the row-major pairs with its
0/1 table written out entry by entry. Products nest, and factors carry the
default, shifted or string labels. A product with a table factor keeps its
dense max table, which the test writes out from the factors' distances.

The projections and the equality collapse of ``build_witnesses`` are rule
maps; each is compared with the tuple-form ``SpaceMap`` built from the pair
labels, through ``__call__``, ``assignment``, composition, ``compose_testfn``
and the level-1 and level-2 functor actions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmstep.core import FiniteSpace, TestFn, make_discrete_space, product_space, validate_metric
from hmstep.hm import SpaceMap, compose_testfn, hm_map, pairing, product_projections
from hmstep.laws import build_witnesses, default_spaces, staircase_fn
from hmstep.stepfn import random_stepfn
from hmstep.tower import h2_map, random_stepfn2

from conftest import random_metric_space


def _labels(n: int, choice: str) -> tuple:
    if choice == "shifted":
        return tuple(range(10, 10 + n))
    if choice == "strings":
        return tuple(f"p{i}" for i in range(n))
    return tuple(range(1, n + 1))


@st.composite
def discrete_factors(draw):
    n = draw(st.integers(1, 3))
    choice = draw(st.sampled_from(("default", "shifted", "strings")))
    labels = _labels(n, choice)
    space = make_discrete_space(n) if choice == "default" else FiniteSpace(labels)
    return space, labels


@st.composite
def product_trees(draw, leaves: int):
    """(space, reference labels) for a tree of products over ``leaves`` discrete factors."""
    if leaves == 1:
        return draw(discrete_factors())
    k = draw(st.integers(1, leaves - 1))
    (x, xs), (y, ys) = draw(product_trees(k)), draw(product_trees(leaves - k))
    return product_space(x, y), tuple((a, b) for a in xs for b in ys)


products = st.integers(2, 3).flatmap(product_trees)


def _dense(labels: tuple) -> FiniteSpace:
    n = len(labels)
    return FiniteSpace(labels, tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)))


def _non_points(labels: tuple) -> list:
    """Hashable values that are not points: wrong lengths, non-tuples, and
    pairs with one coordinate outside its factor, at every nesting level."""
    a, b = labels[0]
    out = [(a,), (a, b, a), a, "ab", 7.5, None, ("outside", b), (a, "outside"), ((a, b), (a, b))]
    if isinstance(a, tuple):
        out += [((a[0], "outside"), b), ((a[0],), b)]
    if isinstance(b, tuple):
        out += [(a, ("outside", b[1])), (a, (b[1], b[0], b[1]))]
    return [x for x in out if x not in set(labels)]


@settings(max_examples=60, deadline=None)
@given(products)
def test_structural_product_matches_dense_reference(case):
    p, labels = case
    ref = _dense(labels)
    assert p.dist is None
    assert p.labels == ref.labels == labels
    assert p.n == ref.n == len(labels)
    for x in labels:
        assert x in p
        assert p.index_of(x) == ref.index_of(x)
        for y in labels:
            assert p.distance(x, y) == ref.distance(x, y)
    for bad in _non_points(labels):
        assert bad not in p
        with pytest.raises(ValueError):
            p.index_of(bad)
        with pytest.raises(ValueError):
            p.distance(bad, labels[0])
    validate_metric(p)


def _rebuild(space: FiniteSpace) -> FiniteSpace:
    """The same product built again from fresh, equal factors."""
    if hasattr(space, "factors"):
        return product_space(*map(_rebuild, space.factors))
    return FiniteSpace(space.labels)


@settings(max_examples=60, deadline=None)
@given(products)
def test_structural_product_equality_and_hash(case):
    p, labels = case
    explicit = FiniteSpace(labels)
    assert p == explicit and explicit == p
    assert hash(p) == hash(explicit)
    again = _rebuild(p)
    assert again is not p and again == p and hash(again) == hash(p)
    assert p != _dense(labels)
    assert p != FiniteSpace(labels[::-1]) or len(labels) == 1


def test_index_of_refuses_non_points_unhashables_included():
    k2 = make_discrete_space(2)
    p = product_space(k2, k2)
    for bad in ([1, 2], {1: 2}, ([1], 2), (1, 2, 3), (1,), (3, 1), (1, 3), "12"):
        with pytest.raises(ValueError):
            p.index_of(bad)


def test_membership_answers_false_for_unhashables():
    k2 = make_discrete_space(2)
    p = product_space(k2, k2)
    nested = product_space(p, k2)
    for space, bad in ((k2, [1, 2]), (p, ([1], 2)), (p, (1, [2])), (nested, (([1], 2), 1)), (nested, ((1, {2}), 1))):
        assert bad not in space
        with pytest.raises(ValueError):
            space.index_of(bad)
    assert ((1, 2), 1) in nested


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_table_factor_keeps_the_dense_max_table(rng):
    table = random_metric_space(rng, rng.randint(1, 4))
    k = rng.randint(1, 3)
    discrete = FiniteSpace(("a", "b", "c")[:k])
    for x, y in ((discrete, table), (table, discrete), (table, table)):
        p = product_space(x, y)
        labels = tuple((a, b) for a in x.labels for b in y.labels)
        rows = tuple(tuple(max(x.distance(a, c), y.distance(b, d)) for c, d in labels) for a, b in labels)
        assert p.labels == labels and p.dist == rows
        assert p == FiniteSpace(labels, rows) and hash(p) == hash(FiniteSpace(labels, rows))
        assert p != FiniteSpace(labels)
        validate_metric(p)


def test_default_pool_product_is_structural():
    two = make_discrete_space(2)
    p = default_spaces()[4]
    assert p == product_space(two, two) and p.dist is None and p.factors == (two, two)
    assert [p.index_of(x) for x in p.labels] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# rule maps


def _tuple_forms(w) -> list[tuple[SpaceMap, SpaceMap]]:
    labels = w.pairs.labels
    return [
        (w.left_proj, SpaceMap(w.pairs, w.base, tuple(a for a, _ in labels))),
        (w.right_proj, SpaceMap(w.pairs, w.base, tuple(b for _, b in labels))),
        (w.equality_collapse, SpaceMap(w.pairs, w.two_point, tuple(1 if a == b else 0 for a, b in labels))),
    ]


def _after(g, h):
    """The composite g ∘ h as a tuple map, read from h's assignment."""
    assert h.target == g.source
    return SpaceMap(h.source, g.target, tuple(map(g, h.assignment)))


@pytest.mark.parametrize("n", range(1, 7))
def test_rule_maps_agree_with_tuple_maps(n):
    w = build_witnesses(n)
    rng = random.Random(n)
    into_pairs = SpaceMap(make_discrete_space(4), w.pairs, tuple(rng.choice(w.pairs.labels) for _ in range(4)))
    for rule, tup in _tuple_forms(w):
        assert [rule(x) for x in w.pairs.labels] == [tup(x) for x in w.pairs.labels]
        assert rule.assignment == tup.assignment
        for bad in ((0, 1), (1, n + 1), (1,), (1, 1, 1), 1, "11"):
            with pytest.raises(ValueError):
                rule(bad)
        phi = TestFn(rule.target, tuple(rng.randint(-3, 3) for _ in rule.target.labels))
        assert compose_testfn(phi, rule) == compose_testfn(phi, tup)
        out = SpaceMap(rule.target, make_discrete_space(3), tuple(rng.randint(1, 3) for _ in rule.target.labels))
        assert _after(out, rule) == _after(out, tup)
        assert _after(rule, into_pairs) == _after(tup, into_pairs)
        for f in (w.diagonal_staircase, *w.nested_rows.values, random_stepfn(w.pairs, 7, rng)):
            assert hm_map(rule, f) == hm_map(tup, f)
        F = random_stepfn2(w.pairs, 3, 4, rng)
        assert h2_map(rule, F) == h2_map(tup, F)
        assert h2_map(rule, w.nested_rows) == h2_map(tup, w.nested_rows)
    collapse = w.equality_collapse
    assert h2_map(collapse, w.nested_rows) == w.nested_bumps
    assert hm_map(w.left_proj, w.diagonal_staircase) == staircase_fn(n)
    assert hm_map(w.right_proj, pairing(staircase_fn(n), staircase_fn(n))) == staircase_fn(n)


def test_tuple_constructor_still_validates():
    w = build_witnesses(3)
    with pytest.raises(ValueError):
        SpaceMap(w.pairs, w.two_point, (2,) * 9)
    with pytest.raises(ValueError):
        SpaceMap(w.pairs, w.two_point, (0,) * 8)
    with pytest.raises(ValueError):
        SpaceMap(w.pairs, w.base, tuple(w.pairs.labels))


def test_projections_need_the_product_of_their_factors():
    k2, k3 = make_discrete_space(2), make_discrete_space(3)
    p = product_space(k2, k3)
    left, right = product_projections(p)
    assert (left.target, right.target) == (k2, k3)
    with pytest.raises(ValueError):
        product_projections(FiniteSpace(p.labels))
