"""Table-free discrete spaces against explicit distance tables.

``make_discrete_space`` stores no table: ``FiniteSpace.distance`` answers 0
or 1 from the labels. ``product_space`` of two such spaces is again
table-free, since the max of two 0/1 metrics is the 0/1 metric; with a
table factor it builds the max table. The oracle here is an explicit
``FiniteSpace`` whose table is written out entry by entry.
"""

from __future__ import annotations

import random

import pytest

from hmstep.core import FiniteSpace, make_discrete_space, product_space, validate_metric
from hmstep.laws import forced_value_chain
from hmstep.tower import DIAGONAL

from conftest import random_metric_space

LABEL_CHOICES = (None, "shifted", "strings")


def _labels(n: int, choice: str | None) -> tuple | None:
    if choice == "shifted":
        return tuple(range(10, 10 + n))
    if choice == "strings":
        return tuple(f"p{i}" for i in range(n))
    return None


def _explicit_discrete(labels: tuple) -> FiniteSpace:
    n = len(labels)
    return FiniteSpace(labels, tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)))


def _assert_same_distances(space: FiniteSpace, oracle) -> None:
    for x in space.labels:
        for y in space.labels:
            assert space.distance(x, y) == oracle(x, y)


@pytest.mark.parametrize("choice", LABEL_CHOICES)
@pytest.mark.parametrize("n", range(1, 7))
def test_discrete_space_matches_explicit_table(n, choice):
    space = make_discrete_space(n, _labels(n, choice))
    table = _explicit_discrete(space.labels)
    assert space.labels == table.labels
    _assert_same_distances(space, table.distance)
    validate_metric(space)


@pytest.mark.parametrize("choice", LABEL_CHOICES)
@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 2)])
def test_discrete_product_matches_explicit_max_table(n, m, choice):
    x = make_discrete_space(n, _labels(n, choice))
    y = make_discrete_space(m)
    p = product_space(x, y)
    assert p.labels == tuple((a, b) for a in x.labels for b in y.labels)
    tx, ty = _explicit_discrete(x.labels), _explicit_discrete(y.labels)
    _assert_same_distances(p, lambda u, v: max(tx.distance(u[0], v[0]), ty.distance(u[1], v[1])))
    _assert_same_distances(p, _explicit_discrete(p.labels).distance)
    validate_metric(p)


def test_product_of_discrete_products_stays_table_free():
    k2 = make_discrete_space(2)
    p = product_space(product_space(k2, k2), k2)
    assert p == FiniteSpace(p.labels)
    _assert_same_distances(p, _explicit_discrete(p.labels).distance)
    validate_metric(p)


@pytest.mark.parametrize("seed", range(6))
def test_mixed_product_is_max_of_factor_distances(seed):
    rng = random.Random(seed)
    table = random_metric_space(rng, rng.randint(1, 4))
    discrete = make_discrete_space(rng.randint(1, 4))
    for x, y in ((discrete, table), (table, discrete)):
        p = product_space(x, y)
        _assert_same_distances(p, lambda u, v: max(x.distance(u[0], v[0]), y.distance(u[1], v[1])))
        validate_metric(p)


def test_equality_compares_labels_and_table_whatever_built_the_space():
    k3 = make_discrete_space(3)
    assert k3 == make_discrete_space(3)
    assert k3 == FiniteSpace((1, 2, 3))
    assert k3 != _explicit_discrete((1, 2, 3))
    assert product_space(k3, k3) == product_space(make_discrete_space(3), make_discrete_space(3))


def test_unknown_points_are_refused_without_a_table():
    k2 = make_discrete_space(2)
    with pytest.raises(ValueError):
        k2.distance(1, 3)
    with pytest.raises(ValueError):
        product_space(k2, k2).distance((1, 1), 1)


@pytest.mark.parametrize("n", [64, 128])
def test_forced_value_chain_holds_at_large_n(n):
    report = forced_value_chain(n, DIAGONAL)
    assert not report.failures
    assert len(report.steps) == 5 and all(ok for _, ok in report.steps)
