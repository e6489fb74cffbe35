"""The fast paths of the witness towers against the slow paths they skip.

* ``blocks`` builds n blocks with no two equal neighbours directly; its
  fields equal those of the merge scan ``_canonical`` on the same pieces,
  for any values, equal neighbours and step-function values included.
* ``laws.bump_fn`` builds its partition directly; its fields equal those of
  ``_canonical`` on the three pieces (0, 1, 0), for every 1 <= i <= n <= 64.
* ``canonicalize`` returns its argument, without the merge scan, when two
  comparisons show it canonical; on raw functions at levels 1 and 2 that
  happens exactly when the scan ``_merged`` would keep every piece, and
  otherwise the result has the scan's fields over their gcd.
* ``hm._check_points`` checks pairs on a structural product by column; it
  returns the same set, or raises the same ``ValueError`` text, as the
  per-point membership loop.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hmstep.core import FiniteSpace, make_discrete_space, product_space
from hmstep.hm import _check_points
from hmstep.laws import bump_fn
from hmstep.stepfn import StepFn, _canonical, _merged, blocks, canonicalize, constant

from test_trusted_construction import raw_level2, raw_stepfns


def fields(f: StepFn) -> tuple:
    return f.den, f.ticks, f.values


block_values = st.one_of(
    st.lists(st.integers(0, 2), min_size=1, max_size=12),
    st.lists(st.integers(), min_size=1, max_size=12),
    st.lists(st.sampled_from((0, 1)).map(constant) | st.integers(1, 3).map(lambda i: bump_fn(i, 3)), min_size=1, max_size=8),
)


@given(block_values)
def test_blocks_fields_equal_the_merge_scan(values):
    assert fields(blocks(values)) == fields(_canonical(len(values), enumerate(values, 1)))


def test_bump_fn_fields_equal_the_merge_scan():
    for n in range(1, 65):
        for i in range(1, n + 1):
            assert fields(bump_fn(i, n)) == fields(_canonical(n, ((i - 1, 0), (i, 1), (n, 0))))


HALF = Fraction(1, 2)


@example(StepFn((0, HALF, 1), (1, 2)))  # canonical
@example(StepFn((0, HALF, HALF, 1), (1, 2, 3)))  # a zero-length piece
@example(StepFn((0, HALF, 1), (1, 1)))  # equal neighbours, merged onto den 1
@example(StepFn((0, HALF, 1), (StepFn((0, 1), (1,)), StepFn((0, 1), (1,)))))  # equal, not identical
@given(raw_stepfns() | raw_level2)
def test_canonicalize_skips_the_scan_exactly_when_it_keeps_every_piece(f):
    ticks, values = _merged(zip(f.ticks[1:], f.values))
    c = canonicalize(f)
    if len(values) == f.pieces:
        assert c is f
    else:
        g = gcd(f.den, *ticks)
        assert fields(c) == (f.den // g, tuple(t // g for t in ticks), tuple(values))


def per_point(space: FiniteSpace, points) -> set:
    """``_check_points`` without the column scan: one membership test per distinct point."""
    try:
        distinct = set(points)
    except TypeError as exc:
        raise ValueError(f"an unhashable value ({exc}) is not a point of the given space") from None
    for v in distinct:
        if v not in space:
            raise ValueError(f"{v!r} is not a point of the given space")
    return distinct


def outcome(check, space, points):
    try:
        return "ok", check(space, points)
    except ValueError as exc:
        return "refused", str(exc)


Pair = namedtuple("Pair", "left right")


class ZeroHash(tuple):
    """A tuple subclass hashable whatever it holds."""

    def __hash__(self) -> int:
        return 0


K2, K3 = make_discrete_space(2), FiniteSpace(("a", "b", "c"))
PRODUCTS = (product_space(K2, K3), product_space(product_space(K2, K2), K3))


def member(space: FiniteSpace) -> st.SearchStrategy:
    return st.sampled_from(space.labels)


def stray(space: FiniteSpace) -> st.SearchStrategy:
    """Values that are not points of the product, or are only by equality."""
    x, y = space.factors
    return st.one_of(
        st.tuples(member(x), member(y), member(y)),  # a 3-tuple
        st.tuples(member(x)),
        st.tuples(member(x), st.sampled_from((9, "z", (1, 1)))),  # a foreign coordinate
        st.tuples(st.sampled_from((0, 3, (1, 3))), member(y)),
        st.builds(Pair, member(x), member(y)),  # a tuple subclass equal to a point
        st.builds(lambda a, b: ZeroHash((a, b)), member(x), member(y)),
        st.builds(lambda b: ZeroHash(([1], b)), member(y)),  # hashable, but holds a list
        st.builds(list, st.tuples(member(x), member(y))),  # unhashable
        st.tuples(st.just([1]), member(y)),  # unhashable inside a tuple
        st.sampled_from((1, "a", None, ())),
    )


@pytest.mark.parametrize("space", PRODUCTS, ids=("product", "product of products"))
@given(data=st.data())
def test_check_points_on_products_matches_the_per_point_loop(space, data):
    points = data.draw(st.lists(member(space), max_size=12))
    if data.draw(st.booleans()):
        points += data.draw(st.lists(stray(space), min_size=1, max_size=3))
        points = data.draw(st.permutations(points))
    assert outcome(_check_points, space, points) == outcome(per_point, space, points)
