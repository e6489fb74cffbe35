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
* ``map_values`` builds on its argument's own tick tuple, without the merge
  scan, exactly when the scan would keep every piece of the mapped values (the
  ticks strictly increase and no two neighbouring images are equal); in every
  case its fields equal those of ``_canonical`` on the mapped pieces, on raw
  functions at levels 1 and 2.
* ``hm._check_points`` checks points one by one; on a structural product it
  returns the same set, or raises the same ``ValueError`` text, as an
  independent copy of the per-point membership loop.
* ``hm.hm_map`` checks the pairs of a function on a structural product by
  column, as they stand, before any set is built; it maps, or refuses with
  ``_check_points``' ``ValueError`` text, exactly as the per-point loop
  followed by ``map_values`` does, on products with and without a table
  factor. Named cases: a pair holding an unhashable value, a 3-tuple, a
  2-character string over one-character labels and a ``StepFn`` are refused;
  a tuple-subclass pair of points is mapped as its plain pair is.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hmstep.core import FiniteSpace, make_discrete_space, product_space
from hmstep.hm import _check_points, hm_map, product_projections
from hmstep.laws import bump_fn, fixed_rational_space
from hmstep.stepfn import StepFn, _canonical, _merged, blocks, canonicalize, constant, map_values

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


level1_maps = st.sampled_from((lambda v: v, lambda v: v % 2, lambda v: -v, lambda v: 0))
level2_maps = st.sampled_from((lambda g: g, canonicalize, lambda g: g.pieces, constant))


@example((StepFn((0, HALF, 1), (1, 2)), lambda v: -v))  # canonical, distinct images: shared
@example((StepFn((0, HALF, 1), (1, 3)), lambda v: v % 2))  # canonical, equal images: merged
@example((StepFn((0, HALF, HALF, 1), (1, 2, 3)), lambda v: v))  # a zero-length piece: scanned
@given(st.tuples(raw_stepfns(), level1_maps) | st.tuples(raw_level2, level2_maps))
def test_map_values_shares_the_ticks_exactly_when_the_scan_keeps_every_piece(case):
    f, fn = case
    images = tuple(map(fn, f.values))
    ticks, values = _merged(zip(f.ticks[1:], images))
    g = map_values(f, fn)
    assert (g.ticks is f.ticks) == (len(values) == f.pieces)
    assert fields(g) == fields(_canonical(f.den, zip(f.ticks[1:], images)))


def per_point(space: FiniteSpace, points) -> set:
    """An independent copy of ``_check_points``' loop: one membership test per distinct point."""
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


# products the pair check meets: without a table, of products, with a table
# factor, and over one-character labels, which a 2-character string would
# satisfy item by item
PAIR_SPACES = (*PRODUCTS, product_space(fixed_rational_space(), K2), product_space(K3, K3))
PAIR_IDS = ("product", "product of products", "table factor", "letters")


def reference_hm_map(space: FiniteSpace, f: StepFn) -> StepFn:
    """``hm_map`` along the left projection, checked by the per-point loop."""
    per_point(space, f.values)
    return map_values(f, product_projections(space)[0].rule)


def projected(space: FiniteSpace, f: StepFn) -> StepFn:
    return hm_map(product_projections(space)[0], f)


@pytest.mark.parametrize("space", PAIR_SPACES, ids=PAIR_IDS)
@given(data=st.data())
def test_hm_map_on_products_matches_the_per_point_loop(space, data):
    points = data.draw(st.lists(member(space), min_size=1, max_size=12))
    if data.draw(st.booleans()):
        points += data.draw(st.lists(stray(space), min_size=1, max_size=3))
        points = data.draw(st.permutations(points))
    f = StepFn([Fraction(i, len(points)) for i in range(len(points) + 1)], points)
    assert outcome(projected, space, f) == outcome(reference_hm_map, space, f)


def strays(space: FiniteSpace) -> dict:
    """Non-points built from the factors' first labels a and b."""
    x, y = space.factors
    a, b = x.labels[0], y.labels[0]
    return {
        "unhashable inside a pair": (a, [b]),
        "3-tuple": (a, b, b),
        "2-character string": f"{a}{b}",
        "step function": constant((a, b)),
    }


@pytest.mark.parametrize("space", PAIR_SPACES, ids=PAIR_IDS)
@pytest.mark.parametrize("kind", ("unhashable inside a pair", "3-tuple", "2-character string", "step function"))
def test_hm_map_refuses_a_non_point_pair_as_check_points_does(space, kind):
    point, stray_value = space.labels[0], strays(space)[kind]
    for values in ((point, stray_value), (stray_value, point), (stray_value,)):
        f = StepFn([Fraction(i, len(values)) for i in range(len(values) + 1)], values)
        with pytest.raises(ValueError) as refused:
            projected(space, f)
        with pytest.raises(ValueError) as expected:
            _check_points(space, f.values)
        assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("space", PAIR_SPACES, ids=PAIR_IDS)
def test_hm_map_maps_a_tuple_subclass_pair_as_its_plain_pair(space):
    plain = space.labels[:3]
    f, g = blocks(plain), blocks(Pair(*p) for p in plain)
    assert all(type(v) is Pair for v in g.values)
    assert projected(space, g) == projected(space, f)
    left, right = product_projections(space)
    assert hm_map(right, g) == hm_map(right, f)
