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
* ``refinement_ratio`` against a one-piece g walks f's pieces alone; ``d_hm``
  and ``d_hm2`` against a one-piece g (outer, inner or both) give the same
  ``Rat`` as the same g written as two equal pieces, which takes the
  two-pointer walk, and both match the midpoint oracles. Over discrete spaces
  and ``fixed_rational_space()``, f raw with zero-length pieces, ``dist``
  sees the same set of pairs on both paths: one per unequal value of a piece
  of positive length.
* ``window_ratio`` walks f's pieces on the full window, calling weight once
  per piece of positive length, in order; there ``functional_eval`` equals
  t·mean(0, t) + (1 − t)·mean(t, 1), both means taken on the clipped path,
  and the midpoint oracle.
* ``laws.nested_bumps_fn`` builds its interior bumps directly; its fields
  equal those of ``blocks`` of every ``bump_fn(i, n)``, for n = 1..512.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hmstep.core import FULL_WINDOW, FiniteSpace, TestFn, Window, make_discrete_space, product_space
from hmstep.hm import _check_points, d_hm, functional_eval, hm_map, product_projections
from hmstep.laws import bump_fn, fixed_rational_space, nested_bumps_fn
from hmstep.stepfn import (
    StepFn,
    _canonical,
    _merged,
    blocks,
    canonicalize,
    constant,
    map_values,
    refinement_ratio,
    window_ratio,
)
from hmstep.tower import d_hm2

from conftest import oracle_d_hm, oracle_d_hm2, oracle_functional
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


# discrete spaces, and one whose distances are not all 1
METRIC_SPACES = (make_discrete_space(2), make_discrete_space(3), FiniteSpace(("a", "b")), fixed_rational_space())
METRIC_IDS = ("2 points", "3 points", "letters", "rational")
# a cut point strictly inside (0, 1)
cuts = st.integers(2, 12).flatmap(lambda d: st.integers(1, d - 1).map(lambda k: Fraction(k, d)))


def label(v: int, space: FiniteSpace) -> object:
    return space.labels[v % space.n]


def relabelled(f: StepFn, space: FiniteSpace) -> StepFn:
    """f over {1, 2, 3} (the raw strategies' values) moved onto the space's labels, nested
    values included, on f's own partition: zero-length and mergeable pieces stay."""
    return StepFn(f.breakpoints, [relabelled(v, space) if isinstance(v, StepFn) else label(v, space) for v in f.values])


def split(g: StepFn, t: Fraction) -> StepFn:
    """The one-piece g written as two equal pieces cut at t: the same function, off the constant path."""
    assert g.pieces == 1
    return StepFn((0, t, 1), g.values * 2)


@pytest.mark.parametrize("space", METRIC_SPACES, ids=METRIC_IDS)
@given(data=st.data())
def test_metrics_against_a_one_piece_side_match_the_walk_and_the_oracles(space, data):
    f = relabelled(data.draw(raw_stepfns()), space)
    F = relabelled(data.draw(raw_level2), space)
    h = relabelled(data.draw(raw_stepfns()), space)
    x = data.draw(st.sampled_from(space.labels))
    t, u = data.draw(cuts), data.draw(cuts)
    g = constant(x)
    assert d_hm(space, f, g) == d_hm(space, f, split(g, t)) == oracle_d_hm(space, f, g)
    for G, walked in (
        (constant(g), split(constant(split(g, u)), t)),  # both levels one piece
        (constant(h), split(constant(h), t)),  # a one-piece outer side over a raw inner function
        (blocks((g, h)), blocks((split(g, u), h))),  # one-piece inner functions under a walked outer side
    ):
        assert d_hm2(space, F, G) == d_hm2(space, F, walked) == oracle_d_hm2(space, F, G)


@pytest.mark.parametrize("space", METRIC_SPACES, ids=METRIC_IDS)
@example(f=StepFn((0, HALF, HALF, 1), (1, 3, 1)), k=2)  # 3 is held only on a zero-length piece
@given(f=raw_stepfns(), k=st.integers(1, 3))
def test_dist_sees_the_same_pairs_on_both_paths_and_none_from_a_zero_length_piece(space, f, k):
    f, x = relabelled(f, space), label(k, space)
    seen = {}
    for name, g in (("constant", constant(x)), ("walk", split(constant(x), Fraction(1, 3)))):
        pairs = seen[name] = []
        refinement_ratio(f, g, lambda a, b: pairs.append((a, b)) or space.distance(a, b).as_integer_ratio())
    expected = {(a, x) for a in canonicalize(f).values if a != x}
    assert set(seen["constant"]) == set(seen["walk"]) == expected


@pytest.mark.parametrize("space", METRIC_SPACES, ids=METRIC_IDS)
@given(data=st.data())
def test_full_window_coordinate_splits_into_two_clipped_means(space, data):
    f = relabelled(data.draw(raw_stepfns()), space)
    weights = st.integers(0, 12).map(lambda k: Fraction(k, 12))
    phi = TestFn(space, data.draw(st.lists(weights, min_size=space.n, max_size=space.n)))
    t = data.draw(cuts)
    full = functional_eval(phi, FULL_WINDOW, f)
    left, right = functional_eval(phi, Window(0, t), f), functional_eval(phi, Window(t, 1), f)
    assert full == t * left + (1 - t) * right == oracle_functional(phi, FULL_WINDOW, f)


@example(f=StepFn((0, HALF, HALF, 1), (1, 3, 1)))  # 3 is held only on a zero-length piece
@given(raw_stepfns())
def test_full_window_weight_sees_only_pieces_of_positive_length(f):
    seen = []
    window_ratio(f, lambda v: seen.append(v) or (v, 1), FULL_WINDOW)
    assert seen == [v for t0, t1, v in zip(f.ticks, f.ticks[1:], f.values) if t1 > t0]


def test_nested_bumps_fn_fields_equal_blocks_of_every_bump():
    for n in range(1, 513):
        F = nested_bumps_fn(n)
        assert fields(F) == fields(blocks(bump_fn(i, n) for i in range(1, n + 1)))
        assert all(fields(g) == fields(bump_fn(i, n)) for i, g in enumerate(F.values, 1))
