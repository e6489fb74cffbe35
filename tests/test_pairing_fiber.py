"""The pairing t ↦ (f1(t), f2(t)) is the whole fiber of the two projections.

``hm.pairing`` is drawn here over random step functions with arbitrary
rational breakpoints (zero-length pieces and equal neighbours included), on
discrete spaces and on the four-point table space, so that products with a
distance table on either side are covered. It is checked against its
definition: canonical, equal to a midpoint oracle, and projecting back to
the canonical forms of its factors. On grid cases small enough to list,
brute force over every grid step function on the product finds the pairing
and nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from hmstep.core import make_discrete_space, product_space
from hmstep.hm import hm_map, pairing, product_projections
from hmstep.laws import fixed_rational_space
from hmstep.stepfn import StepFn, canonicalize, evaluate

from conftest import merged_breakpoints
from test_trusted_construction import assert_trusted_ok, oracle_canonical

SPACES = (*(make_discrete_space(k) for k in (1, 2, 3)), fixed_rational_space())
BRUTE_FORCE_LIMIT = 5000

spaces = st.sampled_from(SPACES)


@st.composite
def stepfns_over(draw, space):
    """A raw step function over ``space`` with breakpoints off any common grid."""
    inner = draw(st.lists(st.fractions(0, 1, max_denominator=60), max_size=6))
    bps = (Fraction(0), *sorted(inner), Fraction(1))
    vals = draw(st.lists(st.sampled_from(space.labels), min_size=len(bps) - 1, max_size=len(bps) - 1))
    return StepFn(bps, tuple(vals))


@st.composite
def factor_pairs(draw):
    x, y = draw(spaces), draw(spaces)
    return x, y, draw(stepfns_over(x)), draw(stepfns_over(y))


def oracle_pairing(f1: StepFn, f2: StepFn) -> StepFn:
    """Both functions read at the midpoint of every gap between their breakpoints."""
    bps = merged_breakpoints(f1, f2)
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return oracle_canonical(StepFn(tuple(bps), tuple((evaluate(f1, t), evaluate(f2, t)) for t in mids)))


def grid_fiber(prod, left, right, f1: StepFn, f2: StepFn, cells: int) -> set[StepFn]:
    """Every step function on the 1/cells grid over ``prod`` whose projections
    are f1 and f2, found by listing all assignments of labels to cells."""
    bps = tuple(Fraction(k, cells) for k in range(cells + 1))
    want = (canonicalize(f1), canonicalize(f2))
    out = set()
    for vals in product(prod.labels, repeat=cells):
        g = canonicalize(StepFn(bps, vals))
        if (hm_map(left, g), hm_map(right, g)) == want:
            out.add(g)
    return out


@given(factor_pairs())
def test_pairing_is_canonical_and_matches_the_midpoint_oracle(case):
    _, _, f1, f2 = case
    p = pairing(f1, f2)
    assert_trusted_ok(p)
    assert p == oracle_pairing(f1, f2)


@given(factor_pairs())
def test_projections_of_the_pairing_are_its_factors(case):
    x, y, f1, f2 = case
    prod = product_space(x, y)
    assert (prod.dist is None) == (x.dist is None and y.dist is None)
    left, right = product_projections(prod)
    p = pairing(f1, f2)
    assert all(v in prod for v in p.values)
    assert hm_map(left, p) == canonicalize(f1)
    assert hm_map(right, p) == canonicalize(f2)


@st.composite
def grid_cases(draw):
    """Two raw functions on the 1/cells grid whose product has at most
    BRUTE_FORCE_LIMIT grid assignments."""
    x, y = draw(spaces), draw(spaces)
    labels = x.n * y.n
    cells = draw(st.integers(1, max(k for k in range(1, 13) if labels**k <= BRUTE_FORCE_LIMIT)))
    bps = tuple(Fraction(k, cells) for k in range(cells + 1))
    f1 = StepFn(bps, tuple(draw(st.lists(st.sampled_from(x.labels), min_size=cells, max_size=cells))))
    f2 = StepFn(bps, tuple(draw(st.lists(st.sampled_from(y.labels), min_size=cells, max_size=cells))))
    return x, y, f1, f2, cells


@settings(max_examples=30, deadline=None)
@given(grid_cases())
def test_brute_force_finds_the_pairing_alone(case):
    x, y, f1, f2, cells = case
    prod = product_space(x, y)
    left, right = product_projections(prod)
    assert grid_fiber(prod, left, right, f1, f2, cells) == {pairing(f1, f2)}
