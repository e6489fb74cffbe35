"""The level-2 kernels against midpoint oracles, on raw nested inputs.

``d_hm2`` and ``iterated_functional_eval`` pass the level-1 kernels' exact
(num, den) int pairs up to the outer sum and build one ``Fraction`` per call.
Checked here, over ``default_spaces()`` (the table space included):

* ``d_hm2`` equals ``conftest.oracle_d_hm2``, an outer midpoint scan of the
  level-1 midpoint oracle;
* ``iterated_functional_eval`` equals an outer midpoint scan of
  ``oracle_functional`` over the outer window, whose weight at each outer
  midpoint is ``oracle_functional`` of the inner function over the inner
  window.

Inputs are raw at both levels: breakpoints with denominators up to 60, some
repeated (zero-length pieces), values drawn from a small pool (mergeable
neighbours), and window ends over 7, 11, 13 and 97, so the two windows and the
step functions rarely share a grid.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from hmstep.core import FULL_WINDOW, TestFn, Window
from hmstep.laws import default_spaces
from hmstep.stepfn import StepFn
from hmstep.tower import d_hm2, iterated_functional_eval

from conftest import oracle_d_hm2, oracle_functional

SPACES = default_spaces()

fractions_to_60 = st.integers(1, 60).flatmap(lambda d: st.integers(0, d).map(lambda k: Fraction(k, d)))


@st.composite
def raw_stepfns(draw, values):
    """Breakpoints with denominators up to 60, some repeated, and values from
    ``values``: zero-length pieces and equal neighbours are both likely."""
    inner = draw(st.lists(fractions_to_60, max_size=5))
    inner += draw(st.lists(st.sampled_from(inner), max_size=2)) if inner else []
    bps = (Fraction(0), *sorted(inner), Fraction(1))
    return StepFn(bps, draw(st.lists(values, min_size=len(bps) - 1, max_size=len(bps) - 1)))


@st.composite
def nested_pairs(draw):
    """A space and two raw level-2 functions over it whose inner functions come
    from one pool of at most three, so outer neighbours repeat."""
    space = draw(st.sampled_from(SPACES))
    pool = draw(st.lists(raw_stepfns(st.sampled_from(space.labels)), min_size=1, max_size=3))
    outer = raw_stepfns(st.sampled_from(pool))
    return space, draw(outer), draw(outer)


window_dens = st.sampled_from((7, 11, 13, 97))


@st.composite
def windows(draw):
    """A window (a, b), each end over one of 7, 11, 13 and 97: a below 1, then b above a."""
    da, db = draw(window_dens), draw(window_dens)
    a = Fraction(draw(st.integers(0, da - 1)), da)
    return Window(a, Fraction(draw(st.integers(a * db // 1 + 1, db)), db))


@st.composite
def coordinate_cases(draw):
    """A raw level-2 function, a test function on its space with values of
    either sign and denominators up to 60, and an inner and an outer window."""
    space, F, _ = draw(nested_pairs())
    phi = TestFn(space, draw(st.lists(fractions_to_60.map(lambda x: 2 * x - 1), min_size=space.n, max_size=space.n)))
    return phi, draw(windows()), draw(windows()), F


def oracle_iterated(phi: TestFn, inner: Window, outer: Window, F: StepFn) -> Fraction:
    """Outer midpoint scan of the inner midpoint scan."""
    return oracle_functional(lambda g: oracle_functional(phi, inner, g), outer, F)


def _nested(*pieces):
    """A level-2 function from alternating breakpoints and (breakpoints, values) inner pairs."""
    bps, inner = pieces[0::2], pieces[1::2]
    return StepFn(bps, tuple(StepFn(b, v) for b, v in inner))


# over the table space: a zero-length outer piece between two equal inner functions,
# and inner breakpoints off each other's grids
RAW_F = _nested(0, ((0, Fraction(1, 3), Fraction(1, 3), 1), (1, 2, 1)), Fraction(2, 5), ((0, 1), (3,)),
                Fraction(2, 5), ((0, Fraction(1, 3), Fraction(1, 3), 1), (1, 2, 1)), 1)
RAW_G = _nested(0, ((0, Fraction(5, 7), 1), (4, 2)), Fraction(1, 60), ((0, Fraction(5, 7), 1), (4, 2)), 1)


@example((SPACES[-1], RAW_F, RAW_G))
@given(nested_pairs())
def test_d_hm2_matches_the_midpoint_oracle(case):
    space, F, G = case
    assert d_hm2(space, F, G) == oracle_d_hm2(space, F, G)


@example((TestFn(SPACES[-1], (Fraction(-1, 2), 1, Fraction(1, 60), 0)), Window(Fraction(1, 7), Fraction(3, 11)),
          Window(Fraction(1, 13), Fraction(96, 97)), RAW_F))
@example((TestFn(SPACES[-1], (1, 0, 0, 0)), FULL_WINDOW, Window(Fraction(2, 5), Fraction(6, 7)), RAW_F))
@given(coordinate_cases())
def test_iterated_coordinate_matches_the_midpoint_oracle(case):
    phi, inner, outer, F = case
    assert iterated_functional_eval(phi, inner, outer, F) == oracle_iterated(phi, inner, outer, F)
