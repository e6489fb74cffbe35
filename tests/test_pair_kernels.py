"""The level-1 pair kernels, which sum while they walk the ticks, on raw inputs.

``refinement_ratio`` and ``window_ratio`` add each piece into a running
(num, den) int pair without building cells first, so nothing here shares
their walk. Checked over ``default_spaces()`` (the table space included):

* ``refinement_ratio``, read as a ``Fraction``, equals the sum over the cells
  of ``common_refinement`` (the other tick walk, which merges) and
  ``conftest.oracle_d_hm``, a midpoint scan; its ``dist`` is only ever asked
  about two unequal values;
* ``window_ratio`` equals ``conftest.oracle_functional`` on four kinds of
  window: [0, 1) built afresh (not the ``FULL_WINDOW`` object), [0, b) with
  b < 1, (a, 1) with a > 0, and interior windows.

Inputs are raw: zero-length pieces at 0, at 1 and inside, and values from a
small pool, so adjacent pieces (and adjacent pairs of values) repeat; pair
labels are fresh copies, so values can be equal without being identical.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from hmstep.core import TestFn, Window
from hmstep.laws import default_spaces
from hmstep.stepfn import StepFn, common_refinement, refinement_ratio, window_ratio

from conftest import oracle_d_hm, oracle_functional

SPACES = default_spaces()
TABLE = SPACES[-1]

fractions_to_30 = st.integers(1, 30).flatmap(lambda d: st.integers(0, d).map(lambda k: Fraction(k, d)))


def _fresh(label):
    """An equal label that is a new object where the type allows (the product
    space's pairs), so equal values of f and g need not be identical."""
    return tuple(list(label)) if isinstance(label, tuple) else label


@st.composite
def raw_stepfns(draw, labels):
    """Up to two extra breakpoints at 0 and at 1 (zero-length end pieces), inner
    breakpoints with denominators up to 30, some repeated, and values from
    ``labels``, each pair label a fresh copy."""
    inner = draw(st.lists(fractions_to_30, max_size=5))
    inner += draw(st.lists(st.sampled_from(inner), max_size=2)) if inner else []
    zeros, ones = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bps = (Fraction(0),) * zeros + tuple(sorted(inner)) + (Fraction(1),) * ones
    values = draw(st.lists(st.sampled_from(labels).map(_fresh), min_size=len(bps) - 1, max_size=len(bps) - 1))
    return StepFn(bps, values)


@st.composite
def metric_cases(draw):
    space = draw(st.sampled_from(SPACES))
    return space, draw(raw_stepfns(space.labels)), draw(raw_stepfns(space.labels))


def _window(kind: str, a: Fraction, b: Fraction) -> Window:
    """A window of the given kind from two ends strictly inside (0, 1), a <= b."""
    if kind == "full":
        return Window(Fraction(0), Fraction(5, 5))
    if kind == "head":
        return Window(Fraction(0), b)
    if kind == "tail":
        return Window(a, Fraction(1))
    return Window(a, b) if a < b else Window(Fraction(1, 7), Fraction(3, 11))


@st.composite
def window_cases(draw):
    """A space, a raw f over it, a test function with values of either sign, and a
    window of one of the four kinds; ends over 7, 11, 13 or 97 fall off f's grid."""
    space = draw(st.sampled_from(SPACES))
    f = draw(raw_stepfns(space.labels))
    phi = TestFn(space, draw(st.lists(fractions_to_30.map(lambda x: 2 * x - 1), min_size=space.n, max_size=space.n)))
    ends = [Fraction(draw(st.integers(1, d - 1)), d) for d in (draw(st.sampled_from((7, 11, 13, 97))) for _ in "ab")]
    kind = draw(st.sampled_from(("full", "head", "tail", "interior")))
    return phi, _window(kind, *sorted(ends)), f


def _distances(space):
    def dist(a, b):
        assert a != b, "dist is only asked about unequal values"
        return space.distance(a, b).as_integer_ratio()

    return dist


# zero-length pieces at 0 and 1, and adjacent pieces repeating the pair (1, 2)
@example((TABLE, StepFn((0, 0, Fraction(1, 3), Fraction(1, 2), 1, 1), (3, 1, 1, 2, 4)),
          StepFn((0, Fraction(1, 4), 1, 1), (2, 2, 1))))
@given(metric_cases())
def test_refinement_ratio_matches_the_cells_and_the_midpoint_oracle(case):
    space, f, g = case
    got = Fraction(*refinement_ratio(f, g, _distances(space)))
    by_cells = sum(((c.end - c.start) * space.distance(c.left, c.right) for c in common_refinement(f, g)), Fraction(0))
    assert got == by_cells == oracle_d_hm(space, f, g)


@example((TestFn(TABLE, (Fraction(-1, 3), 1, Fraction(2, 5), 0)), Window(Fraction(0), Fraction(5, 5)),
          StepFn((0, 0, Fraction(1, 3), 1, 1), (4, 1, 2, 3))))
@example((TestFn(TABLE, (1, 0, 0, 0)), Window(Fraction(0), Fraction(3, 7)),
          StepFn((0, 0, Fraction(3, 7), Fraction(3, 7), 1), (2, 1, 3, 1))))
@given(window_cases())
def test_window_ratio_matches_the_midpoint_oracle(case):
    phi, window, f = case
    got = Fraction(*window_ratio(f, lambda v: phi(v).as_integer_ratio(), window))
    assert got == oracle_functional(phi, window, f)
