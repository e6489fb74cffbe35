"""Malformed step-function text ends in ValueError, never another exception.

Any text either parses to a step function that round-trips through
``format_stepfn`` or is rejected with ``ValueError``: zero denominators,
exponent notation and nesting deeper than ``MAX_NESTING`` included.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hmstep.core import as_rat
from hmstep.stepfn import MAX_NESTING, constant, format_stepfn, parse_stepfn, parse_value

# Pieces of well-formed and malformed text; joining a few with spaces gives
# inputs close enough to the grammar to reach every branch of the parser.
ATOMS = (
    "0", "1", "1/2", "2/3", "-1", "1/0", "0/0", "0.5", "1e3", "+1", "x",
    "[", "]", "(", ")", ",", "()", "(1,2)", "[0 1 1]", "[0 2 1/2 1 1]", "[]",
)

texts = st.one_of(
    st.text(alphabet="0123456789/-+. e[](),x", max_size=30),
    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=9).map(" ".join),
    st.text(max_size=20),
)


def _nested(depth: int) -> str:
    text = "0 1 1"
    for _ in range(depth):
        text = f"0 [{text}] 1"
    return text


@example("0 0 1/0")
@example("1/0 1 1")
@example("0 (1,1/0) 1")
@example("0 1e5 1")
@given(texts)
def test_text_round_trips_or_raises_value_error(text):
    try:
        f = parse_stepfn(text)
    except ValueError:
        return
    assert parse_stepfn(format_stepfn(f)) == f


def test_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        as_rat("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_stepfn("0 0 1/0")


def test_exponent_notation_is_value_error():
    # "1e999999999" would build a billion-digit integer before any check ran
    for text in ("1e5", "1E-3", "2.5e1"):
        with pytest.raises(ValueError, match="exponent"):
            as_rat(text)


def test_nesting_at_the_limit_round_trips():
    f = parse_stepfn(_nested(MAX_NESTING))
    assert parse_stepfn(format_stepfn(f)) == f
    g = constant(1)
    for _ in range(MAX_NESTING):
        g = constant(g)
    assert f == g


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_deep_nesting_is_value_error(depth):
    with pytest.raises(ValueError, match="nesting"):
        parse_stepfn(_nested(depth))


def test_deep_pair_nesting_is_value_error():
    with pytest.raises(ValueError, match="nesting"):
        parse_value("(" * 1200 + "1" + ")" * 1200)
