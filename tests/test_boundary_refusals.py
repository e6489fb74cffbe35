"""Every public boundary refuses bad input with ``ValueError`` and a clear message.

Each case below is a refusal that no other test reaches: malformed spaces,
an empty block list, unbalanced value text, an outer grid of 0, a
test function on the wrong space and an unknown report format. A value that
cannot be hashed is no point of any space, so a point map or support set
holding one is refused as "is not a point", the message ``index_of`` gives.
"""

from __future__ import annotations

import pytest

from hmstep.cli import RunConfig, emit_report, run
from hmstep.core import FiniteSpace, TestFn, make_discrete_space
from hmstep.hm import SpaceMap, compose_testfn, support_criterion_check
from hmstep.stepfn import blocks, constant, parse_value
from hmstep.tower import random_stepfn2, random_stepfn3

K2 = make_discrete_space(2)
K3 = make_discrete_space(3)


def _yaml_report():
    _, report = run(RunConfig(command="fiber", n_range=(1, 1)))
    return emit_report(report, "yaml")


@pytest.mark.parametrize("call, message", (
    (lambda: FiniteSpace(()), "at least one point"),
    (lambda: FiniteSpace((1, 1)), "labels must be distinct"),
    (lambda: FiniteSpace((1, 2), ((0, 1), (1,))), "must be square"),
    (lambda: blocks([]), "at least one block value"),
    (lambda: parse_value("[0 1 1"), "unbalanced brackets"),
    (lambda: parse_value("(1,2"), "unbalanced parentheses"),
    (lambda: random_stepfn2(K2, 0, 2, 0), "outer grid must be at least 1"),
    (lambda: random_stepfn3(K2, 0, 2, 2, 0), "outer grid must be at least 1"),
    (lambda: compose_testfn(TestFn(K2, (1, 1)), SpaceMap(K2, K3, (1, 2))), "map's target space"),
    (_yaml_report, "unknown format 'yaml'"),
    (lambda: SpaceMap(K2, K3, ([1], 2)), "is not a point"),
    (lambda: support_criterion_check(K2, constant(1), [[1]]), "is not a point"),
), ids=(
    "no-labels", "duplicate-labels", "ragged-table", "no-blocks",
    "open-bracket", "open-parenthesis", "level2-grid", "level3-grid", "testfn-space", "yaml",
    "unhashable-image", "unhashable-support-set",
))
def test_refused_with_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
