"""Refusals that come before any work, with the error the boundary promises.

An over-budget fiber range is refused before its first fiber decision, and
a step-function value that cannot be hashed is refused as "not a point" of
the space, as ``index_of`` refuses it, at both levels of the tower.
"""

from __future__ import annotations

import pytest

from hmstep import cli
from hmstep.core import FULL_WINDOW, TestFn, make_discrete_space
from hmstep.hm import SpaceMap, d_hm, functional_eval, hm_map
from hmstep.stepfn import StepFn
from hmstep.tower import d_hm2, h2_map, iterated_functional_eval


def test_over_budget_fiber_range_is_refused_before_any_decision(monkeypatch, capsys):
    # n = 80 is over the default budget, n = 1..79 within it
    calls = []
    fiber_uniqueness = cli.fiber_uniqueness

    def counted(n):
        calls.append(n)
        return fiber_uniqueness(n)

    monkeypatch.setattr(cli, "fiber_uniqueness", counted)
    assert cli.main(["fiber", "--n-range", "1:80"]) == 3
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hmstep:") and "budget" in lines[0]


def test_fiber_reports_keep_the_range_order():
    # the fiber jobs may run in any worker, yet are reported in the order of the range
    code, report = cli.run(cli.RunConfig(command="fiber", n_range=(2, 4)))
    assert code == 0
    assert [s.samples for s in report.suites] == [4**4, 9**6, 16**8]


UNHASHABLE = StepFn((0, 1), ([1],))
NESTED_UNHASHABLE = StepFn((0, 1), (UNHASHABLE,))


@pytest.mark.parametrize("call", (
    lambda space: d_hm(space, UNHASHABLE, UNHASHABLE),
    lambda space: hm_map(SpaceMap(space, space, space.labels), UNHASHABLE),
    lambda space: functional_eval(TestFn(space, (1,) * space.n), FULL_WINDOW, UNHASHABLE),
    lambda space: d_hm2(space, NESTED_UNHASHABLE, NESTED_UNHASHABLE),
    lambda space: h2_map(SpaceMap(space, space, space.labels), NESTED_UNHASHABLE),
    lambda space: iterated_functional_eval(TestFn(space, (1,) * space.n), FULL_WINDOW, FULL_WINDOW, NESTED_UNHASHABLE),
), ids=("d_hm", "hm_map", "functional_eval", "d_hm2", "h2_map", "iterated_functional_eval"))
def test_unhashable_value_is_not_a_point(call):
    space = make_discrete_space(2)
    assert [1] not in space
    with pytest.raises(ValueError, match="is not a point"):
        space.index_of([1])
    with pytest.raises(ValueError, match="is not a point"):
        call(space)
