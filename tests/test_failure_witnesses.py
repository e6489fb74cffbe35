"""Witness text of failing lemma suites, pinned.

The golden reports pin the witnesses of the monad-law suites through the two
control candidates (see ``test_golden_report.py``), but every lemma suite
passes on correct code, so none of its witness text shows there. Each test
below breaks one kernel that a lemma equality suite calls and pins the
suite's first failure as ``(input, expected, actual)``: the sample that
fails, in the order the seeded stream draws it, and how both sides print.
"""

from __future__ import annotations

import pytest

from hmstep import laws

SAMPLES, SEED = 20, 5


def _plus_one(kernel):
    return lambda *args: kernel(*args) + 1


def _negated(kernel):
    return lambda *args: not kernel(*args)


def _doubled(kernel):
    return lambda *args: kernel(*args).scaled(2)


def _run(suite: str):
    pool = laws.default_spaces()
    return {
        "linearity": lambda: laws.check_linearity(pool, SAMPLES, SEED),
        "coordinate-naturality": lambda: laws.check_coordinate_naturality(SAMPLES, SEED),
        "unit-coordinate": lambda: laws.check_unit_coordinate(pool, SAMPLES, SEED),
        "support-criterion": lambda: laws.check_support_criterion(pool, SAMPLES, SEED),
        "support-membership": lambda: laws.check_support_membership(pool, SAMPLES, SEED),
    }[suite]()


BROKEN = {
    "linearity": ("functional_eval", _plus_one),
    "coordinate-naturality": ("compose_testfn", _doubled),
    "unit-coordinate": ("functional_eval", _plus_one),
    "support-criterion": ("support_criterion_check", _negated),
    "support-membership": ("support_membership_check", _negated),
}

# suite: (failures, first failure) at SAMPLES and SEED with the kernel broken
FIRST_FAILURE = {
    "linearity": (20, (
        "space((1, 1),(1, 2),(2, 1),(2, 2)) f=0 (2,1) 1/5 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 "
        "window=(1/5,1) lams=(2,1/4) "
        "phi1=(-2,2/3,2,-2/3) phi2=(13/7,-15/7,15/7,-6/7)",
        "33/112",
        "-107/112",
    )),
    "coordinate-naturality": (17, (
        "map=(3, 2, 3, 3, 3) f=0 3 1/2 4 1 window=(0,1/2) phi=(-26/9,26/9,2/9)",
        "4/9",
        "2/9",
    )),
    "unit-coordinate": (20, (
        "space((1, 1),(1, 2),(2, 1),(2, 2)) x=(2, 1) window=(0,1/2) phi=(3/4,31/12,-11/4,23/12)",
        "-11/4",
        "-7/4",
    )),
    "support-criterion": (20, (
        "space((1, 1),(1, 2),(2, 1),(2, 2)) f=0 (2,1) 1/5 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 "
        "B=['(1, 1)', '(1, 2)']",
        "False",
        "True",
    )),
    "support-membership": (20, (
        "space((1, 1),(1, 2),(2, 1),(2, 2)) f=0 (2,1) 1/5 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 x=(1, 2)",
        "True",
        "False",
    )),
}


@pytest.mark.parametrize("suite", sorted(BROKEN))
def test_lemma_suites_pass_unbroken(suite):
    assert _run(suite).verdict == "pass"


@pytest.mark.parametrize("suite", sorted(BROKEN))
def test_first_failure_of_a_broken_lemma_suite(suite, monkeypatch):
    name, breaker = BROKEN[suite]
    monkeypatch.setattr(laws, name, breaker(getattr(laws, name)))
    report = _run(suite)
    assert report.law == suite and report.verdict == "fail"
    assert (len(report.failures), tuple(report.failures[0])) == FIRST_FAILURE[suite]
