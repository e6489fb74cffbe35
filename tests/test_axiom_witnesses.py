"""Witnesses of the order and metric-axiom checks, and the harness's own fault detectors.

``test_failure_witnesses.py`` pins the lemma equality suites; the checks
pinned here compare with ``<`` and ``>`` or name their axiom, so each has
text of its own. A broken metric is monkeypatched into ``laws`` and, per
axiom, the failure count and first ``(input, expected, actual)`` are pinned
at ``SAMPLES`` and ``SEED``. Broken monotonicity negates every coordinate.

``build_witnesses`` and ``fiber_uniqueness`` verify the functions they
build through an independent path and raise ``RuntimeError`` when the two
disagree; each detector is shown to fire on a wrong functor action or pairing.
"""

from __future__ import annotations

import pytest

from hmstep import laws
from hmstep.stepfn import blocks

SAMPLES, SEED = 20, 5

BROKEN_METRICS = {
    "plus-one": lambda d: lambda space, f, g: d(space, f, g) + 1,
    "asymmetric": lambda d: lambda space, f, g: d(space, f, g) / (2 if f.pieces < g.pieces else 1),
    "negated": lambda d: lambda space, f, g: -d(space, f, g),
    "four-squared": lambda d: lambda space, f, g: 4 * d(space, f, g) ** 2,
}

_TRIPLE2 = (
    "space((1, 1),(1, 2),(2, 1),(2, 2)) F=0 [0 (1,1) 1/3 (2,2) 2/3 (1,2) 1] 1/3 [0 (1,2) 1] 2/3 [0 (2,1) 1] 1 "
    "G=0 [0 (1,1) 1/3 (2,2) 2/3 (1,2) 1] 1/3 [0 (1,2) 1] 1/2 [0 (1,2) 1] 2/3 [0 (2,1) 1] 1 "
    "H=0 [0 (1,1) 1/4 (1,2) 1/2 (1,1) 3/4 (1,2) 1] 1/2 [0 (2,1) 1/4 (1,2) 1/2 (2,2) 3/4 (1,2) 1] 1"
)
_NEGATED2 = (
    "space(1,2,3,4) F=0 [0 2 1] 1/3 [0 1 1/4 2 1/2 4 3/4 3 1] 2/3 [0 1 1/2 4 1] 1 "
    "G=0 [0 4 1/2 2 1] 1/3 [0 4 1/4 3 1/2 4 3/4 3 1] 2/3 [0 4 2/3 2 1] 1 H=0 [0 2 1/4 4 1/2 3 3/4 2 1] 1"
)

# (level, broken metric): {axiom: (failures, first failure)} at SAMPLES and SEED
METRIC_FAILURES = {
    (1, "plus-one"): {
        "d(f,f)": (20, (
            "space((1, 1),(1, 2),(2, 1),(2, 2)) f=0 (2,1) 1/5 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 "
            "g=0 (2,1) 1/5 (1,1) 3/10 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 h=0 (2,1) 1/2 (2,2) 1 d(f,f)",
            "0",
            "1",
        )),
        "zero-iff-same-class": (7, (
            "space((1, 1),(1, 2),(2, 1),(2, 2)) f=0 (2,1) 1/5 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 "
            "g=0 (2,1) 1/5 (1,1) 3/10 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 h=0 (2,1) 1/2 (2,2) 1 zero-iff-same-class",
            "True",
            "False",
        )),
    },
    (1, "asymmetric"): {
        "symmetry": (11, (
            "space(1,2,3) f=0 2 1 g=0 3 1/10 1 1/5 3 1/2 2 3/5 1 7/10 2 1 "
            "h=0 3 1/8 2 1/4 1 3/8 2 5/8 3 3/4 1 1 symmetry",
            "3/10",
            "3/5",
        )),
    },
    (1, "negated"): {
        "nonnegativity": (13, (
            "space(1,2) f=0 1 4/7 2 6/7 1 1 g=0 1 3/7 2 4/7 1 1 h=0 1 1 nonnegativity", ">= 0", "-3/7"
        )),
        "triangle": (13, ("space(1,2) f=0 1 4/7 2 6/7 1 1 g=0 1 3/7 2 4/7 1 1 h=0 1 1 triangle", "<= -4/7", "-2/7")),
    },
    (2, "plus-one"): {
        "d2(F,F)": (20, (f"{_TRIPLE2} d2(F,F)", "0", "1")),
        "zero-iff-same-class": (10, (f"{_TRIPLE2} zero-iff-same-class", "True", "False")),
    },
    (2, "asymmetric"): {
        "symmetry": (8, (
            "space(1,2,3,4) F=0 [0 2 1/2 4 1] 1 G=0 [0 2 1/2 1 1] 1/2 [0 2 1/2 1 3/4 2 1] 1 "
            "H=0 [0 2 1/3 4 2/3 2 1] 1 symmetry",
            "23/96",
            "23/48",
        )),
    },
    (2, "negated"): {
        "nonnegativity": (10, (f"{_NEGATED2} nonnegativity", ">= 0", "-11/18")),
        "triangle": (10, (f"{_NEGATED2} triangle", "<= -23/18", "-5/6")),
    },
    (2, "four-squared"): {
        "triangle": (1, (
            "space(1,2) F=0 [0 2 2/3 1 1] 1/3 [0 2 1/2 1 1] 2/3 [0 2 1] 1 G=0 [0 1 1] 1/4 [0 2 1] 1 "
            "H=0 [0 1 1/3 2 1] 1 triangle",
            "<= 197/162",
            "121/81",
        )),
    },
}

MONOTONICITY_FAILURES = (20, (
    "space((1, 1),(1, 2),(2, 1),(2, 2)) f=0 (2,1) 1/5 (1,1) 2/5 (2,2) 3/5 (1,2) 4/5 (1,1) 1 window=(0,1) "
    "phi1=(-2,2/3,2,-2/3) phi2=(3/7,23/21,32/7,1/3)",
    "<= -48/35",
    "2/5",
))


def _metric_suite(level: int):
    if level == 1:
        return "d_hm", laws.check_metric_axioms
    return "d_hm2", laws.check_metric_axioms_level2


@pytest.mark.parametrize("level, broken", sorted(METRIC_FAILURES))
def test_failures_of_a_broken_metric_per_axiom(level, broken, monkeypatch):
    name, suite = _metric_suite(level)
    monkeypatch.setattr(laws, name, BROKEN_METRICS[broken](getattr(laws, name)))
    by_axiom: dict[str, tuple[int, tuple]] = {}
    for failure in suite(laws.default_spaces(), SAMPLES, SEED).failures:
        axiom = failure.input.rsplit(" ", 1)[1]
        count, first = by_axiom.get(axiom, (0, tuple(failure)))
        by_axiom[axiom] = (count + 1, first)
    assert by_axiom == METRIC_FAILURES[level, broken]


@pytest.mark.parametrize("level", (1, 2))
def test_passing_metric_axioms_format_no_witness_text(level, monkeypatch):
    def refuse(f):
        raise AssertionError("format_stepfn called for a passing sample")

    monkeypatch.setattr(laws, "format_stepfn", refuse)
    _, suite = _metric_suite(level)
    assert suite(laws.default_spaces(), SAMPLES, SEED).verdict == "pass"


def test_first_failure_of_broken_monotonicity(monkeypatch):
    functional_eval = laws.functional_eval
    monkeypatch.setattr(laws, "functional_eval", lambda *args: -functional_eval(*args))
    report = laws.check_monotonicity(laws.default_spaces(), SAMPLES, SEED)
    assert report.law == "monotonicity" and report.verdict == "fail"
    assert (len(report.failures), tuple(report.failures[0])) == MONOTONICITY_FAILURES


def _rotated_map(hm_map):
    # the functor action on f with its blocks rotated by one
    return lambda h, f: hm_map(h, blocks(f.values[1:] + f.values[:1]))


def _identity_map(h, F):
    return F


def _reversed_pairing(pairing):
    # f paired with g's blocks in reverse order
    return lambda f, g: pairing(f, blocks(reversed(g.values)))


@pytest.mark.parametrize("name, wrong, call, message", (
    ("hm_map", _rotated_map, lambda: laws.build_witnesses(3), "projections of the diagonal staircase"),
    ("h2_map", lambda _: _identity_map, lambda: laws.build_witnesses(3), "collapse of the nested rows"),
    ("pairing", _reversed_pairing, lambda: laws.fiber_uniqueness(3), "pairing and functor action disagree"),
), ids=("projections", "collapse", "fiber-pairing"))
def test_fault_detector_fires(name, wrong, call, message, monkeypatch):
    call()  # holds on the unbroken code
    monkeypatch.setattr(laws, name, wrong(getattr(laws, name)))
    with pytest.raises(RuntimeError, match=message):
        call()
