"""The value-type contracts of hmstep's classes, pinned independently of how
the classes are built.

Validated types (``FiniteSpace``, ``TestFn``, ``Window``, ``StepFn``,
``SpaceMap``, ``MuCandidate``): equal instances hash
equal, the hash is the hash of the field tuple, an instance of another class
(a subclass included) compares unequal, the repr reads ``Name(field=...)``,
and assignment and deletion raise ``AttributeError``. A ``StepFn``, from
any producer, has no ``__dict__`` and round-trips through ``pickle`` and
``copy.deepcopy``.

Records (``LawFailure``, ``LawReport``, ``ProbeRow``, ``FiberResult``,
``Witnesses``, ``RunConfig``, ``Report``): attribute access,
defaults, equality and ``to_dict`` read as before.
"""

from __future__ import annotations

import pickle
from copy import deepcopy
from fractions import Fraction

import pytest

from hmstep.cli import Report, RunConfig, run
from hmstep.core import FULL_WINDOW, FiniteSpace, TestFn, Window, make_discrete_space, product_space
from hmstep.hm import SpaceMap, product_projections
from hmstep.laws import FiberResult, LawFailure, LawReport, ProbeRow, Witnesses, build_witnesses
from hmstep.stepfn import StepFn, blocks, canonicalize, constant
from hmstep.tower import DIAGONAL, MuCandidate, diagonal_flatten

SPACE = make_discrete_space(3)
TABLE = FiniteSpace((0, 1), ((0, "1/2"), ("1/2", 0)))


def _validated():
    """(fields, build) per validated type; build() makes a fresh, equal instance each call."""
    return {
        "FiniteSpace": (("labels", "dist"), lambda: FiniteSpace((0, 1), ((0, "1/2"), ("1/2", 0)))),
        "TestFn": (("space", "values"), lambda: TestFn(make_discrete_space(3), (1, 0, "1/3"))),
        "Window": (("a", "b"), lambda: Window("1/4", "3/4")),
        "StepFn": (("den", "ticks", "values"), lambda: StepFn((0, "1/3", "1/2", 1), (1, 2, 1))),
        "SpaceMap": (("source", "target", "assignment"), lambda: SpaceMap(SPACE, TABLE, (0, 1, 1))),
        "MuCandidate": (("name", "transform"), lambda: MuCandidate("diagonal", diagonal_flatten)),
    }


VALIDATED = _validated()


@pytest.mark.parametrize("name", sorted(VALIDATED))
class TestValidatedTypes:
    def test_equal_instances_hash_equal(self, name):
        fields, build = VALIDATED[name]
        x, y = build(), build()
        assert x is not y
        assert x == y and not (x != y)
        assert hash(x) == hash(y)
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields))
        assert {x, y} == {x}

    def test_other_classes_compare_unequal(self, name):
        fields, build = VALIDATED[name]
        x = build()
        as_tuple = tuple(getattr(x, f) for f in fields)
        assert x != as_tuple and as_tuple != x
        assert x != object() and x != None  # noqa: E711
        assert (x == as_tuple) is False

    def test_repr_names_the_fields(self, name):
        fields, build = VALIDATED[name]
        x = build()
        expected = f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in fields) + ")"
        assert repr(x) == expected

    def test_assignment_and_deletion_are_refused(self, name):
        fields, build = VALIDATED[name]
        x = build()
        before = hash(x)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert hash(x) == before and x == build()


@pytest.mark.parametrize("name", sorted(set(VALIDATED) - {"MuCandidate"}))
def test_pickle_round_trip(name):
    x = VALIDATED[name][1]()
    assert pickle.loads(pickle.dumps(x)) == x


STEPFN_PRODUCERS = {
    "constructor": lambda: StepFn((0, "1/3", "1/2", 1), (1, 2, 1)),
    "blocks": lambda: blocks((1, 2, 1)),
    "constant": lambda: constant(constant(2)),
    "merge": lambda: canonicalize(StepFn((0, "1/4", "1/2", 1), (1, 1, 2))),
    "pickle.loads": lambda: pickle.loads(pickle.dumps(StepFn((0, "1/2", 1), (blocks((1, 2)), constant(3))))),
}


@pytest.mark.parametrize("producer", sorted(STEPFN_PRODUCERS))
def test_stepfn_has_no_dict_and_round_trips(producer):
    f = STEPFN_PRODUCERS[producer]()
    assert not hasattr(f, "__dict__")
    copies = [pickle.loads(pickle.dumps(f, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for g in (*copies, deepcopy(f)):
        assert g is not f and not hasattr(g, "__dict__")
        assert g == f and hash(g) == hash(f)
        assert (g.den, g.ticks, g.values) == (f.den, f.ticks, f.values)


def test_exact_hashes_and_reprs():
    f = StepFn((0, "1/2", 1), (1, 2))
    assert hash(f) == hash((f.den, f.ticks, f.values)) == hash((2, (0, 1, 2), (1, 2)))
    assert repr(f) == "StepFn(den=2, ticks=(0, 1, 2), values=(1, 2))"
    half = Fraction(1, 2)
    assert hash(TABLE) == hash((TABLE.labels, TABLE.dist)) == hash(((0, 1), ((0, half), (half, 0))))
    assert repr(SPACE) == "FiniteSpace(labels=(1, 2, 3), dist=None)"
    assert repr(Window(0, "1/2")) == "Window(a=Fraction(0, 1), b=Fraction(1, 2))"
    assert repr(DIAGONAL).startswith("MuCandidate(name='diagonal', transform=")


def test_keyword_construction():
    assert FiniteSpace(labels=(1, 2, 3)) == SPACE
    assert Window(a=0, b=1) == FULL_WINDOW
    assert TestFn(space=SPACE, values=(1, 1, 1)) == TestFn(SPACE, (1,) * SPACE.n)
    assert SpaceMap(source=SPACE, target=SPACE, assignment=(1, 2, 3)) == SpaceMap(SPACE, SPACE, SPACE.labels)
    assert MuCandidate(name="diagonal", transform=diagonal_flatten) == DIAGONAL


def test_products_and_rule_maps_keep_their_equality():
    prod = product_space(SPACE, SPACE)
    explicit = FiniteSpace(prod.labels)
    assert prod == explicit and explicit == prod and hash(prod) == hash(explicit)
    assert repr(prod).startswith("ProductSpace(labels=((1, 1), (1, 2)")
    left, _ = product_projections(prod)
    as_tuple_map = SpaceMap(prod, SPACE, left.assignment)
    assert left != as_tuple_map and as_tuple_map != left
    with pytest.raises(AttributeError):
        prod.dist = None
    with pytest.raises(AttributeError):
        left.source = SPACE


class TestRecords:
    def test_law_failure(self):
        failure = LawFailure("in", "exp", "act")
        assert (failure.input, failure.expected, failure.actual) == ("in", "exp", "act")
        assert failure == LawFailure(input="in", expected="exp", actual="act")
        assert failure != LawFailure("in", "exp", "other")
        assert failure.to_dict() == {"input": "in", "expected": "exp", "actual": "act"}
        with pytest.raises(AttributeError):
            failure.input = "x"

    def test_law_report(self):
        failure = LawFailure("in", "exp", "act")
        report = LawReport("diagonal", "unit", 3, (failure,))
        assert report.steps == () and report.verdict == "fail"
        assert report == LawReport(candidate="diagonal", law="unit", samples=3, failures=(failure,), steps=())
        assert report.to_dict() == {
            "candidate": "diagonal",
            "law": "unit",
            "samples": 3,
            "failures": [failure.to_dict()],
            "verdict": "fail",
        }
        stepped = LawReport(None, "chain", 1, (), (("a", True),))
        assert stepped.verdict == "pass"
        assert stepped.to_dict()["steps"] == [{"step": "a", "holds": True}]
        assert hash(stepped) == hash(LawReport(None, "chain", 1, (), (("a", True),)))

    def test_probe_row(self):
        row = ProbeRow(4, Fraction(1, 4), Fraction(1, 4), Fraction(1))
        assert row.holds and not ProbeRow(4, Fraction(1, 4), Fraction(1, 3), Fraction(1)).holds
        assert row == ProbeRow(n=4, coordinate_distance=Fraction(1, 4), metric_distance=Fraction(1, 4), image_gap=1)
        assert row.to_dict() == {"n": 4, "coordinate_distance": "1/4", "metric_distance": "1/4", "image_gap": "1"}
        assert list(row.to_dict()) == ["n", "coordinate_distance", "metric_distance", "image_gap"]

    def test_fiber_result(self):
        result = FiberResult(2, (), 5)
        assert result.unique and (result.n, result.witnesses, result.checked) == (2, (), 5)
        assert result == FiberResult(n=2, witnesses=(), checked=5)
        assert result.to_report() == LawReport(None, "fiber-uniqueness", 5, (), (("unique", True),))
        w = StepFn((0, 1), ((1, 2),))
        failing = FiberResult(2, (w,), 5).to_report()
        assert failing.failures == (LawFailure("n=2 grid=2", "diagonal staircase only", "0 (1,2) 1"),)

    def test_witnesses(self):
        w = build_witnesses(3)
        assert isinstance(w, Witnesses)
        assert w.base.n == 3 and w.base == SPACE and len(w.nested_rows.values) == 3 and len(w.nested_bumps.values) == 3
        assert w.pairs == product_space(SPACE, SPACE) and w.two_point.labels == (0, 1)
        assert w == build_witnesses(3)
        with pytest.raises(AttributeError):
            w.base = SPACE

    def test_run_config_and_report(self):
        config = RunConfig()
        assert (config.command, config.n_range, config.grid, config.samples, config.seed) == ("all", (1, 16), None, 200, 0)
        assert (config.candidate, config.format, config.out) == ("diagonal", "text", None)
        probe = RunConfig(command="probe", n_range=(2, 3), out="report.json")
        assert probe.echo() == {
            "command": "probe",
            "n_range": [2, 3],
            "grid": None,
            "samples": 200,
            "seed": 0,
            "candidate": "diagonal",
            "format": "text",
        }
        assert list(probe.echo()) == ["command", "n_range", "grid", "samples", "seed", "candidate", "format"]
        assert probe == RunConfig("probe", (2, 3), None, 200, 0, "diagonal", "text", "report.json")
        code, report = run(probe)
        assert code == 0 and isinstance(report, Report) and report.passed
        assert (report.suites, len(report.probe)) == ((), 2)
        assert report.to_dict() == {
            "tool_version": report.tool_version,
            "config": probe.echo(),
            "suites": [],
            "probe": [row.to_dict() for row in report.probe],
        }
        assert report == run(probe)[1]
