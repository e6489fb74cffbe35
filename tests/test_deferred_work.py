"""Work the forced chain and the coordinates leave undone, and what they still do.

* ``forced_value_chain`` formats witness text only for a step that fails: a
  passing chain never calls ``format_stepfn``, and each failing step of a
  broken candidate carries exactly the text of the values it compared.
* A unit-law sample that passes builds no witness: a passing check calls
  neither ``format_stepfn`` nor ``_space_tag``, and a failing control's
  witnesses come in sample order, inside before outside, each with the text
  of the values it compared.
* ``stepfn.constant`` builds its fixed one-piece partition without the
  validating constructor; ``hm.unit`` still goes through it.
* A ``Window`` derives its ends' int ratios once: the iterated coordinate
  calls ``Fraction.as_integer_ratio`` once per inner point, for the weights,
  however many outer pieces share the inner window.
* The level-1 metric and coordinate build their int tables the same way:
  ``d_hm`` converts each distinct pair of unequal values once and
  ``functional_eval`` each distinct point once, however many pieces repeat it.
* The level-1 metric and the membership check check their points once:
  ``d_hm`` makes one ``_check_points`` call over both functions' values, and
  ``support_membership_check`` only ``functional_eval``'s, as the indicator
  of x already refuses a non-point.
* The witness towers skip the merge scan: ``nested_bumps_fn`` runs no
  ``_merged``, and ``hm_map`` checks the n² pairs of the nested rows against
  the product, projected at once or row by row through ``h2_map``, with no
  ``FiniteSpace.__contains__`` call.
* ``tower`` nests the pair kernels through closures: no ``partial`` with
  keyword arguments, which would build a kwargs dict on every inner call.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from hmstep import hm, laws, stepfn, tower
from hmstep.core import FULL_WINDOW, FiniteSpace, TestFn, Window, make_discrete_space
from hmstep.hm import d_hm, functional_eval, hm_map, pairing, support_membership_check, unit
from hmstep.laws import build_witnesses, fixed_rational_space, forced_value_chain, nested_bumps_fn
from hmstep.stepfn import StepFn, blocks, constant, evaluate, format_stepfn
from hmstep.tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    MuCandidate,
    diagonal_flatten,
    eta_h,
    h_eta,
    iterated_functional_eval,
)


def test_passing_chain_formats_no_witness_text(monkeypatch):
    def refuse(f):
        raise AssertionError("format_stepfn called for a passing chain")

    monkeypatch.setattr(laws, "format_stepfn", refuse)
    report = forced_value_chain(8, DIAGONAL)
    assert report.verdict == "pass" and len(report.steps) == 5 and all(ok for _, ok in report.steps)


def _compared(n: int, mu) -> dict:
    """Each chain step's expected value and the values compared with it, recomputed."""
    w = build_witnesses(n)
    flat_rows = mu(w.nested_rows)
    return {
        "both-nestings-flatten-to-staircase": (w.staircase, (mu(h_eta(w.staircase)), mu(eta_h(w.staircase)))),
        "projections-of-flattened-rows-equal-staircase": (
            w.staircase,
            (hm_map(w.left_proj, flat_rows), hm_map(w.right_proj, flat_rows)),
        ),
        "flattened-rows-equal-diagonal-staircase": (w.diagonal_staircase, (flat_rows,)),
        "flattened-bumps-equal-constant-one": (unit(1, w.two_point), (mu(w.nested_bumps),)),
    }


# the diagonal, except that a one-piece F (the outer unit) goes to a constant: one nesting flattens, one fails
OUTER_UNIT_BROKEN = MuCandidate(
    "outer-unit-broken", lambda F: diagonal_flatten(F) if F.pieces > 1 else constant(evaluate(F.values[0], 0))
)


@pytest.mark.parametrize("mu", (CONSTANT_LEFT, REMAP_LAST, OUTER_UNIT_BROKEN))
def test_failing_steps_carry_the_text_of_the_compared_values(mu):
    n = 3
    report = forced_value_chain(n, mu)
    compared = _compared(n, mu)
    assert [name for name, _ in report.steps[1:]] == list(compared)
    for name, ok in report.steps[1:]:
        expected, actual = compared[name]
        assert ok == all(a == expected for a in actual)
    if mu is OUTER_UNIT_BROKEN:  # one compared value holds, the other does not
        assert [ok for _, ok in report.steps[1:]] == [False, True, True, True]
    failing = [name for name, ok in report.steps[1:] if not ok]
    step_failures = [f for f in report.failures if f.input.startswith(f"n={n} ")]
    assert failing and [f.input for f in step_failures] == [f"n={n} {name}" for name in failing]
    for failure, name in zip(step_failures, failing):
        expected, actual = compared[name]
        assert failure.expected == format_stepfn(expected)
        assert failure.actual == " / ".join(format_stepfn(a) for a in actual)


@pytest.mark.parametrize("seed", (0, 7))
def test_passing_unit_law_samples_build_no_witness(monkeypatch, seed):
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("format_stepfn", "_space_tag"):
        monkeypatch.setattr(laws, name, counting(name, getattr(laws, name)))
    report = laws.check_unit_laws(DIAGONAL, laws.default_spaces(3), 200, seed)
    assert report.verdict == "pass" and report.samples == 200 and calls == []


@pytest.mark.parametrize("mu", (CONSTANT_LEFT, REMAP_LAST))
def test_failing_unit_law_samples_report_in_sample_order_inside_first(mu):
    spaces, seed = laws.default_spaces(3), 11
    rng = random.Random(seed)
    expected = []
    for _ in range(60):  # the trial's draws, replayed: a space, a grid, then f
        space = rng.choice(spaces)
        f = stepfn.random_stepfn(space, rng.randint(1, 8), rng)
        tag = f"space({','.join(map(str, space.labels))})"
        for side, flat in (("inside", mu(h_eta(f))), ("outside", mu(eta_h(f)))):
            if flat != f:
                expected.append((f"{tag} unit-{side} f={format_stepfn(f)}", format_stepfn(f), format_stepfn(flat)))
    report = laws.check_unit_laws(mu, spaces, 60, seed)
    assert expected and [tuple(failure) for failure in report.failures] == expected
    # constant-left keeps the outer unit, so only its inside fails; remap-last fails both sides of a sample
    both = [a for a, b in zip(expected, expected[1:]) if a[0].replace("unit-inside", "unit-outside") == b[0]]
    assert bool(both) == (mu is REMAP_LAST)


def test_constant_is_trusted_and_unit_is_validated(monkeypatch):
    validated = []
    check = StepFn.__post_init__

    def counting(self, breakpoints, values):
        validated.append(values)
        return check(self, breakpoints, values)

    monkeypatch.setattr(StepFn, "__post_init__", counting)
    k2 = make_discrete_space(2)
    c = constant(2)
    assert validated == []
    u = unit(2, k2)
    assert len(validated) == 1
    assert c == u == StepFn((0, 1), (2,)) and c.breakpoints == (0, 1) and c.den == 1
    assert constant(c).values == (c,)


def test_iterated_coordinate_derives_window_ratios_once(monkeypatch):
    two = FiniteSpace((0, 1))
    ident = TestFn(two, (0, 1))
    inner, outer = Window(Fraction(1, 7), Fraction(5, 6)), Window(Fraction(1, 97), 1)
    towers = [nested_bumps_fn(n) for n in (5, 64)]
    expected = [iterated_functional_eval(ident, inner, outer, F) for F in towers]
    full = [iterated_functional_eval(ident, FULL_WINDOW, FULL_WINDOW, F) for F in towers]
    calls = []
    ratio = Fraction.as_integer_ratio

    def counting(self):
        calls.append(self)
        return ratio(self)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counting)
    for F, want, want_full in zip(towers, expected, full):
        calls.clear()
        assert iterated_functional_eval(ident, inner, outer, F) == want
        assert len(calls) == 2  # the two weights, not the windows
        calls.clear()
        assert iterated_functional_eval(ident, FULL_WINDOW, FULL_WINDOW, F) == want_full
        assert len(calls) == 2
    assert inner.ratios == ((1, 7), (5, 6)) and outer.ratios == ((1, 97), (1, 1))


def test_level1_metric_and_coordinate_derive_ratios_once_per_pair_or_point(monkeypatch):
    table = fixed_rational_space()
    f, g = blocks((1, 2, 3) * 20), blocks((2, 1, 1, 4) * 15)
    phi = TestFn(table, (Fraction(-1, 3), Fraction(2, 5), 7, Fraction(5, 6)))
    coordinates = [(phi, w) for w in (FULL_WINDOW, Window(Fraction(1, 7), Fraction(5, 6)))]
    pairs = {(a, b) for a, b in pairing(f, g).values if a != b}
    distance, means = d_hm(table, f, g), [functional_eval(*c, f) for c in coordinates]
    calls = []
    ratio = Fraction.as_integer_ratio

    def counting(self):
        calls.append(self)
        return ratio(self)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counting)
    assert d_hm(table, f, g) == distance
    assert len(calls) == len(pairs) == 7  # of the 45 unequal overlaps
    for coordinate, mean in zip(coordinates, means):
        calls.clear()
        assert functional_eval(*coordinate, f) == mean
        assert len(calls) == 3  # of 60 pieces


def test_level1_metric_and_membership_check_points_once(monkeypatch):
    k3 = make_discrete_space(3)
    f, g = blocks((1, 2, 3, 1)), blocks((2, 3))
    checked = []
    check = hm._check_points

    def counting(space, points):
        checked.append(points)
        return check(space, points)

    monkeypatch.setattr(hm, "_check_points", counting)
    assert d_hm(k3, f, g) == Fraction(1, 2)
    assert checked == [(1, 2, 3, 1, 2, 3)]
    checked.clear()
    assert support_membership_check(k3, f, 3) and not support_membership_check(k3, g, 1)
    assert checked == [(1, 2, 3, 1), (2, 3)]  # functional_eval's, over the function's values


def test_bump_tower_runs_no_merge_scan(monkeypatch):
    towers = {n: nested_bumps_fn(n) for n in (1, 2, 7, 64)}
    scans = []
    merged = stepfn._merged

    def counting(pieces):
        scans.append(pieces)
        return merged(pieces)

    monkeypatch.setattr(stepfn, "_merged", counting)
    for n, F in towers.items():
        assert nested_bumps_fn(n) == F
    assert scans == []


@pytest.mark.parametrize("n", (1, 3, 32))
def test_pair_membership_makes_no_per_point_call(monkeypatch, n):
    w = build_witnesses(n)
    pairs = list(chain.from_iterable(row.values for row in w.nested_rows.values))
    expected = blocks(p[0] for p in pairs)
    calls = []
    contains = FiniteSpace.__contains__

    def counting(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(FiniteSpace, "__contains__", counting)
    assert hm_map(w.left_proj, blocks(pairs)) == expected and len(set(pairs)) == n * n
    assert tower.h2_map(w.equality_collapse, w.nested_rows) == w.nested_bumps
    assert calls == []
    with pytest.raises(ValueError, match=r"\(1, 0\) is not a point"):
        hm_map(w.left_proj, blocks(pairs + [(1, 0)]))
    assert calls  # a foreign pair falls back to the per-point loop


def test_tower_nests_no_keyword_partial():
    tree = ast.parse(Path(tower.__file__).read_text())
    keyword_partials = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "partial" and node.keywords
    ]
    assert keyword_partials == []
