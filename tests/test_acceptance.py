"""Acceptance gate: every headline guarantee, one timed check per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. Each check recomputes its claim from scratch at exact rational
precision (tolerance zero) and enforces a wall-clock budget."""

from __future__ import annotations

import time
from fractions import Fraction

from hmstep.cli import emit_report, parse_config, run
from hmstep.laws import (
    check_associativity,
    check_coordinate_naturality,
    check_linearity,
    check_metric_axioms,
    check_metric_axioms_level2,
    check_monotonicity,
    check_naturality,
    check_support_criterion,
    check_support_membership,
    check_unit_coordinate,
    check_unit_laws,
    default_spaces,
    discontinuity_probe,
    fiber_uniqueness,
    forced_value_chain,
)
from hmstep.tower import CONSTANT_LEFT, DIAGONAL


def _finish(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{verdict}] {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget:.0f}s"


def test_01_discontinuity_gap_persists():
    start = time.perf_counter()
    rows = discontinuity_probe(DIAGONAL, 32)
    ok = len(rows) == 32 and all(
        row.coordinate_distance == Fraction(1, row.n)
        and row.metric_distance == Fraction(1, row.n)
        and row.image_gap == 1
        for row in rows
    )
    _finish(
        "discontinuity-gap",
        ok,
        time.perf_counter() - start,
        1.0,
        "n=1..32 towers shrink like 1/n while image gap stays 1",
    )


def test_02_forced_value_chain():
    start = time.perf_counter()
    reports = [forced_value_chain(n, DIAGONAL) for n in range(1, 17)]
    ok = all(r.verdict == "pass" and all(h for _, h in r.steps) for r in reports)
    _finish(
        "forced-value-chain",
        ok,
        time.perf_counter() - start,
        5.0,
        "n=1..16 all five forcing steps hold for the diagonal",
    )


def test_03_fiber_uniqueness():
    start = time.perf_counter()
    results = [fiber_uniqueness(n, g) for n, g in ((1, 1), (2, 2), (2, 3), (3, 2))]
    ok = all(r.unique and r.witnesses == () for r in results)
    checked = sum(r.checked for r in results)
    _finish(
        "fiber-uniqueness",
        ok,
        time.perf_counter() - start,
        30.0,
        f"diagonal staircase is the only fiber point ({checked} assignments checked)",
    )


def test_04_functional_linearity_monotonicity():
    start = time.perf_counter()
    spaces = default_spaces(5)
    lin = check_linearity(spaces, 1000, 2026, grid=12)
    mono = check_monotonicity(spaces, 1000, 2027, grid=12)
    ok = lin.verdict == "pass" and mono.verdict == "pass"
    _finish(
        "coordinate-linearity-monotonicity",
        ok,
        time.perf_counter() - start,
        5.0,
        "1000 random linearity and 1000 monotonicity samples",
    )


def test_05_coordinate_naturality_and_unit():
    start = time.perf_counter()
    nat = check_coordinate_naturality(1000, 2028, grid=12)
    unit_rep = check_unit_coordinate(default_spaces(5), 1000, 2029)
    ok = nat.verdict == "pass" and unit_rep.verdict == "pass"
    _finish(
        "coordinate-naturality-unit",
        ok,
        time.perf_counter() - start,
        5.0,
        "1000 naturality and 1000 unit-coordinate samples",
    )


def test_06_monad_laws_and_broken_candidate():
    start = time.perf_counter()
    spaces = default_spaces(4)
    good = (
        check_unit_laws(DIAGONAL, spaces, 500, 2030),
        check_associativity(DIAGONAL, spaces, 200, 2031),
        check_naturality(DIAGONAL, 500, 2032),
    )
    broken = check_unit_laws(CONSTANT_LEFT, spaces, 500, 2033)
    witnessed = broken.verdict == "fail" and all(
        f.input and f.expected and f.actual for f in broken.failures[:1]
    )
    ok = all(r.verdict == "pass" for r in good) and witnessed and bool(broken.failures)
    _finish(
        "monad-laws",
        ok,
        time.perf_counter() - start,
        10.0,
        "diagonal passes unit/associativity/naturality; constant-left fails with witness",
    )


def test_07_metric_axioms_both_levels():
    start = time.perf_counter()
    spaces = default_spaces(4)
    level1 = check_metric_axioms(spaces, 500, 2034, grid=12)
    level2 = check_metric_axioms_level2(spaces, 500, 2035)
    ok = level1.verdict == "pass" and level2.verdict == "pass"
    _finish(
        "metric-axioms",
        ok,
        time.perf_counter() - start,
        5.0,
        "500 level-1 and 500 level-2 axiom samples",
    )


def test_08_support_checks():
    start = time.perf_counter()
    spaces = default_spaces(4)
    crit = check_support_criterion(spaces, 500, 2036)
    member = check_support_membership(spaces, 500, 2037)
    ok = crit.verdict == "pass" and member.verdict == "pass"
    _finish(
        "support-checks",
        ok,
        time.perf_counter() - start,
        5.0,
        "500 containment and 500 membership samples against piece scans",
    )


def test_09_deterministic_reports():
    start = time.perf_counter()
    argv = ["all", "--samples", "120", "--seed", "42", "--format", "json"]
    code_a, rep_a = run(parse_config(argv))
    code_b, rep_b = run(parse_config(argv))
    bytes_a = emit_report(rep_a, "json").encode()
    bytes_b = emit_report(rep_b, "json").encode()
    ok = code_a == code_b == 0 and bytes_a == bytes_b and len(bytes_a) > 0
    _finish(
        "deterministic-reports",
        ok,
        time.perf_counter() - start,
        30.0,
        "two full runs with one seed emit byte-identical JSON",
    )


def test_10_fiber_frontier():
    start = time.perf_counter()
    results = [fiber_uniqueness(n, 2) for n in range(1, 65)]
    ok = all(r.unique and r.witnesses == () for r in results)
    _finish(
        "fiber-frontier",
        ok,
        time.perf_counter() - start,
        2.0,
        "n=1..64 at grid 2: the pairing of the staircase is the diagonal staircase",
    )


def test_11_probe_frontier():
    start = time.perf_counter()
    rows = discontinuity_probe(DIAGONAL, 400)
    ok = len(rows) == 400 and all(row.holds for row in rows)
    _finish(
        "probe-frontier",
        ok,
        time.perf_counter() - start,
        5.0,
        "n=1..400 image gap 1 at level-2 distance 1/n",
    )
