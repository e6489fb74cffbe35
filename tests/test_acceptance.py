"""Acceptance gate: every headline guarantee, one timed check per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. Each check recomputes its claim from scratch at exact rational
precision (tolerance zero) and enforces a wall-clock budget."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hmstep

from hmstep.cli import (
    DEFAULT_FIBER_BUDGET,
    DEFAULT_PROBE_BUDGET,
    DEFAULT_SAMPLE_BUDGET,
    emit_report,
    parse_config,
    run,
)
from hmstep.laws import (
    FIBER_GRID,
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
    results = [fiber_uniqueness(n) for n in (1, 2, 3)]
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
    results = [fiber_uniqueness(n) for n in range(1, 65)]
    ok = all(r.unique and r.witnesses == () for r in results)
    _finish(
        "fiber-frontier",
        ok,
        time.perf_counter() - start,
        2.0,
        "n=1..64: the pairing of the staircase is the diagonal staircase",
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


def test_12_probe_budget_edge():
    # 1..512 sums to exactly the probe budget: the largest range probe admits from 1
    assert sum(range(1, 513)) == DEFAULT_PROBE_BUDGET
    start = time.perf_counter()
    rows = discontinuity_probe(DIAGONAL, 512)
    ok = len(rows) == 512 and all(row.holds for row in rows)
    _finish(
        "probe-budget-edge",
        ok,
        time.perf_counter() - start,
        5.0,
        "n=1..512, the probe budget's edge: image gap 1 at level-2 distance 1/n",
    )


def test_12_probe_budget_edge_command():
    # the command cuts 1..512 into one run of rows per CPU; the serial probe above is its oracle
    start = time.perf_counter()
    code, report = run(parse_config(["probe", "--n-range", "1:512"]))
    elapsed = time.perf_counter() - start
    ok = code == 0 and list(report.probe) == discontinuity_probe(DIAGONAL, 512)
    _finish(
        "probe-budget-edge-command",
        ok,
        elapsed,
        5.0,
        "probe --n-range 1:512 over the workers gives the serial rows",
    )


PEAK_LINE = """
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def _child_peak(code: str) -> tuple[list[bytes], float, float]:
    """Run code in a fresh interpreter and return the words it prints, its peak
    in MB and the wall time. The peak is Linux's VmHWM, the child's own:
    ru_maxrss would also count the test process's peak, which the child
    carries across its exec."""
    src = str(Path(hmstep.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code + PEAK_LINE], env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr.decode()
    *words, kb = proc.stdout.split()
    return words, int(kb) / 1024, elapsed


CHAIN_MEMORY_CHILD = """
from hmstep.laws import forced_value_chain
from hmstep.tower import DIAGONAL
report = forced_value_chain(1000, DIAGONAL)
print(report.verdict, sum(ok for _, ok in report.steps))
"""


def test_13_chain_memory():
    (verdict, held), peak_mb, elapsed = _child_peak(CHAIN_MEMORY_CHILD)
    ok = verdict == b"pass" and int(held) == 5 and peak_mb < 100
    _finish(
        "chain-memory",
        ok,
        elapsed,
        10.0,
        f"forced_value_chain(1000) holds all five steps at {peak_mb:.0f} MB max RSS (limit 100 MB)",
    )


PROBE_ROW_MEMORY_CHILD = """
from hmstep.laws import discontinuity_probe
from hmstep.tower import DIAGONAL
rows = discontinuity_probe(DIAGONAL, 65536, 65536)
print(len(rows), rows[0].n, rows[0].holds)
"""


def test_14_probe_row_memory():
    # one probe row at a scaled edge, n = 2**16
    (count, n, holds), peak_mb, elapsed = _child_peak(PROBE_ROW_MEMORY_CHILD)
    ok = (count, n, holds) == (b"1", b"65536", b"True") and peak_mb < 45
    _finish(
        "probe-row-memory",
        ok,
        elapsed,
        5.0,
        f"the probe row n=65536 holds at {peak_mb:.0f} MB max RSS (limit 45 MB)",
    )


EDGE_CHILD = """
import resource
from hmstep.cli import parse_config, run
code, report = run(parse_config({argv!r}))
print("ok" if code == 0 else "fail", len(report.suites), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _edge_peak(argv: list[str]) -> tuple[bytes, int, float, float]:
    """Run one command in a fresh child: its verdict, its suite count, the larger
    of its own peak and its forked workers' in MB, and the wall time."""
    (verdict, suites, workers_kb), peak_mb, elapsed = _child_peak(EDGE_CHILD.format(argv=argv))
    return verdict, int(suites), max(peak_mb, int(workers_kb) / 1024), elapsed


def test_15_sample_budget_edge_memory():
    # 1000 samples at the default grid 12 is exactly the sample budget
    assert 1000 * 12 == DEFAULT_SAMPLE_BUDGET
    verdict, suites, peak_mb, elapsed = _edge_peak(["lemmas", "--samples", "1000"])
    # measured about 17 MB and 0.5 s; importing hmstep.cli alone peaks at about 16 MB
    ok = verdict == b"ok" and suites == 8 and peak_mb < 22
    _finish(
        "sample-budget-edge-memory",
        ok,
        elapsed,
        5.0,
        f"lemmas --samples 1000 passes at {peak_mb:.0f} MB max RSS (limit 22 MB)",
    )


def test_16_fiber_budget_edge_memory():
    # 79 is the largest n whose cells times labels fit the fiber budget
    assert 79**3 * FIBER_GRID <= DEFAULT_FIBER_BUDGET < 80**3 * FIBER_GRID
    verdict, suites, peak_mb, elapsed = _edge_peak(["fiber", "--n-range", "1:79"])
    # measured about 16 MB and 0.1 s, no more than importing hmstep.cli alone
    ok = verdict == b"ok" and suites == 79 and peak_mb < 22
    _finish(
        "fiber-budget-edge-memory",
        ok,
        elapsed,
        5.0,
        f"fiber --n-range 1:79 finds every fiber unique at {peak_mb:.0f} MB max RSS (limit 22 MB)",
    )
