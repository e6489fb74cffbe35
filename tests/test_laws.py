"""Witness constructions, law suites, fiber enumeration, the forcing chain,
and the discontinuity probe."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hmstep.core import FiniteSpace, make_discrete_space
from hmstep.hm import d_hm, hm_map, unit
from hmstep.laws import (
    CANDIDATES,
    LawReport,
    build_witnesses,
    bump_fn,
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
    nested_bumps_fn,
    staircase_fn,
)
from hmstep.stepfn import StepFn, canonicalize
from hmstep.tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    d_hm2,
    diagonal_flatten,
    eta_h,
    h2_map,
    h_eta,
)

SPACES = default_spaces(4)
K1 = make_discrete_space(1)


class TestWitnesses:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_builds_with_identities_intact(self, n):
        w = build_witnesses(n)
        assert w.staircase.pieces == n
        assert w.diagonal_staircase.pieces == n
        assert len(w.nested_rows.values) == n and len(w.nested_bumps.values) == n
        assert hm_map(w.left_proj, w.diagonal_staircase) == w.staircase
        assert hm_map(w.right_proj, w.diagonal_staircase) == w.staircase
        assert h2_map(w.equality_collapse, w.nested_rows) == w.nested_bumps

    def test_degenerate_tower(self):
        # with a single block the bump never drops back to 0
        w = build_witnesses(1)
        assert w.nested_bumps == eta_h(unit(1, w.two_point))

    def test_paired_witnesses_hold_the_base_labels(self):
        # 300 is past CPython's cached small ints, so an int built apart from the base's is another object
        w = build_witnesses(300)
        labels = w.base.labels
        diagonal, rows = w.diagonal_staircase.values, w.nested_rows.values
        assert len(diagonal) == len(rows) == len(labels) == 300
        assert all(a is b is lab for (a, b), lab in zip(diagonal, labels))
        assert all(
            a is i and b is lab for i, row in zip(labels, rows) for (a, b), lab in zip(row.values, labels, strict=True)
        )

    def test_nested_rows_project_to_the_two_nestings(self):
        w = build_witnesses(4)
        assert h2_map(w.left_proj, w.nested_rows) == h_eta(w.staircase)
        assert h2_map(w.right_proj, w.nested_rows) == eta_h(w.staircase)

    def test_flattened_witnesses(self):
        for n in (1, 2, 3, 6):
            w = build_witnesses(n)
            assert diagonal_flatten(w.nested_rows) == w.diagonal_staircase
            assert diagonal_flatten(w.nested_bumps) == unit(1, w.two_point)

    def test_bump_measures(self):
        for n in (2, 5):
            for i in range(1, n + 1):
                b = bump_fn(i, n)
                total = sum(
                    (t1 - t0) * v for t0, t1, v in b.segments()
                )
                assert total == Fraction(1, n)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            build_witnesses(0)


class TestLevelOneSuites:
    def test_linearity_and_monotonicity_pass(self):
        for report in (
            check_linearity(SPACES, 150, 3),
            check_monotonicity(SPACES, 150, 4),
        ):
            assert report.verdict == "pass"
            assert report.samples == 150 and report.failures == ()

    def test_coordinate_suites_pass(self):
        assert check_coordinate_naturality(150, 5).verdict == "pass"
        assert check_unit_coordinate(SPACES, 150, 6).verdict == "pass"

    def test_support_suites_pass(self):
        assert check_support_criterion(SPACES, 150, 7).verdict == "pass"
        assert check_support_membership(SPACES, 150, 8).verdict == "pass"

    def test_metric_axioms_pass_at_both_levels(self):
        assert check_metric_axioms(SPACES, 150, 9).verdict == "pass"
        assert check_metric_axioms_level2(SPACES, 100, 10).verdict == "pass"

    def test_reports_are_seed_deterministic(self):
        a = check_linearity(SPACES, 40, 77)
        b = check_linearity(SPACES, 40, 77)
        assert a == b
        assert a != check_linearity(SPACES, 40, 78) or a.samples == 40


class TestMonadSuites:
    def test_diagonal_passes_all_three(self):
        assert check_unit_laws(DIAGONAL, SPACES, 150, 11).verdict == "pass"
        assert check_associativity(DIAGONAL, SPACES, 60, 12).verdict == "pass"
        assert check_naturality(DIAGONAL, 150, 13).verdict == "pass"

    def test_constant_left_fails_unit_laws_with_witness(self):
        report = check_unit_laws(CONSTANT_LEFT, SPACES, 150, 14)
        assert report.verdict == "fail"
        first = report.failures[0]
        assert first.input and first.expected and first.actual
        assert first.expected != first.actual

    def test_remap_last_fails_naturality_with_witness(self):
        report = check_naturality(REMAP_LAST, 150, 15)
        assert report.verdict == "fail"
        first = report.failures[0]
        assert first.input and first.expected and first.actual

    def test_single_point_base_accepts_any_candidate(self):
        # over one point every level-2 function flattens to the same constant
        for mu in CANDIDATES.values():
            assert check_unit_laws(mu, [K1], 60, 16).verdict == "pass"
            assert check_associativity(mu, [K1], 30, 17).verdict == "pass"

    def test_candidate_names_are_registered(self):
        assert set(CANDIDATES) == {"diagonal", "constant-left", "remap-last"}
        assert all(name == mu.name for name, mu in CANDIDATES.items())


def brute_force_fiber(n: int, grid: int) -> set[StepFn]:
    """Independent enumeration: materialize every grid step function over the
    paired space and keep the ones whose projections are both the staircase."""
    w = build_witnesses(n)
    cells = n * grid
    bps = tuple(Fraction(k, cells) for k in range(cells + 1))
    stair = w.staircase
    out = set()
    for vals in itertools.product(w.pairs.labels, repeat=cells):
        g = canonicalize(StepFn(bps, vals))
        if hm_map(w.left_proj, g) == stair and hm_map(w.right_proj, g) == stair:
            out.add(g)
    return out


class TestFiberUniqueness:
    def test_small_cases_are_unique(self):
        for n, grid in ((1, 1), (1, 3), (2, 1), (2, 2)):
            result = fiber_uniqueness(n, grid)
            assert result.unique and result.witnesses == ()

    def test_checked_counts_every_assignment(self):
        assert fiber_uniqueness(2, 2).checked == (2 * 2) ** 4
        assert fiber_uniqueness(1, 2).checked == 1

    def test_agrees_with_brute_force(self):
        for n, grid in ((1, 2), (2, 1)):
            w = build_witnesses(n)
            survivors = brute_force_fiber(n, grid)
            result = fiber_uniqueness(n, grid)
            assert result.unique == (survivors == {w.diagonal_staircase})
            assert set(result.witnesses) == survivors - {w.diagonal_staircase}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fiber_uniqueness(0, 1)
        with pytest.raises(ValueError):
            fiber_uniqueness(1, 0)

    def test_report_shape(self):
        report = fiber_uniqueness(2, 2).to_report()
        assert isinstance(report, LawReport)
        assert report.law == "fiber-uniqueness"
        assert report.steps == (("unique", True),)
        assert report.verdict == "pass"
        assert report.samples == 256


class TestForcedValueChain:
    @pytest.mark.parametrize("n", (1, 2, 3, 6))
    def test_diagonal_satisfies_every_step(self, n):
        report = forced_value_chain(n, DIAGONAL)
        assert report.verdict == "pass"
        assert report.candidate == "diagonal"
        assert len(report.steps) == 5
        assert all(ok for _, ok in report.steps)

    def test_step_names_in_forcing_order(self):
        names = [name for name, _ in forced_value_chain(2, DIAGONAL).steps]
        assert names == [
            "unit-laws-on-base",
            "both-nestings-flatten-to-staircase",
            "projections-of-flattened-rows-equal-staircase",
            "flattened-rows-equal-diagonal-staircase",
            "flattened-bumps-equal-constant-one",
        ]

    def test_constant_left_breaks_and_records_witnesses(self):
        report = forced_value_chain(2, CONSTANT_LEFT)
        assert report.verdict == "fail"
        held = dict(report.steps)
        assert not held["both-nestings-flatten-to-staircase"]
        assert not held["flattened-bumps-equal-constant-one"]
        assert report.failures
        assert all(f.input and f.expected and f.actual for f in report.failures)

    def test_remap_last_breaks_the_projection_step(self):
        report = forced_value_chain(3, REMAP_LAST)
        assert report.verdict == "fail"
        held = dict(report.steps)
        assert not held["projections-of-flattened-rows-equal-staircase"]

    def test_deterministic_for_a_seed(self):
        assert forced_value_chain(3, DIAGONAL, seed=5) == forced_value_chain(3, DIAGONAL, seed=5)


class TestDiscontinuityProbe:
    def test_diagonal_rows_pin_the_gap_at_one(self):
        rows = discontinuity_probe(DIAGONAL, 8)
        assert len(rows) == 8
        for row in rows:
            assert row.coordinate_distance == Fraction(1, row.n)
            assert row.metric_distance == Fraction(1, row.n)
            assert row.image_gap == 1

    def test_first_row_is_degenerate(self):
        row = discontinuity_probe(DIAGONAL, 1)[0]
        assert (row.coordinate_distance, row.metric_distance, row.image_gap) == (1, 1, 1)

    def test_constant_left_images_converge_instead(self):
        # the broken candidate is continuous here; it fails the laws instead
        for row in discontinuity_probe(CONSTANT_LEFT, 6):
            assert row.image_gap == Fraction(1, row.n)

    def test_row_serialization_uses_rational_strings(self):
        row = discontinuity_probe(DIAGONAL, 4)[3]
        assert row.to_dict() == {
            "n": 4,
            "coordinate_distance": "1/4",
            "metric_distance": "1/4",
            "image_gap": "1",
        }

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            discontinuity_probe(DIAGONAL, 0)

    def test_rows_match_direct_computation(self):
        two = FiniteSpace((0, 1))
        limit = eta_h(unit(0, two))
        for n in (2, 3, 5):
            got = discontinuity_probe(DIAGONAL, n)[n - 1]
            assert got.metric_distance == d_hm2(two, nested_bumps_fn(n), limit)
            assert got.image_gap == d_hm(
                two, diagonal_flatten(nested_bumps_fn(n)), diagonal_flatten(limit)
            )


class TestReportSerialization:
    def test_law_report_dict_shape(self):
        report = check_linearity(SPACES, 20, 1)
        d = report.to_dict()
        assert d == {
            "candidate": None,
            "law": "linearity",
            "samples": 20,
            "failures": [],
            "verdict": "pass",
        }

    def test_steps_appear_only_when_present(self):
        chain = forced_value_chain(2, DIAGONAL).to_dict()
        assert [s["step"] for s in chain["steps"]][0] == "unit-laws-on-base"
        assert all(s["holds"] for s in chain["steps"])
        flat = check_unit_laws(DIAGONAL, SPACES, 10, 2).to_dict()
        assert "steps" not in flat

    def test_failure_dicts_round_trip_strings(self):
        report = check_unit_laws(CONSTANT_LEFT, SPACES, 60, 3)
        entry = report.to_dict()["failures"][0]
        assert set(entry) == {"input", "expected", "actual"}

    def test_staircase_helper_matches_witness(self):
        for n in (1, 4):
            assert staircase_fn(n) == build_witnesses(n).staircase
