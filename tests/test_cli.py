"""Command-line interface: argument handling, report rendering, exit codes."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hmstep
from hmstep.cli import Report, RunConfig, emit_report, main, parse_config, run
from hmstep.laws import DEFAULT_CHAIN_BUDGET, DEFAULT_PROBE_BUDGET, DEFAULT_SAMPLE_BUDGET, LawReport
from test_fiber_factored import TIMED_MAIN, _limit_memory

SRC = str(Path(hmstep.__file__).resolve().parent.parent)


def parse_error_code(argv: list[str]) -> int:
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    return exc.value.code


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg.command == "all"
        assert cfg.n_range == (1, 16)
        assert cfg.samples == 200 and cfg.seed == 0
        assert cfg.candidate == "diagonal" and cfg.format == "text"
        assert cfg.grid is None and cfg.out is None

    def test_positional_and_flag_commands(self):
        assert parse_config(["probe"]).command == "probe"
        assert parse_config(["--command", "fiber"]).command == "fiber"
        assert parse_config(["laws", "--command", "laws"]).command == "laws"

    def test_n_range_parsing(self):
        assert parse_config(["probe", "--n-range", "2:9"]).n_range == (2, 9)
        assert parse_config(["probe", "--n-range", "5:5"]).n_range == (5, 5)

    def test_conflicting_commands_rejected(self):
        assert parse_error_code(["probe", "--command", "fiber"]) == 2

    def test_malformed_n_range_rejected(self):
        for bad in ("3", "0:4", "4:2", "a:b", "1:2:3"):
            assert parse_error_code(["probe", "--n-range", bad]) == 2

    def test_bad_numbers_rejected(self):
        assert parse_error_code(["lemmas", "--samples", "0"]) == 2
        assert parse_error_code(["lemmas", "--grid", "0"]) == 2

    def test_unknown_candidate_rejected(self):
        assert parse_error_code(["laws", "--candidate", "zigzag"]) == 2

    def test_csv_only_for_probe(self):
        assert parse_error_code(["lemmas", "--format", "csv"]) == 2
        assert parse_error_code(["all", "--format", "csv"]) == 2
        assert parse_config(["probe", "--format", "csv"]).format == "csv"

    def test_echo_excludes_out_path(self):
        cfg = parse_config(["probe", "--out", "/tmp/x.txt"])
        assert "out" not in cfg.echo()
        assert cfg.echo()["format"] == "text"


class TestRun:
    def test_probe_passes_and_renders_csv(self):
        code, report = run(parse_config(["probe", "--n-range", "1:4", "--format", "csv"]))
        assert code == 0
        text = emit_report(report, "csv")
        lines = text.splitlines()
        assert lines[0] == "n,coordinate_distance,metric_distance,image_gap"
        assert lines[4] == "4,1/4,1/4,1"

    def test_probe_range_restricts_rows(self):
        _, report = run(parse_config(["probe", "--n-range", "3:5"]))
        assert [row.n for row in report.probe] == [3, 4, 5]

    def test_lemmas_pass(self):
        code, report = run(parse_config(["lemmas", "--samples", "40", "--seed", "9"]))
        assert code == 0
        assert len(report.suites) == 8
        assert all(s.verdict == "pass" for s in report.suites)

    def test_laws_diagonal_passes(self):
        code, report = run(parse_config(["laws", "--samples", "30", "--n-range", "1:3"]))
        assert code == 0
        laws = [s.law for s in report.suites]
        assert laws[:3] == ["unit-laws", "associativity", "naturality"]
        assert laws[3:] == ["forced-value-chain"] * 3

    def test_laws_constant_left_fails(self):
        code, report = run(
            parse_config(["laws", "--candidate", "constant-left", "--samples", "30", "--n-range", "1:2"])
        )
        assert code == 1
        assert any(s.verdict == "fail" for s in report.suites)

    def test_fiber_within_budget(self):
        code, report = run(parse_config(["fiber", "--n-range", "1:2", "--grid", "2"]))
        assert code == 0
        assert [s.law for s in report.suites] == ["fiber-uniqueness"] * 2
        assert all(s.steps == (("unique", True),) for s in report.suites)

    def test_all_runs_every_section(self):
        code, report = run(parse_config(["all", "--samples", "25"]))
        assert code == 0
        laws = [s.law for s in report.suites]
        assert "linearity" in laws and "fiber-uniqueness" in laws
        assert "forced-value-chain" in laws and len(report.probe) == 16


class TestEmitReport:
    def test_json_round_trips_the_report_dict(self):
        _, report = run(parse_config(["probe", "--n-range", "1:3", "--format", "json"]))
        assert json.loads(emit_report(report, "json")) == report.to_dict()

    def test_text_summarizes_and_passes(self):
        _, report = run(parse_config(["lemmas", "--samples", "20"]))
        text = emit_report(report, "text")
        assert text.splitlines()[0].startswith("hmstep ")
        assert "overall: pass" in text
        assert "verdict=pass" in text

    def test_text_shows_failing_witnesses(self):
        _, report = run(
            parse_config(["laws", "--candidate", "constant-left", "--samples", "20", "--n-range", "1:1"])
        )
        text = emit_report(report, "text")
        assert "overall: fail" in text
        assert "expected" in text

    def test_text_shows_chain_steps(self):
        _, report = run(parse_config(["laws", "--samples", "10", "--n-range", "2:2"]))
        text = emit_report(report, "text")
        assert "step unit-laws-on-base: holds" in text
        assert "step flattened-bumps-equal-constant-one: holds" in text

    def test_empty_report_rejected(self):
        empty = Report(tool_version="0", config={}, suites=(), probe=())
        with pytest.raises(ValueError):
            emit_report(empty, "text")

    def test_csv_requires_probe_rows(self):
        _, report = run(parse_config(["lemmas", "--samples", "10"]))
        with pytest.raises(ValueError):
            emit_report(report, "csv")


class TestMain:
    def test_probe_exit_zero(self, capsys):
        assert main(["probe", "--n-range", "1:4"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_broken_candidate_exit_one(self, capsys):
        assert main(["laws", "--candidate", "remap-last", "--samples", "20", "--n-range", "1:2"]) == 1
        assert "overall: fail" in capsys.readouterr().out

    def test_usage_error_exit_two(self, capsys):
        assert parse_error_code(["--format", "yaml"]) == 2

    def test_fiber_budget_exit_three(self, capsys):
        assert main(["fiber", "--n-range", "80:80"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hmstep:") and "budget" in err

    def test_fiber_frontier_of_the_default_budget(self, capsys):
        # cells * n^2 is 158 * 6241 = 986,078 at n = 79, and 1,024,000 at n = 80
        assert main(["fiber", "--n-range", "79:79", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["suites"][0]["steps"] == [{"step": "unique", "holds": True}]
        assert main(["fiber", "--n-range", "80:80"]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("hmstep:")

    def test_fiber_count_too_long_to_print_exit_three(self, capsys):
        # within the budget (20000 cells * 4), but 4**20000 has more digits than Python prints
        assert main(["fiber", "--n-range", "2:2", "--grid", "10000"]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("hmstep:")

    def test_out_of_memory_exit_three(self):
        # n = 3000 builds a nine-million-point product space; a low address
        # space limit turns that into a MemoryError well under a second
        def limit_memory() -> None:
            limit = 128 << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "hmstep", "laws", "--n-range", "3000:3000", "--samples", "1"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_memory,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == "" and proc.stderr == "hmstep: out of memory\n"

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["probe", "--n-range", "1:2", "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["probe"][0]["image_gap"] == "1"
        assert capsys.readouterr().out == ""

    def test_unwritable_out_exit_three(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "r.txt"
        assert main(["probe", "--n-range", "1:2", "--out", str(missing)]) == 3
        assert capsys.readouterr().err.startswith("hmstep:")

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["all", "--samples", "30", "--seed", "42", "--format", "json"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_config_echo(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["lemmas", "--samples", "10", "--seed", "1", "--format", "json", "--out", str(a)])
        main(["lemmas", "--samples", "10", "--seed", "2", "--format", "json", "--out", str(b)])
        assert json.loads(a.read_text())["config"]["seed"] == 1
        assert json.loads(b.read_text())["config"]["seed"] == 2


class TestRunConfig:
    def test_frozen(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.samples = 7  # type: ignore[misc]

    def test_report_dict_contains_version_and_config(self):
        _, report = run(parse_config(["probe", "--n-range", "1:1"]))
        d = report.to_dict()
        assert d["tool_version"] == report.tool_version
        assert d["config"]["command"] == "probe"


class TestSampleBudget:
    """samples times grid is refused over ``DEFAULT_SAMPLE_BUDGET`` before any work."""

    @pytest.mark.parametrize("argv", (
        ["lemmas", "--grid", "1000000000", "--samples", "1"],
        ["lemmas", "--samples", "1000000000"],
    ))
    def test_unbounded_samples_exit_three_at_once(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_MAIN, *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_memory,
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hmstep:") and "budget" in lines[0]
        assert float(proc.stdout) < 0.1

    @pytest.mark.parametrize("command", ("lemmas", "all"))
    def test_one_over_the_budget_is_refused(self, command):
        config = RunConfig(command=command, samples=1, grid=DEFAULT_SAMPLE_BUDGET + 1)
        with pytest.raises(hmstep.BudgetError):
            run(config)

    def test_laws_counts_the_default_grid_only(self, capsys):
        # laws reads no grid: a huge --grid costs nothing, one sample over 1000 is refused
        with pytest.raises(hmstep.BudgetError):
            run(RunConfig(command="laws", samples=DEFAULT_SAMPLE_BUDGET // 12 + 1, n_range=(1, 1)))
        argv = ["laws", "--grid", str(DEFAULT_SAMPLE_BUDGET + 1), "--samples", "1", "--n-range", "1:1"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("overall: pass\n")

    def test_budget_is_admitted_in_full(self, capsys):
        # laws reads no grid, so the default 12 counts: 1000 * 12 is the budget exactly
        assert DEFAULT_SAMPLE_BUDGET == 1000 * 12
        assert main(["laws", "--samples", "1000", "--n-range", "1:1"]) == 0
        assert capsys.readouterr().out.endswith("overall: pass\n")

    def test_admitted_lemma_edge_runs_in_seconds(self):
        # the whole budget on one sample: every lemma suite is linear in grid
        argv = ["lemmas", "--samples", "1", "--grid", str(DEFAULT_SAMPLE_BUDGET)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hmstep", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_memory,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 5, f"lemmas at the budget's edge took {elapsed:.1f} s"

    def test_fiber_ignores_the_sample_budget(self, capsys):
        assert main(["fiber", "--n-range", "1:1", "--grid", str(DEFAULT_SAMPLE_BUDGET), "--samples", "2"]) == 0


class TestProbeBudget:
    """n summed over the probe's rows is refused over ``DEFAULT_PROBE_BUDGET`` before any work."""

    def test_unbounded_range_exits_three_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_MAIN, "probe", "--n-range", "1:100000"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_memory,
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hmstep:") and "budget" in lines[0]
        assert float(proc.stdout) < 0.1

    def test_budget_edge_is_admitted(self, capsys):
        # 1 + 2 + ... + 512 is the budget exactly; one more row is over it
        assert DEFAULT_PROBE_BUDGET == sum(range(1, 513))
        with pytest.raises(hmstep.BudgetError):
            run(parse_config(["probe", "--n-range", "1:513"]))
        assert main(["probe", "--n-range", "1:512", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 513 and lines[-1] == "512,1/512,1/512,1"

    def test_ranges_not_starting_at_one_are_counted(self):
        # the cost is n summed over the rows asked for: one row past the budget, or 300..600
        far = DEFAULT_PROBE_BUDGET + 1
        with pytest.raises(hmstep.BudgetError):
            run(parse_config(["probe", "--n-range", f"{far}:{far}"]))
        with pytest.raises(hmstep.BudgetError):
            run(parse_config(["probe", "--n-range", "300:600"]))


class TestChainBudget:
    """n squared summed over the forced chains of ``laws`` is refused over ``DEFAULT_CHAIN_BUDGET`` before any work."""

    def test_wide_range_exits_three_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_MAIN, "laws", "--n-range", "1:400", "--samples", "1"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_memory,
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hmstep:") and "budget" in lines[0]
        assert float(proc.stdout) < 0.1

    @pytest.mark.parametrize("lo, hi, cost", ((1, 300, 9_045_050), (2999, 3000, 17_994_001)))
    def test_one_over_the_budget_is_refused(self, lo, hi, cost):
        assert sum(n * n for n in range(lo, hi + 1)) == cost
        with pytest.raises(hmstep.BudgetError, match=f"{lo}..{hi} \\({cost}\\)"):
            run(parse_config(["laws", "--n-range", f"{lo}:{hi}", "--samples", "1"]))

    @pytest.mark.parametrize("lo, hi, cost", ((1, 299, 8_955_050), (3000, 3000, 9_000_000)))
    def test_budget_edge_is_admitted(self, monkeypatch, lo, hi, cost):
        # the chains are stubbed: admission is decided before any of them runs
        assert DEFAULT_CHAIN_BUDGET == 9_000_000 and sum(n * n for n in range(lo, hi + 1)) == cost
        stub = lambda n, mu, seed: LawReport(mu.name, f"chain-stub-{n}-{seed}", 1, ())  # noqa: E731
        monkeypatch.setattr(hmstep.cli, "forced_value_chain", stub)
        code, report = run(parse_config(["laws", "--n-range", f"{lo}:{hi}", "--samples", "1"]))
        assert code == 0
        assert [s.law for s in report.suites[3:]] == [f"chain-stub-{n}-{20 + n}" for n in range(lo, hi + 1)]
