"""Batch verification front end.

Runs the coordinate/support suites, the monad-law suites for a chosen
candidate, the fiber oracle, and the discontinuity probe, then renders one
deterministic report (JSON, CSV for probe rows, or text). Identical config
and seed produce byte-identical reports. Exit codes: 0 all checks pass,
1 some assertion failed, 2 usage error, 3 over budget, out of memory, or the
report cannot be rendered or written.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import __version__
from .laws import (
    CANDIDATES,
    DEFAULT_PROBE_BUDGET,
    DEFAULT_SAMPLE_BUDGET,
    BudgetError,
    LawReport,
    ProbeRow,
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

COMMANDS = ("lemmas", "laws", "fiber", "probe", "all")
FORMATS = ("json", "csv", "text")


class RunConfig(NamedTuple):
    command: str = "all"
    n_range: tuple[int, int] = (1, 16)
    grid: int | None = None
    samples: int = 200
    seed: int = 0
    candidate: str = "diagonal"
    format: str = "text"
    out: str | None = None

    def echo(self) -> dict:
        # out path deliberately not echoed: identical config+seed must give
        # byte-identical reports regardless of where they are written
        config = {key: value for key, value in self._asdict().items() if key != "out"}
        return {**config, "n_range": list(self.n_range)}


class Report(NamedTuple):
    tool_version: str
    config: dict
    suites: tuple[LawReport, ...]
    probe: tuple[ProbeRow, ...]

    @property
    def passed(self) -> bool:
        return all(s.verdict == "pass" for s in self.suites) and all(row.holds for row in self.probe)

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": self.config,
            "suites": [s.to_dict() for s in self.suites],
            "probe": [row.to_dict() for row in self.probe],
        }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmstep",
        description="Exact verification harness for step-function spaces: "
        "coordinate and support suites, monad laws, fiber uniqueness, and "
        "the discontinuity probe.",
    )
    parser.add_argument(
        "command_pos",
        nargs="?",
        choices=COMMANDS,
        metavar="command",
        help="one of: " + ", ".join(COMMANDS) + " (default: all)",
    )
    parser.add_argument("--command", dest="command_flag", choices=COMMANDS, help="alternative to the positional command")
    parser.add_argument("--n-range", metavar="LOW:HIGH", help="witness index range (default 1:16)")
    parser.add_argument("--grid", type=int, help="subdivision for fiber runs / denominator bound for sampled functions")
    parser.add_argument("--samples", type=int, default=200, help="sample count per suite (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="seed for all sampled suites (default 0)")
    parser.add_argument("--candidate", default="diagonal", help="multiplication candidate name (default diagonal)")
    parser.add_argument("--format", choices=FORMATS, default="text", help="report format (default text)")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command_pos and ns.command_flag and ns.command_pos != ns.command_flag:
        parser.error(f"conflicting commands: {ns.command_pos} vs {ns.command_flag}")
    command = ns.command_pos or ns.command_flag or "all"
    n_range = (1, 16)
    if ns.n_range is not None:
        try:
            lo_text, hi_text = ns.n_range.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            parser.error(f"--n-range expects LOW:HIGH, got {ns.n_range!r}")
        if lo < 1 or hi < lo:
            parser.error(f"--n-range needs 1 <= LOW <= HIGH, got {ns.n_range!r}")
        n_range = (lo, hi)
    if ns.samples < 1:
        parser.error("--samples must be at least 1")
    if ns.grid is not None and ns.grid < 1:
        parser.error("--grid must be at least 1")
    if ns.candidate not in CANDIDATES:
        parser.error(
            f"unknown candidate {ns.candidate!r}; known: {', '.join(sorted(CANDIDATES))}"
        )
    if ns.format == "csv" and command != "probe":
        parser.error("--format csv is defined only for the probe command")
    return RunConfig(
        command=command,
        n_range=n_range,
        grid=ns.grid,
        samples=ns.samples,
        seed=ns.seed,
        candidate=ns.candidate,
        format=ns.format,
        out=ns.out,
    )


def _lemma_block(samples: int, seed: int, grid: int) -> list[LawReport]:
    pool = default_spaces()
    return [
        check_linearity(pool, samples, seed + 1, grid=grid),
        check_monotonicity(pool, samples, seed + 2, grid=grid),
        check_coordinate_naturality(samples, seed + 3, grid=grid),
        check_unit_coordinate(pool, samples, seed + 4),
        check_support_criterion(pool, samples, seed + 5, grid=grid),
        check_support_membership(pool, samples, seed + 6, grid=grid),
        check_metric_axioms(pool, samples, seed + 7, grid=grid),
        check_metric_axioms_level2(pool, samples, seed + 8),
    ]


def _law_block(candidate: str, samples: int, seed: int, chain_ns: range) -> list[LawReport]:
    mu = CANDIDATES[candidate]
    pool = default_spaces(3)
    reports = [
        check_unit_laws(mu, pool, samples, seed + 11),
        check_associativity(mu, pool, samples, seed + 12),
        check_naturality(mu, samples, seed + 13),
    ]
    reports.extend(forced_value_chain(n, mu, seed=seed + 20 + n) for n in chain_ns)
    return reports


def run(config: RunConfig) -> tuple[int, Report]:
    """Execute the configured command; returns (exit_code, report).

    May raise :class:`BudgetError` or ``MemoryError``; ``main`` maps both to exit code 3.
    """
    suites: list[LawReport] = []
    probe_rows: list[ProbeRow] = []
    lo, hi = config.n_range
    mu = CANDIDATES[config.candidate]
    grid = config.grid or 12
    # laws reads no grid: its suites run at fixed grids 8, 4 and 4, and each sample is charged 12
    counted = grid if config.command in ("lemmas", "all") else 12
    if config.command in ("lemmas", "laws", "all") and config.samples * counted > DEFAULT_SAMPLE_BUDGET:
        raise BudgetError(
            f"samples times grid ({config.samples} x {counted}) is over the budget of {DEFAULT_SAMPLE_BUDGET}"
        )
    if config.command == "probe" and (cost := (lo + hi) * (hi - lo + 1) // 2) > DEFAULT_PROBE_BUDGET:
        raise BudgetError(f"n summed over rows {lo}..{hi} ({cost}) is over the budget of {DEFAULT_PROBE_BUDGET}")
    if config.command in ("lemmas", "all"):
        suites.extend(_lemma_block(config.samples, config.seed, grid))
    if config.command == "laws":
        suites.extend(_law_block(config.candidate, config.samples, config.seed, range(lo, hi + 1)))
    elif config.command == "all":
        suites.extend(_law_block(config.candidate, config.samples, config.seed, range(1, 5)))
    if config.command == "fiber":
        for n in range(lo, hi + 1):
            suites.append(fiber_uniqueness(n, config.grid or 2).to_report())
    elif config.command == "all":
        for n, grid in ((1, 2), (2, 2), (3, 2)):
            suites.append(fiber_uniqueness(n, grid).to_report())
    if config.command == "probe":
        probe_rows = discontinuity_probe(mu, hi, lo)
    elif config.command == "all":
        probe_rows = discontinuity_probe(mu, 16)
    report = Report(
        tool_version=__version__,
        config=config.echo(),
        suites=tuple(suites),
        probe=tuple(probe_rows),
    )
    return (0 if report.passed else 1), report


def _probe_lines(probe: tuple[ProbeRow, ...], sep: str) -> list[str]:
    """The field names of ``ProbeRow.to_dict``, then each row's values, joined by sep."""
    rows = [row.to_dict() for row in probe]
    return [sep.join(rows[0]), *(sep.join(map(str, row.values())) for row in rows)]


def emit_report(report: Report, fmt: str) -> str:
    """Render the report deterministically in the requested format."""
    if not report.suites and not report.probe:
        raise ValueError("cannot emit an empty report")
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        if not report.probe:
            raise ValueError("csv output is defined only for probe rows")
        return "\n".join(_probe_lines(report.probe, ",")) + "\n"
    if fmt == "text":
        lines = [f"hmstep {report.tool_version}"]
        cfg = report.config
        lines.append(
            "config: "
            + " ".join(f"{key}={cfg[key]}" for key in sorted(cfg))
        )
        for s in report.suites:
            lines.append(
                f"suite law={s.law} candidate={s.candidate or '-'} "
                f"samples={s.samples} failures={len(s.failures)} verdict={s.verdict}"
            )
            for step, ok in s.steps:
                lines.append(f"  step {step}: {'holds' if ok else 'FAILS'}")
            for failure in s.failures[:5]:
                lines.append(f"  witness input={failure.input}")
                lines.append(f"    expected={failure.expected}")
                lines.append(f"    actual={failure.actual}")
        if report.probe:
            header, *rows = _probe_lines(report.probe, " ")
            lines.append(f"probe: {header}")
            lines.extend(f"  {row}" for row in rows)
        lines.append(f"overall: {'pass' if report.passed else 'fail'}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _refuse(message: str) -> int:
    print(f"hmstep: {message}", file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        code, report = run(config)
    except (BudgetError, MemoryError) as exc:
        return _refuse(str(exc) or "out of memory")
    try:
        text = emit_report(report, config.format)
    except ValueError as exc:
        # with a valid config, only an int too long to print: the fiber count at a huge --grid
        return _refuse(f"cannot render the report: {exc}")
    if config.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _refuse(f"cannot write report: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
