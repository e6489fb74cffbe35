"""Batch verification front end.

Checks every budget, then runs the coordinate/support suites, the monad-law
suites for a chosen candidate and the discontinuity probe in forked workers,
one per CPU, and the fiber oracle here. Renders one deterministic report
(JSON, CSV for probe rows, or text), byte-identical for identical config and
seed. Exit codes: 0 all checks pass, 1 some assertion failed, 2 usage error,
3 over budget, out of memory, or the report cannot be rendered or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import BinaryIO, Callable, NamedTuple

from . import __version__
from .laws import (
    CANDIDATES,
    DEFAULT_CHAIN_BUDGET,
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


def _lemma_block(samples: int, seed: int, grid: int) -> list[Callable[[], LawReport]]:
    pool = default_spaces()
    return [
        partial(check_linearity, pool, samples, seed + 1, grid=grid),
        partial(check_monotonicity, pool, samples, seed + 2, grid=grid),
        partial(check_coordinate_naturality, samples, seed + 3, grid=grid),
        partial(check_unit_coordinate, pool, samples, seed + 4),
        partial(check_support_criterion, pool, samples, seed + 5, grid=grid),
        partial(check_support_membership, pool, samples, seed + 6, grid=grid),
        partial(check_metric_axioms, pool, samples, seed + 7, grid=grid),
        partial(check_metric_axioms_level2, pool, samples, seed + 8),
    ]


def _law_block(candidate: str, samples: int, seed: int, chain_ns: range) -> list[Callable[[], LawReport]]:
    mu = CANDIDATES[candidate]
    pool = default_spaces(3)
    return [
        partial(check_unit_laws, mu, pool, samples, seed + 11),
        partial(check_associativity, mu, pool, samples, seed + 12),
        partial(check_naturality, mu, samples, seed + 13),
        *(partial(forced_value_chain, n, mu, seed=seed + 20 + n) for n in chain_ns),
    ]


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork, or where another thread runs."""
    if not hasattr(os, "fork") or (threads := sys.modules.get("threading")) and threads.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _results(jobs: list[Callable]) -> list:
    """Each job's value in job order, or the exception a serial run raises first. Of w = min(CPUs, jobs)
    workers, forked child i runs ``jobs[i::w]`` and pipes back its pickled outcomes; this process runs the rest."""
    width = max(1, min(_cpus(), len(jobs)))

    def share(start: int) -> list[tuple[int, bool, object]]:
        """(index, True, value) for each job of ``jobs[start::width]``, up to the first (index, False, exception)."""
        done = []
        for index in range(start, len(jobs), width):
            try:
                done.append((index, True, jobs[index]()))
            except Exception as exc:
                return [*done, (index, False, exc)]
        return done
    children: dict[int, BinaryIO] = {}
    try:
        if width > 1:
            import pickle
            import signal
            for i in range(1, width):
                read_end, write_end = os.pipe()
                if (pid := os.fork()) == 0:
                    try:
                        with open(write_end, "wb") as pipe:
                            pipe.write(pickle.dumps(share(i)))
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write_end)
                children[pid] = open(read_end, "rb")
        outcomes = share(0)
        for i, pid in enumerate(list(children), 1):
            data = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            outcomes += pickle.loads(data) if status == 0 and data else share(i)  # a dead child's share runs here
    finally:  # no child outlives the call
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes.sort()  # each worker stops at its first exception: the lowest index that raised is the serial run's
    if raised := [value for _, ok, value in outcomes if not ok]:
        raise raised[0]
    return [value for _, _, value in outcomes]


def run(config: RunConfig) -> tuple[int, Report]:
    """Execute the configured command; returns (exit_code, report).

    Each block runs for its own command and for ``all``, which fixes laws 1..4,
    fiber 1..3 at grid 2 and probe 1..16. Every budget is checked before any job.
    May raise :class:`BudgetError` or ``MemoryError``; ``main`` maps both to exit code 3.
    """
    lo, hi = config.n_range
    chain_ns = fiber_ns = range(lo, hi + 1)
    fiber_grid = config.grid or 2
    if config.command == "all":
        chain_ns, fiber_ns, fiber_grid, (lo, hi) = range(1, 5), range(1, 4), 2, (1, 16)
    grid = config.grid or 12
    # laws reads no grid: its suites run at fixed grids 8, 4 and 4, and each sample is charged 12
    counted = {"lemmas": grid, "laws": 12, "all": grid}.get(config.command, 0)
    if config.samples * counted > DEFAULT_SAMPLE_BUDGET:
        raise BudgetError(
            f"samples times grid ({config.samples} x {counted}) is over the budget of {DEFAULT_SAMPLE_BUDGET}"
        )
    a, b = chain_ns[0] - 1, chain_ns[-1]  # n * n summed over 1..m is m(m+1)(2m+1)/6
    cost = (b * (b + 1) * (2 * b + 1) - a * (a + 1) * (2 * a + 1)) // 6
    if config.command in ("laws", "all") and cost > DEFAULT_CHAIN_BUDGET:
        raise BudgetError(f"n squared over chains {a + 1}..{b} ({cost}) is over the budget of {DEFAULT_CHAIN_BUDGET}")
    if config.command in ("probe", "all") and (cost := (lo + hi) * (hi - lo + 1) // 2) > DEFAULT_PROBE_BUDGET:
        raise BudgetError(f"n summed over rows {lo}..{hi} ({cost}) is over the budget of {DEFAULT_PROBE_BUDGET}")
    jobs = _lemma_block(config.samples, config.seed, grid) if config.command in ("lemmas", "all") else []
    if config.command in ("laws", "all"):
        jobs += _law_block(config.candidate, config.samples, config.seed, chain_ns)
    if config.command in ("probe", "all"):
        jobs.append(partial(discontinuity_probe, CANDIDATES[config.candidate], hi, lo))
    suites = _results(jobs)
    probe_rows = suites.pop() if config.command in ("probe", "all") else []
    if config.command in ("fiber", "all"):
        # the budget grows with n: decide the largest n first, so an over-budget range does no work
        largest = fiber_uniqueness(fiber_ns[-1], fiber_grid)
        suites.extend(fiber_uniqueness(n, fiber_grid).to_report() for n in fiber_ns[:-1])
        suites.append(largest.to_report())
    report = Report(__version__, config.echo(), tuple(suites), tuple(probe_rows))
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
