"""Batch verification front end.

Each command-line policy is stated once here: ``RunConfig`` holds every default the parser reads and prints, and
the four budgets sit beside the gate in ``_plan`` that charges them. ``--grid`` bounds the lemmas' denominators
alone: the fiber is decided at every grid at once. Plans a command as jobs once each budget it is charged (samples,
forced chains, fiber, probe rows) is checked; ``all`` plans its four parts as each would run alone. Then runs the
coordinate/support suites, the monad-law suites for a chosen candidate, the fiber decisions and the discontinuity
probe's rows, dealt by stride, as jobs in forked workers, one per CPU. Renders one deterministic report (JSON, CSV
for probe rows, or text), byte-identical for identical config and seed, and writes it to stdout or --out in one
checked write. Exit codes: 0 all checks pass, 1 some assertion failed, 2 usage error, 3 over budget, out of memory,
or the report cannot be written (a full disk or a closed pipe included).
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
    FIBER_GRID,
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


def parse_config(argv: list[str]) -> RunConfig:
    """The config of one command line; each default is ``RunConfig``'s, with --n-range's written LOW:HIGH."""
    parser = argparse.ArgumentParser(
        prog="hmstep",
        description="Exact verification harness for step-function spaces: "
        "coordinate and support suites, monad laws, fiber uniqueness, and "
        "the discontinuity probe.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, metavar="command",
                        help="one of: " + ", ".join(COMMANDS) + " (default: %(default)s)")
    parser.add_argument("--n-range", metavar="LOW:HIGH", help="witness index range (default %(default)s); "
                        "all runs its fixed ranges and ignores it")
    parser.add_argument("--grid", type=int, help="denominator bound for the sampled functions of lemmas (default 12); "
                        "laws, fiber and probe ignore it")
    parser.add_argument("--samples", type=int, help="sample count per suite (default %(default)s)")
    parser.add_argument("--seed", type=int, help="seed for all sampled suites (default %(default)s)")
    parser.add_argument("--candidate", choices=CANDIDATES, help="multiplication candidate (default %(default)s)")
    parser.add_argument("--format", choices=FORMATS, help="report format (default %(default)s)")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    defaults = RunConfig._field_defaults
    parser.set_defaults(**{**defaults, "n_range": "%d:%d" % defaults["n_range"]})
    ns = parser.parse_args(argv)
    try:
        lo_text, hi_text = ns.n_range.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        parser.error(f"--n-range expects LOW:HIGH, got {ns.n_range!r}")
    if lo < 1 or hi < lo:
        parser.error(f"--n-range needs 1 <= LOW <= HIGH, got {ns.n_range!r}")
    if ns.samples < 1:
        parser.error("--samples must be at least 1")
    if ns.grid is not None and ns.grid < 1:
        parser.error("--grid must be at least 1")
    if ns.format == "csv" and ns.command != "probe":
        parser.error("--format csv is defined only for the probe command")
    ns.n_range = lo, hi
    return RunConfig(**vars(ns))


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork, or where another thread runs."""
    if not hasattr(os, "fork") or (threads := sys.modules.get("threading")) and threads.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _results(jobs: list[Callable]) -> list:
    """Each job's value in job order, or the exception a serial run raises first, serial meaning the jobs run in
    order in one process. Of w = min(CPUs, jobs) workers, forked child i runs ``jobs[i::w]`` and pipes back its
    pickled outcomes; this process runs the rest, and the share of a child that could not be forked or died first."""
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
    children: dict[int, tuple[int, BinaryIO]] = {}  # pid: (its share, the read end of its pipe)
    here = [0]  # the shares this process runs: its own, and each whose pipe or fork failed
    try:
        if width > 1:
            import pickle
            import signal
            for i in range(1, width):
                ends = ()
                try:
                    ends = read_end, write_end = os.pipe()
                    pid = os.fork()
                except OSError:
                    here.append(i)
                    for end in ends:
                        os.close(end)
                    continue
                if pid == 0:
                    try:
                        with open(write_end, "wb") as pipe:
                            pipe.write(pickle.dumps(share(i)))
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write_end)
                children[pid] = i, open(read_end, "rb")
        outcomes = [outcome for i in here for outcome in share(i)]
        for pid, (i, pipe) in list(children.items()):
            data, status = pipe.read(), os.waitpid(pid, 0)[1]
            children.pop(pid)[1].close()
            outcomes += pickle.loads(data) if status == 0 and data else share(i)  # a dead child's share runs here
    finally:  # no child outlives the call
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes.sort()  # each worker stops at its first exception: the lowest index that raised is the serial run's
    if raised := [value for _, ok, value in outcomes if not ok]:
        raise raised[0]
    return [value for _, _, value in outcomes]


# the parts of ``all`` as (command, n_range), each planned as it would run alone
_ALL = (("lemmas", (1, 16)), ("laws", (1, 4)), ("fiber", (1, 3)), ("probe", (1, 16)))

# the budgets _plan charges a command before any job runs
DEFAULT_FIBER_BUDGET = 1_000_000  # n cubed times FIBER_GRID at the largest n of fiber: n <= 79
# samples times the grid each command is charged per sample: --grid for lemmas, whose suites cost linear in it;
# 12 for laws, whose suites run at laws' fixed grids 8, 4 and 4. all charges its lemma and law parts as each
# would run alone. 1000 samples at the default grid 12
DEFAULT_SAMPLE_BUDGET = 12_000
# n summed over the probe's rows, each linear in n: exactly probe 1..512
DEFAULT_PROBE_BUDGET = 512 * 513 // 2
DEFAULT_CHAIN_BUDGET = 9_000_000  # n squared summed over the chains of laws --n-range: 1..299, or 3000 alone


def _plan(config: RunConfig) -> list[Callable]:
    """One command's jobs over its --n-range, none run, once each budget it is charged is checked. A job returns
    a LawReport, or a list of probe rows. The partials are built here, so they call this module's names as bound now."""
    (lo, hi), samples, seed = config.n_range, config.samples, config.seed
    if config.command == "fiber":
        # n * FIBER_GRID cells times n * n labels bounds the paired base and the assignment count at the largest n;
        # that count, (79 * 79) ** 158 at the edge, has 600 digits, fewer than the 640 Python prints at the least
        if hi**3 * FIBER_GRID > DEFAULT_FIBER_BUDGET:
            raise BudgetError(f"fiber search at n={hi} grid={FIBER_GRID} is over the budget of {DEFAULT_FIBER_BUDGET}")
        return [lambda n=n: fiber_uniqueness(n).to_report() for n in range(lo, hi + 1)]
    if config.command == "probe":
        if (cost := (lo + hi) * (hi - lo + 1) // 2) > DEFAULT_PROBE_BUDGET:
            raise BudgetError(f"n summed over rows {lo}..{hi} ({cost}) is over the budget of {DEFAULT_PROBE_BUDGET}")
        mu, width = CANDIDATES[config.candidate], min(_cpus(), hi - lo + 1)
        return [partial(discontinuity_probe, mu, hi, lo + i, width) for i in range(width)]
    grid = (config.grid or 12) if config.command == "lemmas" else 12
    if samples * grid > DEFAULT_SAMPLE_BUDGET:
        raise BudgetError(f"samples times grid ({samples} x {grid}) is over the budget of {DEFAULT_SAMPLE_BUDGET}")
    if config.command == "lemmas":
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
    # n * n summed over 1..m is m(m+1)(2m+1)/6
    if (cost := (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6) > DEFAULT_CHAIN_BUDGET:
        raise BudgetError(f"n squared over chains {lo}..{hi} ({cost}) is over the budget of {DEFAULT_CHAIN_BUDGET}")
    pool, mu = default_spaces(3), CANDIDATES[config.candidate]
    return [
        partial(check_unit_laws, mu, pool, samples, seed + 11),
        partial(check_associativity, mu, pool, samples, seed + 12),
        partial(check_naturality, mu, samples, seed + 13),
        *(partial(forced_value_chain, n, mu, seed=seed + 20 + n) for n in range(lo, hi + 1)),
    ]


def run(config: RunConfig) -> tuple[int, Report]:
    """Execute the configured command; returns (exit_code, report).

    A command runs its own plan over --n-range, and ``all`` runs the plans of its four parts: the lemmas, laws
    1..4, fiber 1..3 and probe 1..16, each checked and charged as it would run alone. Every plan is made, so every
    budget checked, before any job runs; then all jobs run in one call, the probe's as one job per CPU, job i of w
    taking every w-th row from lo + i, and the probe rows are put back in n order. May raise
    :class:`BudgetError` or ``MemoryError``; ``main`` maps both to exit code 3.
    """
    parts = [config._replace(command=c, n_range=r) for c, r in _ALL]
    parts = parts if config.command == "all" else [config]
    results = _results([job for plan in map(_plan, parts) for job in plan])
    suites = tuple(result for result in results if isinstance(result, LawReport))
    rows = sorted((row for result in results if isinstance(result, list) for row in result), key=lambda row: row.n)
    report = Report(__version__, config.echo(), suites, tuple(rows))
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
    text = emit_report(report, config.format)
    try:  # a full disk or a closed pipe fails here, at the write or the flush
        if config.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        if config.out is None:  # drop what stdout's buffer still holds, or its flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _refuse(f"cannot write report: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
