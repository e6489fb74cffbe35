"""hmstep benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen):

* ``chain``  -- ``laws.forced_value_chain(n, DIAGONAL, s)`` for five distinct
  n between 16 and 32, in process;
* ``probe``  -- ``hmstep probe --n-range lo:hi --format csv`` through
  ``cli.parse_config``, ``cli.run`` and ``cli.emit_report``, in process, for
  five disjoint 16-row windows reaching n = 194;
* ``suites`` -- ``hmstep all --samples 200 --seed s --format json`` in a
  fresh process per task; two of the eight tasks use the control
  candidates ``constant-left`` and ``remap-last``, which must exit 1.

The seed picks the task list; hmstep receives only the generated arguments.
One run repeats the task list in rounds for ``--seconds`` (at least three
rounds) and checks every task's output. With ``--trace 0`` it reports
``setup_s`` (median of the start-ups of this script, each importing hmstep and
building the task list, timed three after every round), ``wall_s`` (time
for the whole task list: the sum of each task's median over the rounds),
``task_p50_s`` (median task), ``peak_rss_mb`` and ``ok_ratio``. The three
timings are in seconds at a fixed reference speed: each start-up and task is
scaled by ``yardstick`` samples taken just before and after it, because the
speed of a shared host drifts from run to run. With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics of
``tracer.PER_LAYER``; the spans go to ``perfbench/out/``. The last line of
stdout is the result as JSON; the lines before it are for people, including
an environment stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import yardstick
from checkout import ROOT, import_hmstep
from tracer import SpanLog, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

GOLDEN_ARGS = ["all", "--samples", "60", "--seed", "3", "--format", "json"]
GOLDEN_SHA256 = "9954d1b6ef1fc00f57df8dd7e970167f6f4e18779ca8a50ed5fb3036ca40207e"
SUITES_SAMPLES = 200
SETUP_PER_ROUND = 3
CHILD_TIMEOUT_S = 120
# No round starts that would end after this many seconds of measuring, so
# even a much slower program finishes a run in under three minutes.
HARD_LIMIT_S = 140

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("task_p50_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[Path | None], object]  # timed; the path is a traced child's span file
    check: Callable[[object], str | None]  # None if the output is right, else what is wrong
    in_process: bool = True


# ---------------------------------------------------------------------------
# output checks: exact comparisons against the paper's values, computed here


def _probe_row_error(n, coordinate, metric, gap) -> str | None:
    want = Fraction(1, int(n))
    got = (Fraction(coordinate), Fraction(metric), Fraction(gap))
    return None if got == (want, want, 1) else f"probe row n={n} is {got}, expected (1/{n}, 1/{n}, 1)"


def _check_chain(report) -> str | None:
    steps = report.steps
    if report.law != "forced-value-chain" or len(steps) != 5:
        return f"expected the five forced-value-chain steps, got {report.law} {steps}"
    if not all(ok for _, ok in steps) or report.failures or report.verdict != "pass":
        return f"chain did not hold: steps {steps}, {len(report.failures)} failures"
    return None


def _check_probe(lo: int, hi: int, output) -> str | None:
    code, text = output
    lines = text.splitlines()
    if code != 0 or lines[0] != "n,coordinate_distance,metric_distance,image_gap":
        return f"probe exited {code} with header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != list(range(lo, hi + 1)):
        return f"probe rows are not n={lo}..{hi}"
    return next(filter(None, (_probe_row_error(*row) for row in rows)), None)


def _check_suites(candidate: str, seed: int, proc) -> str | None:
    expected = 0 if candidate == "diagonal" else 1
    if proc.returncode != expected or proc.stderr:
        return f"exit {proc.returncode} (expected {expected}), stderr {proc.stderr[-300:]!r}"
    report = json.loads(proc.stdout)
    config = report["config"]
    if (config["seed"], config["samples"], config["candidate"]) != (seed, SUITES_SAMPLES, candidate):
        return f"report echoes the wrong config {config}"
    suites = report["suites"]
    if any((s["verdict"] == "pass") != (not s["failures"]) for s in suites):
        return "a suite verdict disagrees with its failure list"
    failures = [f for s in suites for f in s["failures"]]
    if candidate == "diagonal":
        if failures:
            return f"diagonal failed {failures[0]}"
        rows = report["probe"]
        if [row["n"] for row in rows] != list(range(1, 17)):
            return "probe rows are not n=1..16"
        return next(filter(None, (
            _probe_row_error(r["n"], r["coordinate_distance"], r["metric_distance"], r["image_gap"])
            for r in rows)), None)
    if not failures:
        return f"control candidate {candidate} failed no law"
    if not all(f["input"] and f["expected"] and f["actual"] for f in failures):
        return f"control candidate {candidate} has a failure with an empty witness"
    return None


# ---------------------------------------------------------------------------
# workloads: the seed picks the task list. hmstep is imported inside the
# task bodies because it is importable only after checkout.import_hmstep(),
# and attribute lookups at call time pick up the tracer's wrappers.


def _run_chain(n: int, seed: int, spans=None):
    from hmstep import laws, tower

    return laws.forced_value_chain(n, tower.DIAGONAL, seed)


def _run_probe(lo: int, hi: int, spans=None):
    from hmstep import cli

    config = cli.parse_config(["probe", "--n-range", f"{lo}:{hi}", "--format", "csv"])
    code, report = cli.run(config)
    return code, cli.emit_report(report, config.format)


def _run_child(cli_args: list[str], spans: Path | None = None):
    traced = ["--spans", str(spans)] if spans is not None else []
    return subprocess.run(
        [sys.executable, str(CHILD), *traced, "--", *cli_args],
        cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


def chain_tasks(seed: int) -> list[Task]:
    # five distinct n; the middle one (which sets task_p50_s) and the largest
    # (which sets peak memory) are fixed, and the seed picks the other three
    # from triples of about the same total cost (time grows like n^3.6), so
    # every seed does about the same work
    rng = random.Random(seed)
    triples = [(16, 23, 29), (18, 22, 29), (16, 21, 30), (17, 20, 30), (20, 24, 27)]
    ns = [*rng.choice(triples), 26, 32]
    tasks = [Task(f"n={n}", partial(_run_chain, n, rng.randrange(2**31)), _check_chain) for n in ns]
    rng.shuffle(tasks)
    return tasks


def probe_tasks(seed: int) -> list[Task]:
    # five disjoint 16-row windows with lo > 1; all but the middle one (which
    # sets task_p50_s) are shifted by at most two rows, in one of the
    # shift patterns that keep the total cost (about hi^2.5) within 0.6%
    rng = random.Random(seed)
    shifts = [(-2, 1, 2, -1), (-2, 2, -1, 1), (-2, 2, 1, -1), (-1, 1, -2, 2), (-1, 1, 2, -2),
              (-1, 2, -2, 1), (1, -2, 2, -1), (1, -1, -2, 2), (1, -1, 2, -2), (2, -2, -1, 1)]
    his = [c + j for c, j in zip((40, 78, 154, 192), rng.choice(shifts))] + [116]
    windows = [(hi - 15, hi) for hi in his]
    tasks = [Task(f"{lo}:{hi}", partial(_run_probe, lo, hi), partial(_check_probe, lo, hi))
             for lo, hi in windows]
    rng.shuffle(tasks)
    return tasks


def suites_tasks(seed: int) -> list[Task]:
    # eight fresh processes, one of each control candidate among them
    rng = random.Random(seed)
    candidates = ["diagonal"] * 6 + ["constant-left", "remap-last"]
    rng.shuffle(candidates)
    tasks = []
    for candidate in candidates:
        s = rng.randrange(10**6)
        args = ["all", "--samples", str(SUITES_SAMPLES), "--seed", str(s),
                "--format", "json", "--candidate", candidate]
        tasks.append(Task(f"{candidate}@{s}", partial(_run_child, args),
                          partial(_check_suites, candidate, s), in_process=False))
    return tasks


WORKLOADS = {"chain": chain_tasks, "probe": probe_tasks, "suites": suites_tasks}


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Rounds:
    plain: list[list[float]]   # task times of each untraced round
    traced: list[list[float]]  # task times of each traced round
    layers: list[dict]         # SpanLog.aggregate() of each traced round
    setup: list[list[float]]   # start-up times of this script, taken after each untraced round
    yard: list[list[float]]    # yardstick samples of each untraced round: one before it, one after each task
    setup_yard: list[list[float]]  # yardstick samples around the start-ups: the round's last, one after each
    attempted: int = 0
    failed: int = 0


def list_seconds(rounds: list[list[float]]) -> float:
    """Time for the whole task list, as the median over the rounds."""
    return statistics.median(sum(times) for times in rounds)


def _round(tasks: list[Task], tracer: Tracer | None, runs: Rounds, errors: list[str]) -> list[float]:
    times = []
    if tracer is None:
        runs.yard.append([yardstick.sample()])
    trace_here = tracer is not None and tasks[0].in_process
    trace_children = tracer is not None and not tasks[0].in_process
    with tracer if trace_here else contextlib.nullcontext():
        for i, task in enumerate(tasks):
            spans = OUT / f"child-{i}.spans" if trace_children else None
            if tracer is not None:
                tracer.task = i
            runs.attempted += 1
            start = time.perf_counter()
            try:
                output = task.run(spans)
                error = None
            except Exception as exc:  # a crash or timeout is a failed task, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            if tracer is None:
                runs.yard[-1].append(yardstick.sample())
            if error is None:
                try:
                    error = task.check(output)
                except Exception as exc:  # unreadable output
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                runs.failed += 1
                errors.append(f"{task.label}: {error}")
    if trace_children:
        for i in range(len(tasks)):
            path = OUT / f"child-{i}.spans"
            if path.exists():
                with open(path, "rb") as handle:
                    tracer.log.extend(SpanLog.load(handle), i)
                path.unlink()
    return times


def measure(tasks: list[Task], seconds: float, trace: bool, span_path: Path,
            setup_probe: Callable[[], float]) -> tuple[Rounds, list[str]]:
    """Repeat the task list in rounds until ``seconds`` are used up. Without
    ``trace``, time start-ups between rounds; with it, alternate
    untraced and traced rounds."""
    runs = Rounds([], [], [], [], [], [])
    errors: list[str] = []
    tracer = Tracer() if trace else None
    min_rounds = 2 if trace else 3
    spans_out = gzip.open(span_path, "wt", newline="", encoding="utf-8") if trace else None
    try:
        t0 = time.perf_counter()
        last = 0.0
        while True:
            done = len(runs.plain) + len(runs.traced)
            projected = time.perf_counter() - t0 + last
            if projected > HARD_LIMIT_S or (done >= min_rounds and projected > seconds):
                break
            traced = trace and done % 2 == 1
            r0 = time.perf_counter()
            times = _round(tasks, tracer if traced else None, runs, errors)
            if traced:
                runs.traced.append(times)
                runs.layers.append(tracer.log.aggregate())
                tracer.log.write_csv(spans_out, len(runs.traced) - 1)
                tracer.log.clear()
            else:
                runs.plain.append(times)
                if not trace:
                    runs.setup.append([])
                    runs.setup_yard.append([runs.yard[-1][-1]])
                    for _ in range(SETUP_PER_ROUND):
                        runs.setup[-1].append(setup_probe())
                        runs.setup_yard[-1].append(yardstick.sample())
            last = time.perf_counter() - r0
    finally:
        if spans_out is not None:
            spans_out.close()
    return runs, errors


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of one start-up of this script that stops before the first task."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def golden_error() -> str | None:
    proc = _run_child(GOLDEN_ARGS)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if proc.returncode != 0 or digest != GOLDEN_SHA256:
        return f"golden report `hmstep {' '.join(GOLDEN_ARGS)}` exited {proc.returncode}, sha256 {digest}"
    return None


# ---------------------------------------------------------------------------
# environment stamp


def _loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def stamp(hmstep, workload: str, seed: int, trace: bool, load_start: list[float] | None) -> dict:
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "hmstep_version": hmstep.__version__,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
    }


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    hmstep = import_hmstep()
    tasks = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0
    load_start = _loadavg()
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)

    golden = golden_error() if args.workload == "suites" else None
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    runs, task_errors = measure(tasks, args.seconds, trace, span_path,
                                partial(setup_probe, args.workload, args.seed))
    errors = ([golden] if golden else []) + task_errors

    print(f"hmstep benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(stamp(hmstep, args.workload, args.seed, trace, load_start), sort_keys=True))
    print("tasks: " + " ".join(t.label for t in tasks))
    for error in errors[:20]:
        print(f"FAILED {error}")
    print(f"fail_ratio {runs.failed}/{runs.attempted} tasks")

    if trace:
        overhead = list_seconds(runs.traced) / list_seconds(runs.plain)
        metrics = layer_metrics(runs.layers, overhead)
        print(f"rounds: {len(runs.plain)} untraced, {len(runs.traced)} traced; spans in {span_path.relative_to(ROOT)}")
    else:
        scaled = [yardstick.scaled(times, yard) for times, yard in zip(runs.plain, runs.yard)]
        task_s = [statistics.median(times) for times in zip(*scaled)]
        setup_s = [t for times, yard in zip(runs.setup, runs.setup_yard) for t in yardstick.scaled(times, yard)]
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "suites" else resource.RUSAGE_SELF)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(task_s),
            "task_p50_s": statistics.median(task_s),
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "ok_ratio": (runs.attempted - runs.failed) / runs.attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        rounds = " ".join(f"{sum(times):.3f}" for times in runs.plain)
        samples = [s for yard in runs.yard for s in yard]
        print(f"rounds: {len(runs.plain)} ({rounds} s as measured); task_p50_s over {len(task_s)} tasks; "
              f"setup_s over {len(setup_s)} start-ups")
        print(f"yardstick: {len(samples)} samples, {yardstick.slowdown(samples):.3f}x the reference time "
              f"on average; setup_s, wall_s and task_p50_s are at the reference speed")
        dump = {"tasks": [t.label for t in tasks], "plain": runs.plain, "yard": runs.yard,
                "setup": runs.setup, "setup_yard": runs.setup_yard}
        (OUT / f"timings-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
