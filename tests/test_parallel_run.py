"""A command's suites spread over forked workers give the serial outcome.

``cli._results`` runs a command's job list in min(CPUs, jobs) workers. These
tests force the CPU count through ``cli._cpus``, so the fork path runs with
two and three workers on any host that can fork, and compare it with one
worker: the same report bytes, the same exit code and the same stderr line,
including when a job raises, when a child dies before it hands back its
outcomes and when those outcomes cannot be pickled. After each command no
child process is left, and nothing forks while another thread runs.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading

import pytest

from hmstep import cli
from hmstep.laws import BudgetError, LawReport
from test_golden_commands import GOLDEN_SHA256 as COMMAND_SHA256
from test_golden_report import GOLDEN_SHA256 as ALL_SHA256

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool forks")

GOLDEN = {
    **{f"all --samples 60 --seed 3 --format json --candidate {c}": h for c, h in ALL_SHA256.items()},
    **COMMAND_SHA256,
}
COMMANDS = (
    *(f"all --samples 60 --seed 3 --format json --candidate {c}" for c in sorted(ALL_SHA256)),
    "lemmas --samples 60 --seed 3 --format text",
    "laws --n-range 1:6 --format json",
    "fiber --n-range 1:5 --format json",
    "probe --n-range 1:20 --format csv",
)


def _main(monkeypatch, capsys, workers: int, command: str) -> tuple[int, str, str]:
    """Run the command line in process with the CPU count forced; no child may remain."""
    monkeypatch.setattr(cli, "_cpus", lambda: workers)
    code = cli.main(command.split())
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out, err


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_are_byte_identical_for_one_two_and_three_workers(monkeypatch, capsys, command):
    serial = _main(monkeypatch, capsys, 1, command)
    assert serial[2] == ""
    if command in GOLDEN:
        assert hashlib.sha256(serial[1].encode()).hexdigest() == GOLDEN[command]
    for workers in (2, 3):
        assert _main(monkeypatch, capsys, workers, command) == serial, workers


def _raising(exc: BaseException):
    def job(*args, **kwargs):
        raise exc

    return job


def test_memory_error_in_a_forked_job_exits_three(monkeypatch, capsys):
    # lemma job 1 runs in the first child with two workers; the parent's own call succeeds
    parent, real = os.getpid(), cli.check_monotonicity

    def exhausted(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check_monotonicity", exhausted)
    assert _main(monkeypatch, capsys, 2, "lemmas --samples 5") == (3, "", "hmstep: out of memory\n")


@pytest.mark.parametrize("lower, higher, expected", (
    # lemma jobs 1 and 2: the lower runs in a child, the higher in the parent or another child
    ("check_monotonicity", "check_coordinate_naturality", "hmstep: out of memory\n"),
    # lemma jobs 2 and 3: the lower runs in the parent or the second child
    ("check_coordinate_naturality", "check_unit_coordinate", "hmstep: raised first\n"),
))
def test_the_lowest_index_job_that_raised_wins(monkeypatch, capsys, lower, higher, expected):
    first = MemoryError() if lower == "check_monotonicity" else BudgetError("raised first")
    second = BudgetError("raised later") if lower == "check_monotonicity" else MemoryError()
    monkeypatch.setattr(cli, lower, _raising(first))
    monkeypatch.setattr(cli, higher, _raising(second))
    for workers in (1, 2, 3):
        assert _main(monkeypatch, capsys, workers, "lemmas --samples 5") == (3, "", expected), workers


def test_a_worker_stops_at_its_first_exception(monkeypatch, capsys):
    # with two workers the parent runs lemma jobs 0, 2, 4 and 6: none after job 2 raised
    parent, ran = os.getpid(), []
    monkeypatch.setattr(cli, "check_coordinate_naturality", _raising(MemoryError()))
    for name in ("check_support_criterion", "check_metric_axioms"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append((name, os.getpid() == parent)))
    for workers in (1, 2):
        assert _main(monkeypatch, capsys, workers, "lemmas --samples 5") == (3, "", "hmstep: out of memory\n")
    assert ran == [], ran


@pytest.mark.parametrize("death", ("exit 0", "exit 1", "SIGKILL"))
def test_a_child_that_dies_before_it_writes_is_rerun_here(monkeypatch, capsys, death):
    command = "all --samples 20 --seed 5 --format json"
    serial = _main(monkeypatch, capsys, 1, command)
    parent, real = os.getpid(), cli.check_monotonicity

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            if death == "SIGKILL":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(int(death[-1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check_monotonicity", dying)
    for workers in (2, 3):
        assert _main(monkeypatch, capsys, workers, command) == serial, workers


def test_outcomes_that_cannot_be_pickled_are_recomputed_here(monkeypatch, capsys):
    command = "lemmas --samples 5 --format json"
    serial = _main(monkeypatch, capsys, 1, command)
    real = cli.check_monotonicity

    class Local(LawReport):
        """pickle finds no class defined inside a function"""

    monkeypatch.setattr(cli, "check_monotonicity", lambda *args, **kwargs: Local(*real(*args, **kwargs)))
    assert _main(monkeypatch, capsys, 2, command) == serial


def test_no_fork_while_another_thread_runs():
    # a forked child holds only the calling thread; a lock another thread held stays held there
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert cli._cpus() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert cli._cpus() == (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count())
