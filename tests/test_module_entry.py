"""``python -m hmstep`` runs the command line from a checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "args, code",
    [
        (["probe", "--n-range", "1:4"], 0),
        (["laws", "--n-range", "1:2", "--candidate", "constant-left"], 1),
        (["probe", "--n-range", "4:x"], 2),
    ],
    ids=["pass", "check-fails", "usage-error"],
)
def test_exit_codes(args, code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "hmstep", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == code, done.stderr
    if code == 2:
        assert "hmstep: error: --n-range" in done.stderr
    else:
        assert done.stdout


def _probe_to(stdout, buffered: bool) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "hmstep", "probe", "--n-range", "1:3"],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )


def _assert_write_refused(done: subprocess.CompletedProcess) -> None:
    lines = done.stderr.splitlines()
    assert done.returncode == 3, done.stderr
    assert len(lines) == 1 and lines[0].startswith("hmstep: cannot write report:"), done.stderr


# a block-buffered stdout keeps the report after the failed flush and tries it again at exit
STDOUT_MODES = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@STDOUT_MODES
def test_report_to_a_full_device_exits_3(buffered):
    with open("/dev/full", "w") as full:
        _assert_write_refused(_probe_to(full, buffered))


@STDOUT_MODES
def test_report_to_a_closed_pipe_exits_3(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, before the child starts: its first write fails
    try:
        _assert_write_refused(_probe_to(write_end, buffered))
    finally:
        os.close(write_end)
