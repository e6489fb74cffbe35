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
