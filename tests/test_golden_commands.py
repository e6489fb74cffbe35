"""Golden reports of the single commands that exercise refinement, the metric
at both levels, the candidates and the fiber search, plus probe windows that
start above 1 (up to n = 400), the chain on the witness spaces at n = 30..32
and the lemma suites on a grid of 30.

Each command runs in a fresh interpreter and its stdout is pinned by sha256,
so a change in any step-function kernel, in the canonical forms it produces
or in the fiber search shows up as a changed hash. The hashes are tied to
version 0.1.0, like those in ``test_golden_report``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmstep

SRC = str(Path(hmstep.__file__).resolve().parent.parent)

GOLDEN_SHA256 = {
    "probe --n-range 1:32 --format csv": "d324cb754fc88cb864343e60ca77c93420f4361f1fdf5c92a388e3d04e5296d6",
    "laws --n-range 1:6 --format json": "b28a0f5d449c6363c5834bf2b31dfedfca8f323aef22728982c6bfe13898870f",
    "fiber --n-range 1:3 --grid 2 --format json": "53a9308ee76dcbc79320a98a740a586b0a2557b7ea9f348e5345ab9216887142",
    "lemmas --samples 60 --seed 3 --format text": "0273fb7a2bc714009d6ca32b355fce9cf01f4dd9d468fb394c9374ac792ab59c",
    "probe --n-range 100:116 --format csv": "0909d33d6caea4f6bee0fd5d6636614a294416fdb8b1fa2d8815a00ec4af7f31",
    "laws --n-range 30:32 --format json": "96dd86b384d021f79e96ffc9eff18133aef132b28d606bee044541902168f66f",
    "probe --n-range 380:400 --format csv": "2c978d8ef53b669a506bae35cc28682e31329fa30a1da865a8a6669b53d05d05",
    "lemmas --samples 200 --seed 4 --grid 30 --format json": "33baad1613258161ac128cf4b4e0af60d5462170f903184ee0e51b361990aa4f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_command_report_matches_golden_hash(command):
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "hmstep.cli", *command.split()], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256[command]
