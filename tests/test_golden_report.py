"""Golden reports: fixed arguments and seed give fixed bytes in any process.

The JSON report of ``all --samples 60 --seed 3`` is pinned by its sha256 for
the diagonal candidate and for both controls; the control reports carry the
failure witnesses, so their hashes also pin the witness text. Each report is
produced in a fresh interpreter under two ``PYTHONHASHSEED`` values, so a
dependence on set or dict iteration order would show up here. The diagonal
report is also produced under every other installed ``python3`` of version
3.10 or later found beside the running one, so a dependence on the
interpreter's version would show up too.

The hashes are tied to version 0.1.0: the report echoes ``tool_version``, so
a version bump changes every hash and needs a deliberate re-baseline.
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
    "diagonal": "9954d1b6ef1fc00f57df8dd7e970167f6f4e18779ca8a50ed5fb3036ca40207e",
    "constant-left": "b294168d581869e48ccf57f8f20d7887dfbb3e80d21a4a8e9179eb804c91ac8a",
    "remap-last": "8658946354fd8e336be1f0eae576c267a95c6098da649ae8ea51f9d5ea406a38",
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("candidate", sorted(GOLDEN_SHA256))
def test_all_report_matches_golden_hash(candidate, hash_seed):
    argv = ["all", "--samples", "60", "--seed", "3", "--format", "json", "--candidate", candidate]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "hmstep.cli", *argv], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == (0 if candidate == "diagonal" else 1), proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256[candidate]


def _other_interpreters() -> list[str]:
    """Each ``*/bin/python3`` under the running install's parent folder that
    is version 3.10 or later and is another install than the running one."""
    found = {}
    for exe in sorted(Path(sys.base_prefix).parent.glob("*/bin/python3")):
        probe = subprocess.run(
            [str(exe), "-c", "import sys; print(sys.base_prefix if sys.version_info >= (3, 10) else '')"],
            capture_output=True, timeout=60,
        )
        prefix = probe.stdout.decode().strip()
        if probe.returncode == 0 and prefix and prefix != sys.base_prefix:
            found.setdefault(prefix, str(exe))
    return sorted(found.values())


def test_diagonal_report_matches_golden_hash_under_every_other_interpreter():
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip(f"no other python3 of version 3.10 or later under {Path(sys.base_prefix).parent}")
    argv = ["all", "--samples", "60", "--seed", "3", "--format", "json"]
    env = {**os.environ, "PYTHONPATH": SRC}
    for exe in interpreters:
        proc = subprocess.run([exe, "-m", "hmstep.cli", *argv], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, f"{exe}: {proc.stderr.decode()}"
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256["diagonal"], exe
