"""The fiber decision against brute force, and the command line's fiber budget.

``fiber_uniqueness`` decides the fiber by pairing: projection acts
pointwise, so the only step function over the paired space whose
projections are both the staircase is the staircase paired with itself.
The independent oracle is ``brute_force_fiber`` from ``test_laws``, which
builds every grid step function over the paired space and keeps those whose
projections, taken through the functor action, are both the staircase. The
one decision, which reads no grid, is compared with it on every (n, grid)
with at most 5000 assignments.

The command line's fiber budget has one clause, cells times labels at the
largest n, so a huge range is refused before any work.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hmstep
from hmstep.laws import build_witnesses, fiber_uniqueness
from test_laws import brute_force_fiber

SRC = str(Path(hmstep.__file__).resolve().parent.parent)

# (1, 1..4), (2, 1..3) and (3, 1); every n = 1 case has one assignment
SMALL_CASES = [(n, g) for n in (1, 2, 3) for g in range(1, 5) if (n * n) ** (n * g) <= 5000]


@pytest.mark.parametrize("n, grid", SMALL_CASES)
def test_factored_search_matches_brute_force(n, grid):
    w = build_witnesses(n)
    survivors = brute_force_fiber(n, grid)
    result = fiber_uniqueness(n)
    assert result.checked == (n * n) ** (2 * n)
    assert result.unique == (survivors == {w.diagonal_staircase})
    assert set(result.witnesses) == survivors - {w.diagonal_staircase}


def _limit_memory() -> None:
    # a regression would allocate gigabytes; fail it fast instead
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


TIMED_MAIN = (
    "import sys, time; from hmstep.cli import main; t = time.perf_counter(); "
    "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)"
)


@pytest.mark.parametrize("n_range", ("1:%d" % 10**12, "%d:%d" % (10**12, 10**12)))
def test_oversized_range_exits_three_at_once(n_range):
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "fiber", "--n-range", n_range],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hmstep:") and "budget" in lines[0]
    assert float(proc.stdout) < 0.5
