"""The range-aware discontinuity probe.

``discontinuity_probe(mu, n_max, n_min, step)`` computes only the rows n_min,
n_min + step, ... up to n_max; each row must equal the matching row of the full
probe from 1, and a range that starts below 1 or is empty, or a step below 1,
is refused.
"""

from __future__ import annotations

import pytest

from hmstep.laws import discontinuity_probe
from hmstep.tower import CONSTANT_LEFT, DIAGONAL


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 9), (3, 3), (4, 9), (9, 9), (17, 24)])
@pytest.mark.parametrize("mu", [DIAGONAL, CONSTANT_LEFT], ids=lambda mu: mu.name)
def test_window_equals_slice_of_full_probe(mu, lo, hi):
    rows = discontinuity_probe(mu, hi, lo)
    assert [row.n for row in rows] == list(range(lo, hi + 1))
    assert rows == discontinuity_probe(mu, hi)[lo - 1 :]
    for step in (2, 3):
        assert discontinuity_probe(mu, hi, lo, step) == discontinuity_probe(mu, hi)[lo - 1 :: step]


def test_default_start_is_one():
    assert discontinuity_probe(DIAGONAL, 5) == discontinuity_probe(DIAGONAL, 5, 1)


@pytest.mark.parametrize("lo,hi", [(0, 5), (-1, 5), (0, 0), (6, 5)])
def test_rejects_bad_range(lo, hi):
    with pytest.raises(ValueError, match="n_min"):
        discontinuity_probe(DIAGONAL, hi, lo)


@pytest.mark.parametrize("step", [0, -1])
def test_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step"):
        discontinuity_probe(DIAGONAL, 5, 1, step)
