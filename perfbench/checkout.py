"""Import hmstep from this checkout's ``src/`` and refuse any other copy.

The benchmark measures the sources next to it, never an installed package,
so both ``run.py`` and every child process import hmstep through here.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_hmstep():
    """Put ``src/`` first on the path, import hmstep and its CLI, and exit
    with an error unless ``hmstep.__file__`` lies inside ``src/``."""
    if not (SRC / "hmstep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hmstep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hmstep
    import hmstep.cli  # noqa: F401  (the probe and suites workloads drive it)

    where = Path(hmstep.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported hmstep from {where}, not from {SRC}")
    return hmstep
