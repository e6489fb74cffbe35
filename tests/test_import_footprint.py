"""Importing the command line loads no code-generation or worker-pool machinery.

Every ``hmstep`` command is a fresh process, so what the import pulls in is
paid on every run. ``dataclasses`` brings ``inspect`` (with ``ast``, ``dis``
and ``tokenize``) and generates methods through ``exec``; records here are
``NamedTuple``s and validated types build on ``core.Frozen`` instead. The
suites' forked workers import ``pickle`` only when they fork, and no pool
module at all. Checked in a child without ``site``, so that nothing but the
import itself loads a module, and in the source, so that no module imports
``dataclasses`` lazily.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
POOL = ("pickle", "multiprocessing", "concurrent.futures")


def test_cli_import_loads_no_dataclasses():
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import hmstep.cli; "
        f"print(json.dumps([hmstep.cli.__file__, [m for m in {HEAVY + POOL!r} if m in sys.modules]]))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    where, loaded = json.loads(done.stdout)
    assert Path(where).resolve().is_relative_to(SRC)
    assert "dataclasses" not in loaded and "inspect" not in loaded, loaded
    assert not set(POOL) & set(loaded), loaded


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "hmstep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "dataclasses" for name in names), f"{path.name}:{node.lineno}"
