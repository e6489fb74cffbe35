"""README's Quick start runs as written: the block is executed in a fresh
namespace, and the lines it prints are its ``# ...`` comments, in order."""

from __future__ import annotations

import io
import re
import tokenize
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    match = re.search(r"^## Quick start\n+```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README.md has no python block under '## Quick start'"
    return match.group(1)


def test_quick_start_prints_its_comments():
    code = _quick_start()
    comments = [
        tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert out.getvalue().splitlines() == comments
    assert comments[:2] == ["1/2", "pass"] and len(comments) == 6
