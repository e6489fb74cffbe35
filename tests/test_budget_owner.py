"""``cli`` owns the budgets; the library decides whatever it is asked.

Read from the source with ``ast``, in the style of ``test_grid_owner``:
only ``cli`` raises ``BudgetError`` or any subclass of it, from its one
gate before any job; ``laws`` assigns no module-level ``*_BUDGET`` name,
as the budgets are defined in ``cli`` beside that gate; and no function in
``laws`` takes a ``budget`` parameter, so no library call keeps a budget of
its own beside the command line's.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hmstep

PACKAGE = Path(hmstep.__file__).resolve().parent


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _raised(tree: ast.Module) -> set[str]:
    """The names of the exceptions raised by a ``raise`` statement, called or not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", ""))
    return names


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_only_cli_raises_budget_error(module):
    budget_errors = {name for name in _raised(_tree(module)) if name.endswith("BudgetError")}
    assert budget_errors == ({"BudgetError"} if module == "cli" else set())


def test_no_laws_function_takes_a_budget():
    for fn in ast.walk(_tree("laws")):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            assert "budget" not in names, f"laws.{fn.name} takes a budget"


def test_laws_defines_no_budget():
    assigned = set()
    for node in _tree("laws").body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    assert "CANDIDATES" in assigned and not {name for name in assigned if name.endswith("_BUDGET")}
