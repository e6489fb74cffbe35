"""Every public function, class and method in ``hmstep`` has a caller.

Read from the source with ``ast``, in the style of ``test_budget_owner``.
A definition is a top-level function or class, or a method of a top-level
class, in any module of the package. Names are marked live from these
roots, then marking repeats until nothing new is marked:

* module-level statements other than definitions, and class bodies other
  than their methods (so ``DIAGONAL = MuCandidate(...)`` makes
  ``MuCandidate`` and ``diagonal_flatten`` live);
* dunder methods, which Python calls itself;
* an allowlist: the attributes ``perfbench/tracer.py`` wraps, read from its
  ``TARGETS`` so that they drop out when the tracer stops naming them, and
  ``HAND_WRITTEN``, each entry with its reason. Each entry must name a
  function, method or class defined in the package, so a stale excuse fails.

A function or class referenced from the body of a live function or method,
as a ``Name`` or an ``Attribute``, is live; a method is live only when
referenced as an attribute (``.name``), since no bare name reaches it. A
public definition left unmarked fails the test.

Known blind spot: names are matched by their short name, not by what they
resolve to, so a dead method hides behind any live attribute it shares. A
``TestFn.constant`` classmethod, say, would count as called wherever
``stepfn.constant`` is reached as ``stepfn.constant``, but no longer where
``constant`` is called bare.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from pathlib import Path

import hmstep

PACKAGE = Path(hmstep.__file__).resolve().parent
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Public names no command reaches yet, each kept for a reason; what they call
# (``parse_value``, ``_split_top``, ``MAX_NESTING``) is reached through them.
HAND_WRITTEN = {
    "parse_stepfn": "the inverse of format_stepfn, kept for a recheck command that reads reported step functions back",
    "__reduce__": "StepFn's pickling, needed by any tuple subclass whose __new__ takes other arguments than the tuple",
    "__call__": "SpaceMap's public call form, with which tests/test_hm.py composes maps",
}


def _tracer_targets() -> set[str]:
    """The last part of every attribute the tracer wraps ("check_*" stays a pattern)."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {ast.literal_eval(entry.elts[2]).rsplit(".", 1)[-1] for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _referenced(nodes) -> set[str]:
    """The names the nodes reference: a bare ``Name`` as itself, an ``Attribute`` as ``.name``."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add("." + node.attr)
    return names


def _definitions() -> tuple[dict[str, list[ast.AST]], set[str]]:
    """Every function by short name, with the names of every class, every method
    as ``.name``, and the names the roots reference."""
    defs: dict[str, list[ast.AST]] = {}
    roots: list[ast.AST] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFINITIONS):
                roots.append(node)
                continue
            defs.setdefault(node.name, [])
            if not isinstance(node, ast.ClassDef):
                defs[node.name].append(node)
                continue
            roots.extend([*node.bases, *node.keywords, *node.decorator_list])
            for member in node.body:
                if not isinstance(member, DEFINITIONS) or member.name.startswith("__") and member.name.endswith("__"):
                    roots.append(member)
                else:
                    defs.setdefault("." + member.name, []).append(member)
    return defs, _referenced(roots)


def test_every_public_name_has_a_caller():
    defs, referenced = _definitions()
    patterns = _tracer_targets() | set(HAND_WRITTEN)
    referenced |= {key for key in defs if any(fnmatch(key.lstrip("."), p) for p in patterns)}
    live: set[str] = set()
    # a method ".name" is reached only as an attribute; a function or class "name" also bare
    while frontier := {key for key in defs if key in referenced or "." + key in referenced} - live:
        live |= frontier
        referenced |= _referenced(node for key in frontier for node in defs[key])
    dead = sorted(key.lstrip(".") for key in defs if not key.lstrip(".").startswith("_") and key not in live)
    assert dead == [], f"public names with no caller: {dead}"


def test_every_hand_written_entry_names_a_definition():
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, DEFINITIONS)
    }
    stale = sorted(entry for entry in HAND_WRITTEN if not any(fnmatch(name, entry) for name in defined))
    assert stale == [], f"HAND_WRITTEN entries naming no definition in hmstep: {stale}"
