"""``stepfn`` owns the integer-tick grid; ``hm`` and ``tower`` only call it.

Checked here:

* the module structure, read from the source with ``ast``: ``hm`` and
  ``tower`` import no ``_``-prefixed name from ``stepfn``, neither ``lcm``
  nor ``gcd``, nothing from ``bisect``, and read no ``ticks`` or ``den``
  attribute; the one private ``stepfn`` import in ``laws`` is ``_trusted``
  (for ``bump_fn``, whose partition on the 1/n grid is known canonical);
  inside ``stepfn`` only ``_canonical``, ``constant``, ``blocks`` (for
  distinct neighbours) and ``_on_ticks`` (for strictly increasing ticks and
  distinct values, on a function's own ticks: ``map_values`` and the
  one-piece-inner ``diagonal``) call ``_trusted``, so every
  other producer builds through the one merge scan; inside ``hm`` only
  ``functional_eval`` calls the ``window_ratio`` kernel, so both support
  checks decide by a coordinate;
* behaviourally, whatever builds without the merge scan: every producer's
  output, on raw inputs with zero-length and mergeable pieces, is a fixed
  point of ``canonicalize``;
* ``tower`` calls no ``as_integer_ratio`` and uses no ``functools`` cache, so
  every (num, den) table at level 2 comes from the ``hm`` builders that the
  level-1 metric and coordinate use too;
* the support criterion, which decides on the full window, against the
  all-spans definition it replaced: every indicator of a point outside the
  set averages to zero over every window spanned by the canonical
  breakpoints, each average recomputed by a midpoint scan; and the
  membership check at every label against ``support``. Inputs are raw, with
  zero-length and mergeable pieces, over ``default_spaces()`` (the table
  space included).
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hmstep
from hmstep.core import TestFn, Window
from hmstep.hm import support, support_criterion_check, support_membership_check
from hmstep.laws import bump_fn, default_spaces, nested_bumps_fn, staircase_fn
from hmstep.stepfn import StepFn, blocks, canonicalize, constant, diagonal, map_values, pairing

from conftest import oracle_functional

PACKAGE = Path(hmstep.__file__).resolve().parent
SPACES = default_spaces()


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _stepfn_imports(tree: ast.Module) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("stepfn", "hmstep.stepfn")
        for alias in node.names
    }


@pytest.mark.parametrize("module", ("hm", "tower"))
def test_callers_do_not_touch_the_grid(module):
    tree = _tree(module)
    private = {name for name in _stepfn_imports(tree) if name.startswith("_")}
    assert not private, f"{module} imports private stepfn names {sorted(private)}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name != "bisect" for alias in node.names), f"{module} imports bisect"
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "bisect", f"{module} imports from bisect"
            names = {alias.name for alias in node.names}
            assert not names & {"lcm", "gcd"}, f"{module} imports {sorted(names & {'lcm', 'gcd'})}"
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("ticks", "den", "lcm", "gcd"), f"{module} reads .{node.attr}"


def test_laws_builds_on_the_grid_only_for_bumps():
    private = {name for name in _stepfn_imports(_tree("laws")) if name.startswith("_")}
    assert private == {"_trusted"}


def _calls(node: ast.AST, name: str) -> int:
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name for n in ast.walk(node))


def _callers(module: str, name: str) -> set[str]:
    """The functions of a module that call name, checking that nothing calls it outside them."""
    tree = _tree(module)
    counts = {fn.name: _calls(fn, name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert sum(counts.values()) == _calls(tree, name), f"{name} is called outside any function"
    return {fn for fn, count in counts.items() if count}


def test_stepfn_builds_trusted_only_through_the_merge_scan_and_constant():
    assert _callers("stepfn", "_trusted") == {"_canonical", "constant", "blocks", "_on_ticks"}


def test_hm_calls_the_window_kernel_only_in_functional_eval():
    assert _callers("hm", "window_ratio") == {"functional_eval"}


def test_tower_takes_every_table_from_hm():
    tree = _tree("tower")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names}
            assert not names & {"cache", "lru_cache"}, f"tower imports {sorted(names & {'cache', 'lru_cache'})}"
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("as_integer_ratio", "cache", "lru_cache"), f"tower reads .{node.attr}"


def test_pairing_is_reexported():
    from hmstep import hm, stepfn

    assert hmstep.pairing is hm.pairing is stepfn.pairing


def all_spans_criterion(f: StepFn, b_set: frozenset, space) -> bool:
    """The definition the full-window test replaced: zero average of every
    outside indicator over every window spanned by the canonical breakpoints."""
    windows = [Window(a, b) for a, b in combinations(canonicalize(f).breakpoints, 2)]
    return all(
        oracle_functional(TestFn.indicator(space, y), w, f) == 0
        for y in space.labels
        if y not in b_set
        for w in windows
    )


fractions_to_12 = st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(lambda k: Fraction(k, d)))


@st.composite
def criterion_cases(draw):
    """A space from the pool, a raw f over it and a nonempty candidate set.
    Breakpoints have small denominators and some are repeated, so zero-length
    pieces are likely; there are at most four labels, so mergeable neighbours
    are too."""
    space = draw(st.sampled_from(SPACES))
    inner = draw(st.lists(fractions_to_12, max_size=6))
    inner += draw(st.lists(st.sampled_from(inner), max_size=2)) if inner else []
    bps = (Fraction(0), *sorted(inner), Fraction(1))
    labels = st.sampled_from(space.labels)
    values = draw(st.lists(labels, min_size=len(bps) - 1, max_size=len(bps) - 1))
    b_set = frozenset(draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True)))
    return space, StepFn(bps, values), b_set


# a zero-length piece at 1/2 holding a value outside the set, between two mergeable pieces
@example((SPACES[2], StepFn((0, Fraction(1, 2), Fraction(1, 2), 1), (1, 3, 1)), frozenset({1})))
@example((SPACES[-1], StepFn((0, Fraction(1, 3), Fraction(1, 3), 1), (4, 2, 4)), frozenset({4})))
@given(criterion_cases())
def test_support_criterion_agrees_with_all_spans_and_support(case):
    space, f, b_set = case
    got = support_criterion_check(space, f, b_set)
    assert got == all_spans_criterion(f, b_set, space) == (support(f) <= b_set)
    assert all(support_membership_check(space, f, x) == (x in support(f)) for x in space.labels)


@st.composite
def raw_stepfns(draw):
    """A step function over {1, 2, 3} with breakpoints on small grids, some repeated."""
    inner = draw(st.lists(fractions_to_12, max_size=5))
    inner += draw(st.lists(st.sampled_from(inner), max_size=2)) if inner else []
    bps = (Fraction(0), *sorted(inner), Fraction(1))
    return StepFn(bps, draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(bps) - 1, max_size=len(bps) - 1)))


@given(raw_stepfns(), raw_stepfns(), st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=8), st.data())
def test_every_producer_returns_a_fixed_point_of_canonicalize(f, g, values, data):
    n = len(values)
    i = data.draw(st.integers(1, n))
    produced = {
        "blocks": blocks(values),
        "blocks of step functions": blocks(f if v == 1 else g for v in values),
        "map_values": map_values(f, lambda v: v // 2),
        "canonicalize": canonicalize(f),
        "constant": constant(values[0]),
        "pairing": pairing(f, g),
        "diagonal": diagonal(blocks((f, g, f))),
        "bump_fn": bump_fn(i, n),
        "nested_bumps_fn": nested_bumps_fn(n),
        "staircase_fn": staircase_fn(n),
    }
    for name, x in produced.items():
        assert canonicalize(x) is x, name
