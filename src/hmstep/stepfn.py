"""Piecewise-constant maps on [0, 1) with exact rational breakpoints.

A ``StepFn`` is a partition 0 = t_0 <= ... <= t_k = 1 plus one value per
piece; the value holds on the half-open piece [t_{i-1}, t_i). Values are
opaque hashable objects: points of a finite space, or step functions
themselves, so one generic type realizes every nesting level. Two functions
that agree almost everywhere share a canonical form (no zero-length pieces,
adjacent values distinct), and canonical forms are what every equality in
this toolkit compares. The kernels every level shares (``map_values``,
``refinement_integral``, ``window_average``) take the level's part as a callable.

Validation happens once, at the public boundary: the ``StepFn`` constructor,
:func:`from_segments` and :func:`parse_stepfn` coerce and check whatever they
are given. Internal producers (``blocks``, ``map_values``, ``canonicalize``,
the flatten candidates) derive their partitions from inputs already checked,
so they run the one merge scan and build their canonical result once, with
no second validation pass.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .core import FULL_WINDOW, ONE, ZERO, FiniteSpace, Rat, Window, as_rat


@dataclass(frozen=True)
class StepFn:
    """Breakpoints and per-piece values; not necessarily canonical.

    The constructor is the validating boundary: it coerces every breakpoint
    to a ``Rat`` and checks the partition shape (sorted breakpoints from 0
    to 1, one value per piece), but deliberately admits zero-length and
    mergeable pieces so that :func:`canonicalize` has something to do.
    Results derived from checked inputs are built by ``_trusted`` instead.
    """

    breakpoints: tuple[Rat, ...]
    values: tuple

    def __post_init__(self) -> None:
        bps = tuple(as_rat(t) for t in self.breakpoints)
        vals = tuple(self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) < 2:
            raise ValueError("a step function needs breakpoints 0 and 1")
        if len(vals) != len(bps) - 1:
            raise ValueError("need exactly one value per piece")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must start at 0 and end at 1")
        for t0, t1 in zip(bps, bps[1:]):
            if t1 < t0:
                raise ValueError("breakpoints must be sorted")

    @property
    def pieces(self) -> int:
        return len(self.values)

    def segments(self) -> Iterable[tuple[Rat, Rat, object]]:
        """Yield (start, end, value) per stored piece, zero-length included."""
        return zip(self.breakpoints, self.breakpoints[1:], self.values)

    @property
    def is_canonical(self) -> bool:
        return canonicalize(self) is self


def _trusted(breakpoints: tuple[Rat, ...], values: tuple) -> StepFn:
    """A ``StepFn`` over a partition already known to be valid, built without
    coercion or checks. Only for results derived from validated inputs:
    breakpoints are ``Rat`` tuples from 0 to 1 in order, one value per piece."""
    f = object.__new__(StepFn)
    object.__setattr__(f, "breakpoints", breakpoints)
    object.__setattr__(f, "values", values)
    return f


def _merged(pieces: Iterable[tuple[object, object]], start: object = ZERO) -> tuple[list, list]:
    """The merge scan behind every canonical form.

    ``pieces`` are (end, value) pairs of a contiguous partition that begins
    at ``start``; a piece ending where the previous one ended has zero length
    and is dropped, and a value equal to its left neighbour's extends that
    neighbour. Returns the kept breakpoints (``start`` first) and values.
    """
    bps = [start]
    vals: list = []
    for end, v in pieces:
        if end == bps[-1]:
            continue
        if vals and vals[-1] == v:
            bps[-1] = end
        else:
            bps.append(end)
            vals.append(v)
    return bps, vals


def _canonical(pieces: Iterable[tuple[Rat, object]]) -> StepFn:
    """The canonical step function of checked (end, value) pieces from 0 to 1."""
    bps, vals = _merged(pieces)
    return _trusted(tuple(bps), tuple(vals))


def canonicalize(f: StepFn) -> StepFn:
    """The unique representative of f's almost-everywhere class.

    Zero-length pieces are dropped and equal-valued neighbours merged, in one
    scan; an already canonical f is returned as is, so the call is
    idempotent and allocates no second ``StepFn`` for canonical input. The
    result has at least one piece.
    """
    bps, vals = _merged(zip(f.breakpoints[1:], f.values))
    if len(vals) == len(f.values):
        return f
    return _trusted(tuple(bps), tuple(vals))


def constant(value: object) -> StepFn:
    """The one-piece step function with the given value on all of [0, 1)."""
    return StepFn((ZERO, ONE), (value,))


def from_segments(segments: Iterable[tuple[Rat, Rat, object]]) -> StepFn:
    """Assemble a canonical step function from contiguous (start, end, value)
    triples covering [0, 1) in order. Zero-length segments are tolerated;
    gaps, overlaps and segments running backwards are refused."""
    bps: list[Rat] = [ZERO]
    vals: list = []
    for start, end, v in segments:
        start, end = as_rat(start), as_rat(end)
        if start != bps[-1]:
            raise ValueError("segments must be contiguous from 0 to 1")
        if end < start:
            raise ValueError(f"segment [{start}, {end}) runs backwards")
        bps.append(end)
        vals.append(v)
    if not vals or bps[-1] != ONE:
        raise ValueError("segments must cover [0, 1)")
    return _canonical(zip(bps[1:], vals))


def map_values(f: StepFn, fn: Callable[[object], object]) -> StepFn:
    """The canonical form of fn ∘ f: fn applied to every stored value."""
    return _canonical(zip(f.breakpoints[1:], [fn(v) for v in f.values]))


def evaluate(f: StepFn, t: int | str | Rat) -> object:
    """Value of f at t in [0, 1); at a breakpoint the right piece wins."""
    t = as_rat(t)
    if not (ZERO <= t < ONE):
        raise ValueError(f"step functions are defined on [0, 1), got {t}")
    i = bisect_right(f.breakpoints, t) - 1
    return f.values[i]


class RefinementCell(NamedTuple):
    start: Rat
    end: Rat
    left: object
    right: object


def common_refinement(f: StepFn, g: StepFn) -> list[RefinementCell]:
    """Partition [0, 1) so both functions are constant on every cell.

    Cells carry (start, end, value of f, value of g); zero-length cells never
    appear, and the cell count is at most pieces(f) + pieces(g) - 1. Raw
    inputs give the cells of their canonical forms: zero-length pieces are
    skipped, and a cell repeating its left neighbour's pair extends it.
    """
    cells: list[RefinementCell] = []
    i = j = 0
    cur = ZERO
    while i < f.pieces and j < g.pieces:
        fe = f.breakpoints[i + 1]
        ge = g.breakpoints[j + 1]
        end = fe if fe <= ge else ge
        if end > cur:
            left, right = f.values[i], g.values[j]
            if cells and cells[-1].left == left and cells[-1].right == right:
                cells[-1] = cells[-1]._replace(end=end)
            else:
                cells.append(RefinementCell(cur, end, left, right))
            cur = end
        if fe == end:
            i += 1
        if ge == end:
            j += 1
    return cells


def refinement_integral(f: StepFn, g: StepFn, dist: Callable[[object, object], Rat]) -> Rat:
    """Integral of dist(f(t), g(t)) over [0, 1); dist sees only unequal values."""
    total = ZERO
    for start, end, left, right in common_refinement(f, g):
        if left != right:
            total += (end - start) * dist(left, right)
    return total


def overlap_length(start: Rat, end: Rat, window: Window) -> Rat:
    """Length of [start, end) ∩ (window.a, window.b); 0 when disjoint."""
    lo = start if start >= window.a else window.a
    hi = end if end <= window.b else window.b
    return hi - lo if hi > lo else ZERO


def window_average(f: StepFn, weight: Callable[[object], Rat], window: Window) -> Rat:
    """Exact mean of weight(f(t)) over the window; weight sees only pieces meeting it."""
    total = ZERO
    for t0, t1, v in f.segments():
        seg = overlap_length(t0, t1, window)
        if seg > ZERO:
            total += seg * weight(v)
    return total / window.length


def measure_preimage(f: StepFn, value_set: Iterable, window: Window = FULL_WINDOW) -> Rat:
    """Exact total length of {t in window : f(t) in value_set}."""
    targets = frozenset(value_set)
    total = ZERO
    for t0, t1, v in f.segments():
        if v in targets:
            total += overlap_length(t0, t1, window)
    return total


def as_rng(seed: int | random.Random) -> random.Random:
    """Use a ``random.Random`` as is, or start a fresh stream from an int seed."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def blocks(values: Iterable) -> StepFn:
    """The canonical step function taking the i-th of n values on [(i-1)/n, i/n)."""
    values = tuple(values)
    if not values:
        raise ValueError("need at least one block value")
    n = len(values)
    # merge on the integer grid, then build a Rat only for each kept breakpoint
    ks, vals = _merged(zip(range(1, n + 1), values), start=0)
    return _trusted(tuple(Rat(k, n) for k in ks), tuple(vals))


def random_stepfn(
    domain: FiniteSpace | Sequence,
    grid_denominator: int,
    seed: int | random.Random,
) -> StepFn:
    """A canonical step function with breakpoints on the 1/grid grid and
    values drawn uniformly from the domain. Deterministic for a fixed seed;
    pass a ``random.Random`` to draw many functions from one stream."""
    if grid_denominator < 1:
        raise ValueError("grid denominator must be at least 1")
    pool = domain.labels if isinstance(domain, FiniteSpace) else tuple(domain)
    if not pool:
        raise ValueError("domain must be nonempty")
    rng = as_rng(seed)
    return blocks(rng.choice(pool) for _ in range(grid_denominator))


# Text serialization: breakpoints and values alternate, "t_0 v_1 t_1 ... t_k".
# Nested step functions are bracketed, pair labels parenthesized:
#   "0 1 1/2 2 1"                       over an int-labeled space
#   "0 [0 1 1/2 2 1] 1/2 [0 2 1] 1"     one nesting level down
# Parsing recurses once per bracket; deeper nesting is refused before the stack runs out.
MAX_NESTING = 100


def format_value(v: object) -> str:
    if isinstance(v, StepFn):
        return f"[{format_stepfn(v)}]"
    if isinstance(v, tuple):
        return "(" + ",".join(format_value(x) for x in v) + ")"
    return str(v)


def format_stepfn(f: StepFn) -> str:
    parts = [str(f.breakpoints[0])]
    for t0, t1, v in f.segments():
        parts.append(format_value(v))
        parts.append(str(t1))
    return " ".join(parts)


def _split_top(text: str, sep: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "[(":
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(f"nesting deeper than {MAX_NESTING} brackets")
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def parse_value(token: str) -> object:
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ValueError(f"unbalanced brackets in {token!r}")
        return parse_stepfn(token[1:-1])
    if token.startswith("("):
        if not token.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {token!r}")
        return tuple(parse_value(p) for p in _split_top(token[1:-1], ","))
    try:
        return int(token)
    except ValueError:
        return as_rat(token)


def parse_stepfn(text: str) -> StepFn:
    """Inverse of :func:`format_stepfn` for int, pair, and nested values."""
    tokens = _split_top(text.strip(), " ")
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise ValueError(f"malformed step function text: {text!r}")
    bps = tuple(as_rat(tok) for tok in tokens[0::2])
    vals = tuple(parse_value(tok) for tok in tokens[1::2])
    return StepFn(bps, vals)
