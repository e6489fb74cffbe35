"""Piecewise-constant maps on [0, 1) with exact rational breakpoints.

A ``StepFn`` is a partition 0 = t_0 <= ... <= t_k = 1 plus one value per
piece; the value holds on the half-open piece [t_{i-1}, t_i). Values are
opaque hashable objects: points of a finite space, or step functions
themselves, so one generic type realizes every nesting level. Two functions
that agree almost everywhere share a canonical form (no zero-length pieces,
adjacent values distinct), and canonical forms are what every equality in
this toolkit compares. The kernels every level shares (``map_values``,
``refinement_integral``, ``window_average``) take the level's part as a callable.

The partition is stored on one integer grid: ``den`` is the least common
denominator of the reduced breakpoints and t_i = ticks[i]/den, so kernels
compare and measure in ints. ``Rat`` appears only at the edges: the
``breakpoints`` view, the public constructor and parser, window ends, the
cells of :func:`common_refinement`, the weights a kernel's callable returns
(summed as integer numerators over their running lcm) and each kernel's one
result.

Validation happens once, at the public boundary: the ``StepFn`` constructor,
:func:`from_segments` and :func:`parse_stepfn` coerce and check whatever they
are given. Internal producers (``blocks``, ``map_values``, ``canonicalize``,
the flatten candidates) derive their partitions from inputs already checked,
so they run the one merge scan and build their canonical result once, with
no second validation pass.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from .core import FULL_WINDOW, ONE, ZERO, FiniteSpace, Rat, Window, as_rat


@dataclass(frozen=True, init=False)
class StepFn:
    """Ticks over one denominator and per-piece values; not necessarily canonical.

    ``StepFn(breakpoints, values)`` is the validating boundary: it coerces
    every breakpoint to a ``Rat``, checks the partition shape (sorted
    breakpoints from 0 to 1, one value per piece) and moves it onto the
    integer grid, but deliberately admits zero-length and mergeable pieces
    so that :func:`canonicalize` has something to do. Since ``den`` is the
    least common denominator, equal partitions have equal fields, so ``==``
    and ``hash`` mean "same breakpoints, same values". Results derived from
    checked inputs are built by ``_trusted`` instead.
    """

    den: int
    ticks: tuple[int, ...]
    values: tuple

    def __init__(self, breakpoints: Iterable[int | str | Rat], values: Iterable) -> None:
        # the checks keep the dataclass hook's name: perfbench's tracer counts
        # validated constructions as calls of StepFn.__post_init__
        self.__post_init__(breakpoints, values)

    def __post_init__(self, breakpoints: Iterable[int | str | Rat], values: Iterable) -> None:
        bps = tuple(as_rat(t) for t in breakpoints)
        vals = tuple(values)
        if len(bps) < 2:
            raise ValueError("a step function needs breakpoints 0 and 1")
        if len(vals) != len(bps) - 1:
            raise ValueError("need exactly one value per piece")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must start at 0 and end at 1")
        den = lcm(*(t.denominator for t in bps))
        ticks = tuple(t.numerator * (den // t.denominator) for t in bps)
        if any(t1 < t0 for t0, t1 in zip(ticks, ticks[1:])):
            raise ValueError("breakpoints must be sorted")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "values", vals)

    @property
    def breakpoints(self) -> tuple[Rat, ...]:
        """The partition as ``Rat``s, built on demand from the ticks."""
        den = self.den
        return tuple(Rat(t, den) for t in self.ticks)

    @property
    def pieces(self) -> int:
        return len(self.values)

    def segments(self) -> Iterable[tuple[Rat, Rat, object]]:
        """Yield (start, end, value) per stored piece, zero-length included."""
        bps = self.breakpoints
        return zip(bps, bps[1:], self.values)

    @property
    def is_canonical(self) -> bool:
        return canonicalize(self) is self


def _trusted(den: int, ticks: tuple[int, ...], values: tuple) -> StepFn:
    """A ``StepFn`` over a partition already known to be valid, built without
    coercion or checks: int ticks from 0 to den in order, one value per piece.
    A factor common to den and every tick, left where a merge dropped the
    breakpoints that needed it, is divided out."""
    g = gcd(den, *ticks)
    if g > 1:
        den //= g
        ticks = tuple(t // g for t in ticks)
    f = object.__new__(StepFn)
    object.__setattr__(f, "den", den)
    object.__setattr__(f, "ticks", ticks)
    object.__setattr__(f, "values", values)
    return f


def _merged(pieces: Iterable[tuple[int, object]]) -> tuple[list[int], list]:
    """The merge scan behind every canonical form.

    ``pieces`` are (end tick, value) pairs of a contiguous partition that
    begins at 0; a piece ending where the previous one ended has zero length
    and is dropped, and a value equal to its left neighbour's extends that
    neighbour. Returns the kept ticks (0 first) and values.
    """
    ticks = [0]
    vals: list = []
    for end, v in pieces:
        if end == ticks[-1]:
            continue
        if vals and vals[-1] == v:
            ticks[-1] = end
        else:
            ticks.append(end)
            vals.append(v)
    return ticks, vals


def _canonical(den: int, pieces: Iterable[tuple[int, object]]) -> StepFn:
    """The canonical step function of checked (end tick, value) pieces from 0 to den."""
    ticks, vals = _merged(pieces)
    return _trusted(den, tuple(ticks), tuple(vals))


def canonicalize(f: StepFn) -> StepFn:
    """The unique representative of f's almost-everywhere class.

    Zero-length pieces are dropped and equal-valued neighbours merged, in one
    scan; an already canonical f is returned as is, so the call is
    idempotent and allocates no second ``StepFn`` for canonical input. The
    result has at least one piece.
    """
    ticks, vals = _merged(zip(f.ticks[1:], f.values))
    if len(vals) == len(f.values):
        return f
    return _trusted(f.den, tuple(ticks), tuple(vals))


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
    return canonicalize(StepFn(bps, vals))


def map_values(f: StepFn, fn: Callable[[object], object]) -> StepFn:
    """The canonical form of fn ∘ f: fn applied to every stored value."""
    return _canonical(f.den, zip(f.ticks[1:], [fn(v) for v in f.values]))


def evaluate(f: StepFn, t: int | str | Rat) -> object:
    """Value of f at t in [0, 1); at a breakpoint the right piece wins."""
    t = as_rat(t)
    if not (ZERO <= t < ONE):
        raise ValueError(f"step functions are defined on [0, 1), got {t}")
    # the last piece starting at or before t, i.e. at or before floor(t * den)
    i = bisect_right(f.ticks, t.numerator * f.den // t.denominator) - 1
    return f.values[i]


class RefinementCell(NamedTuple):
    start: Rat
    end: Rat
    left: object
    right: object


def _cells(f: StepFn, g: StepFn) -> tuple[int, list[list]]:
    """The refinement behind :func:`common_refinement`: [start, end, (left,
    right)] cells in ticks over den = lcm(f.den, g.den), returned with den."""
    den = lcm(f.den, g.den)
    sf, sg = den // f.den, den // g.den
    ft, gt = [t * sf for t in f.ticks], [t * sg for t in g.ticks]
    fv, gv = f.values, g.values
    cells: list[list] = []
    i = j = cur = 0
    # trailing zero-length pieces at den add no cell
    while cur < den:
        fe, ge = ft[i + 1], gt[j + 1]
        end = fe if fe <= ge else ge
        if end > cur:
            pair = (fv[i], gv[j])
            if cells and cells[-1][2] == pair:
                cells[-1][1] = end
            else:
                cells.append([cur, end, pair])
            cur = end
        if fe == end:
            i += 1
        if ge == end:
            j += 1
    return den, cells


def common_refinement(f: StepFn, g: StepFn) -> list[RefinementCell]:
    """Partition [0, 1) so both functions are constant on every cell.

    Cells carry (start, end, value of f, value of g); zero-length cells never
    appear, and the cell count is at most pieces(f) + pieces(g) - 1. Raw
    inputs give the cells of their canonical forms: zero-length pieces are
    skipped, and a cell repeating its left neighbour's pair extends it.
    """
    den, cells = _cells(f, g)
    return [RefinementCell(Rat(a, den), Rat(b, den), *pair) for a, b, pair in cells]


def _weighted_sum(pieces: Iterable[tuple[int, object]], weight: Callable[[object], Rat], den: int) -> Rat:
    """Sum of length * weight(value) / den over (int length, value) pieces:
    one integer numerator over the running lcm of the weights' denominators,
    and one ``Rat`` at the end."""
    num, q = 0, 1
    for length, v in pieces:
        wn, wd = weight(v).as_integer_ratio()
        if q % wd:
            m = lcm(q, wd)
            num *= m // q
            q = m
        num += length * wn * (q // wd)
    return Rat(num, q * den)


def refinement_integral(f: StepFn, g: StepFn, dist: Callable[[object, object], Rat]) -> Rat:
    """Integral of dist(f(t), g(t)) over [0, 1); dist sees only unequal values."""
    den, cells = _cells(f, g)
    unequal = [(b - a, pair) for a, b, pair in cells if pair[0] != pair[1]]
    return _weighted_sum(unequal, lambda pair: dist(*pair), den)


def window_average(f: StepFn, weight: Callable[[object], Rat], window: Window) -> Rat:
    """Exact mean of weight(f(t)) over the window; weight sees only pieces
    meeting it. The pieces are clipped in ticks over a den that puts the
    window ends on the grid too."""
    (an, ad), (bn, bd) = window.a.as_integer_ratio(), window.b.as_integer_ratio()
    den = lcm(f.den, ad, bd)
    s = den // f.den
    lo, hi = an * (den // ad), bn * (den // bd)
    ticks, pieces = f.ticks, []
    # from the piece holding a (last start <= floor(a * f.den)) to the last
    # one starting before b (start < ceil(b * f.den))
    for i in range(bisect_right(ticks, lo // s) - 1, bisect_left(ticks, -(-hi // s))):
        start, end = ticks[i] * s, ticks[i + 1] * s
        length = (end if end < hi else hi) - (start if start > lo else lo)
        if length > 0:
            pieces.append((length, f.values[i]))
    return _weighted_sum(pieces, weight, hi - lo)


def measure_preimage(f: StepFn, value_set: Iterable, window: Window = FULL_WINDOW) -> Rat:
    """Exact total length of {t in window : f(t) in value_set}: the window's
    length times the mean of the indicator of value_set."""
    targets = frozenset(value_set)
    return window.length * window_average(f, lambda v: ONE if v in targets else ZERO, window)


def as_rng(seed: int | random.Random) -> random.Random:
    """Use a ``random.Random`` as is, or start a fresh stream from an int seed."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def blocks(values: Iterable) -> StepFn:
    """The canonical step function taking the i-th of n values on [(i-1)/n, i/n)."""
    values = tuple(values)
    if not values:
        raise ValueError("need at least one block value")
    return _canonical(len(values), enumerate(values, 1))


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
    bps = f.breakpoints
    parts = [str(bps[0])]
    for t1, v in zip(bps[1:], f.values):
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
