"""Piecewise-constant maps on [0, 1) with exact rational breakpoints.

A ``StepFn`` is a partition 0 = t_0 <= ... <= t_k = 1 plus one value per
piece; the value holds on the half-open piece [t_{i-1}, t_i). Values are
opaque hashable objects: points of a finite space, or step functions
themselves, so one generic type realizes every nesting level. Two functions
that agree almost everywhere share a canonical form (no zero-length pieces,
adjacent values distinct), and canonical forms are what every equality in
this toolkit compares. ``hm`` and ``tower`` validate, then call the kernels
every level shares: ``pairing``, the flatten ``diagonal`` and, taking the
level's part as a callable, ``map_values``, ``refinement_ratio`` and
``window_ratio``.

The partition is stored on one integer grid: ``den`` is the least common
denominator of the reduced breakpoints and t_i = ticks[i]/den, so kernels
compare and measure in ints. A ``StepFn`` is a tuple whose first item is a
private tag, so it is built and compared in C and equals no other tuple (see
the class). Only this module reads the grid; ``laws`` alone builds on it,
through ``_trusted``, for ``bump_fn`` and the interior bumps of
``nested_bumps_fn``. ``Rat`` appears only at the edges: the ``breakpoints``
view, the public constructor and parser, window ends and the cells of
:func:`common_refinement`. One calling convention: the pair kernels' callables
return exact (num, den) int pairs, and so do they, unreduced over their running
lcm, so a level-2 caller nests them and its public call builds one ``Rat``.
They sum in one pass as they walk the ticks, f's alone against a one-piece g or
on the full window, and build no cells; the one other pair walk builds
``pairing``, whose pieces are ``common_refinement``'s cells.

Validation happens once, at the public boundary: the ``StepFn`` constructor
coerces and checks every partition, and :func:`parse_stepfn` checks only what
it cannot see. Internal producers (``blocks``, ``map_values``,
``canonicalize``, ``pairing``, ``diagonal``) derive their partitions from
checked inputs, so they run the one merge scan and build their canonical result
once, through ``_trusted``: one ``tuple.__new__``, no hook, no check. Only a
merge can drop the breakpoints that needed the larger den, so only merges
reduce the grid. ``constant``'s partition is fixed; ``blocks`` of distinct
neighbours skips the scan and shares one tick tuple per n; ``canonicalize``,
``map_values`` and ``diagonal`` of one-piece inner functions (the inside unit)
skip it when two passes find the result canonical on the outer ticks; beyond
that and the outer unit, ``diagonal`` has no special case, and no per-inner one.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import attrgetter, ne
from typing import NamedTuple

from .core import ONE, ZERO, FiniteSpace, Rat, Window, as_rat


_TAG = object()  # the first item of every StepFn and of no other tuple
_Layout = namedtuple("_Layout", ("tag", "den", "ticks", "values"))  # lends StepFn its field descriptors
_values = attrgetter("values")


class StepFn(tuple):
    """Ticks over one denominator and per-piece values; not necessarily canonical.

    The tuple ``(_TAG, den, ticks, values)``, built by one ``tuple.__new__`` and
    compared as a tuple, in C. No other tuple holds the private tag, so none,
    ``(den, ticks, values)`` included, equals a ``StepFn``; ``hash`` leaves the tag
    out, so it agrees across processes. As ``den`` is least, both mean "same
    breakpoints, same values". The fields read through ``_Layout``'s C descriptors;
    ``_Layout`` is no base, so no unvalidated ``_make`` or ``_replace`` comes along.

    ``StepFn(breakpoints, values)`` is the validating boundary. It calls the hook
    ``StepFn.__post_init__(None, breakpoints, values)`` through the class, where
    perfbench's tracer counts it; the hook coerces every breakpoint to a ``Rat``,
    checks the partition shape (sorted from 0 to 1, one value per piece) and
    returns ``(den, ticks, values)`` on the grid, deliberately admitting zero-length
    and mergeable pieces so that :func:`canonicalize` has something to do.
    """

    __slots__ = ()
    den: int = _Layout.den
    ticks: tuple[int, ...] = _Layout.ticks
    values: tuple = _Layout.values

    def __new__(cls, breakpoints: Iterable[int | str | Rat], values: Iterable) -> StepFn:
        return tuple.__new__(StepFn, (_TAG, *StepFn.__post_init__(None, breakpoints, values)))

    def __post_init__(self, breakpoints: Iterable[int | str | Rat], values: Iterable) -> tuple:
        if self is not None:
            raise AttributeError("cannot rebuild a built StepFn")
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
        return den, ticks, vals

    def __hash__(self) -> int:
        return hash(self[1:])

    def __repr__(self) -> str:
        return f"StepFn(den={self[1]!r}, ticks={self[2]!r}, values={self[3]!r})"

    def __reduce__(self) -> tuple:
        # required: without it a tuple subclass pickles through __getnewargs__,
        # calling the validating __new__ with the whole tuple as its one argument
        return _trusted, self[1:]

    @property
    def breakpoints(self) -> tuple[Rat, ...]:
        """The partition as ``Rat``s, built on demand from the ticks."""
        return tuple(Rat(t, self.den) for t in self.ticks)

    @property
    def pieces(self) -> int:
        return len(self.values)

    def segments(self) -> Iterable[tuple[Rat, Rat, object]]:
        """Yield (start, end, value) per stored piece, zero-length included."""
        bps = self.breakpoints
        return zip(bps, bps[1:], self.values)


def _trusted(den: int, ticks: tuple[int, ...], values: tuple) -> StepFn:
    """A ``StepFn`` over a partition already known to be valid, built without
    coercion or checks and stored as given: int ticks from 0 to den in order,
    one value per piece, den the least. Only a merge can leave a larger den,
    so ``_canonical`` reduces its grid before this."""
    return tuple.__new__(StepFn, (_TAG, den, ticks, values))


def _merged(pieces: Iterable[tuple[int, object]]) -> tuple[list[int], list]:
    """The merge scan behind every canonical form.

    ``pieces`` are (end tick, value) pairs of a contiguous partition that
    begins at 0; a piece ending where the previous one ended has zero length
    and is dropped, and a value equal to its left neighbour's extends that
    neighbour. Returns the kept ticks (0 first) and values.
    """
    ticks = [0]
    vals: list = []
    last_end, last = 0, None
    for end, v in pieces:
        if end == last_end:
            continue
        last_end = end
        if vals and last == v:
            ticks[-1] = end
        else:
            ticks.append(end)
            vals.append(v)
            last = v
    return ticks, vals


def _canonical(den: int, pieces: Iterable[tuple[int, object]]) -> StepFn:
    """The canonical step function of checked (end tick, value) pieces from 0 to den."""
    ticks, vals = _merged(pieces)
    # a merge may drop the breakpoints that needed den: reduce, and build no second tuple when g == 1
    g = gcd(den, *ticks)
    if g > 1:
        return _trusted(den // g, tuple(t // g for t in ticks), tuple(vals))
    return _trusted(den, tuple(ticks), tuple(vals))


def canonicalize(f: StepFn) -> StepFn:
    """The unique representative of f's almost-everywhere class.

    Zero-length pieces are dropped and equal-valued neighbours merged, in one
    scan; an already canonical f (ticks distinct, which sorted ticks are exactly
    when they strictly increase, and neighbours distinct: two C-level passes) is
    returned as is, without the scan, so the call is idempotent and allocates no
    second ``StepFn`` for canonical input. The result has at least one piece.
    """
    ticks, values = f.ticks, f.values
    if len(set(ticks)) == len(ticks) and all(map(ne, values, values[1:])):
        return f
    return _canonical(f.den, zip(ticks[1:], values))


def constant(value: object) -> StepFn:
    """The one-piece step function with the given value on all of [0, 1)."""
    return _trusted(1, (0, 1), (value,))


def map_values(f: StepFn, fn: Callable[[object], object]) -> StepFn:
    """The canonical form of fn ∘ f, fn applied once per value; on f's own ticks, unscanned, when canonical there."""
    return _on_ticks(f.den, f.ticks, tuple(map(fn, f.values)))


def _on_ticks(den: int, ticks: tuple[int, ...], values: tuple) -> StepFn:
    """The canonical form of checked ticks over den with these values; the ticks themselves if canonical."""
    if all(map(ne, values, values[1:])) and len(set(ticks)) == len(ticks):  # images merge more often than ticks
        return _trusted(den, ticks, values)
    return _canonical(den, zip(ticks[1:], values))


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


def pairing(f: StepFn, g: StepFn) -> StepFn:
    """t ↦ (f(t), g(t)), canonical: the only step function whose projections are f
    and g, as projection is pointwise. A two-pointer walk over lcm(f.den, g.den)
    hands (end tick, (f value, g value)) pieces to the merge scan."""
    den = lcm(f.den, g.den)
    sf, sg = den // f.den, den // g.den
    ft, gt, fv, gv = f.ticks, g.ticks, f.values, g.values
    pieces = []
    i = j = end = 0
    # trailing zero-length pieces at den are never reached
    while end < den:
        fe, ge = ft[i + 1] * sf, gt[j + 1] * sg
        end = fe if fe <= ge else ge
        pieces.append((end, (fv[i], gv[j])))
        if fe == end:
            i += 1
        if ge == end:
            j += 1
    return _canonical(den, pieces)


def common_refinement(f: StepFn, g: StepFn) -> list[RefinementCell]:
    """Partition [0, 1) so both functions are constant on every cell.

    Cells carry (start, end, value of f, value of g), at most pieces(f) +
    pieces(g) - 1 of them. They are the pieces of :func:`pairing`, so raw
    inputs give the cells of their canonical forms, with no zero-length cell.
    """
    return [RefinementCell(a, b, *pair) for a, b, pair in pairing(f, g).segments()]


def refinement_ratio(f: StepFn, g: StepFn, dist: Callable[[object, object], tuple[int, int]]) -> tuple[int, int]:
    """Integral of dist(f(t), g(t)) over [0, 1) as an unreduced (num, den) int pair;
    dist maps each two unequal values to such a pair too. One walk adds length * dist
    over the running lcm of dist's denominators: over f's pieces alone when g has one
    piece (the probe's limit), else a two-pointer walk over both."""
    if len(g.values) == 1:
        c, ticks, num, q, start, i = g.values[0], f.ticks, 0, 1, 0, 0
        for a in f.values:
            i += 1
            end = ticks[i]
            if end > start:
                if a is not c and a != c:
                    wn, wd = dist(a, c)
                    if q % wd:
                        m = lcm(q, wd)
                        num *= m // q
                        q = m
                    num += (end - start) * wn * (q // wd)
                start = end
        return num, q * f.den
    den = lcm(f.den, g.den)
    sf, sg = den // f.den, den // g.den
    ft, gt, fv, gv = f.ticks, g.ticks, f.values, g.values
    num, q = 0, 1
    i = j = cur = 0
    # trailing zero-length pieces at den add nothing
    while cur < den:
        fe, ge = ft[i + 1] * sf, gt[j + 1] * sg
        end = fe if fe <= ge else ge
        if end > cur:
            a, b = fv[i], gv[j]
            if a is not b and a != b:
                wn, wd = dist(a, b)
                if q % wd:
                    m = lcm(q, wd)
                    num *= m // q
                    q = m
                num += (end - cur) * wn * (q // wd)
            cur = end
        if fe == end:
            i += 1
        if ge == end:
            j += 1
    return num, q * den


def _meeting(ticks: tuple[int, ...], s: int, lo: int, hi: int) -> range:
    """Indices of the pieces meeting [lo, hi) on a grid s times finer than ticks:
    the last start <= floor(lo / s) up to the last start < ceil(hi / s)."""
    return range(bisect_right(ticks, lo // s) - 1, bisect_left(ticks, -(-hi // s)))


def window_ratio(f: StepFn, weight: Callable[[object], tuple[int, int]], window: Window) -> tuple[int, int]:
    """Exact mean of weight(f(t)) over the window as an unreduced (num, den) int pair,
    weight returning one too and seeing only the pieces meeting the window: f's own
    pieces over f's den on [0, 1), else clipped in ticks over a den that also puts the
    window ends on the grid."""
    (an, ad), (bn, bd) = window.ratios
    ticks, values = f.ticks, f.values
    num, q = 0, 1
    if an == 0 and bn == bd:
        start = i = 0
        for v in values:  # indexed: a zip costs more than it saves on a few pieces
            i += 1
            end = ticks[i]
            if end > start:
                wn, wd = weight(v)
                if q % wd:
                    m = lcm(q, wd)
                    num *= m // q
                    q = m
                num += (end - start) * wn * (q // wd)
                start = end
        return num, q * f.den
    den = lcm(f.den, ad, bd)
    s = den // f.den
    lo, hi = an * (den // ad), bn * (den // bd)
    for i in _meeting(ticks, s, lo, hi):
        start, end = ticks[i] * s, ticks[i + 1] * s
        length = (end if end < hi else hi) - (start if start > lo else lo)
        if length > 0:
            wn, wd = weight(values[i])
            if q % wd:
                m = lcm(q, wd)
                num *= m // q
                q = m
            num += length * wn * (q // wd)
    return num, q * (hi - lo)


def diagonal(F: StepFn) -> StepFn:
    """The canonical s ↦ F(s)(s) for step-function values F(s): per outer piece of
    positive length, the inner pieces meeting it, clipped, over the lcm of every den.
    Only two nestings skip that search: a one-piece F (the outside unit) and an F of
    one-piece inner functions only (the inside unit), whose values go on F's ticks."""
    if len(F.values) == 1:
        return canonicalize(F.values[0])
    if len(F.values[0].values) == 1:
        values = tuple(chain.from_iterable(map(_values, F.values)))
        if len(values) == len(F.values):  # no inner function is empty, so each has one piece
            return _on_ticks(F.den, F.ticks, values)
    den = lcm(F.den, *map(attrgetter("den"), F.values))
    s = den // F.den
    pieces = []
    for u, v, g in zip(F.ticks, F.ticks[1:], F.values):
        if v > u:
            u, v, sg, ticks = u * s, v * s, den // g.den, g.ticks
            for i in _meeting(ticks, sg, u, v):
                end = ticks[i + 1] * sg
                pieces.append((end if end <= v else v, g.values[i]))
    return _canonical(den, pieces)


def as_rng(seed: int | random.Random) -> random.Random:
    """Use a ``random.Random`` as is, or start a fresh stream from an int seed."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def blocks(values: Iterable) -> StepFn:
    """The canonical step function taking the i-th of n values on [(i-1)/n, i/n)."""
    values = tuple(values)
    if not values:
        raise ValueError("need at least one block value")
    if all(map(ne, values, values[1:])):
        return _trusted(len(values), _grid(len(values)), values)
    return _canonical(len(values), enumerate(values, 1))


@lru_cache(maxsize=64)
def _grid(n: int) -> tuple[int, ...]:
    """The ticks 0..n of n blocks, one tuple shared by every function on that grid."""
    return tuple(range(n + 1))


def random_stepfn(space: FiniteSpace, grid_denominator: int, seed: int | random.Random) -> StepFn:
    """A canonical step function with breakpoints on the 1/grid grid and
    values drawn uniformly from the space's points. Deterministic for a fixed
    seed; pass a ``random.Random`` to draw many functions from one stream."""
    if grid_denominator < 1:
        raise ValueError("grid denominator must be at least 1")
    rng = as_rng(seed)
    return blocks(map(rng.choice, repeat(space.labels, grid_denominator)))


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
