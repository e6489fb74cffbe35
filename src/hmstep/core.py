"""Exact rational scalars and finite metric spaces bounded by one.

Every quantity in this toolkit is an exact rational: breakpoints of step
functions, metric values, window averages. ``Rat`` is the standard-library
``fractions.Fraction``, which maintains the reduced form (gcd one, positive
denominator) after every operation, so arithmetic is exact by construction.
It is the type of distances, test-function values, window ends and every
reported quantity; step functions store their breakpoints as integer ticks
over one denominator instead (see ``stepfn``) and show them as ``Rat`` only
at their boundary. Floats are rejected at the boundaries; rounding never
enters. A ``FiniteSpace`` without a distance table (``dist=None``) carries
the discrete metric. Spaces are equal, and hash equal, when they list the
same labels in order with the same table or none: a structural product
equals the explicit table-free space listing its labels.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(value: int | str | Rat) -> Rat:
    """Coerce an int, a ``"p/q"`` string, or a Fraction to an exact rational.

    Floats are rejected on purpose: a float argument is a bug in the caller.
    Malformed text raises ValueError, a zero denominator included. So does
    exponent notation, since "1e999999999" would build a billion-digit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():
            raise ValueError(f"exponent notation is not an exact rational literal: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


class Frozen:
    """An immutable value: assignment and deletion raise ``AttributeError``, and
    ``==`` (same class only), ``hash`` and ``repr`` read the attributes named by
    ``_fields``. A validating constructor writes its fields once, through ``_set``."""

    _fields: tuple[str, ...] = ()

    def _set(self, **fields: object) -> None:
        if self.__dict__:
            raise AttributeError(f"cannot rebuild a built {self.__class__.__name__}")
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FiniteSpace(Frozen):
    """A finite point set with an exact metric bounded by 1.

    ``labels`` are hashable point names (ints for discrete spaces, pairs for
    products); ``dist`` is ``None`` for the discrete metric, else the full
    distance table aligned with ``labels``. Every metric axiom of a table is
    checked at construction: the pairwise ones (zero diagonal, symmetry,
    positivity off the diagonal, bound 1), then the triangle inequality by
    :func:`validate_metric`. A product skips these checks, as it satisfies
    them structurally. Equality compares labels, in order, and tables: an
    explicit 0/1 table is not the table-free discrete space, while a
    structural product equals the table-free space listing its labels.
    """

    _fields = ("labels", "dist")
    labels: tuple
    dist: tuple[tuple[Rat, ...], ...] | None = None

    def __init__(self, labels: Iterable, dist: Iterable[Iterable[int | str | Rat]] | None = None) -> None:
        self.__post_init__(labels, dist)

    def __post_init__(self, labels: Iterable, dist: Iterable[Iterable[int | str | Rat]] | None) -> None:
        labels = tuple(labels)
        if dist is not None:
            dist = tuple(tuple(as_rat(x) for x in row) for row in dist)
        n = len(labels)
        if n == 0:
            raise ValueError("a finite space needs at least one point")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        if dist is not None:
            if len(dist) != n or any(len(row) != n for row in dist):
                raise ValueError("distance table must be square, one row per point")
            for i in range(n):
                if dist[i][i] != ZERO:
                    raise ValueError("distance from a point to itself must be 0")
                for j in range(i + 1, n):
                    d = dist[i][j]
                    if d != dist[j][i]:
                        raise ValueError("distance table must be symmetric")
                    if d <= ZERO:
                        raise ValueError("distinct points must be at positive distance")
                    if d > ONE:
                        raise ValueError("distances must be bounded by 1")
        self._set(labels=labels, dist=dist, _index={lab: i for i, lab in enumerate(labels)})
        if dist is not None:
            validate_metric(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self is other or (self.dist == other.dist and self.labels == other.labels)

    __hash__ = Frozen.__hash__  # (labels, dist), which defining __eq__ would clear

    @property
    def n(self) -> int:
        return len(self._index)  # type: ignore[attr-defined]

    def __contains__(self, x: object) -> bool:
        try:
            return x in self._index  # type: ignore[attr-defined]
        except TypeError:  # unhashable, in a product's parts too: no point of any space
            return False

    def index_of(self, x: object) -> int:
        try:
            return self._index[x]  # type: ignore[attr-defined]
        except (KeyError, TypeError):
            raise ValueError(f"{x!r} is not a point of this space") from None

    def distance(self, x: object, y: object) -> Rat:
        i, j = self.index_of(x), self.index_of(y)
        if self.dist is None:
            return ZERO if i == j else ONE
        return self.dist[i][j]


def validate_metric(space: FiniteSpace) -> None:
    """Exhaustively check the triangle inequality over all point triples.

    ``FiniteSpace`` runs it on every table after the pairwise axioms: the
    O(n^3) scan through ``space.distance``. Symmetry, already checked, leaves
    one order per pair, and a triple that repeats a point holds trivially.
    Raises ValueError at the first violation.
    """
    labels, d = space.labels, space.distance
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            dxy = d(x, y)
            for z in labels:
                if z != x and z != y and dxy > d(x, z) + d(z, y):
                    raise ValueError(f"triangle inequality fails at {x!r}, {y!r} via {z!r}")


def make_discrete_space(n: int) -> FiniteSpace:
    """The discrete space on the labels 1..n: distinct points at distance 1,
    no table stored. ``FiniteSpace(labels)`` is the discrete space on any
    other labels."""
    if n < 1:
        raise ValueError("a discrete space needs at least one point")
    return FiniteSpace(range(1, n + 1))


class _PairIndex:
    """Row-major positions of the pairs over two factors' indexes, computed, not stored."""

    def __init__(self, left, right) -> None:
        self.left, self.right, self.width = left, right, len(right)

    def __len__(self) -> int:
        return len(self.left) * self.width

    def __contains__(self, x: object) -> bool:
        return isinstance(x, tuple) and len(x) == 2 and x[0] in self.left and x[1] in self.right

    def __getitem__(self, x: tuple) -> int:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise KeyError(x)
        return self.left[x[0]] * self.width + self.right[x[1]]


class ProductSpace(FiniteSpace):
    """The product of two spaces, answered from its ``factors``: membership,
    ``index_of``, ``n`` and the discrete ``distance`` take O(1) work, and the
    row-major pair ``labels`` are built on first use. A table factor gives the
    product its dense max table."""

    def __init__(self, x: FiniteSpace, y: FiniteSpace) -> None:
        self.__dict__.update(factors=(x, y), _index=_PairIndex(x._index, y._index))  # type: ignore[attr-defined]
        if x.dist is not None or y.dist is not None:
            labels = self.labels
            rows = (tuple(max(x.distance(a, c), y.distance(b, d)) for c, d in labels) for a, b in labels)
            self.__dict__["dist"] = tuple(rows)

    @cached_property
    def labels(self) -> tuple:  # type: ignore[override]
        x, y = self.factors  # type: ignore[attr-defined]
        return tuple((a, b) for a in x.labels for b in y.labels)


def product_space(x: FiniteSpace, y: FiniteSpace) -> FiniteSpace:
    """Product point set with the max metric, still bounded by 1.

    Labels are pairs ``(a, b)`` in row-major order, and ``factors`` keeps
    (x, y) for the projections (see ``hm.product_projections``). The max of
    two discrete metrics is discrete, so two table-free factors give a
    table-free product; otherwise the table is built.
    """
    return ProductSpace(x, y)


class TestFn(Frozen):
    """A rational-valued function on a finite space, one value per point.

    On a finite space every such function is continuous, so these are the
    coordinates the step-function machinery averages against.
    """

    __test__ = False  # not a test case, despite the name

    _fields = ("space", "values")
    space: FiniteSpace
    values: tuple[Rat, ...]

    def __init__(self, space: FiniteSpace, values: Iterable[int | str | Rat]) -> None:
        values = tuple(as_rat(v) for v in values)
        if len(values) != space.n:
            raise ValueError("need exactly one value per point of the space")
        self._set(space=space, values=values)

    def __call__(self, x: object) -> Rat:
        return self.values[self.space.index_of(x)]

    def scaled(self, factor: int | str | Rat) -> TestFn:
        c = as_rat(factor)
        return TestFn(self.space, tuple(c * v for v in self.values))

    def __add__(self, other: TestFn) -> TestFn:
        if other.space != self.space:
            raise ValueError("cannot add test functions on different spaces")
        return TestFn(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    @classmethod
    def indicator(cls, space: FiniteSpace, x: object) -> TestFn:
        i = space.index_of(x)
        return cls(space, tuple(ONE if j == i else ZERO for j in range(space.n)))


class Window(Frozen):
    """A rational subinterval (a, b) of [0, 1] with a < b.

    Endpoints 0 and 1 are permitted; degenerate windows are not. ``ratios``
    holds the ends as (num, den) int pairs for the ``stepfn`` kernels.
    """

    _fields = ("a", "b")
    a: Rat
    b: Rat

    def __init__(self, a: int | str | Rat, b: int | str | Rat) -> None:
        a, b = as_rat(a), as_rat(b)
        if not (ZERO <= a < b <= ONE):
            raise ValueError(f"window endpoints must satisfy 0 <= a < b <= 1, got ({a}, {b})")
        self._set(a=a, b=b, ratios=(a.as_integer_ratio(), b.as_integer_ratio()))


FULL_WINDOW = Window(ZERO, ONE)
