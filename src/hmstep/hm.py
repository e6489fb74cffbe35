"""The step-function space over a finite base metric.

Provides the integral metric d_hm, window-average coordinates (a test
function averaged over a window), max-combined pseudometrics, the functor
action of a point map, the pairing of two functions (``stepfn.pairing``,
re-exported), the constant-function unit, and exact support predicates.
Each operation checks its points against the base space and then calls a
level-generic ``stepfn`` kernel, which ``tower`` reuses one level up; the
integer grid the kernels work on stays inside ``stepfn``. Results are exact
rationals.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from operator import itemgetter
from typing import NamedTuple

from .core import (
    FULL_WINDOW,
    ZERO,
    FiniteSpace,
    Frozen,
    Rat,
    TestFn,
    Window,
)
from .stepfn import (
    StepFn,
    canonicalize,
    map_values,
    measure_preimage,
    pairing,  # re-exported: hmstep.hm.pairing
    refinement_integral,
    window_average,
)


def _check_points(space: FiniteSpace, points: Iterable) -> set:
    """The distinct points, each checked against the space."""
    distinct = set(points)
    for v in distinct:
        if v not in space:
            raise ValueError(f"{v!r} is not a point of the given space")
    return distinct


class Functional(NamedTuple):
    """A window-average coordinate: a test function plus the window it is
    averaged over. Applied to a step function f it yields the mean of
    phi(f(t)) for t in the window."""

    phi: TestFn
    window: Window


class Pseudometric(Frozen):
    """Finitely many coordinates combined with max of absolute gaps."""

    _fields = ("functionals",)
    functionals: tuple[Functional, ...]

    def __init__(self, functionals: Iterable[Functional]) -> None:
        fs = tuple(functionals)
        if not fs:
            raise ValueError("a pseudometric needs at least one coordinate")
        space = fs[0].phi.space
        if any(fnl.phi.space != space for fnl in fs):
            raise ValueError("all coordinates must share one base space")
        self._set(functionals=fs)


class SpaceMap(Frozen):
    """A (total) map between finite spaces, one target point per source point.

    ``SpaceMap(source, target, assignment)`` is the public form: it checks one
    image per source point, in label order, each a point of the target. The
    rule form ``_RuleMap`` computes images by a callable and derives
    ``assignment`` on demand; it checks no image, so it is built only where the
    rule lands in the target by construction: :func:`product_projections` and
    the equality collapse of ``laws.build_witnesses``. A rule map never equals a
    tuple map.
    """

    _fields = ("source", "target", "assignment")
    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple

    def __init__(self, source: FiniteSpace, target: FiniteSpace, assignment: Iterable) -> None:
        assignment = tuple(assignment)
        if len(assignment) != source.n:
            raise ValueError("need exactly one image per source point")
        for y in set(assignment):
            if y not in target:
                raise ValueError(f"image {y!r} is not a point of the target space")
        self._set(source=source, target=target, assignment=assignment)

    def __call__(self, x: object) -> object:
        return self.assignment[self.source.index_of(x)]

    def after(self, other: SpaceMap) -> SpaceMap:
        """Composite self ∘ other; other's target must be self's source."""
        if other.target != self.source:
            raise ValueError("composition mismatch: inner target differs from outer source")
        return SpaceMap(
            other.source, self.target, tuple(self(y) for y in other.assignment)
        )

    @classmethod
    def identity(cls, space: FiniteSpace) -> SpaceMap:
        return cls(space, space, space.labels)


class _RuleMap(SpaceMap):
    """The unchecked rule form of :class:`SpaceMap`."""

    def __init__(self, source: FiniteSpace, target: FiniteSpace, rule: Callable[[object], object]) -> None:
        self._set(source=source, target=target, rule=rule)

    @property
    def assignment(self) -> tuple:  # type: ignore[override]
        return tuple(map(self.rule, self.source.labels))

    def __call__(self, x: object) -> object:
        self.source.index_of(x)  # refuses a non-point
        return self.rule(x)


def product_projections(
    prod: FiniteSpace, x: FiniteSpace, y: FiniteSpace
) -> tuple[SpaceMap, SpaceMap]:
    """The two coordinate projections of ``core.product_space(x, y)``, as rules."""
    if getattr(prod, "factors", None) != (x, y):
        raise ValueError("projections need the product of the two given spaces")
    return _RuleMap(prod, x, itemgetter(0)), _RuleMap(prod, y, itemgetter(1))


def compose_testfn(phi: TestFn, h: SpaceMap) -> TestFn:
    """phi ∘ h, a test function on h's source."""
    if phi.space != h.target:
        raise ValueError("test function must live on the map's target space")
    return TestFn(h.source, tuple(phi(y) for y in h.assignment))


def d_hm(space: FiniteSpace, f: StepFn, g: StepFn) -> Rat:
    """Integral of the pointwise distance between f and g over [0, 1).

    Zero exactly when the canonical forms coincide; bounded by 1.
    """
    _check_points(space, f.values)
    _check_points(space, g.values)
    return refinement_integral(f, g, space.distance)


def functional_eval(fnl: Functional, f: StepFn) -> Rat:
    """Exact mean of phi(f(t)) over the functional's window."""
    _check_points(fnl.phi.space, f.values)
    return window_average(f, fnl.phi, fnl.window)


def pseudometric_eval(rho: Pseudometric, f: StepFn, g: StepFn) -> Rat:
    """Max over coordinates of |coordinate(f) - coordinate(g)|."""
    return max(
        abs(functional_eval(fnl, f) - functional_eval(fnl, g))
        for fnl in rho.functionals
    )


def hm_map(h: SpaceMap, f: StepFn) -> StepFn:
    """Post-compose f with the point map h; the canonical result never has
    more pieces than f."""
    _check_points(h.source, f.values)
    return map_values(f, h.rule if isinstance(h, _RuleMap) else h)  # the points are checked above


def unit(x: object, space: FiniteSpace) -> StepFn:
    """The constant step function at a point: the unit of the construction."""
    _check_points(space, (x,))
    # validated, unlike stepfn.constant: perfbench's tracer needs a validated construction per workload
    return StepFn((0, 1), (x,))


def support(f: StepFn) -> frozenset:
    """The set of values f attains on positive measure."""
    return frozenset(canonicalize(f).values)


def support_criterion_check(space: FiniteSpace, f: StepFn, b_set) -> bool:
    """Coordinate test for support containment: true iff every indicator of a
    point outside ``b_set`` averages to zero over the full window. An
    indicator is nonnegative, so that is zero over every window at once.

    Agrees exactly with ``support(f) <= b_set``.
    """
    targets = frozenset(b_set)
    if not targets:
        raise ValueError("the candidate support set must be nonempty")
    _check_points(space, targets)
    _check_points(space, f.values)
    return all(
        functional_eval(Functional(TestFn.indicator(space, y), FULL_WINDOW), f) == ZERO
        for y in space.labels
        if y not in targets
    )


def support_membership_check(space: FiniteSpace, f: StepFn, x: object) -> bool:
    """Coordinate test for membership of a point in the support: the witness
    level is the total length of pieces at x, and the decisive [0,1]-valued
    test function fixing x is its indicator (any other dominates it
    pointwise). Agrees exactly with ``x in support(f)``."""
    _check_points(space, (x,))
    _check_points(space, f.values)
    witness = measure_preimage(f, {x}, FULL_WINDOW)
    if witness == ZERO:
        return False
    ind = Functional(TestFn.indicator(space, x), FULL_WINDOW)
    return functional_eval(ind, f) >= witness
