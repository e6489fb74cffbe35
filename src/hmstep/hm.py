"""The step-function space over a finite base metric.

Provides the integral metric d_hm, the window-average coordinates
``functional_eval(phi, window, f)``, the functor action of a point map, the
pairing of two functions (``stepfn.pairing``, re-exported), the
constant-function unit, and exact support predicates.
Each operation checks its points against the base space and then calls a
level-generic ``stepfn`` kernel, which ``tower`` nests one level up with the
same (num, den) int tables, built by ``_distance_ratios`` and ``_weight_ratios``;
the integer grid stays inside ``stepfn``. Results are exact rationals.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from operator import itemgetter

from .core import (
    FULL_WINDOW,
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
    refinement_ratio,
    window_ratio,
)


def _check_points(space: FiniteSpace, points: Iterable) -> set:
    """The distinct points, each checked against the space: pairs on a structural
    product by column against the factors' indexes, else (or on a miss) one by one."""
    try:
        distinct = set(points)
    except TypeError as exc:  # no space holds an unhashable value
        raise ValueError(f"an unhashable value ({exc}) is not a point of the given space") from None
    x, y = getattr(space, "factors", (None, None))
    if x is not None and set(map(type, distinct)) == {tuple} and set(map(len, distinct)) == {2}:
        firsts, seconds = set(map(itemgetter(0), distinct)), set(map(itemgetter(1), distinct))
        if all(map(x._index.__contains__, firsts)) and all(map(y._index.__contains__, seconds)):
            return distinct
    for v in distinct:
        if v not in space:
            raise ValueError(f"{v!r} is not a point of the given space")
    return distinct


def _distance_ratios(space: FiniteSpace) -> Callable[[object, object], tuple[int, int]]:
    """The base distance as exact (num, den) int pairs, each pair of points converted once."""
    ratios: dict = {}  # a pair is never empty, so a stored one is true
    return lambda a, b: ratios.get((a, b)) or ratios.setdefault((a, b), space.distance(a, b).as_integer_ratio())


def _weight_ratios(phi: TestFn, points: Iterable) -> Callable[[object], tuple[int, int]]:
    """phi on checked points as exact (num, den) int pairs, each point converted once."""
    return {x: phi(x).as_integer_ratio() for x in points}.__getitem__


class SpaceMap(Frozen):
    """A (total) map between finite spaces, one target point per source point.

    ``SpaceMap(source, target, assignment)`` is the public form: one image per
    source point, in label order, each checked by ``_check_points``. The
    rule form ``_RuleMap`` computes images by a callable and derives
    ``assignment`` on demand; it checks no image, so it is built only where the
    rule lands in the target by construction: :func:`product_projections` and
    the equality collapse of ``laws.build_witnesses``. Both forms carry a
    ``rule`` from source points to images, outside the fields: a call refuses
    a non-point, then applies it, and :func:`hm_map` checks a step function's
    values once, then applies it to each. A rule map never equals a tuple map.
    """

    _fields = ("source", "target", "assignment")
    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple
    rule: Callable[[object], object]

    def __init__(self, source: FiniteSpace, target: FiniteSpace, assignment: Iterable) -> None:
        assignment = tuple(assignment)
        if len(assignment) != source.n:
            raise ValueError("need exactly one image per source point")
        _check_points(target, assignment)
        rule = dict(zip(source.labels, assignment)).__getitem__
        self._set(source=source, target=target, assignment=assignment, rule=rule)

    def __call__(self, x: object) -> object:
        self.source.index_of(x)  # refuses a non-point
        return self.rule(x)


class _RuleMap(SpaceMap):
    """The unchecked rule form of :class:`SpaceMap`."""

    def __init__(self, source: FiniteSpace, target: FiniteSpace, rule: Callable[[object], object]) -> None:
        self._set(source=source, target=target, rule=rule)

    @property
    def assignment(self) -> tuple:  # type: ignore[override]
        return tuple(map(self.rule, self.source.labels))


def product_projections(prod: FiniteSpace) -> tuple[SpaceMap, SpaceMap]:
    """The two coordinate projections of ``core.product_space(x, y)``, as rules onto the factors it keeps."""
    x, y = getattr(prod, "factors", (None, None))
    if x is None:
        raise ValueError("projections need a product space, which keeps its factors")
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
    return Rat(*refinement_ratio(f, g, _distance_ratios(space)))


def functional_eval(phi: TestFn, window: Window, f: StepFn) -> Rat:
    """The window-average coordinate: the exact mean of phi(f(t)) over the window."""
    weight = _weight_ratios(phi, _check_points(phi.space, f.values))
    return Rat(*window_ratio(f, weight, window))


def hm_map(h: SpaceMap, f: StepFn) -> StepFn:
    """Post-compose f with the point map h; the canonical result never has
    more pieces than f."""
    _check_points(h.source, f.values)
    return map_values(f, h.rule)  # the points are checked above


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
    point outside ``b_set`` averages to zero over the full window (an
    indicator is nonnegative, so over every window). ``b_set`` and f are
    checked here, once, so each indicator goes straight to the kernel.
    Agrees exactly with ``support(f) <= b_set``.
    """
    targets = _check_points(space, b_set)
    if not targets:
        raise ValueError("the candidate support set must be nonempty")
    points = _check_points(space, f.values)
    return all(
        window_ratio(f, _weight_ratios(TestFn.indicator(space, y), points), FULL_WINDOW)[0] == 0
        for y in space.labels
        if y not in targets
    )


def support_membership_check(space: FiniteSpace, f: StepFn, x: object) -> bool:
    """Coordinate test for membership of a point in the support: the witness
    level is the total length of pieces at x, and the decisive [0,1]-valued
    test function fixing x is its indicator (any other dominates it
    pointwise). x and f are checked here, once, for both kernels. Agrees
    exactly with ``x in support(f)``."""
    _check_points(space, (x,))
    points = _check_points(space, f.values)
    witness = measure_preimage(f, {x}, FULL_WINDOW)
    if not witness:
        return False
    return Rat(*window_ratio(f, _weight_ratios(TestFn.indicator(space, x), points), FULL_WINDOW)) >= witness
