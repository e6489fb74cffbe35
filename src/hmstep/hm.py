"""The step-function space over a finite base metric.

Provides the integral metric d_hm, window-average coordinates (a test
function averaged over a window), max-combined pseudometrics, the functor
action of a point map, the constant-function unit, and exact support
predicates. Everything is computed over common refinements, so results are
exact rationals. The metric, the coordinates and the functor action are thin
callers of the level-generic ``stepfn`` kernels, which ``tower`` reuses one
level up.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .core import (
    FULL_WINDOW,
    ZERO,
    FiniteSpace,
    Rat,
    TestFn,
    Window,
)
from .stepfn import (
    StepFn,
    _canonical,
    _cells,
    canonicalize,
    constant,
    map_values,
    measure_preimage,
    refinement_integral,
    window_average,
)


def _check_points(space: FiniteSpace, points: Iterable) -> None:
    for v in set(points):
        if v not in space:
            raise ValueError(f"{v!r} is not a point of the given space")


@dataclass(frozen=True)
class Functional:
    """A window-average coordinate: a test function plus the window it is
    averaged over. Applied to a step function f it yields the mean of
    phi(f(t)) for t in the window."""

    phi: TestFn
    window: Window


@dataclass(frozen=True)
class Pseudometric:
    """Finitely many coordinates combined with max of absolute gaps."""

    functionals: tuple[Functional, ...]

    def __post_init__(self) -> None:
        fs = tuple(self.functionals)
        object.__setattr__(self, "functionals", fs)
        if not fs:
            raise ValueError("a pseudometric needs at least one coordinate")
        space = fs[0].phi.space
        if any(fnl.phi.space != space for fnl in fs):
            raise ValueError("all coordinates must share one base space")


@dataclass(frozen=True)
class SpaceMap:
    """A (total) map between finite spaces, one target point per source point."""

    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple

    def __post_init__(self) -> None:
        assignment = tuple(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(assignment) != self.source.n:
            raise ValueError("need exactly one image per source point")
        for y in assignment:
            if y not in self.target:
                raise ValueError(f"image {y!r} is not a point of the target space")

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


def product_projections(
    prod: FiniteSpace, x: FiniteSpace, y: FiniteSpace
) -> tuple[SpaceMap, SpaceMap]:
    """The two coordinate projections of a product space built by
    ``core.product_space``."""
    firsts = tuple(lab[0] for lab in prod.labels)
    seconds = tuple(lab[1] for lab in prod.labels)
    return SpaceMap(prod, x, firsts), SpaceMap(prod, y, seconds)


def pairing(f: StepFn, g: StepFn) -> StepFn:
    """t ↦ (f(t), g(t)), canonical: over the product of the value spaces, the
    only step function whose projections are f and g, as projection is pointwise."""
    den, cells = _cells(f, g)
    return _canonical(den, ((end, pair) for _, end, pair in cells))


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
    return map_values(f, h)


def unit(x: object, space: FiniteSpace) -> StepFn:
    """The constant step function at a point: the unit of the construction."""
    _check_points(space, (x,))
    return constant(x)


def support(f: StepFn) -> frozenset:
    """The set of values f attains on positive measure."""
    return frozenset(canonicalize(f).values)


def hm_n_membership(f: StepFn) -> int:
    """Least n such that f is an at-most-n-piece step function."""
    return canonicalize(f).pieces


def support_criterion_check(space: FiniteSpace, f: StepFn, b_set) -> bool:
    """Coordinate test for support containment: true iff every indicator of a
    point outside ``b_set`` averages to zero over every window spanned by
    f's breakpoints (including the full window).

    Agrees exactly with ``support(f) <= b_set``.
    """
    targets = frozenset(b_set)
    if not targets:
        raise ValueError("the candidate support set must be nonempty")
    _check_points(space, targets)
    _check_points(space, f.values)
    outside = [y for y in space.labels if y not in targets]
    # every window spanned by f's breakpoints, which must be distinct; (0, 1) is among them
    windows = [Window(a, b) for a, b in combinations(canonicalize(f).breakpoints, 2)]
    for y in outside:
        ind = TestFn.indicator(space, y)
        for w in windows:
            if functional_eval(Functional(ind, w), f) != ZERO:
                return False
    return True


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
