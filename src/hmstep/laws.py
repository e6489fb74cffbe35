"""Verification harness for multiplication candidates.

Builds the staircase witnesses over the n-point base, checks monad laws and
naturality for any candidate on seeded random samples, decides uniqueness of
the projection fiber by pairing the two projections, walks the chain of
values any lawful multiplication is forced to take, and probes continuity by
driving the bump tower toward its limit while watching the images. Every
check is an exact rational comparison; reports record concrete witnesses
for each failure.

A sampled suite is one trial run by ``_run_suite``: the runner owns the seeded
stream, the sample loop and the report, and the trial draws one sample from
the stream and returns the failures of the checks that do not hold, in order:
``()`` if all hold. An equality check returns ``_differs``, ``()`` or the one
failure, whose witness text it builds only then; an order check writes its own,
only on failure; the unit-law trial compares both flats with f before it builds
any witness, so a passing sample builds neither text nor closure.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from itertools import count, repeat
from typing import NamedTuple

from .core import (
    FULL_WINDOW,
    ONE,
    ZERO,
    FiniteSpace,
    Rat,
    TestFn,
    Window,
    make_discrete_space,
    product_space,
)
from .hm import (
    SpaceMap,
    _RuleMap,
    compose_testfn,
    d_hm,
    functional_eval,
    hm_map,
    pairing,
    product_projections,
    support,
    support_criterion_check,
    support_membership_check,
    unit,
)
from .stepfn import (
    StepFn,
    _trusted,
    as_rng,
    blocks,
    canonicalize,
    format_stepfn,
    format_value,
    random_stepfn,
)
from .tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    MuCandidate,
    StepFn2,
    d_hm2,
    eta_h,
    h2_map,
    h_eta,
    iterated_functional_eval,
    random_stepfn2,
    random_stepfn3,
)

CANDIDATES: dict[str, MuCandidate] = {
    c.name: c for c in (DIAGONAL, CONSTANT_LEFT, REMAP_LAST)
}

_UNIT_GRID, _ASSOCIATIVITY_GRID, _NATURALITY_GRID = 8, 4, 4
FIBER_GRID = 2  # the uniform cells, n * FIBER_GRID of them, whose assignments ``FiberResult.checked`` counts


class BudgetError(RuntimeError):
    """Raised before any work when a run would do more than its budget allows."""


class LawFailure(NamedTuple):
    input: str
    expected: str
    actual: str

    def to_dict(self) -> dict:
        return {"input": self.input, "expected": self.expected, "actual": self.actual}


class LawReport(NamedTuple):
    """Outcome of one check suite: sample count, failures with witnesses,
    and, for stepwise checks, which steps held."""

    candidate: str | None
    law: str
    samples: int
    failures: tuple[LawFailure, ...]
    steps: tuple[tuple[str, bool], ...] = ()

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_dict(self) -> dict:
        out = {
            "candidate": self.candidate,
            "law": self.law,
            "samples": self.samples,
            "failures": [f.to_dict() for f in self.failures],
            "verdict": self.verdict,
        }
        if self.steps:
            out["steps"] = [{"step": name, "holds": ok} for name, ok in self.steps]
        return out


class ProbeRow(NamedTuple):
    n: int
    coordinate_distance: Rat
    metric_distance: Rat
    image_gap: Rat

    @property
    def holds(self) -> bool:
        """The obstruction at n: image gap 1 at level-2 distance 1/n."""
        return self.image_gap == ONE and self.metric_distance == Rat(1, self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "coordinate_distance": str(self.coordinate_distance),
            "metric_distance": str(self.metric_distance),
            "image_gap": str(self.image_gap),
        }


class FiberResult(NamedTuple):
    n: int
    witnesses: tuple[StepFn, ...]
    checked: int

    @property
    def unique(self) -> bool:
        return not self.witnesses

    def to_report(self) -> LawReport:
        failures = tuple(
            LawFailure(f"n={self.n} grid={FIBER_GRID}", "diagonal staircase only", format_stepfn(w))
            for w in self.witnesses
        )
        return LawReport(None, "fiber-uniqueness", self.checked, failures, (("unique", self.unique),))


class Witnesses(NamedTuple):
    """The staircase family over the n-point base and its two-point collapse.

    ``staircase`` takes value i on the i-th of n equal blocks. The paired
    versions live over the product of the base with itself and hold the base's
    own label objects: ``diagonal_staircase`` takes (i, i) on block i;
    ``nested_rows`` carries on block i the row staircase sweeping (i, 1..n),
    and ``nested_bumps`` the two-point indicator of block i. Distinct blocks
    never merge, so a tower's ``values`` are its n rows, in block order.
    """

    base: FiniteSpace
    pairs: FiniteSpace
    two_point: FiniteSpace
    staircase: StepFn
    diagonal_staircase: StepFn
    nested_rows: StepFn2
    nested_bumps: StepFn2
    left_proj: SpaceMap
    right_proj: SpaceMap
    equality_collapse: SpaceMap


def staircase_fn(n: int) -> StepFn:
    """Value i on [(i-1)/n, i/n) over the n-point base."""
    return blocks(range(1, n + 1))


def bump_fn(i: int, n: int) -> StepFn:
    """Two-point indicator of the i-th block: 1 on [(i-1)/n, i/n), else 0. Its
    partition (0, i-1, i, n) is canonical once an empty end piece is dropped."""
    if not 1 <= i <= n:
        raise ValueError(f"block index {i} is outside 1..{n}")
    lo, hi = (i == 1), 3 - (i == n)
    return _trusted(n, (0, i - 1, i, n)[lo : hi + 1], (0, 1, 0)[lo:hi])


def nested_bumps_fn(n: int) -> StepFn2:
    """Block i carries the i-th bump; the tower the probe drives to its limit."""
    return blocks(bump_fn(i, n) for i in range(1, n + 1))


def build_witnesses(n: int) -> Witnesses:
    """Construct the full witness record and assert its definitional
    identities (projections of the diagonal staircase, collapse of the
    nested rows)."""
    base = make_discrete_space(n)
    pairs = product_space(base, base)
    two_point = FiniteSpace((0, 1))
    left_proj, right_proj = product_projections(pairs)
    equality_collapse = _RuleMap(pairs, two_point, lambda p: 1 if p[0] == p[1] else 0)
    staircase = staircase_fn(n)
    labels = base.labels
    diagonal_staircase = blocks(zip(labels, labels))
    nested_rows = blocks(blocks(zip(repeat(i, n), labels)) for i in labels)
    nested_bumps = nested_bumps_fn(n)
    if any(hm_map(proj, diagonal_staircase) != staircase for proj in (left_proj, right_proj)):
        raise RuntimeError("witness identity broken: projections of the diagonal staircase")
    if h2_map(equality_collapse, nested_rows) != nested_bumps:
        raise RuntimeError("witness identity broken: collapse of the nested rows")
    return Witnesses(
        base=base,
        pairs=pairs,
        two_point=two_point,
        staircase=staircase,
        diagonal_staircase=diagonal_staircase,
        nested_rows=nested_rows,
        nested_bumps=nested_bumps,
        left_proj=left_proj,
        right_proj=right_proj,
        equality_collapse=equality_collapse,
    )


# ---------------------------------------------------------------------------
# seeded sample plumbing


def _run_suite(law: str, samples: int, seed: int, trial: Callable, candidate: str | None = None) -> LawReport:
    """Run ``trial`` once per sample on one seeded stream and collect its failures."""
    rng = as_rng(seed)
    failures = tuple(failure for _ in range(samples) for failure in trial(rng))
    return LawReport(candidate, law, samples, failures)


def _differs(
    expected: object, actual: object, describe: Callable[[], str], show: Callable = str
) -> tuple[LawFailure, ...]:
    """The failure of one equality check, if its sides differ, else ``()``; only
    then are the ``describe`` thunk and ``show`` called to write the witness."""
    return (LawFailure(describe(), show(expected), show(actual)),) if expected != actual else ()


def _random_window(rng: random.Random, max_den: int = 12) -> Window:
    den = rng.randint(1, max_den)
    i = rng.randint(0, den - 1)
    j = rng.randint(i + 1, den)
    return Window(Rat(i, den), Rat(j, den))


def _random_rats(rng: random.Random, k: int, lo: int = -3) -> tuple[Rat, ...]:
    """k rationals in [lo, 3] over one random denominator of at most 12."""
    den = rng.randint(1, 12)
    return tuple(Rat(rng.randint(lo * den, 3 * den), den) for _ in range(k))


def _space_tag(space: FiniteSpace) -> str:
    return f"space({','.join(str(lab) for lab in space.labels)})"


def fixed_rational_space() -> FiniteSpace:
    """A four-point space with non-uniform rational distances in [1/2, 1],
    so every triangle closes; exercises the non-discrete metric paths."""
    return FiniteSpace((1, 2, 3, 4), (
        ("0", "1/2", "3/4", "1"),
        ("1/2", "0", "2/3", "5/6"),
        ("3/4", "2/3", "0", "7/12"),
        ("1", "5/6", "7/12", "0"),
    ))


def default_spaces(max_size: int = 4) -> list[FiniteSpace]:
    """Sampling pool: discrete spaces up to max_size points, one product,
    one non-uniform metric. All members have at most five points."""
    pool: list[FiniteSpace] = [make_discrete_space(k) for k in range(1, max_size + 1)]
    two = make_discrete_space(2)
    pool.append(product_space(two, two))
    pool.append(fixed_rational_space())
    return pool


# ---------------------------------------------------------------------------
# coordinate and support suites


def check_linearity(spaces: list[FiniteSpace], samples: int, seed: int, grid: int = 12) -> LawReport:
    """Window averages are linear in the test function."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        f = random_stepfn(space, rng.randint(1, grid), rng)
        phi1 = TestFn(space, _random_rats(rng, space.n))
        phi2 = TestFn(space, _random_rats(rng, space.n))
        lam1 = _random_rats(rng, 1)[0]
        lam2 = _random_rats(rng, 1)[0]
        w = _random_window(rng, grid)
        combo = phi1.scaled(lam1) + phi2.scaled(lam2)
        left = functional_eval(combo, w, f)
        right = lam1 * functional_eval(phi1, w, f) + lam2 * functional_eval(phi2, w, f)
        return _differs(right, left, lambda: f"{_space_tag(space)} f={format_stepfn(f)} window=({w.a},{w.b}) "
                        f"lams=({lam1},{lam2}) phi1={format_value(phi1.values)} phi2={format_value(phi2.values)}")

    return _run_suite("linearity", samples, seed, trial)


def check_monotonicity(spaces: list[FiniteSpace], samples: int, seed: int, grid: int = 12) -> LawReport:
    """Window averages respect pointwise order of test functions."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        f = random_stepfn(space, rng.randint(1, grid), rng)
        phi1 = TestFn(space, _random_rats(rng, space.n))
        delta = TestFn(space, _random_rats(rng, space.n, lo=0))
        phi2 = phi1 + delta
        w = _random_window(rng, grid)
        low = functional_eval(phi1, w, f)
        high = functional_eval(phi2, w, f)
        if low > high:
            yield LawFailure(f"{_space_tag(space)} f={format_stepfn(f)} window=({w.a},{w.b}) "
                             f"phi1={format_value(phi1.values)} phi2={format_value(phi2.values)}", f"<= {high}", str(low))

    return _run_suite("monotonicity", samples, seed, trial)


def check_coordinate_naturality(samples: int, seed: int, grid: int = 12) -> LawReport:
    """Averaging phi after a point map equals averaging phi∘map before it."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        src = make_discrete_space(rng.randint(1, 5))
        dst = make_discrete_space(rng.randint(1, 5))
        h = SpaceMap(src, dst, tuple(rng.choice(dst.labels) for _ in src.labels))
        phi = TestFn(dst, _random_rats(rng, dst.n))
        w = _random_window(rng, grid)
        f = random_stepfn(src, rng.randint(1, grid), rng)
        left = functional_eval(phi, w, hm_map(h, f))
        right = functional_eval(compose_testfn(phi, h), w, f)
        return _differs(right, left, lambda: f"map={h.assignment} f={format_stepfn(f)} window=({w.a},{w.b}) "
                        f"phi={format_value(phi.values)}")

    return _run_suite("coordinate-naturality", samples, seed, trial)


def check_unit_coordinate(spaces: list[FiniteSpace], samples: int, seed: int) -> LawReport:
    """Every window average of a constant function returns the test value."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        x = rng.choice(space.labels)
        phi = TestFn(space, _random_rats(rng, space.n))
        w = _random_window(rng)
        got = functional_eval(phi, w, unit(x, space))
        describe = lambda: f"{_space_tag(space)} x={x} window=({w.a},{w.b}) phi={format_value(phi.values)}"
        return _differs(phi(x), got, describe)

    return _run_suite("unit-coordinate", samples, seed, trial)


def check_support_criterion(spaces: list[FiniteSpace], samples: int, seed: int, grid: int = 12) -> LawReport:
    """The window-indicator criterion agrees with a direct piece scan."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        f = random_stepfn(space, rng.randint(1, grid), rng)
        size = rng.randint(1, space.n)
        b_set = frozenset(rng.sample(space.labels, size))
        got = support_criterion_check(space, f, b_set)
        expected = support(f) <= b_set
        return _differs(expected, got, lambda: f"{_space_tag(space)} f={format_stepfn(f)} "
                        f"B={sorted(map(str, b_set))}")

    return _run_suite("support-criterion", samples, seed, trial)


def check_support_membership(spaces: list[FiniteSpace], samples: int, seed: int, grid: int = 12) -> LawReport:
    """The witness-level membership test agrees with a direct piece scan."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        f = random_stepfn(space, rng.randint(1, grid), rng)
        x = rng.choice(space.labels)
        got = support_membership_check(space, f, x)
        expected = x in support(f)
        return _differs(expected, got, lambda: f"{_space_tag(space)} f={format_stepfn(f)} x={x}")

    return _run_suite("support-membership", samples, seed, trial)


def _split_variant(f: StepFn, rng: random.Random) -> StepFn:
    # same almost-everywhere class, non-canonical representation
    f = canonicalize(f)
    i = rng.randrange(f.pieces)
    bps = f.breakpoints
    mid = (bps[i] + bps[i + 1]) / 2
    bps = bps[: i + 1] + (mid,) + bps[i + 1 :]
    vals = f.values[: i + 1] + (f.values[i],) + f.values[i + 1 :]
    return StepFn(bps, vals)


def _metric_axioms(
    law: str, metric: Callable, sample: Callable, letters: str, self_label: str, spaces: list, samples: int, seed: int
) -> LawReport:
    """Identity, symmetry, nonnegativity, zero-iff-same-class and triangle
    for ``metric`` on one random triple per sample. Every fourth sample
    pairs the first function with a split copy of itself, so the zero case
    is exercised; ``letters`` name the triple in failure text."""
    index = count()

    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        f = sample(space, rng)
        g = _split_variant(f, rng) if next(index) % 4 == 0 else sample(space, rng)
        h = sample(space, rng)

        def named(detail: str) -> str:
            triple = " ".join(f"{a}={format_stepfn(x)}" for a, x in zip(letters, (f, g, h)))
            return f"{_space_tag(space)} {triple} {detail}"

        dfg = metric(space, f, g)
        yield from _differs(ZERO, metric(space, f, f), lambda: named(self_label))
        yield from _differs(dfg, metric(space, g, f), lambda: named("symmetry"))
        if dfg < ZERO:
            yield LawFailure(named("nonnegativity"), ">= 0", str(dfg))
        yield from _differs(canonicalize(f) == canonicalize(g), dfg == ZERO, lambda: named("zero-iff-same-class"))
        dfh, dgh = metric(space, f, h), metric(space, g, h)
        if dfh > dfg + dgh:
            yield LawFailure(named("triangle"), f"<= {dfg + dgh}", str(dfh))

    return _run_suite(law, samples, seed, trial)


def check_metric_axioms(spaces: list[FiniteSpace], samples: int, seed: int, grid: int = 12) -> LawReport:
    """Level-1 metric: the five axioms on random step functions."""
    sample = lambda space, rng: random_stepfn(space, rng.randint(1, grid), rng)
    return _metric_axioms("metric-axioms-level1", d_hm, sample, "fgh", "d(f,f)", spaces, samples, seed)


def check_metric_axioms_level2(spaces: list[FiniteSpace], samples: int, seed: int) -> LawReport:
    """Level-2 metric: the same axioms on random nested triples."""
    sample = lambda space, rng: random_stepfn2(space, rng.randint(1, 4), 4, rng)
    return _metric_axioms("metric-axioms-level2", d_hm2, sample, "FGH", "d2(F,F)", spaces, samples, seed)


# ---------------------------------------------------------------------------
# monad-law suites


def check_unit_laws(mu: MuCandidate, spaces: list[FiniteSpace], samples: int, seed: int) -> LawReport:
    """Flattening either nesting of the unit must return the function."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        f = random_stepfn(space, rng.randint(1, _UNIT_GRID), rng)
        inside, outside = mu(h_eta(f)), mu(eta_h(f))
        if inside == f == outside:  # a passing sample builds no witness
            return ()
        shown = format_stepfn(f)
        return [LawFailure(f"{_space_tag(space)} unit-{side} f={shown}", shown, format_stepfn(flat))
                for side, flat in (("inside", inside), ("outside", outside)) if flat != f]

    return _run_suite("unit-laws", samples, seed, trial, mu.name)


def check_associativity(mu: MuCandidate, spaces: list[FiniteSpace], samples: int, seed: int) -> LawReport:
    """Flattening the outer two levels first or the inner two levels first
    must agree on random level-3 functions."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        space = rng.choice(spaces)
        grid = _ASSOCIATIVITY_GRID
        F3 = random_stepfn3(space, rng.randint(1, grid), grid, grid, rng)
        outer_first, inner_first = mu(mu(F3)), mu(mu.lift(F3))
        return _differs(outer_first, inner_first, lambda: f"{_space_tag(space)} F3={format_stepfn(F3)}", format_stepfn)

    return _run_suite("associativity", samples, seed, trial, mu.name)


def check_naturality(mu: MuCandidate, map_samples: int, seed: int) -> LawReport:
    """Flattening must commute with the functor action of any point map."""
    def trial(rng: random.Random) -> Iterable[LawFailure]:
        src = make_discrete_space(rng.randint(1, 4))
        dst = make_discrete_space(rng.randint(1, 4))
        h = SpaceMap(src, dst, tuple(rng.choice(dst.labels) for _ in src.labels))
        F = random_stepfn2(src, _NATURALITY_GRID, _NATURALITY_GRID, rng)
        left, right = mu(h2_map(h, F)), hm_map(h, mu(F))
        return _differs(right, left, lambda: f"map={h.assignment} F={format_stepfn(F)}", format_stepfn)

    return _run_suite("naturality", map_samples, seed, trial, mu.name)


# ---------------------------------------------------------------------------
# fiber oracle, forced chain, discontinuity probe


def fiber_uniqueness(n: int) -> FiberResult:
    """Decide exactly whether the diagonal staircase is the only step function
    over the paired base whose both projections equal the staircase.

    Projection acts pointwise, so the only candidate is the pairing of the
    staircase with itself; it is confirmed through the functor action and
    compared with the diagonal staircase; only those, the paired base and its
    projections are built. ``checked`` counts the assignments of paired
    values to the n * FIBER_GRID uniform cells that this decision covers, at
    every grid alike. The command line bounds n before it asks; this does not.
    """
    base = make_discrete_space(n)
    left_proj, right_proj = product_projections(product_space(base, base))
    staircase = staircase_fn(n)
    paired = pairing(staircase, staircase)
    if hm_map(left_proj, paired) != staircase or hm_map(right_proj, paired) != staircase:
        raise RuntimeError("pairing and functor action disagree; the pairing is buggy")
    witnesses = () if paired == blocks(zip(base.labels, base.labels)) else (paired,)
    return FiberResult(n=n, witnesses=witnesses, checked=(n * n) ** (n * FIBER_GRID))


def forced_value_chain(n: int, mu: MuCandidate, seed: int = 0) -> LawReport:
    """Walk the chain of values the laws force on any multiplication.

    Steps, over the n-point base: flattening both nestings of the staircase
    returns the staircase (unit laws); both projections of the flattened
    nested rows equal the staircase (naturality); the flattened nested rows
    equal the diagonal staircase (the unique fiber point); and the flattened
    nested bumps equal the constant function at 1 (naturality along the
    equality collapse). A sampled unit-law check on the base runs first.
    """
    w = build_witnesses(n)
    precheck = check_unit_laws(mu, [w.base], 25, seed)
    failures: list[LawFailure] = list(precheck.failures[:3])
    steps: list[tuple[str, bool]] = [("unit-laws-on-base", precheck.verdict == "pass")]

    def record(name: str, expected: StepFn, *actual: StepFn) -> None:
        # the witness text is formatted only for a failing step
        ok = all(a == expected for a in actual)
        steps.append((name, ok))
        if not ok:
            text = " / ".join(map(format_stepfn, actual))
            failures.append(LawFailure(f"n={n} {name}", format_stepfn(expected), text))

    record("both-nestings-flatten-to-staircase", w.staircase, mu(h_eta(w.staircase)), mu(eta_h(w.staircase)))
    flat_rows = mu(w.nested_rows)
    left, right = hm_map(w.left_proj, flat_rows), hm_map(w.right_proj, flat_rows)
    record("projections-of-flattened-rows-equal-staircase", w.staircase, left, right)
    record("flattened-rows-equal-diagonal-staircase", w.diagonal_staircase, flat_rows)
    record("flattened-bumps-equal-constant-one", unit(1, w.two_point), mu(w.nested_bumps))
    return LawReport(mu.name, "forced-value-chain", len(steps), tuple(failures), tuple(steps))


def discontinuity_probe(mu: MuCandidate, n_max: int, n_min: int = 1, step: int = 1) -> list[ProbeRow]:
    """Drive the nested bump tower toward its limit and watch the images.

    For each n of n_min, n_min + step, ... up to n_max the row records the
    iterated-coordinate gap and the level-2 metric distance between the tower
    member and the limit (both shrink like 1/n), and the level-1 distance
    between their images under the candidate. A candidate matching the forced
    values keeps the image gap at 1, which is the continuity obstruction."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"the probe needs 1 <= n_min <= n_max, got {n_min}:{n_max}")
    if step < 1:
        raise ValueError(f"the probe needs step >= 1, got {step}")
    two_point = FiniteSpace((0, 1))
    ident = TestFn(two_point, (ZERO, ONE))
    limit = eta_h(unit(0, two_point))
    mu_limit = mu(limit)
    coord_limit = iterated_functional_eval(ident, FULL_WINDOW, FULL_WINDOW, limit)
    rows = []
    for n in range(n_min, n_max + 1, step):
        tower = nested_bumps_fn(n)
        coord_tower = iterated_functional_eval(ident, FULL_WINDOW, FULL_WINDOW, tower)
        rows.append(
            ProbeRow(
                n=n,
                coordinate_distance=abs(coord_tower - coord_limit),
                metric_distance=d_hm2(two_point, tower, limit),
                image_gap=d_hm(two_point, mu(tower), mu_limit),
            )
        )
    return rows
