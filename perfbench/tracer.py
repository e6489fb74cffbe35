"""Span tracer for the calls into hmstep's public functions.

The tracer wraps the functions listed in ``TARGETS`` from outside the
package: nothing under ``src/`` knows it exists. Each call becomes a span
(name, start, end, parent span, task, count) kept in flat arrays while the
run is going and written out when it ends. ``self_s`` of a span is its
duration minus the time covered by its traced children; Fraction arithmetic
and other untraced helpers stay in the caller's self time.

Three ways an original object can escape a plain ``module.name = wrapper``:

* ``from .stepfn import canonicalize`` copies the name into ``hm``, ``tower``
  and ``laws`` (and the package ``__init__``), so every hmstep module
  attribute holding the original is rebound;
* ``StepFn.__post_init__``, ``FiniteSpace.__post_init__`` and
  ``MuCandidate.__call__`` are looked up on the class, so they are wrapped
  there;
* the frozen ``MuCandidate`` instances keep the original ``diagonal_flatten``
  in their ``transform`` field, which is rebound with ``object.__setattr__``.

``uninstall`` restores every binding and checks that each is the original
object again, so a traced round cannot leak into an untraced one.
"""

from __future__ import annotations

import csv
import statistics
import sys
import time
from array import array
from importlib import import_module


def _entries(args, result):
    return len(args[0].labels) ** 2


def _already_canonical(args, result):
    # canonicalize only drops or merges pieces, so an unchanged piece count
    # means the argument was canonical and the call did no useful work
    return int(result.pieces == args[0].pieces)


def _cells(args, result):
    return len(result)


def _assignments(args, result):
    return result.checked


def _samples(args, result):
    return result.samples


def _report_bytes(args, result):
    return len(result.encode("utf-8"))


# (span name, module under hmstep, attribute, count taken from (args, result))
# "Class.method" wraps a method on its class; "check_*" is every suite.
TARGETS = (
    ("core.product_space", "core", "product_space", None),
    ("core.FiniteSpace", "core", "FiniteSpace.__post_init__", _entries),
    ("core.make_discrete_space", "core", "make_discrete_space", None),
    ("stepfn.StepFn", "stepfn", "StepFn.__post_init__", None),
    ("stepfn.canonicalize", "stepfn", "canonicalize", _already_canonical),
    ("stepfn.common_refinement", "stepfn", "common_refinement", _cells),
    ("stepfn.random_stepfn", "stepfn", "random_stepfn", None),
    ("stepfn.format_stepfn", "stepfn", "format_stepfn", None),
    ("hm.d_hm", "hm", "d_hm", None),
    ("hm.hm_map", "hm", "hm_map", None),
    ("hm.functional_eval", "hm", "functional_eval", None),
    ("hm.support_criterion_check", "hm", "support_criterion_check", None),
    ("hm.support_membership_check", "hm", "support_membership_check", None),
    ("tower.diagonal_flatten", "tower", "diagonal_flatten", None),
    ("tower.MuCandidate", "tower", "MuCandidate.__call__", None),
    ("tower.d_hm2", "tower", "d_hm2", None),
    ("tower.h2_map", "tower", "h2_map", None),
    ("tower.iterated_functional_eval", "tower", "iterated_functional_eval", None),
    ("tower.random_stepfn2", "tower", "random_stepfn2", None),
    ("tower.random_stepfn3", "tower", "random_stepfn3", None),
    ("laws.build_witnesses", "laws", "build_witnesses", None),
    ("laws.fiber_uniqueness", "laws", "fiber_uniqueness", _assignments),
    ("laws.forced_value_chain", "laws", "forced_value_chain", None),
    ("laws.discontinuity_probe", "laws", "discontinuity_probe", None),
    ("laws.check_suites", "laws", "check_*", _samples),
    ("cli.run", "cli", "run", None),
    ("cli.emit_report", "cli", "emit_report", _report_bytes),
)

SPAN_NAMES = tuple(name for name, _, _, _ in TARGETS)

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "noop_ratio": "ratio"}


def _stats(span: str, *stats: str) -> list[tuple[str, str, str, str]]:
    # (metric name, unit, span name, statistic); any statistic not in
    # _UNITS is the sum of the span's counts
    return [(f"{span}.{s}", _UNITS.get(s, "count"), span, s) for s in stats]


PER_LAYER = (
    *_stats("core.product_space", "calls", "self_s"),
    *_stats("core.FiniteSpace", "calls", "self_s", "entries"),
    *_stats("core.make_discrete_space", "calls"),
    *_stats("stepfn.StepFn", "calls", "self_s"),
    *_stats("stepfn.canonicalize", "calls", "self_s", "noop_ratio"),
    *_stats("stepfn.common_refinement", "calls", "self_s", "cells"),
    *_stats("stepfn.random_stepfn", "calls", "self_s"),
    *_stats("stepfn.format_stepfn", "calls", "self_s"),
    *_stats("hm.d_hm", "calls", "self_s"),
    *_stats("hm.hm_map", "calls", "self_s"),
    *_stats("hm.functional_eval", "calls", "self_s"),
    *_stats("hm.support_criterion_check", "self_s"),
    *_stats("hm.support_membership_check", "self_s"),
    *_stats("tower.diagonal_flatten", "calls", "self_s"),
    *_stats("tower.MuCandidate", "calls", "self_s"),
    *_stats("tower.d_hm2", "calls", "self_s"),
    *_stats("tower.h2_map", "calls", "self_s"),
    *_stats("tower.iterated_functional_eval", "self_s"),
    *_stats("tower.random_stepfn2", "self_s"),
    *_stats("tower.random_stepfn3", "self_s"),
    *_stats("laws.build_witnesses", "calls", "self_s"),
    *_stats("laws.fiber_uniqueness", "self_s", "assignments"),
    *_stats("laws.forced_value_chain", "total_s"),
    *_stats("laws.discontinuity_probe", "total_s"),
    *_stats("laws.check_suites", "total_s", "samples"),
    *_stats("cli.run", "total_s"),
    *_stats("cli.emit_report", "self_s"),
    ("cli.report_bytes", "bytes", "cli.emit_report", "bytes"),
    ("trace_overhead", "ratio", "", "overhead"),
)


_FIELDS = ("name", "parent", "task", "start", "end", "count")


class SpanLog:
    """Spans in flat arrays; a span's id is its index."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")

    def __len__(self) -> int:
        return len(self.name)

    def clear(self) -> None:
        self.__init__()

    def extend(self, other: SpanLog, task: int) -> None:
        """Append another log's spans (a child process's), re-basing ids."""
        base = len(self)
        self.name.extend(other.name)
        self.parent.extend(p + base if p >= 0 else -1 for p in other.parent)
        self.task.extend([task] * len(other))
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.count.extend(other.count)

    def write_csv(self, handle, round_id: int) -> None:
        """One row per span: round, id, parent, name, task, start, end, count."""
        out = csv.writer(handle)
        for i in range(len(self)):
            out.writerow((round_id, i, self.parent[i], SPAN_NAMES[self.name[i]], self.task[i],
                          repr(self.start[i]), repr(self.end[i]), self.count[i]))

    def dump(self, handle) -> None:
        """Write the arrays in binary; a child process hands its spans over so."""
        handle.write(len(self).to_bytes(8, "little"))
        for field in _FIELDS:
            getattr(self, field).tofile(handle)

    @classmethod
    def load(cls, handle) -> SpanLog:
        log = cls()
        n = int.from_bytes(handle.read(8), "little")
        for field in _FIELDS:
            getattr(log, field).fromfile(handle, n)
        return log

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and summed counts."""
        n = len(self)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0} for name in SPAN_NAMES}
        for i in range(n):
            entry = out[SPAN_NAMES[self.name[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[i]
            entry["count"] += self.count[i]
        return out


def originals(module: str, attr: str) -> list[tuple[object, str, object]]:
    """(owner, key, original object) for one ``TARGETS`` entry; the owner is
    the class for a method and the defining module otherwise."""
    owner = import_module(f"hmstep.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        return [(cls, method, cls.__dict__[method])]
    if attr.endswith("*"):
        return [(owner, k, v) for k, v in vars(owner).items()
                if k.startswith(attr[:-1]) and getattr(v, "__module__", None) == owner.__name__]
    return [(owner, attr, getattr(owner, attr))]


def _hmstep_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hmstep" or name.startswith("hmstep."))]


class Tracer:
    """Wraps ``TARGETS`` while installed and logs one span per call."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.task = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name_id: int, fn, count):
        log, stack, clock = self.log, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(log.name)
            log.name.append(name_id)
            log.parent.append(stack[-1])
            log.task.append(self.task)
            log.end.append(0.0)
            log.count.append(0)
            stack.append(sid)
            log.start.append(clock())
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                log.end[sid] = clock()
                stack.pop()
            if count is not None and ok:
                log.count[sid] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, obj, key: str, new, frozen: bool = False) -> None:
        old = obj.__dict__[key] if isinstance(obj, type) else getattr(obj, key)
        self._patches.append((obj, key, old, frozen))
        (object.__setattr__ if frozen else setattr)(obj, key, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _hmstep_modules()
        tower = import_module("hmstep.tower")
        for name_id, (_, module, attr, count) in enumerate(TARGETS):
            for owner, key, original in originals(module, attr):
                wrapped = self._wrap(name_id, original, count)
                if isinstance(owner, type):
                    self._patch(owner, key, wrapped)
                    continue
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            self._patch(m, k, wrapped)
                        elif isinstance(v, tower.MuCandidate) and v.transform is original:
                            self._patch(v, "transform", wrapped, frozen=True)

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        for obj, key, old, frozen in reversed(patches):
            (object.__setattr__ if frozen else setattr)(obj, key, old)
        for obj, key, old, _ in patches:
            now = obj.__dict__[key] if isinstance(obj, type) else getattr(obj, key)
            if now is not old:
                raise RuntimeError(f"tracer left {obj!r}.{key} rebound")

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(rounds: list[dict[str, dict[str, float]]], overhead: float) -> dict[str, tuple[float, str]]:
    """``PER_LAYER`` values from the aggregates of the traced rounds.

    Counts come from the first round (every round runs the same tasks, so
    they repeat exactly); times are medians over the rounds.
    """
    first = rounds[0]
    out = {}
    for metric, unit, span, stat in PER_LAYER:
        if stat == "overhead":
            value = overhead
        elif stat in ("self_s", "total_s"):
            value = statistics.median(r[span][stat] for r in rounds)
        elif stat == "calls":
            value = first[span]["calls"]
        elif stat == "noop_ratio":
            calls = first[span]["calls"]
            value = first[span]["count"] / calls if calls else 0.0
        else:
            value = first[span]["count"]
        out[metric] = (value, unit)
    return out
