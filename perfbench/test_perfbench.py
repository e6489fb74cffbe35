"""Self-tests of the benchmark: tracer counts, clean uninstall, output checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import cProfile
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checkout import ROOT, import_hmstep  # noqa: E402

hmstep = import_hmstep()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import yardstick  # noqa: E402
from hmstep import cli, core, laws, stepfn, tower  # noqa: E402


def _tiny_all() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["all", "--samples", "3", "--seed", "5", "--format", "json", "--candidate", "remap-last"])


TINY = {
    "probe n<=4": lambda: run._run_probe(2, 4),
    "chain n=3": lambda: run._run_chain(3, 11),
    "all --samples 3": _tiny_all,
}


def _profiled_calls(fn) -> dict[str, int]:
    profile = cProfile.Profile()
    profile.runcall(fn)
    profile.create_stats()
    ncalls = {key: stat[1] for key, stat in profile.stats.items()}
    out = {}
    for name, module, attr, _ in tracing.TARGETS:
        codes = [original.__code__ for _, _, original in tracing.originals(module, attr)]
        out[name] = sum(ncalls.get((c.co_filename, c.co_firstlineno, c.co_name), 0) for c in codes)
    return out


def _traced_calls(fn) -> dict[str, int]:
    tracer = tracing.Tracer()
    with tracer:
        fn()
    return {name: entry["calls"] for name, entry in tracer.log.aggregate().items()}


def test_tracer_calls_match_cprofile():
    for label, fn in TINY.items():
        profiled = _profiled_calls(fn)
        traced = _traced_calls(fn)
        assert traced == profiled, label
        assert traced["stepfn.StepFn"] > 0 and traced["stepfn.canonicalize"] > 0, label
    assert _traced_calls(TINY["chain n=3"])["core.product_space"] == 1
    assert _traced_calls(TINY["probe n<=4"])["tower.diagonal_flatten"] > 0


def _bindings() -> dict[tuple[int, str], object]:
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "hmstep" or name.startswith("hmstep."):
            for key, value in vars(module).items():
                seen[(id(module), key)] = value
    for cls in (core.FiniteSpace, stepfn.StepFn, tower.MuCandidate):
        for key, value in vars(cls).items():
            seen[(id(cls), key)] = value
    for candidate in laws.CANDIDATES.values():
        seen[(id(candidate), "transform")] = candidate.transform
    return seen


def test_traced_run_leaves_every_binding_original():
    before = _bindings()
    for fn in TINY.values():
        _traced_calls(fn)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tower.DIAGONAL.transform is tower.diagonal_flatten


def test_tracer_reaches_copied_names_and_frozen_transform():
    canonicalize, flatten = stepfn.canonicalize, tower.diagonal_flatten
    with tracing.Tracer():
        for module in (hmstep, stepfn, laws, tower, hmstep.hm):
            assert module.canonicalize.__wrapped__ is canonicalize
        assert tower.DIAGONAL.transform.__wrapped__ is flatten
        assert laws.CANDIDATES["diagonal"].transform is tower.diagonal_flatten


def test_span_log_round_trips_through_dump(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        run._run_chain(3, 11)
    path = tmp_path / "spans.bin"
    with open(path, "wb") as handle:
        tracer.log.dump(handle)
    with open(path, "rb") as handle:
        loaded = tracing.SpanLog.load(handle)
    assert loaded.aggregate() == tracer.log.aggregate()
    merged = tracing.SpanLog()
    merged.extend(loaded, 0)
    merged.extend(loaded, 1)
    assert merged.aggregate()["stepfn.StepFn"]["calls"] == 2 * loaded.aggregate()["stepfn.StepFn"]["calls"]


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()
    with tracer:
        run._run_probe(2, 4)
    agg = tracer.log.aggregate()
    for entry in agg.values():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9
    covered = sum(e["self_s"] for e in agg.values())
    assert abs(covered - agg["cli.run"]["total_s"] - agg["cli.emit_report"]["total_s"]) < 1e-6


def test_output_checks_reject_wrong_answers():
    header = "n,coordinate_distance,metric_distance,image_gap\n"
    assert run._check_probe(2, 3, (0, header + "2,1/2,1/2,1\n3,1/3,1/3,1\n")) is None
    assert run._check_probe(2, 3, (0, header + "2,1/2,1/2,1\n3,1/3,1/4,1\n")) is not None
    assert run._check_probe(2, 3, (0, header + "2,1/2,1/2,1\n")) is not None
    assert run._check_probe(2, 3, (1, header + "2,1/2,1/2,1\n3,1/3,1/3,1\n")) is not None
    good = laws.forced_value_chain(3, tower.DIAGONAL)
    assert run._check_chain(good) is None
    assert run._check_chain(laws.forced_value_chain(3, tower.REMAP_LAST)) is not None


def test_yardstick_is_fixed_work_apart_from_hmstep():
    assert yardstick.work() == yardstick.work()
    assert "hmstep" not in (HERE / "yardstick.py").read_text().split('"""', 2)[2]
    assert yardstick.slowdown([yardstick.REFERENCE_S] * 3) == 1
    assert yardstick.slowdown([yardstick.REFERENCE_S, 3 * yardstick.REFERENCE_S]) == 2
    ref = yardstick.REFERENCE_S
    assert yardstick.scaled([2.0, 3.0], [ref, 3 * ref, ref]) == [1.0, 1.5]


def test_every_seed_does_about_the_same_work():
    chain = {sum(int(t.label[2:]) ** 3.6 for t in run.chain_tasks(seed)) for seed in range(40)}
    assert len(chain) > 1 and max(chain) / min(chain) < 1.015
    probe = {sum(int(t.label.split(":")[1]) ** 2.5 for t in run.probe_tasks(seed)) for seed in range(40)}
    assert len(probe) > 1 and max(probe) / min(probe) < 1.012


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
