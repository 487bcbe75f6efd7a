"""The benchmark's own tests, on shrunken copies of the four workloads.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
for path in (str(SRC), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402

#: Overrides that shrink each workload while keeping its shape.
SMALL = {
    "city-week": {"fleet.n_hubs": 24, "grid.n_feeders": 2, "run.days": 2},
    "hub-year": {"run.days": 5},
    "pricing-study": {
        "fleet.n_hubs": 8,
        "run.days": 2,
        "pricing.train_days": 7,
        "pricing.epochs": 2,
    },
    "rl-train": {
        "fleet.n_hubs": 4,
        "run.days": 2,
        "rl.episode_days": 1,
        "rl.train_episodes": 2,
        "rl.eval_episodes": 1,
    },
}


def small_runner(name: str, seed: int = 3) -> bench_run.Runner:
    runner = bench_run.Runner(name, seed, reference=None)
    runner.spec = bench_workloads.spec_for(name, seed, SMALL[name])
    return runner


def test_small_overrides_cover_every_workload():
    assert set(SMALL) == set(bench_workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(bench_workloads.WORKLOADS))
def test_counts_repeat_and_follow_the_shape(name):
    runner = small_runner(name)
    runner.once()
    tracer, installed, traced = bench_run.trace_calls(runner, 0.0, 2)
    assert installed.unmeasured == []
    assert None not in traced and runner.failed == 0

    first, second = tracer.summary(0), tracer.summary(1)
    assert {k: v["calls"] for k, v in first.items()} == {
        k: v["calls"] for k, v in second.items()
    }
    metrics = bench_run.layer_metrics(runner, tracer, installed, traced, traced)
    assert runner.failed == 0
    assert set(metrics) == set(bench_run.PER_LAYER_UNITS)
    for metric, count in bench_workloads.expected_counts(name, runner.spec).items():
        assert metrics[metric] == count, metric


def test_count_examples_from_the_shape():
    hub_year = bench_workloads.spec_for("hub-year", 0, SMALL["hub-year"])
    assert bench_workloads.expected_counts("hub-year", hub_year)["fleet.step.calls"] == 5 * 24
    pricing = bench_workloads.spec_for("pricing-study", 0)
    counts = bench_workloads.expected_counts("pricing-study", pricing)
    assert counts["synth.scenario.calls"] == 4 * 100


def test_assembly_reuse_shows_the_repeated_pricing_assembly():
    runner = small_runner("pricing-study")
    tracer, installed, traced = bench_run.trace_calls(runner, 0.0, 1)
    metrics = bench_run.layer_metrics(runner, tracer, installed, traced, traced)
    assert metrics["spec.assembly_reuse"] == 0.25
    assert 0 < metrics["spec.compile_share"] <= 1


def _targets(hooks):
    found = {}
    for hook in hooks:
        owner, name = bench_trace._resolve(hook)
        for cls in bench_trace._classes(owner, hook.subclasses) if isinstance(
            owner, type
        ) else [owner]:
            if name in vars(cls):
                found[(cls, name)] = vars(cls)[name]
    return found


def test_removing_the_hooks_restores_every_function():
    from repro import api
    from repro.spec import compiler

    before = _targets(bench_trace.HOOKS)
    compile_alias = api._compile
    assert compile_alias is compiler.build

    installed = bench_trace.install(bench_trace.Tracer())
    try:
        assert api._compile is not compile_alias
        assert compiler.build is api._compile
    finally:
        installed.remove()

    after = _targets(bench_trace.HOOKS)
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    assert api._compile is compile_alias


def test_a_missing_hook_target_is_unmeasured_not_fatal():
    hooks = bench_trace.HOOKS + (
        bench_trace.Hook("gone.method", "repro.fleet.simulation", "FleetSimulation.no_such"),
        bench_trace.Hook("gone.module", "repro.no_such_module", "f"),
    )
    tracer = bench_trace.Tracer()
    installed = bench_trace.install(tracer, hooks)
    try:
        spec = bench_workloads.spec_for("hub-year", 1, SMALL["hub-year"])
        bench_workloads.call("hub-year", spec)
    finally:
        installed.remove()
    assert [entry.split(" ")[0] for entry in installed.unmeasured] == [
        "gone.method",
        "gone.module",
    ]
    assert tracer.summary(0)["fleet.step"]["calls"] == 5 * 24


def test_output_checks_catch_a_broken_export():
    name = "city-week"
    spec = bench_workloads.spec_for(name, 2, SMALL[name])
    data = json.loads(bench_workloads.call(name, spec))["data"]
    assert bench_checks.problems(name, data) == []

    broken = copy.deepcopy(data)
    broken["network_profit"] += 1.0
    assert bench_checks.problems(name, broken)
    broken = copy.deepcopy(data)
    broken["profit_per_hub"][0] -= 1.0
    assert bench_checks.problems(name, broken)
    broken = copy.deepcopy(data)
    broken["network_unserved_kwh"] = float("nan")
    assert bench_checks.problems(name, broken)

    pinned = bench_checks.totals(name, data)
    assert bench_checks.reference_problems(name, data, {name: pinned}) == []
    ulp = {key: value * (1 + 1e-12) for key, value in pinned.items()}
    assert bench_checks.reference_problems(name, data, {name: ulp}) == []
    off = {key: value * (1 + 1e-6) for key, value in pinned.items()}
    assert bench_checks.reference_problems(name, data, {name: off})


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER_UNITS


def test_reference_pins_every_workload():
    reference = bench_checks.load_reference()
    assert set(reference) == set(bench_workloads.WORKLOADS)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city-week", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
