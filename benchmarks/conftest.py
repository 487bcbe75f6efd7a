"""Benchmark harness configuration.

Each bench regenerates one paper artifact via the experiment registry and
prints the paper-vs-measured report. ``pedantic`` single-round execution is
used because the workloads are full experiments, not micro-kernels.

Scale: set ``ECT_BENCH_SCALE`` (default shown per bench) to trade fidelity
for runtime; EXPERIMENTS.md records results at the defaults.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.fleet import FleetRuleBasedScheduler
from repro.telemetry import run_metadata

#: Rendered artifact reports are also persisted here.
REPORT_DIR = Path(__file__).parent / "reports"

#: Reports collected this session, replayed in the terminal summary.
_SESSION_REPORTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print every regenerated artifact after the benchmark table."""
    for report in _SESSION_REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(report)


def bench_scale(default: float) -> float:
    """Benchmark scale factor, overridable via the environment."""
    return float(os.environ.get("ECT_BENCH_SCALE", default))


def perf_relaxed() -> bool:
    """Whether perf guards should use relaxed thresholds.

    True when ``ECT_PERF_RELAXED=1`` (the CI perf-smoke setting) or when
    the workload is scaled away from its default size — shrunken
    workloads make absolute rates and speedup ratios too noisy to gate
    on hard numbers.
    """
    return os.environ.get("ECT_PERF_RELAXED", "") == "1" or (
        "ECT_BENCH_SCALE" in os.environ and bench_scale(1.0) != 1.0
    )


def write_perf_report(name: str, text: str, payload: dict) -> None:
    """Persist one perf benchmark as twin ``reports/<name>.{txt,json}``.

    The txt file is the human-readable trend the repo has always kept;
    the JSON carries the same numbers machine-readably (workload,
    hub-slots/sec, speedups) so the perf trajectory is diffable across
    PRs without parsing prose. Every JSON report is stamped with the
    environment fingerprint (host, python/numpy versions, git commit,
    ECT_PERF_RELAXED) so numbers from different machines never get
    compared as like-for-like.
    """
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
    payload = dict(payload, meta=run_metadata())
    (REPORT_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def timed_once(sim) -> float:
    """Wall time of one full rule-based run of ``sim`` from slot 0."""
    sim.reset()
    start = time.perf_counter()
    sim.run(FleetRuleBasedScheduler())
    return time.perf_counter() - start


def paired_times(first, second, pairs: int):
    """Interleaved ``(first_s, second_s)`` run times, one sample per pair.

    One untimed warm-up each first: the initial pass pays page faults,
    allocator growth and frequency ramp. The engine timed first
    alternates per pair, so slow drift on a shared host cannot favour
    either side; gate on the median of the per-pair ratios.
    """
    timed_once(first)
    timed_once(second)
    first_s, second_s = [], []
    for pair in range(pairs):
        if pair % 2:
            second_s.append(timed_once(second))
            first_s.append(timed_once(first))
        else:
            first_s.append(timed_once(first))
            second_s.append(timed_once(second))
    return np.array(first_s), np.array(second_s)


@pytest.fixture()
def run_artifact(benchmark):
    """Run one experiment under pytest-benchmark and print its report."""

    def _run(experiment_id: str, *, scale: float, seed: int = 0):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        report = result.rendered()
        REPORT_DIR.mkdir(exist_ok=True)
        (REPORT_DIR / f"{experiment_id}.txt").write_text(report + "\n")
        _SESSION_REPORTS.append(report)
        return result

    return _run
