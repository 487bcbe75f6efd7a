"""Benchmark: city-scale sharded fleet run vs the single-process engine.

The PR-9 city-scale workload: a multi-feeder fleet (default 2k hubs x 7
days, scaled by ``ECT_BENCH_SCALE``) run once through the single-process
batched engine and once sharded over worker processes via
``api.run(spec, shards=N)``. Three guards:

* **equivalence** (always): the sharded ``--out`` export must be byte
  for byte the unsharded file — sharding is an executor choice, never a
  semantics choice;
* **memory** (always): the windowed cost book must compile to at most
  25% of the dense book's bytes at this horizon (the windowed ring is
  horizon-independent, so the margin only grows with longer runs); and
* **speedup** (>=4-core hosts only): the sharded run must beat the
  single process by the floor below. Process parallelism cannot win on
  one or two cores, so there the guard is reported as skipped;
  ``ECT_PERF_RELAXED=1`` / scaled workloads relax the floor so CI smoke
  runs stay un-flaky.
"""

from __future__ import annotations

import time

from conftest import bench_scale, perf_relaxed, write_perf_report
from repro import api
from repro.experiments.base import write_results_json
from repro.parallel import _available_cpus
from repro.spec import get_preset

N_HUBS = 2000
DAYS = 7
N_FEEDERS = 20
FEEDER_CAPACITY_KW = 400.0
N_SHARDS = 8

#: Sharded-vs-single speedup floor, asserted on >=4-core hosts only.
MIN_SPEEDUP = 3.0
MIN_SPEEDUP_RELAXED = 1.0
#: Windowed book bytes as a fraction of the dense book at this horizon.
MAX_WINDOWED_FRACTION = 0.25


def _spec(scale: float):
    n_hubs = max(int(round(N_HUBS * scale)), 40)
    days = max(int(round(DAYS * scale)), 2)
    return get_preset("fleet-default").with_overrides(
        {
            "fleet.n_hubs": n_hubs,
            "run.days": days,
            "grid.n_feeders": min(N_FEEDERS, n_hubs),
            "grid.feeder_capacity_kw": FEEDER_CAPACITY_KW,
        }
    )


def test_bench_fleet_city(tmp_path):
    scale = bench_scale(1.0)
    spec = _spec(scale)
    cores = _available_cpus()

    start = time.perf_counter()
    single = api.run(spec)
    single_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = api.run(spec, shards=N_SHARDS)
    sharded_s = time.perf_counter() - start

    # Memory guard inputs: compiled-but-unrun books, dense vs windowed.
    # Always measured at the full 7-day horizon — the windowed ring is
    # horizon-independent, so shrinking the days under ECT_BENCH_SCALE
    # would shrink only the dense side and make the fraction meaningless.
    mem_spec = spec.with_overrides({"run.days": DAYS})
    dense_book = api.build(mem_spec).simulation.book
    windowed_book = api.build(
        mem_spec.with_overrides({"run.storage": "windowed"})
    ).simulation.book
    fraction = windowed_book.nbytes / dense_book.nbytes

    n_hubs = single.data["n_hubs"]
    horizon = dense_book.horizon // DAYS * spec.run.days
    hub_slots = n_hubs * horizon
    speedup = single_s / sharded_s
    relaxed = perf_relaxed()
    floor = MIN_SPEEDUP_RELAXED if relaxed else MIN_SPEEDUP
    if cores >= 4:
        guard = f">= {floor:.1f}x{' relaxed' if relaxed else ''}"
    else:
        guard = f"skipped ({cores}-core host)"

    report = "\n".join(
        [
            "== fleet-city: sharded city-scale run vs single process ==",
            f"workload: {n_hubs} hubs x {spec.run.days} days "
            f"({hub_slots:,} hub-slots), {spec.grid.n_feeders} feeders x "
            f"{FEEDER_CAPACITY_KW:,.0f} kW, {N_SHARDS} shards "
            f"({cores} cores visible)",
            f"single   {hub_slots / single_s:>12,.0f} hub-slots/sec  "
            f"({single_s:.3f}s)",
            f"sharded  {hub_slots / sharded_s:>12,.0f} hub-slots/sec  "
            f"({sharded_s:.3f}s)",
            f"speedup  {speedup:>8.2f}x  (guard: {guard})",
            f"windowed book {windowed_book.nbytes:,} B vs dense "
            f"{dense_book.nbytes:,} B at {DAYS} days ({100 * fraction:.1f}%, "
            f"guard: <= {100 * MAX_WINDOWED_FRACTION:.0f}%)",
            "sharded export byte-identical to single: checked below",
        ]
    )
    write_perf_report(
        "fleet-city",
        report,
        {
            "workload": {
                "n_hubs": n_hubs,
                "days": spec.run.days,
                "horizon": horizon,
                "n_feeders": spec.grid.n_feeders,
                "feeder_capacity_kw": FEEDER_CAPACITY_KW,
                "shards": N_SHARDS,
                "cores": cores,
            },
            "single_hub_slots_per_sec": hub_slots / single_s,
            "sharded_hub_slots_per_sec": hub_slots / sharded_s,
            "speedup": speedup,
            "speedup_guard": guard,
            "windowed_book_bytes": windowed_book.nbytes,
            "dense_book_bytes": dense_book.nbytes,
            "windowed_fraction": fraction,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Equivalence guard: the export a user would diff must not change.
    single_path = tmp_path / "single.json"
    sharded_path = tmp_path / "sharded.json"
    write_results_json(single, single_path)
    write_results_json(sharded, sharded_path)
    assert single_path.read_bytes() == sharded_path.read_bytes()

    # Memory guard: windowed storage must cap the book well below dense.
    assert fraction <= MAX_WINDOWED_FRACTION, report

    if cores >= 4:
        assert speedup >= floor, report
