"""Benchmark: telemetry overhead on the fused step kernel.

The telemetry design promise is *near-zero cost when disabled*: a run
without a session pays exactly one ``is not None`` branch per slot, and
an attached session books counters per slot (not per hub-slot), so even
enabled overhead stays small on wide fleets. This bench measures both on
the canonical step-kernel workload (100 hubs x 336 slots, rule-based
scheduler):

* **disabled** — plain :class:`~repro.fleet.FleetSimulation` run, the
  rate every other bench reports; regressions here are already gated by
  the step-kernel bench's fused-vs-reference speedup guard;
* **enabled** — the same engine with a :class:`~repro.telemetry.session.
  Telemetry` session attached, guarded to stay within a bounded slowdown
  of the disabled rate.

Both runs must book identical economics (telemetry is observational
only). Thresholds relax under ``ECT_PERF_RELAXED=1`` / scaled-down
workloads, where per-slot hook cost is amplified relative to the
shrunken arithmetic and timer noise dominates.
"""

from __future__ import annotations

import os
import time

from conftest import perf_relaxed, write_perf_report
from repro import api
from repro.fleet import FleetRuleBasedScheduler
from repro.telemetry import Telemetry

N_HUBS = 100

#: Max tolerated enabled-telemetry slowdown vs the disabled run.
MAX_OVERHEAD = 0.15
MAX_OVERHEAD_RELAXED = 0.60


def _timed_run(sim, rounds: int = 3):
    best, book = float("inf"), None
    for _ in range(rounds):
        sim.reset()
        start = time.perf_counter()
        book = sim.run(FleetRuleBasedScheduler())
        best = min(best, time.perf_counter() - start)
    return book, best


def test_bench_telemetry_overhead():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 2)
    sim = api.build(
        api.resolve_spec("fleet-default").with_overrides(
            {"fleet.n_hubs": N_HUBS, "run.days": n_days, "run.seed": 0}
        )
    ).simulation
    hub_slots = N_HUBS * sim.horizon

    disabled_book, disabled_s = _timed_run(sim)

    telemetry = Telemetry()
    sim.attach_telemetry(telemetry)
    enabled_book, enabled_s = _timed_run(sim)
    sim.attach_telemetry(None)

    disabled_rate = hub_slots / disabled_s
    enabled_rate = hub_slots / enabled_s
    overhead = enabled_s / disabled_s - 1.0
    relaxed = perf_relaxed()
    ceiling = MAX_OVERHEAD_RELAXED if relaxed else MAX_OVERHEAD

    record = telemetry.to_dict()
    step_stats = record["histograms"]["engine.step_seconds"]

    report = "\n".join(
        [
            "== telemetry: step-kernel overhead, disabled vs enabled ==",
            f"workload: {N_HUBS} hubs x {sim.horizon} slots "
            f"({hub_slots} hub-slots), rule-based scheduler",
            f"disabled  {disabled_rate:>12,.0f} hub-slots/sec  "
            f"({disabled_s:.3f}s)",
            f"enabled   {enabled_rate:>12,.0f} hub-slots/sec  "
            f"({enabled_s:.3f}s)",
            f"overhead  {overhead:>12.1%}  (guard: <= {ceiling:.0%}"
            f"{', relaxed' if relaxed else ''})",
            f"booked step histogram: {step_stats['count']} slots, "
            f"mean {step_stats['mean'] * 1e6:,.1f} us",
        ]
    )
    write_perf_report(
        "telemetry-overhead",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "slots": sim.horizon,
                "hub_slots": hub_slots,
                "scheduler": "rule-based",
            },
            "disabled_hub_slots_per_sec": disabled_rate,
            "enabled_hub_slots_per_sec": enabled_rate,
            "overhead": overhead,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Telemetry is observational only: identical economics either way.
    assert enabled_book.profit == disabled_book.profit

    # The session saw every slot of the timed rounds.
    assert record["counters"]["engine.slots"] == 3 * sim.horizon
    assert record["counters"]["engine.hub_slots"] == 3 * hub_slots
    assert record["counters"]["engine.resets"] == 3
    assert step_stats["count"] == 3 * sim.horizon

    assert overhead <= ceiling, report
