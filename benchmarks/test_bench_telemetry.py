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
* **enabled** — an identically built engine with a
  :class:`~repro.telemetry.session.Telemetry` session attached, guarded
  to stay within a bounded slowdown of the disabled rate.

The overhead is the median of per-pair time ratios over ``PAIRS``
interleaved disabled/enabled runs (the engine timed first alternates per
pair, after one untimed warm-up each), so host drift lands on both
engines alike instead of on whichever one a sequential best-of-3 timed
last. Both runs must book identical economics (telemetry is
observational only). Thresholds relax under ``ECT_PERF_RELAXED=1`` /
scaled-down workloads, where per-slot hook cost is amplified relative to
the shrunken arithmetic and timer noise dominates.
"""

from __future__ import annotations

import os

import numpy as np

from conftest import paired_times, perf_relaxed, write_perf_report
from repro import api
from repro.telemetry import Telemetry

N_HUBS = 100

#: Max tolerated enabled-telemetry slowdown vs the disabled run, applied
#: to the median per-pair ratio.
MAX_OVERHEAD = 0.15
MAX_OVERHEAD_RELAXED = 0.60

#: Interleaved disabled/enabled timing pairs behind the median ratio.
PAIRS = 31


def test_bench_telemetry_overhead():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 2)
    spec = api.resolve_spec("fleet-default").with_overrides(
        {"fleet.n_hubs": N_HUBS, "run.days": n_days, "run.seed": 0}
    )
    disabled, enabled = api.build(spec).simulation, api.build(spec).simulation
    hub_slots = N_HUBS * disabled.horizon

    telemetry = Telemetry()
    enabled.attach_telemetry(telemetry)
    disabled_s, enabled_s = paired_times(disabled, enabled, PAIRS)
    enabled.attach_telemetry(None)
    disabled_book, enabled_book = disabled.book, enabled.book
    # The warm-up run is booked too: every enabled run counts.
    enabled_runs = PAIRS + 1

    ratios = enabled_s / disabled_s
    overhead = float(np.median(ratios)) - 1.0
    ratio_q1, ratio_q3 = (float(q) for q in np.percentile(ratios, [25, 75]))
    disabled_rate = hub_slots / float(np.median(disabled_s))
    enabled_rate = hub_slots / float(np.median(enabled_s))
    relaxed = perf_relaxed()
    ceiling = MAX_OVERHEAD_RELAXED if relaxed else MAX_OVERHEAD

    record = telemetry.to_dict()
    step_stats = record["histograms"]["engine.step_seconds"]

    report = "\n".join(
        [
            "== telemetry: step-kernel overhead, disabled vs enabled ==",
            f"workload: {N_HUBS} hubs x {disabled.horizon} slots "
            f"({hub_slots} hub-slots), rule-based scheduler",
            f"disabled  {disabled_rate:>12,.0f} hub-slots/sec  "
            f"(median {np.median(disabled_s):.3f}s)",
            f"enabled   {enabled_rate:>12,.0f} hub-slots/sec  "
            f"(median {np.median(enabled_s):.3f}s)",
            f"overhead  {overhead:>12.1%}  median of {PAIRS} interleaved "
            f"pairs, ratio IQR {ratio_q1:.2f}-{ratio_q3:.2f}x  (guard: <= "
            f"{ceiling:.0%}{', relaxed' if relaxed else ''})",
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
                "slots": disabled.horizon,
                "hub_slots": hub_slots,
                "scheduler": "rule-based",
            },
            "disabled_hub_slots_per_sec": disabled_rate,
            "enabled_hub_slots_per_sec": enabled_rate,
            "overhead": overhead,
            "overhead_ratio_iqr": [ratio_q1, ratio_q3],
            "pairs": PAIRS,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Telemetry is observational only: identical economics either way.
    assert enabled_book.profit == disabled_book.profit

    # The session saw every slot of every enabled run.
    assert record["counters"]["engine.slots"] == enabled_runs * enabled.horizon
    assert record["counters"]["engine.hub_slots"] == enabled_runs * hub_slots
    assert record["counters"]["engine.resets"] == enabled_runs
    assert step_stats["count"] == enabled_runs * enabled.horizon

    assert overhead <= ceiling, report
