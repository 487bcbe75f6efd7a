"""Benchmark: the fleet pricing loop's occupancy re-realisation seam.

Two timings gate the city-scale pricing port. First, the raw seam: once
a :class:`~repro.spec.compiler.FleetAssembly` has cached its latent
strata, re-resolving charging occupancy against a fresh ``(n_hubs,
horizon)`` discount plane must run at numpy speed — this is what lets a
pricing study re-price the same fleet per method without re-drawing
anything. Second, the end-to-end ``run_pricing`` comparison at a scaled
fleet size, so the wall-clock of a Table III reproduction is tracked
across PRs. Reports land in ``reports/pricing.{txt,json}``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_scale, perf_relaxed, write_perf_report
from repro import api
from repro.spec.compiler import _assemble_fleet

#: Re-realisation throughput floors, in hub-slots/sec.
REALIZE_FLOOR = 2e6
REALIZE_FLOOR_RELAXED = 2e5


def test_bench_occupancy_rerealization():
    scale = bench_scale(1.0)
    spec = api.resolve_spec("fleet-price", scale=scale)
    assembly = _assemble_fleet(spec)
    assembly.realize_strata()  # pay the one-off strata draw up front

    rng = np.random.default_rng(0)
    planes = [
        np.where(
            rng.random((assembly.n_hubs, assembly.horizon)) < 0.2, 0.2, 0.0
        )
        for _ in range(8)
    ]
    hub_slots = assembly.n_hubs * assembly.horizon

    best = float("inf")
    for _ in range(3):  # best-of-3 damps shared-runner noise
        start = time.perf_counter()
        for plane in planes:
            assembly.realize_occupancy(plane)
        best = min(best, time.perf_counter() - start)
    rate = len(planes) * hub_slots / best

    floor = REALIZE_FLOOR_RELAXED if perf_relaxed() else REALIZE_FLOOR
    report = "\n".join(
        [
            "== pricing: batched occupancy re-realisation ==",
            f"workload: {assembly.n_hubs} hubs x {assembly.horizon} slots, "
            f"{len(planes)} discount planes ({len(planes) * hub_slots} "
            "hub-slot resolves)",
            f"re-realise {rate:>12,.0f} hub-slots/sec  (best of 3: {best:.4f}s)",
            f"floor      {floor:>12,.0f} hub-slots/sec "
            f"({'relaxed' if perf_relaxed() else 'strict'})",
        ]
    )

    start = time.perf_counter()
    result = api.run_pricing(
        api.resolve_spec("fleet-price", scale=min(scale, 0.25)),
        methods=("none", "evening", "oracle"),
    )
    study_s = time.perf_counter() - start
    table = result.data["per_method"]
    report += "\n" + "\n".join(
        [
            "== pricing: end-to-end method comparison ==",
            f"workload: {result.data['n_hubs']} hubs x {result.data['days']} "
            f"days, methods {','.join(result.data['methods'])}",
            f"study wall-clock {study_s:.2f}s "
            f"({study_s / len(table):.2f}s per method)",
        ]
    )

    write_perf_report(
        "pricing",
        report,
        {
            "workload": {
                "n_hubs": assembly.n_hubs,
                "slots": assembly.horizon,
                "planes": len(planes),
                "hub_slots": hub_slots,
            },
            "rerealize_hub_slots_per_sec": rate,
            "floor_hub_slots_per_sec": floor,
            "study": {
                "n_hubs": result.data["n_hubs"],
                "days": result.data["days"],
                "methods": result.data["methods"],
                "wall_clock_s": study_s,
            },
        },
    )
    print("\n" + report)

    assert rate >= floor, report
