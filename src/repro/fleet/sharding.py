"""Intra-scenario hub sharding: partition one fleet across processes.

The city-scale runner splits a single scenario's hubs into shards, each
compiled and stepped in its own worker process, then merges the per-shard
:class:`~repro.fleet.costs.FleetCostBook` rows back into the full-fleet
book. The split is **feeder-aware**: hubs sharing a capacity-coupled
:class:`~repro.fleet.grid.FeederGroup` feeder stay co-resident in one
shard, so the Eq. 6 reserve-routing / congestion arithmetic never
crosses a process boundary and every shard row is bit-identical to the
matching row of an unsharded run (test-enforced).

Why workers *compile* instead of receiving arrays: at city scale the
per-hub trace synthesis dominates stepping ~25:1, so shipping compiled
arrays would serialize the expensive phase in the parent. Every per-hub
draw is name-keyed by global hub id (``RngFactory`` streams), so a
worker re-deriving its shard's scenarios from the spec JSON reproduces
the unsharded rows exactly.

:func:`plan_shards` is pure planning (no spec needed);
:class:`ShardTask` / :func:`run_shard` are the picklable work unit the
parallel runner submits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FleetError
from .grid import FeederGroup


def plan_shards(
    feeders: FeederGroup, n_shards: int, *, split_unlimited: bool = True
) -> list[np.ndarray]:
    """Partition hub indices into at most ``n_shards`` feeder-aware shards.

    Capacity-coupled feeders (any finite capacity entry) are atomic
    units — all their hubs land in one shard. Unlimited feeders never
    bind, so their hubs are free to split hub-by-hub when
    ``split_unlimited`` is set; windowed-storage runs pass ``False``
    because :meth:`FleetCostBook.merge_shards` can only merge per-feeder
    running aggregates (peaks especially) when every feeder is whole
    within one shard.

    Units are packed greedily — largest first onto the lightest shard —
    and the returned shards hold strictly increasing global hub indices,
    ordered by first hub. Deterministic: same feeders + ``n_shards`` ⇒
    same plan. May return fewer than ``n_shards`` shards (e.g. one giant
    coupled feeder).
    """
    if isinstance(n_shards, bool) or not isinstance(n_shards, (int, np.integer)):
        raise FleetError(f"n_shards must be an int, got {n_shards!r}")
    if n_shards < 1:
        raise FleetError(f"n_shards must be >= 1, got {n_shards}")
    capacity = np.asarray(feeders.import_capacity_kw, dtype=float)
    units: list[np.ndarray] = []
    for feeder in range(feeders.n_feeders):
        members = np.flatnonzero(feeders.assignment == feeder)
        if members.size == 0:
            continue
        if split_unlimited and bool(np.isinf(capacity[feeder]).all()):
            units.extend(members[i : i + 1] for i in range(members.size))
        else:
            units.append(members)
    units.sort(key=lambda unit: (-unit.size, int(unit[0])))

    buckets: list[list[np.ndarray]] = [[] for _ in range(int(n_shards))]
    loads = [0] * int(n_shards)
    for unit in units:
        target = min(range(len(loads)), key=lambda i: (loads[i], i))
        buckets[target].append(unit)
        loads[target] += unit.size
    plans = [
        np.sort(np.concatenate(bucket)) for bucket in buckets if bucket
    ]
    plans.sort(key=lambda idx: int(idx[0]))
    return plans


@dataclass
class ShardTask:
    """One shard's worth of work, picklable for a worker process.

    ``spec_json`` is the full scenario spec (workers re-derive their
    hubs from it — see the module docstring); ``hub_indices`` the
    strictly increasing global indices this shard owns;
    ``discount_rows`` an optional pre-sliced ``(len(hub_indices),
    horizon)`` discount plane (the pricing path computes discounts on
    the full fleet in the parent and ships each shard its rows).
    """

    spec_json: str
    hub_indices: np.ndarray
    shard_index: int
    discount_rows: np.ndarray | None = None
    with_telemetry: bool = False


@dataclass
class ShardResult:
    """A completed shard: its cost book plus identity for the merge."""

    shard_index: int
    hub_indices: np.ndarray
    book: object
    telemetry: dict | None = field(default=None)


def run_shard(task: ShardTask) -> ShardResult:
    """Compile and step one shard; runs inside a worker process.

    Reproduces rows ``task.hub_indices`` of the unsharded fleet
    bit-for-bit: ``compiler.build(hub_indices=...)`` draws the same
    name-keyed streams, feeds the random scheduler global hub indices,
    and the engine's per-hub arithmetic is row-local (feeder coupling is
    shard-local by construction of :func:`plan_shards`). The shard's
    discount plane is ``task.discount_rows``, or zero when it has none.
    """
    # Lazy imports: the spec compiler imports fleet submodules at load
    # time, so a module-scope import here would be circular.
    from ..spec.compiler import build
    from ..spec.scenario import ScenarioSpec
    from ..telemetry import Telemetry, optional_span

    telemetry = Telemetry(include_meta=False) if task.with_telemetry else None
    spec = ScenarioSpec.from_json(task.spec_json)
    hub_indices = np.asarray(task.hub_indices)
    with optional_span(telemetry, "shard-compile", shard=task.shard_index):
        compiled = build(spec, hub_indices=hub_indices, discount=task.discount_rows)
    if telemetry is not None:
        compiled.simulation.attach_telemetry(telemetry)
    with optional_span(telemetry, "shard-step", shard=task.shard_index):
        book = compiled.execute()
    if telemetry is not None:
        telemetry.metrics.inc("shard_hubs", compiled.n_hubs)

    return ShardResult(
        shard_index=task.shard_index,
        hub_indices=hub_indices,
        book=book,
        telemetry=None if telemetry is None else telemetry.to_dict(),
    )
