"""The four benchmark workloads: spec construction, the timed call, shapes.

Each workload is a preset plus overrides, with the workload seed written
into ``run.seed``. The program sees only the resulting ``ScenarioSpec``;
everything here runs through the public ``repro.api`` entry points, one
process, ``jobs``/``shards`` left at 1.

Nothing in this module imports ``repro`` at import time, so the set-up
probe can time ``import repro.api`` in a fresh interpreter from zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: The seed whose economic totals are pinned in ``reference.json``.
DEFAULT_SEED = 0

HOURS_PER_DAY = 24


@dataclass(frozen=True)
class Workload:
    """One named workload: which entry point, over which spec."""

    name: str
    why: str
    entry: str  # "run", "pricing" or "train"
    preset: str
    overrides: tuple[tuple[str, object], ...]
    methods: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="city-week",
            why=(
                "1008 congested-city hubs x 7 days on 84 derated feeders: "
                "synthesis-bound and memory-heaviest; a step-kernel change "
                "should not move it"
            ),
            entry="run",
            preset="congested-city",
            overrides=(
                ("fleet.n_hubs", 1008),
                ("grid.n_feeders", 84),
                ("run.days", 7),
            ),
        ),
        Workload(
            name="hub-year",
            why=(
                "4 rural hubs x 365 days on one 120 kW priority feeder, "
                "0.5%/h outages, windowed book: bound by per-slot engine "
                "overhead"
            ),
            entry="run",
            preset="rural-microgrid",
            overrides=(
                ("fleet.n_hubs", 4),
                ("grid.n_feeders", 1),
                ("grid.feeder_capacity_kw", 120.0),
                ("grid.allocation", "priority"),
                ("scheduler.name", "greedy-renewable"),
                ("blackout.outage_probability_per_hour", 0.005),
                ("run.days", 365),
                ("run.storage", "windowed"),
            ),
        ),
        Workload(
            name="pricing-study",
            why=(
                "run_pricing over 100 congested-city hubs x 7 days, methods "
                "none/evening/ours/dr: the incentive mechanism, and the only "
                "workload that re-assembles one fleet per method"
            ),
            entry="pricing",
            preset="congested-city",
            overrides=(
                ("fleet.n_hubs", 100),
                ("run.days", 7),
                ("pricing.train_days", 21),
                ("pricing.epochs", 5),
            ),
            methods=("none", "evening", "ours", "dr"),
        ),
        Workload(
            name="rl-train",
            why=(
                "train_fleet over 24 congested-city hubs, 8 training + 2 eval "
                "episodes: the DRL scheduler, the only workload reaching rl/"
            ),
            entry="train",
            preset="congested-city",
            overrides=(
                ("fleet.n_hubs", 24),
                ("rl.train_episodes", 8),
                ("rl.eval_episodes", 2),
            ),
        ),
    )
}


def spec_for(name: str, seed: int, extra: dict | None = None):
    """The workload's ``ScenarioSpec`` for ``seed``.

    ``extra`` applies further dotted overrides after the workload's own;
    the benchmark's tests use it to shrink a workload while keeping its
    shape.
    """
    from repro import api

    workload = WORKLOADS[name]
    overrides = dict(workload.overrides)
    overrides["run.seed"] = int(seed)
    overrides.update(extra or {})
    return api.resolve_spec(workload.preset).with_overrides(overrides)


def export_text(result) -> str:
    """The serialised export: ``to_json_dict()`` dumped as canonical JSON."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


def call(name: str, spec) -> str:
    """One whole call: spec in, exported JSON text out."""
    from repro import api

    workload = WORKLOADS[name]
    if workload.entry == "run":
        result = api.run(spec)
    elif workload.entry == "pricing":
        result = api.run_pricing(spec, methods=workload.methods)
    else:
        result = api.train_fleet(spec)
    return export_text(result)


def _horizon(spec) -> int:
    return max(int(round(spec.run.days * spec.run.scale)), 1) * HOURS_PER_DAY


def _episode_slots(spec) -> int:
    return min(spec.rl.episode_days * HOURS_PER_DAY, _horizon(spec))


def hub_slots(name: str, spec, data: dict) -> int:
    """Simulated hub-slots of one call, from the export's ``data``.

    Pricing counts one engine run per method. RL counts every transition:
    ``train_episodes`` training episodes, plus ``eval_episodes`` evaluated
    four times (untrained and trained, each stochastic and greedy).
    """
    entry = WORKLOADS[name].entry
    if entry == "run":
        return data["n_hubs"] * data["days"] * HOURS_PER_DAY
    if entry == "pricing":
        return len(data["methods"]) * data["n_hubs"] * data["days"] * HOURS_PER_DAY
    episodes = data["train_episodes"] + 4 * data["eval_episodes"]
    return episodes * _episode_slots(spec) * data["n_hubs"]


def expected_counts(name: str, spec) -> dict[str, int]:
    """The exact ``*.calls`` counts one call must produce, from its shape.

    ``nn.backward.calls`` follows the seeded training-log size where a
    model is trained, so it is pinned only where nothing trains; the
    traced run still requires every count to repeat exactly.
    """
    workload = WORKLOADS[name]
    n_hubs = max(int(round(spec.fleet.resolved_n_hubs * spec.run.scale)), 1)
    horizon = _horizon(spec)
    coupled = spec.grid.feeder_capacity_kw is not None
    counts = {"causal.fit.calls": 0, "rl.env_step.calls": 0, "rl.update.calls": 0}
    if workload.entry == "run":
        scenarios, steps, decisions = n_hubs, horizon, horizon
        counts["nn.backward.calls"] = 0
    elif workload.entry == "pricing":
        runs = len(workload.methods)
        scenarios, steps, decisions = runs * n_hubs, runs * horizon, runs * horizon
        counts["causal.fit.calls"] = sum(
            m not in ("none", "evening", "oracle") for m in workload.methods
        )
    else:
        train = max(int(round(spec.rl.train_episodes * spec.run.scale)), 2)
        evals = max(int(round(spec.rl.eval_episodes * spec.run.scale)), 1)
        scenarios, decisions = n_hubs, 0
        steps = (train + 4 * evals) * _episode_slots(spec)
        counts["rl.env_step.calls"] = steps
        counts["rl.update.calls"] = train
    return {
        "synth.scenario.calls": scenarios,
        "fleet.step.calls": steps,
        "fleet.scheduler.calls": decisions,
        "fleet.allocate.calls": steps if coupled else 0,
        "backend.battery.calls": steps,
        "fleet.book.calls": 2 * steps,
        **counts,
    }
