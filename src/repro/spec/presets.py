"""Named scenario presets: curated starting points for ``--preset``.

Each preset is one frozen :class:`~repro.spec.scenario.ScenarioSpec` —
dump it (``ect-hub presets --show NAME``), tweak leaves with ``--set``,
or use it as a sweep base. Presets must survive
``to_dict → json → from_dict`` bit-identically; :func:`verify_roundtrips`
is the smoke check CI runs on every push.
"""

from __future__ import annotations

import json

from ..energy.battery import BatteryConfig
from ..errors import ConfigError
from .scenario import (
    BlackoutSpec,
    FleetSpec,
    GridSpec,
    HubGroupSpec,
    PricingSpec,
    RlSpec,
    RunSpec,
    ScenarioSpec,
    SchedulerSpec,
)

#: A diurnal feeder derate: full capacity off-peak, tightened through the
#: evening ramp (18:00–24:00) when both BS traffic and EV charging peak.
_EVENING_DERATE = tuple([1.0] * 18 + [0.65] * 6)


PRESETS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="paper-default",
            description=(
                "the paper's Sec. V shape: 12 campus hubs, 30 days, "
                "rule-based scheduling, no feeder coupling"
            ),
            fleet=FleetSpec(n_hubs=12),
            grid=GridSpec(),
            scheduler=SchedulerSpec(name="rule-based"),
            blackout=BlackoutSpec(outage_probability_per_hour=0.0),
            run=RunSpec(days=30),
        ),
        ScenarioSpec(
            name="fleet-default",
            description=(
                "the ect-hub fleet flag defaults: 24 hubs x 14 days with "
                "rare blackouts (the PR-1 network-scale study)"
            ),
            fleet=FleetSpec(n_hubs=24),
            grid=GridSpec(),
            scheduler=SchedulerSpec(name="rule-based"),
            blackout=BlackoutSpec(outage_probability_per_hour=0.001),
            run=RunSpec(days=14),
        ),
        ScenarioSpec(
            name="congested-city",
            description=(
                "48 dense urban hubs on 4 feeders whose capacity derates "
                "through the evening peak; unserved energy charged at VoLL"
            ),
            fleet=FleetSpec(n_hubs=48, urban_fraction=1.0),
            grid=GridSpec(
                n_feeders=4,
                feeder_capacity_kw=700.0,
                capacity_profile=_EVENING_DERATE,
                allocation="proportional",
            ),
            scheduler=SchedulerSpec(name="rule-based"),
            blackout=BlackoutSpec(outage_probability_per_hour=0.001),
            run=RunSpec(days=7, voll_per_kwh=2.0),
        ),
        ScenarioSpec(
            name="blackout-prone",
            description=(
                "a fragile grid: 1% hourly outage probability, 6 h recovery, "
                "unserved energy charged at VoLL"
            ),
            fleet=FleetSpec(n_hubs=24),
            grid=GridSpec(),
            scheduler=SchedulerSpec(name="rule-based"),
            blackout=BlackoutSpec(
                outage_probability_per_hour=0.01, recovery_time_h=6
            ),
            run=RunSpec(days=14, voll_per_kwh=2.0),
        ),
        ScenarioSpec(
            name="heterogeneous-batteries",
            description=(
                "three battery tiers across one fleet: half-size packs, the "
                "default sizing, and double-size packs plus one premium group"
            ),
            fleet=FleetSpec(
                groups=(
                    HubGroupSpec(count=8, battery_scale=0.5),
                    HubGroupSpec(count=8),
                    HubGroupSpec(count=6, battery_scale=2.0),
                    HubGroupSpec(
                        count=2,
                        battery=BatteryConfig(
                            capacity_kwh=400.0,
                            charge_rate_kw=100.0,
                            discharge_rate_kw=100.0,
                            charge_efficiency=0.97,
                            discharge_efficiency=0.97,
                        ),
                    ),
                )
            ),
            grid=GridSpec(),
            scheduler=SchedulerSpec(name="rule-based"),
            blackout=BlackoutSpec(outage_probability_per_hour=0.001),
            run=RunSpec(days=14),
        ),
        ScenarioSpec(
            name="rural-microgrid",
            description=(
                "12 rural PV+WT hubs behind 2 weak feeders, greedy-renewable "
                "scheduling, unserved energy charged at VoLL"
            ),
            fleet=FleetSpec(n_hubs=12, urban_fraction=0.0),
            grid=GridSpec(
                n_feeders=2, feeder_capacity_kw=250.0, allocation="priority"
            ),
            scheduler=SchedulerSpec(name="greedy-renewable"),
            blackout=BlackoutSpec(
                outage_probability_per_hour=0.005, recovery_time_h=6
            ),
            run=RunSpec(days=14, voll_per_kwh=2.0),
        ),
        ScenarioSpec(
            name="train-fleet",
            description=(
                "the ect-hub train-fleet default: fleet PPO over 6 hubs x "
                "10 days on 5-day episodes, 40 training / 5 evaluation "
                "episodes"
            ),
            fleet=FleetSpec(n_hubs=6),
            blackout=BlackoutSpec(outage_probability_per_hour=0.001),
            run=RunSpec(days=10),
            # Myopic PPO (gamma 0.95, light entropy): battery arbitrage
            # credit spans hours, not the episode, and the short smoke
            # schedule learns measurably faster that way.
            rl=RlSpec(
                episode_days=5,
                gamma=0.95,
                entropy_coef=0.005,
                train_episodes=40,
                eval_episodes=5,
            ),
        ),
        ScenarioSpec(
            name="fleet-price",
            description=(
                "the ect-hub price default: Table III at city scale, "
                "ECT-Price over 100 hubs x 7 days trained on a 30-day log"
            ),
            fleet=FleetSpec(n_hubs=100),
            run=RunSpec(days=7),
            # run_pricing sweeps pricing.policy over the compared methods
            # on top of this ECT-Price base.
            pricing=PricingSpec(
                policy="ours", train_days=30, epochs=30, discount_level=0.2
            ),
        ),
    )
}


def available_presets() -> list[str]:
    """All preset names."""
    return sorted(PRESETS)


def get_preset(name: str) -> ScenarioSpec:
    """Look up one preset by name."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    return PRESETS[name]


def verify_roundtrips(*, build_specs: bool = False) -> list[str]:
    """Assert every preset survives ``to_dict → json → from_dict`` intact.

    With ``build_specs=True`` each round-tripped preset is also compiled
    (sites, traces, feeders, engine) — the CI smoke check. The fleet is
    compiled at its zero-discount baseline: a ``pricing`` section trains
    a discount model, which is a run (``ect-hub price``), not a compile.
    Returns the verified preset names; raises :class:`ConfigError` on
    the first preset that fails to round-trip.
    """
    verified: list[str] = []
    for name in available_presets():
        spec = PRESETS[name]
        rebuilt = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        if rebuilt != spec:
            raise ConfigError(f"preset {name!r} did not round-trip through JSON")
        if build_specs:
            from .compiler import build

            build(rebuilt.with_overrides({"pricing.policy": "none"}))
        verified.append(name)
    return verified
