"""Compile a :class:`~repro.spec.scenario.ScenarioSpec` into engines.

One deterministic pipeline from data to simulation: resolve run-scale,
generate the site catalog, apply group overrides, build per-hub scenarios
(traces + Eq. 6-sized batteries), realise charging occupancy from the
latent strata, sample blackouts, wire the feeder topology, and assemble
the batched :class:`~repro.fleet.simulation.FleetSimulation` plus the
spec'd scheduler. :meth:`FleetAssembly.engine` is the one place an
assembly becomes a :class:`~repro.fleet.simulation.FleetSimulation`:
:func:`build` (whole fleet or one shard) and the pricing congestion probe
both go through it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from ..config import replace
from ..energy.grid import BlackoutConfig, BlackoutModel
from ..errors import ConfigError
from ..fleet.builder import fleet_simulation_from_scenarios
from ..fleet.grid import FeederGroup
from ..fleet.schedulers import FleetScheduler, make_fleet_scheduler
from ..fleet.simulation import FleetSimulation
from ..hub.scenario import (
    HubScenario,
    ScenarioConfig,
    build_scenario,
    resolve_occupancy,
)
from ..rng import RngFactory
from ..synth.catalog import HubSite, default_fleet
from ..synth.charging import ChargingBehaviorModel, ChargingConfig
from ..units import HOURS_PER_DAY
from .scenario import (
    FleetSpec,
    GridSpec,
    HubGroupSpec,
    ScenarioSpec,
    SchedulerSpec,
)

def scaled(value: int, scale: float, *, minimum: int = 1) -> int:
    """Run-scale an integer knob: ``round(value * scale)``, floored at ``minimum``.

    The one scaling rule of the codebase: the compiler sizes fleets and
    horizons with it, the pricing and training schedules scale their
    counts with it, and the experiment runners scale their workloads.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    return max(int(round(value * scale)), minimum)


@dataclass
class CompiledScenario:
    """A spec resolved into runnable engines.

    ``scenarios`` keeps the per-hub scenario objects for inspection and
    scalar-engine cross-checks; ``simulation`` is the batched engine with
    feeders, blackouts, and the VoLL penalty wired in; ``scheduler`` is
    the spec'd policy. :meth:`execute` runs the horizon and returns the
    completed :class:`~repro.fleet.costs.FleetCostBook`.
    """

    spec: ScenarioSpec
    scenarios: list[HubScenario]
    simulation: FleetSimulation
    scheduler: FleetScheduler
    n_hubs: int
    days: int
    #: Set when the spec's ``pricing`` section compiled a discount
    #: schedule (:class:`~repro.spec.pricing.CompiledPricing`).
    pricing: object | None = None

    def execute(self):
        """Run the remaining horizon under the spec'd scheduler."""
        return self.simulation.run(self.scheduler)


def _group_table(fleet: FleetSpec, scale: float) -> tuple[int, list[HubGroupSpec | None]]:
    """Resolve run-scale and expand groups into a per-hub override row."""
    if fleet.groups:
        per_hub: list[HubGroupSpec | None] = []
        for group in fleet.groups:
            per_hub.extend([group] * scaled(group.count, scale, minimum=1))
        return len(per_hub), per_hub
    n_hubs = scaled(fleet.resolved_n_hubs, scale, minimum=1)
    return n_hubs, [None] * n_hubs


def _apply_site_overrides(
    site: HubSite, group: HubGroupSpec | None
) -> HubSite:
    if group is None:
        return site
    changes = {
        name: getattr(group, name)
        for name in ("kind", "pv_kw", "wt_kw", "traffic_scale", "n_base_stations")
        if getattr(group, name) is not None
    }
    return dataclasses.replace(site, **changes) if changes else site


def _hub_config_for(
    base: ScenarioConfig, group: HubGroupSpec | None
) -> ScenarioConfig:
    """Per-hub ScenarioConfig once group battery/cost overrides are applied."""
    if group is None:
        return base
    config = base
    if group.battery is not None:
        config = replace(config, battery=group.battery)
    elif group.battery_scale is not None:
        scale = group.battery_scale
        battery = config.battery
        config = replace(
            config,
            battery=replace(
                battery,
                capacity_kwh=battery.capacity_kwh * scale,
                charge_rate_kw=battery.charge_rate_kw * scale,
                discharge_rate_kw=battery.discharge_rate_kw * scale,
            ),
        )
    if group.c_bp_per_slot is not None:
        config = replace(config, c_bp_per_slot=group.c_bp_per_slot)
    return config


def _build_feeders(
    grid: GridSpec,
    per_hub: list[HubGroupSpec | None],
    n_hubs: int,
    horizon: int,
) -> FeederGroup:
    if grid.n_feeders > n_hubs:
        raise ConfigError(
            f"{grid.n_feeders} feeders for {n_hubs} hubs leaves feeders empty"
        )
    assignment = np.arange(n_hubs) % grid.n_feeders
    for index, group in enumerate(per_hub):
        if group is not None and group.feeder is not None:
            if group.feeder >= grid.n_feeders:
                raise ConfigError(
                    f"group feeder {group.feeder} out of range for "
                    f"{grid.n_feeders} feeders"
                )
            assignment[index] = group.feeder
    if grid.feeder_capacity_kw is None:
        capacity = np.full(grid.n_feeders, np.inf)
    elif grid.capacity_profile is not None:
        pattern = np.asarray(grid.capacity_profile, dtype=float)
        slots = grid.feeder_capacity_kw * pattern[np.arange(horizon) % len(pattern)]
        capacity = np.broadcast_to(slots, (grid.n_feeders, horizon)).copy()
    else:
        capacity = np.full(grid.n_feeders, float(grid.feeder_capacity_kw))
    return FeederGroup(
        assignment=assignment,
        import_capacity_kw=capacity,
        policy=grid.allocation,
    )


def make_scheduler(
    scheduler: SchedulerSpec,
    *,
    n_hubs: int,
    rng_factory: RngFactory,
    hub_ids=None,
) -> FleetScheduler:
    """Instantiate the spec'd scheduler (quantiles None ⇒ class defaults).

    ``hub_ids`` carries global hub indices into the random scheduler's
    per-hub stream names — what keeps a sharded run's random actions
    bit-identical to the unsharded fleet's.
    """
    return make_fleet_scheduler(
        scheduler.name,
        n_hubs=n_hubs,
        rng_factory=rng_factory,
        congestion_aware=scheduler.congestion_aware,
        cheap_quantile=scheduler.cheap_quantile,
        expensive_quantile=scheduler.expensive_quantile,
        hub_ids=hub_ids,
    )


@dataclass
class FleetAssembly:
    """The spec-derived fleet pieces every compilation target shares.

    :func:`build` layers the occupancy realisation, batched engine, and
    scheduler on top; :func:`build_fleet_env` consumes the assembly
    directly (the RL environment re-realises occupancy per episode, so
    the full-horizon realisation and engine would be dead work there).
    All randomness is drawn from name-keyed :class:`RngFactory` streams,
    so both targets see identical scenarios/outages for one spec.

    The latent charging strata are realised lazily (:meth:`realize_strata`)
    and cached: the strata draw does not depend on the discount schedule,
    so :meth:`realize_occupancy` can resolve the *same* latent demand
    against any per-hub ``(n_hubs, horizon)`` discount plane in one
    vectorized pass — the pricing loop's injection seam.
    """

    spec: ScenarioSpec
    scenarios: list[HubScenario]
    behavior: ChargingBehaviorModel
    outage: np.ndarray | None
    feeders: "FeederGroup"
    n_hubs: int
    days: int
    horizon: int
    _strata: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False
    )

    def realize_strata(self) -> np.ndarray:
        """Latent strata per (hub, slot), cached — ``(n_hubs, horizon)`` int.

        Streams are name-keyed per hub (``fleet/occupancy/{hub_id}``) from
        a fresh run-seed factory, so any caller with the same spec — or a
        shard assembly holding the same hub — draws bit-identical rows.
        """
        if self._strata is None:
            factory = RngFactory(seed=self.spec.run.seed)
            slots = np.arange(self.horizon)
            self._strata = np.stack(
                [
                    self.behavior.sample_strata(
                        scenario.site.hub_id,
                        slots,
                        factory.stream(f"fleet/occupancy/{scenario.site.hub_id}"),
                    )
                    for scenario in self.scenarios
                ]
            )
        return self._strata

    def discount_rows(self, discount: np.ndarray | None) -> np.ndarray:
        """Normalize a discount schedule to ``(n_hubs, horizon)`` float.

        ``None`` means the zero-discount baseline; 1-D schedules broadcast
        across hubs; anything else must already be per-hub-per-slot.
        """
        shape = (self.n_hubs, self.horizon)
        if discount is None:
            return np.zeros(shape)
        rows = np.asarray(discount, dtype=float)
        if rows.ndim == 1:
            rows = np.broadcast_to(rows, shape).copy()
        if rows.shape != shape:
            raise ConfigError(
                f"discount schedule must have shape {shape} (or broadcast "
                f"from ({self.horizon},)), got {rows.shape}"
            )
        return rows

    def realize_occupancy(self, discount: np.ndarray | None = None) -> np.ndarray:
        """Charging occupancy under a discount schedule — one vectorized pass.

        Incentive-stratum slots charge exactly when discounted; Always
        slots charge regardless; None slots never do. Because the cached
        strata are discount-independent, re-pricing the fleet re-realises
        all hubs at numpy speed without touching the rng.
        """
        return resolve_occupancy(
            self.realize_strata(), self.discount_rows(discount) > 0.0
        )

    def engine(self, discount: np.ndarray | None = None) -> FleetSimulation:
        """The batched engine over this assembly under a discount schedule.

        Occupancy is re-realised against ``discount`` (see
        :meth:`discount_rows` for the accepted shapes); the run section
        supplies the initial SoC, VoLL, cost-book storage and backend.
        """
        run = self.spec.run
        rows = self.discount_rows(discount)
        return fleet_simulation_from_scenarios(
            self.scenarios,
            self.realize_occupancy(rows),
            rows,
            outage=self.outage,
            initial_soc_fraction=run.initial_soc_fraction,
            feeders=self.feeders,
            voll_per_kwh=run.voll_per_kwh,
            storage=run.storage,
            backend=run.backend,
        )


def assemble_sites(
    spec: ScenarioSpec,
) -> tuple[list[HubSite], list[HubGroupSpec | None], FeederGroup, int, int, int]:
    """Sites + feeder topology + resolved sizes, without hub traces.

    Returns ``(sites, per_hub, feeders, n_hubs, days, horizon)`` — the
    cheap, whole-fleet part of :func:`_assemble_fleet` (site jitter is a
    single sequential ``catalog/fleet`` stream, feeders a topology
    table). The sharded runner plans shards and reports hub kinds from
    this without compiling a single trace; every stream is name-keyed,
    so a worker re-deriving the same sites sees identical values.
    """
    if not isinstance(spec, ScenarioSpec):
        raise ConfigError(
            f"expected a ScenarioSpec, got {type(spec).__name__}"
        )
    run = spec.run
    n_hubs, per_hub = _group_table(spec.fleet, run.scale)
    days = scaled(run.days, run.scale, minimum=1)
    horizon = days * HOURS_PER_DAY
    factory = RngFactory(seed=run.seed)
    sites = default_fleet(
        n_hubs, rng_factory=factory, urban_fraction=spec.fleet.urban_fraction
    )
    sites = [
        _apply_site_overrides(site, group)
        for site, group in zip(sites, per_hub)
    ]
    feeders = _build_feeders(spec.grid, per_hub, n_hubs, horizon)
    return sites, per_hub, feeders, n_hubs, days, horizon


def assembly_fingerprint(spec: ScenarioSpec) -> str:
    """Canonical JSON of exactly the spec sections the assembly consumes.

    Two specs with equal fingerprints produce bit-identical
    :class:`FleetAssembly` pieces (sites, traces, strata, outages,
    feeders) — scheduler/pricing/rl differences don't re-assemble. The
    sweep executor keys its per-worker assembly cache on this.
    """
    payload = spec.to_dict()
    run = payload["run"]
    # run.backend is deliberately excluded: the backend changes how the
    # engine computes, not what the assembly *is* (sites, traces, strata,
    # outages, feeders are identical across backends), so the sweep
    # executor's assembly cache stays shared across backend variants.
    return json.dumps(
        {
            "fleet": payload["fleet"],
            "grid": payload["grid"],
            "blackout": payload["blackout"],
            "run": {key: run[key] for key in ("days", "seed", "scale")},
        },
        sort_keys=True,
    )


def _assemble_fleet(
    spec: ScenarioSpec, *, hub_indices=None
) -> FleetAssembly:
    """Resolve a spec into sites, traces, blackout masks, and feeders.

    ``hub_indices`` (strictly increasing global hub indices) restricts
    the expensive per-hub work — trace synthesis, battery sizing, outage
    sampling — to a shard of the fleet while keeping every whole-fleet
    draw (site jitter, the charging behavior model's sequential streams)
    identical to the unsharded assembly. Because all per-hub randomness
    is name-keyed by global hub id, shard row *i* is bit-identical to
    row ``hub_indices[i]`` of the full assembly; the returned feeders
    are the matching :meth:`FeederGroup.subgroup`.
    """
    sites, per_hub, feeders, n_hubs, days, horizon = assemble_sites(spec)
    run = spec.run
    factory = RngFactory(seed=run.seed)
    fleet = spec.fleet
    charging = replace(
        fleet.charging if fleet.charging is not None else ChargingConfig(),
        n_stations=n_hubs,
    )
    base_config = ScenarioConfig(
        n_hours=horizon,
        recovery_time_h=spec.blackout.recovery_time_h,
        charging=charging,
        c_bp_per_slot=fleet.c_bp_per_slot,
        **{
            name: getattr(fleet, name)
            for name in ("battery", "base_station", "charging_station",
                         "weather", "traffic", "rtp")
            if getattr(fleet, name) is not None
        },
    )

    if hub_indices is None:
        selected = list(zip(sites, per_hub))
    else:
        idx = np.asarray(hub_indices)
        # subgroup() validates the index array (1-D, integer, strictly
        # increasing, in range) as it restricts the feeder topology.
        feeders, _ = feeders.subgroup(idx)
        selected = [(sites[i], per_hub[i]) for i in idx]
    scenarios = [
        build_scenario(site, _hub_config_for(base_config, group), factory)
        for site, group in selected
    ]

    # Strata scales index by *global* station id inside the behavior
    # model, so the table always spans the full fleet.
    strata_scales: np.ndarray | None = None
    if any(
        group is not None
        and (group.incentive_scale is not None or group.always_scale is not None)
        for group in per_hub
    ):
        strata_scales = np.ones((n_hubs, 2))
        for index, group in enumerate(per_hub):
            if group is None:
                continue
            if group.incentive_scale is not None:
                strata_scales[index, 0] = group.incentive_scale
            if group.always_scale is not None:
                strata_scales[index, 1] = group.always_scale

    outage: np.ndarray | None = None
    if spec.blackout.outage_probability_per_hour > 0.0:
        model = BlackoutModel(
            BlackoutConfig(
                outage_probability_per_hour=spec.blackout.outage_probability_per_hour,
                recovery_time_h=spec.blackout.recovery_time_h,
            )
        )
        outage = np.stack(
            [
                model.sample_outages(
                    horizon, factory.stream(f"fleet/outage/{scenario.site.hub_id}")
                )
                for scenario in scenarios
            ]
        )

    return FleetAssembly(
        spec=spec,
        scenarios=scenarios,
        behavior=ChargingBehaviorModel(
            base_config.charging, factory, strata_scales=strata_scales
        ),
        outage=outage,
        feeders=feeders,
        n_hubs=len(scenarios),
        days=days,
        horizon=horizon,
    )


def build(
    spec: ScenarioSpec,
    *,
    discount: np.ndarray | None = None,
    telemetry=None,
    assembly: FleetAssembly | None = None,
    hub_indices=None,
) -> CompiledScenario:
    """Compile a spec into scenarios + batched engine + scheduler.

    ``discount`` injects an explicit per-hub (or broadcast 1-D) discount
    schedule, bypassing the spec's ``pricing`` section; ``None`` compiles
    the section instead — the zero-discount baseline when the policy is
    ``"none"``, a trained policy's schedule otherwise. Either way the
    latent strata, traces, outages, and feeders are identical; only the
    occupancy/discount planes differ.

    ``assembly`` reuses a previously built :class:`FleetAssembly` instead
    of re-synthesising traces — the sweep workers' cache seam. The
    assembly must come from a spec with the same
    :func:`assembly_fingerprint` (scheduler/pricing/run-policy knobs may
    differ; fleet/grid/blackout and run days/seed/scale may not) or a
    :class:`ConfigError` is raised. The cached strata survive the rebind,
    so re-pricing sweeps skip both trace synthesis and the strata draw.

    ``hub_indices`` compiles one shard of the fleet (see
    :func:`_assemble_fleet`); the scheduler gets the global hub ids, so
    every row matches the unsharded run. A shard never compiles the
    ``pricing`` section — a policy trained on a shard-local log would
    not be the unsharded run's policy — so its schedule is ``discount``
    (the parent's rows, sliced to the shard) or the zero plane.
    """
    if assembly is None:
        assembly = _assemble_fleet(spec, hub_indices=hub_indices)
    elif assembly.spec is not spec:
        if assembly_fingerprint(assembly.spec) != assembly_fingerprint(spec):
            raise ConfigError(
                "cached assembly does not match this spec's "
                "fleet/grid/blackout/run sections"
            )
        rebound = dataclasses.replace(assembly, spec=spec)
        # dataclasses.replace re-inits, resetting the init=False strata
        # cache — carry it over; it's discount-independent by design.
        rebound._strata = assembly._strata
        assembly = rebound

    pricing_compiled = None
    if discount is None and hub_indices is None and spec.pricing.policy != "none":
        # Local import: the pricing compiler pulls the causal/NCF stack,
        # which plain (unpriced) builds must not load.
        from .pricing import compile_pricing

        pricing_compiled = compile_pricing(assembly, telemetry=telemetry)
        discount = pricing_compiled.discount

    simulation = assembly.engine(discount)
    scheduler = make_scheduler(
        spec.scheduler,
        n_hubs=assembly.n_hubs,
        rng_factory=RngFactory(seed=spec.run.seed),
        hub_ids=None if hub_indices is None else [int(i) for i in hub_indices],
    )
    return CompiledScenario(
        spec=spec,
        scenarios=assembly.scenarios,
        simulation=simulation,
        scheduler=scheduler,
        n_hubs=assembly.n_hubs,
        days=assembly.days,
        pricing=pricing_compiled,
    )


def build_fleet_env(spec: ScenarioSpec, *, rng=None):
    """Compile a spec's ``rl`` section into a batched fleet environment.

    Returns ``(assembly, env)``: the :class:`FleetAssembly` (scenarios,
    blackout masks, feeders — the same pieces :func:`build` compiles,
    minus the engine the RL path never uses) plus a
    :class:`~repro.rl.fleet_env.FleetEnv` over its scenarios. Episode
    length is clamped to the compiled horizon so run-scaled scenarios
    still train; discounts are zero (the fleet baseline — pricing-loop
    discounts are a spec follow-on). ``rng`` overrides the episode
    stream (default: the run seed's ``"rl/env"`` stream).
    """
    # Local import: repro.rl pulls the nn stack, which the spec layer
    # must not load for plain (non-RL) builds.
    from ..rl.fleet_env import EnvConfig, FleetEnv

    assembly = _assemble_fleet(spec)
    rl = spec.rl
    config = EnvConfig(
        episode_days=min(rl.episode_days, assembly.days),
        window_h=rl.window_h,
        reward_scale=rl.reward_scale,
        random_initial_soc=rl.random_initial_soc,
    )
    feeders = assembly.feeders
    env = FleetEnv(
        assembly.scenarios,
        assembly.behavior,
        np.zeros(assembly.horizon),
        config=config,
        rng=rng if rng is not None else RngFactory(seed=spec.run.seed).stream("rl/env"),
        outage=assembly.outage,
        feeders=feeders,
        voll_per_kwh=spec.run.voll_per_kwh,
        feeder_aware=rl.feeder_aware and not feeders.is_unlimited,
        backend=spec.run.backend,
    )
    return assembly, env


def ppo_config_from_spec(spec: ScenarioSpec):
    """The :class:`~repro.rl.ppo.PpoConfig` a spec's ``rl`` section means."""
    from ..rl.ppo import PpoConfig

    rl = spec.rl
    return PpoConfig(
        learning_rate=rl.learning_rate,
        weight_decay=rl.weight_decay,
        gamma=rl.gamma,
        gae_lambda=rl.gae_lambda,
        clip_epsilon=rl.clip_epsilon,
        value_coef=rl.value_coef,
        entropy_coef=rl.entropy_coef,
        update_epochs=rl.update_epochs,
        batch_size=rl.batch_size,
        max_grad_norm=rl.max_grad_norm,
        hidden_sizes=rl.hidden_sizes,
    )
