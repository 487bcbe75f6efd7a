"""The scenario facade: build, run, and sweep specs in three calls.

>>> from repro import api
>>> result = api.run("paper-default")            # a named preset
>>> result = api.run(api.load_spec("city.json"))  # a spec file
>>> compiled = api.build(spec)                    # engines, not yet run

``run`` compiles a :class:`~repro.spec.scenario.ScenarioSpec` (or preset
name) into the batched fleet engine, runs the spec'd scheduler over the
horizon, and returns the same :class:`~repro.experiments.base.
ExperimentResult` shape the ``fleet`` experiment always produced — with
the originating spec embedded under ``data["spec"]`` so every export is
self-describing and replayable. ``run_sweep`` expands a
:class:`~repro.spec.sweep.SweepSpec` and runs each job.
``build_fleet_env`` / ``train_fleet`` compile the spec's ``rl`` section
into the batched :class:`~repro.rl.fleet_env.FleetEnv` and run the PPO
training schedule over it.

Every entry point accepts ``telemetry=`` — a :class:`~repro.telemetry.
session.Telemetry` session. When one is passed, the run is phase-traced
(``compile`` / ``reset`` / ``step``, plus ``sweep-job`` and
``ppo-update`` where applicable), engine counters and throughput gauges
are booked, and the completed RunTelemetry record is attached to the
returned result as ``result.telemetry``. The simulated numbers are
bit-identical with or without a session; telemetry never reaches the
deterministic ``data`` payload.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .backend import get_backend
from .errors import ConfigError
from .experiments.base import ExperimentResult
from .fleet.costs import FleetCostBook
from .fleet.sharding import ShardTask, plan_shards
from .rng import RngFactory
from .spec.compiler import (
    CompiledScenario,
    _assemble_fleet,
    assemble_sites,
    build as _compile,
    build_fleet_env as _compile_fleet_env,
    ppo_config_from_spec,
    scaled,
)
from .spec.presets import get_preset
from .spec.scenario import PRICING_POLICIES, ScenarioSpec, _check_int
from .spec.sweep import SweepSpec
from .telemetry import Telemetry, log, optional_span


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a JSON file."""
    return ScenarioSpec.load(path)


def resolve_spec(
    spec: ScenarioSpec | str,
    *,
    scale: float | None = None,
    seed: int | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ScenarioSpec:
    """Accept a spec instance or a preset name, then apply run overrides.

    ``scale`` and ``seed`` are sugar for ``run.scale`` / ``run.seed``;
    ``overrides`` (the CLI's ``--set`` map) applies last, so it wins.
    This is the one path from a CLI invocation or registry runner to a
    spec: there is no other scaling rule than the compiler's.
    """
    if isinstance(spec, str):
        spec = get_preset(spec)
    elif not isinstance(spec, ScenarioSpec):
        raise ConfigError(
            f"expected a ScenarioSpec or preset name, got {type(spec).__name__}"
        )
    sugar = {
        path: value
        for path, value in (("run.scale", scale), ("run.seed", seed))
        if value is not None
    }
    return spec.with_overrides({**sugar, **(overrides or {})})


def build(spec: ScenarioSpec | str) -> CompiledScenario:
    """Compile a spec (or preset name) into runnable engines."""
    return _compile(resolve_spec(spec))


def run(
    spec: ScenarioSpec | str,
    *,
    telemetry: Telemetry | None = None,
    shards: int | None = None,
    assembly=None,
) -> ExperimentResult:
    """Compile and run a scenario, reporting per-hub + network economics.

    With a ``telemetry`` session the compile/reset/step phases are
    traced, the engine books live counters, and the RunTelemetry record
    lands on ``result.telemetry`` — the booked economics are identical
    either way (the reset the traced path adds is idempotent).

    ``shards`` overrides the spec's ``run.shards`` knob *as an argument*
    (the spec embedded in ``data["spec"]`` is untouched, so sharded and
    unsharded ``--out`` exports stay byte-identical). ``shards > 1``
    partitions the fleet feeder-aware (:mod:`repro.fleet.sharding`) and
    compiles + steps each shard in a worker process; everything in
    ``data`` is byte-identical to the unsharded run by construction
    (test-enforced). ``assembly`` reuses a cached
    :class:`~repro.spec.compiler.FleetAssembly` on the unsharded path —
    the sweep workers' seam.
    """
    resolved = resolve_spec(spec)
    n_shards = resolved.run.shards if shards is None else shards
    _check_int("shards", n_shards, minimum=1)
    if n_shards > 1:
        return _run_sharded(resolved, n_shards, telemetry=telemetry)
    with optional_span(telemetry, "compile", scenario=resolved.name):
        compiled = _compile(resolved, telemetry=telemetry, assembly=assembly)
    simulation = compiled.simulation
    if telemetry is not None:
        simulation.attach_telemetry(telemetry)
        with telemetry.span("reset"):
            simulation.reset()
    n_hubs, days = compiled.n_hubs, compiled.days
    log.debug(
        "compiled scenario",
        scenario=resolved.name,
        n_hubs=n_hubs,
        days=days,
        scheduler=compiled.scheduler.name,
    )

    start = time.perf_counter()
    with optional_span(telemetry, "step", slots=simulation.horizon):
        book = compiled.execute()
    elapsed = time.perf_counter() - start

    return _fleet_result(
        resolved,
        book,
        n_hubs=n_hubs,
        days=days,
        horizon=simulation.horizon,
        scheduler_name=compiled.scheduler.name,
        kinds=[s.site.kind for s in compiled.scenarios],
        hub_ids=[s.site.hub_id for s in compiled.scenarios],
        pricing=compiled.pricing,
        elapsed=elapsed,
        telemetry=telemetry,
    )


def _run_sharded(
    resolved: ScenarioSpec, n_shards: int, *, telemetry: Telemetry | None = None
) -> ExperimentResult:
    """The city-scale path: shard the fleet, step shards in processes.

    Workers re-derive their hubs from the spec JSON (name-keyed streams
    make that bit-identical to the unsharded assembly — see
    :mod:`repro.fleet.sharding`), so the parent only pays site-catalog
    and planning cost. Pricing runs are the exception: the discount
    plane couples all hubs through the training log, so the parent
    compiles pricing over the full assembly once and ships each shard
    its pre-sliced discount rows (a shard never compiles pricing).
    """
    from .parallel import _available_cpus, run_shards_parallel

    sites, _, feeders, n_hubs, days, horizon = assemble_sites(resolved)
    windowed = resolved.run.storage == "windowed"

    pricing_compiled = None
    discount_rows = None
    if resolved.pricing.policy != "none":
        from .spec.pricing import compile_pricing

        with optional_span(telemetry, "compile", scenario=resolved.name):
            assembly = _assemble_fleet(resolved)
            pricing_compiled = compile_pricing(assembly, telemetry=telemetry)
        discount_rows = assembly.discount_rows(pricing_compiled.discount)

    # Windowed books can only merge feeder-closed shards, so unlimited
    # feeders stay atomic there (single-feeder specs degenerate to one
    # shard — documented in README#performance).
    plan = plan_shards(feeders, n_shards, split_unlimited=not windowed)
    spec_json = resolved.to_json()
    tasks = [
        ShardTask(
            spec_json=spec_json,
            hub_indices=idx,
            shard_index=index,
            discount_rows=None if discount_rows is None else discount_rows[idx],
            with_telemetry=telemetry is not None,
        )
        for index, idx in enumerate(plan)
    ]
    workers = min(len(tasks), _available_cpus())
    log.debug(
        "sharded scenario",
        scenario=resolved.name,
        n_hubs=n_hubs,
        shards=len(tasks),
        workers=workers,
    )

    start = time.perf_counter()
    shard_results = run_shards_parallel(tasks, workers)
    elapsed = time.perf_counter() - start

    with optional_span(telemetry, "shard-merge", shards=len(tasks)):
        book = FleetCostBook.merge_shards(
            [r.book for r in shard_results],
            [r.hub_indices for r in shard_results],
            feeders=feeders,
            voll_per_kwh=resolved.run.voll_per_kwh,
        )
    if telemetry is not None:
        telemetry.set_workers(workers)
        # Absorb in shard order so counters stay byte-identical run to
        # run whatever the completion order was.
        for shard in shard_results:
            telemetry.absorb(shard.telemetry, label="shard", index=shard.shard_index)

    return _fleet_result(
        resolved,
        book,
        n_hubs=n_hubs,
        days=days,
        horizon=horizon,
        scheduler_name=resolved.scheduler.name,
        kinds=[site.kind for site in sites],
        hub_ids=[site.hub_id for site in sites],
        pricing=pricing_compiled,
        elapsed=elapsed,
        telemetry=telemetry,
        shard_note=(
            f"sharded over {len(tasks)} shards ({workers} workers), "
            f"storage={resolved.run.storage}"
        ),
    )


def _fleet_result(
    resolved: ScenarioSpec,
    book,
    *,
    n_hubs: int,
    days: int,
    horizon: int,
    scheduler_name: str,
    kinds: list[str],
    hub_ids: list[int],
    pricing,
    elapsed: float,
    telemetry: Telemetry | None,
    shard_note: str | None = None,
) -> ExperimentResult:
    """The shared report tail: one completed book → ExperimentResult.

    Both the unsharded and sharded paths end here, which is what makes
    "sharded exports are byte-identical" a structural property: the
    entire ``data`` payload is computed from the (merged) book plus the
    spec. Wall-clock throughput and the shard note live in ``lines``
    only — the ``--out`` JSON must stay deterministic and diffable.
    """
    hub_slots = n_hubs * horizon
    throughput = hub_slots / elapsed if elapsed > 0 else float("inf")

    profit = book.profit_per_hub
    daily = book.daily_rewards()
    blackout_slots = book.blackout_hub_slots
    coupled = resolved.grid.feeder_capacity_kw is not None
    voll = resolved.run.voll_per_kwh
    feeders = book.feeders

    data = {
        "scenario": resolved.name,
        "spec": resolved.to_dict(),
        "n_hubs": n_hubs,
        "days": days,
        "scheduler": scheduler_name,
        "network_profit": book.profit,
        "network_operating_cost": book.operating_cost,
        "network_charging_revenue": book.charging_revenue,
        "network_voll_cost": book.voll_cost,
        "network_unserved_kwh": book.total_unserved_kwh,
        "blackout_slots": blackout_slots,
        "profit_per_hub": profit,
        "avg_daily_reward_per_hub": daily.mean(axis=1),
        "kinds": kinds,
        # Shared-grid coupling (zeros / infinities when uncoupled).
        "n_feeders": feeders.n_feeders,
        "feeder_capacity_kw": resolved.grid.feeder_capacity_kw,
        "allocation": feeders.policy,
        "import_shortfall_kwh": book.total_import_shortfall_kwh,
        "congested_feeder_slots": book.congested_feeder_slots,
        "feeder_import_kwh": book.feeder_import_kwh,
        "feeder_shortfall_kwh": book.feeder_shortfall_kwh,
        "feeder_peak_import_kw": book.feeder_peak_import_kw,
    }
    if pricing is not None:
        # Deterministic pricing provenance: how the discount plane was
        # built (training size, selection counts, congestion shaping).
        data["pricing_policy"] = pricing.policy
        data["pricing_discount_level"] = resolved.pricing.discount_level
        data["pricing_discounted_hub_slots"] = pricing.discounted_hub_slots
        data["pricing_mean_discount"] = pricing.mean_discount
        data["pricing_train_items"] = pricing.n_train_items
        data["pricing_feeder_aware"] = pricing.feeder_aware

    lines = [
        f"fleet of {n_hubs} hubs x {days} days, "
        f"scheduler={scheduler_name}"
        + (f", scenario={resolved.name}" if resolved.name != "fleet" else ""),
        f"batched throughput {throughput:,.0f} hub-slots/sec "
        f"({hub_slots} hub-slots in {elapsed:.3f}s)",
    ]
    if shard_note is not None:
        lines.append(shard_note)
    lines += [
        f"network profit ${book.profit:,.0f}  (revenue ${book.charging_revenue:,.0f}"
        f" - operating ${book.operating_cost:,.0f}"
        + (f" - lost-load ${book.voll_cost:,.0f}" if voll > 0 else "")
        + ")",
        f"blackout slots {blackout_slots}, unserved "
        f"{book.total_unserved_kwh:.1f} kWh",
        f"per-hub daily reward: min {daily.mean(axis=1).min():.1f}  "
        f"median {np.median(daily.mean(axis=1)):.1f}  "
        f"max {daily.mean(axis=1).max():.1f}",
    ]
    if pricing is not None:
        share = pricing.discounted_hub_slots / max(n_hubs * horizon, 1)
        lines.append(
            f"pricing {pricing.policy}: {pricing.discounted_hub_slots} "
            f"discounted hub-slots ({100 * share:.1f}%) at level "
            f"{resolved.pricing.discount_level:g}"
            + (", feeder-aware" if pricing.feeder_aware else "")
        )
    if coupled:
        capacity = resolved.grid.feeder_capacity_kw
        profile = " (profiled)" if resolved.grid.capacity_profile else ""
        lines.append(
            f"shared grid: {feeders.n_feeders} feeders x "
            f"{capacity:,.0f} kW{profile} ({feeders.policy}); "
            f"curtailed {book.total_import_shortfall_kwh:,.1f} kWh over "
            f"{book.congested_feeder_slots} congested feeder-slots"
        )
    show = min(n_hubs, 12)
    for i in range(show):
        lines.append(
            f"  hub {hub_ids[i]:>3} ({kinds[i]:<5}) "
            f"profit ${profit[i]:>10,.1f}  avg daily {daily[i].mean():>7.1f}"
        )
    if n_hubs > show:
        lines.append(f"  ... ({n_hubs - show} more hubs)")

    result = ExperimentResult(
        experiment_id="fleet",
        title="Batched fleet simulation (network-scale scheduling)",
        data=data,
        lines=lines,
    )
    # Book the end-of-run aggregates the live engine hooks cannot see
    # (feeder-slot congestion rolls hub columns up per feeder).
    return _stamp_telemetry(
        result,
        telemetry,
        resolved,
        gauges={"engine.hub_slots_per_sec": throughput},
        counters={
            "engine.congested_feeder_slots": book.congested_feeder_slots,
            "engine.unserved_kwh": book.total_unserved_kwh,
            "runs": 1,
        },
    )


def _stamp_telemetry(
    result: ExperimentResult,
    telemetry: Telemetry | None,
    resolved: ScenarioSpec,
    *,
    gauges: Mapping[str, float] | None = None,
    counters: Mapping[str, float],
) -> ExperimentResult:
    """Book a finished run's closing metrics and snapshot the session.

    The shared tail of every entry point: without a session the result
    passes through untouched. Counters are deterministic; only the
    timings/gauges vary run to run. The recorded backend is the
    *resolved* one (a "numba" spec without the package records the numpy
    fallback it actually ran on).
    """
    if telemetry is None:
        return result
    for name, value in (gauges or {}).items():
        telemetry.metrics.set_gauge(name, value)
    for name, value in counters.items():
        telemetry.metrics.inc(name, value)
    telemetry.set_backend(get_backend(resolved.run.backend).name)
    result.telemetry = telemetry.to_dict()
    return result


def build_fleet_env(spec: ScenarioSpec | str, *, rng=None):
    """Compile a spec (or preset name) into ``(assembly, env)``.

    ``assembly`` is the :class:`~repro.spec.compiler.FleetAssembly`
    (scenarios, blackout masks, feeders, sizes) the environment was built
    from — not a :class:`~repro.spec.compiler.CompiledScenario`; the RL
    path skips the batched engine/scheduler, which the environment
    rebuilds per episode. ``env`` is the ready-to-train
    :class:`~repro.rl.fleet_env.FleetEnv`.
    """
    return _compile_fleet_env(resolve_spec(spec), rng=rng)


def train_fleet(
    spec: ScenarioSpec | str, *, telemetry: Telemetry | None = None
) -> ExperimentResult:
    """Train a parameter-shared PPO agent over a spec's batched fleet env.

    The schedule comes from the spec's ``rl`` section, run-scaled like
    the fleet itself: the (seeded) untrained policy is evaluated first,
    PPO trains for ``rl.train_episodes x run.scale`` episodes (floor 2)
    over ``(n_hubs,)`` action batches, and
    the trained policy is re-evaluated **on the same episode
    realisations** (a paired comparison; both evaluations run the
    stochastic policy, which is the policy PPO actually improves, with
    greedy-mode results reported alongside). The report carries the raw
    per-hub Eq. 12 episode returns, the training curve, and the
    environment-stepping throughput.
    """
    # Local import: repro.rl (and the nn stack under it) loads only when
    # a training run actually happens.
    from .rl.ppo import PpoAgent
    from .rl.training import evaluate_fleet_agent, train_fleet_ppo

    resolved = resolve_spec(spec)
    with optional_span(telemetry, "compile", scenario=resolved.name):
        assembly, env = _compile_fleet_env(resolved)
    rl = resolved.rl
    # run.scale shrinks the episode schedule along with the fleet and
    # horizon, so a --scale'd run is cheap end to end.
    train_episodes = scaled(rl.train_episodes, resolved.run.scale, minimum=2)
    eval_episodes = scaled(rl.eval_episodes, resolved.run.scale, minimum=1)
    seed = resolved.run.seed
    factory = RngFactory(seed=seed)
    agent = PpoAgent(
        env.state_dim(),
        env.action_space.n,
        ppo_config_from_spec(resolved),
        factory.stream("rl/agent"),
    )

    def paired_eval(greedy: bool) -> np.ndarray:
        # A fresh, identically-seeded episode stream per evaluation pass
        # keeps the before/after comparison on identical traces.
        env.reseed(RngFactory(seed=seed).stream("rl/eval"))
        with optional_span(telemetry, "eval", greedy=greedy):
            return evaluate_fleet_agent(
                env, agent, episodes=eval_episodes, greedy=greedy
            )

    untrained = paired_eval(greedy=False)
    untrained_greedy = paired_eval(greedy=True)

    env.reseed(factory.stream("rl/train"))
    start = time.perf_counter()
    with optional_span(telemetry, "train", episodes=train_episodes):
        agent, history = train_fleet_ppo(
            env, episodes=train_episodes, agent=agent, telemetry=telemetry
        )
    elapsed = time.perf_counter() - start
    hub_slots = train_episodes * env.episode_length * env.n_hubs
    throughput = hub_slots / elapsed if elapsed > 0 else float("inf")

    trained = paired_eval(greedy=False)
    trained_greedy = paired_eval(greedy=True)

    improvement = float(trained.mean() - untrained.mean())
    curve = history.mean_episode_returns
    # Wall-clock throughput stays out of `data` (printed below) so the
    # --out JSON is deterministic and diffable across PRs.
    data = {
        "scenario": resolved.name,
        "spec": resolved.to_dict(),
        "n_hubs": env.n_hubs,
        "days": assembly.days,
        "episode_days": env.episode_length // 24,
        "window_h": rl.window_h,
        "state_dim": env.state_dim(),
        "feeder_aware": env.feeder_aware,
        "train_episodes": train_episodes,
        "eval_episodes": eval_episodes,
        "untrained_mean_reward": float(untrained.mean()),
        "trained_mean_reward": float(trained.mean()),
        "improvement": improvement,
        "untrained_greedy_mean_reward": float(untrained_greedy.mean()),
        "trained_greedy_mean_reward": float(trained_greedy.mean()),
        "untrained_per_hub": untrained.mean(axis=0),
        "trained_per_hub": trained.mean(axis=0),
        "training_curve": curve,
        "final_entropy": history.update_stats[-1].entropy,
        "final_clip_fraction": history.update_stats[-1].clip_fraction,
    }
    lines = [
        f"fleet PPO: {env.n_hubs} hubs x {env.episode_length} slot episodes, "
        f"{train_episodes} training episodes"
        + (f", scenario={resolved.name}" if resolved.name != "train-fleet" else ""),
        f"state dim {env.state_dim()}"
        + (" (feeder-aware)" if env.feeder_aware else "")
        + f", one shared policy over ({env.n_hubs},) action batches",
        f"training throughput {throughput:,.0f} hub-slots/sec "
        f"({hub_slots} hub-slots in {elapsed:.2f}s, updates included)",
        f"mean episode reward (stochastic, paired episodes): "
        f"${untrained.mean():,.1f} untrained -> ${trained.mean():,.1f} trained "
        f"({improvement:+,.1f})",
        f"greedy-mode means: ${untrained_greedy.mean():,.1f} -> "
        f"${trained_greedy.mean():,.1f}",
        f"training curve (hub-mean return): first ${curve[0]:,.1f}, "
        f"best ${max(curve):,.1f}, last ${curve[-1]:,.1f}",
        f"final update: entropy {history.update_stats[-1].entropy:.3f}, "
        f"clip fraction {history.update_stats[-1].clip_fraction:.3f}",
    ]
    result = ExperimentResult(
        experiment_id="train-fleet",
        title="Fleet PPO training (batched ECT-DRL over the vectorized engine)",
        data=data,
        lines=lines,
    )
    return _stamp_telemetry(
        result,
        telemetry,
        resolved,
        gauges={"rl.train_hub_slots_per_sec": throughput},
        counters={
            "rl.train_episodes": train_episodes,
            "rl.train_transitions": hub_slots,
            "runs": 1,
        },
    )


def run_sweep(
    sweep: SweepSpec,
    *,
    jobs: int | None = None,
    chunk_size: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[ExperimentResult]:
    """Run every job of a sweep grid; each result carries its overrides.

    Results keep the ``fleet`` data layout, tagged with
    ``data["sweep_overrides"]`` and an indexed experiment id
    (``fleet[0]``, ``fleet[1]``, …) so a ``--out`` export of the whole
    sweep stays diffable job by job.

    ``jobs`` selects the executor: ``None`` or ``1`` runs the grid
    serially in-process (the default, byte-identical to always),
    ``N > 1`` fans the jobs out over ``N`` worker processes
    (:mod:`repro.parallel`), and ``0`` means one worker per available
    CPU (the affinity set where the platform reports one). Parallel
    results are re-ordered by job index and tagged identically, so
    serial and parallel sweeps produce byte-identical exports.
    ``chunk_size`` sets how many jobs ride in one worker task (default:
    ~4 chunks per worker) — bigger chunks amortise submit overhead and
    let the per-worker assembly cache hit across same-fleet jobs.

    With a ``telemetry`` session, each job runs under its own
    job-local session (in-process for serial, in-worker for parallel —
    per-worker records flow back through the result payloads) and is
    folded into the passed session in job-index order: counters add,
    traces nest under ``sweep-job`` spans. The aggregated counters are
    byte-identical between executors; per-job records additionally stay
    on each ``result.telemetry``.
    """
    from .parallel import resolve_jobs, run_jobs_parallel

    expanded = sweep.jobs()
    n_workers = resolve_jobs(jobs)
    log.debug(
        "expanding sweep", sweep=sweep.name, jobs=len(expanded), workers=n_workers
    )
    if n_workers > 1 and len(expanded) > 1:
        results = run_jobs_parallel(
            expanded,
            n_workers,
            with_telemetry=telemetry is not None,
            chunk_size=chunk_size,
        )
        if telemetry is not None:
            telemetry.set_workers(n_workers)
    else:
        results = [
            run(
                job.spec,
                telemetry=(
                    Telemetry(include_meta=False) if telemetry is not None else None
                ),
            )
            for job in expanded
        ]
    for job, result in zip(expanded, results):
        result.experiment_id = f"fleet[{job.index}]"
        result.data["sweep"] = sweep.name
        result.data["sweep_overrides"] = dict(job.overrides)
        if telemetry is not None:
            telemetry.absorb(result.telemetry, label="sweep-job", index=job.index)
    return results


#: Methods ``run_pricing`` compares when none are named: the no-discount
#: reference, the operators' evening heuristic, ECT-Price, and the three
#: uplift baselines — the Table III lineup plus the heuristic yardstick.
DEFAULT_PRICING_METHODS = ("none", "evening", "ours", "or", "ips", "dr")


def run_pricing(
    spec: ScenarioSpec | str,
    *,
    methods: tuple[str, ...] | list[str] | None = None,
    jobs: int | None = None,
    chunk_size: int | None = None,
    telemetry: Telemetry | None = None,
) -> ExperimentResult:
    """Compare discount policies over one fleet — Table III at city scale.

    Expands the spec into a ``pricing.policy`` sweep (one engine run per
    method, every other knob shared, so all methods price the *same*
    latent demand) and aggregates per-method network profit and average
    daily reward per hub. ``jobs`` fans the methods out over worker
    processes exactly like :func:`run_sweep` — byte-identical to serial.

    When the grid is capacity-limited and both ``ours`` and ``evening``
    run, the report adds the learned-vs-heuristic profit comparison under
    congestion (the feeder-aware pricing loop's acceptance measure).
    """
    resolved = resolve_spec(spec)
    methods = (
        tuple(methods) if methods is not None else DEFAULT_PRICING_METHODS
    )
    if not methods:
        raise ConfigError("run_pricing needs at least one method")
    for name in methods:
        if name not in PRICING_POLICIES:
            raise ConfigError(
                f"unknown pricing method {name!r}; "
                f"available: {', '.join(PRICING_POLICIES)}"
            )
    if len(set(methods)) != len(methods):
        raise ConfigError(f"duplicate pricing methods in {methods}")

    sweep = SweepSpec(
        base=resolved,
        parameters={"pricing.policy": methods},
        name=f"{resolved.name}-pricing",
    )
    results = run_sweep(
        sweep, jobs=jobs, chunk_size=chunk_size, telemetry=telemetry
    )

    table: dict[str, dict[str, object]] = {}
    for name, method_result in zip(methods, results):
        method_data = method_result.data
        table[name] = {
            "network_profit": method_data["network_profit"],
            "avg_daily_reward_per_hub": float(
                np.asarray(method_data["avg_daily_reward_per_hub"]).mean()
            ),
            "discounted_hub_slots": method_data.get(
                "pricing_discounted_hub_slots", 0
            ),
            "unserved_kwh": method_data["network_unserved_kwh"],
        }

    n_hubs = results[0].data["n_hubs"]
    days = results[0].data["days"]
    coupled = resolved.grid.feeder_capacity_kw is not None
    data = {
        "scenario": resolved.name,
        "spec": resolved.to_dict(),
        "n_hubs": n_hubs,
        "days": days,
        "methods": list(methods),
        "per_method": table,
        "discount_level": resolved.pricing.discount_level,
        "budget_fraction": resolved.pricing.budget_fraction,
        "feeder_capacity_kw": resolved.grid.feeder_capacity_kw,
        "feeder_aware": resolved.pricing.feeder_aware and coupled,
    }

    baseline = table.get("none")
    lines = [
        f"fleet pricing over {n_hubs} hubs x {days} days, "
        f"discount level {resolved.pricing.discount_level:g}, "
        f"budget {resolved.pricing.budget_fraction:g}"
        + (", feeder-aware" if data["feeder_aware"] else ""),
    ]
    for name in methods:
        row = table[name]
        delta = (
            ""
            if baseline is None or name == "none"
            else (
                f"  (vs none "
                f"{row['network_profit'] - baseline['network_profit']:+,.0f})"
            )
        )
        lines.append(
            f"  {name:<8} profit ${row['network_profit']:>12,.0f}  "
            f"avg daily/hub ${row['avg_daily_reward_per_hub']:>8,.1f}  "
            f"discounted {row['discounted_hub_slots']:>6}{delta}"
        )
    if coupled and "ours" in table and "evening" in table:
        ours = table["ours"]["network_profit"]
        heuristic = table["evening"]["network_profit"]
        lines.append(
            f"learned vs heuristic under congestion: ours ${ours:,.0f} vs "
            f"evening ${heuristic:,.0f} ({ours - heuristic:+,.0f})"
        )

    result = ExperimentResult(
        experiment_id="fleet-price",
        title="Fleet-scale discount pricing (Table III at city scale)",
        data=data,
        lines=lines,
    )
    return _stamp_telemetry(
        result, telemetry, resolved, counters={"pricing.methods": len(methods)}
    )
