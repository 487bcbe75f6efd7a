"""Benchmark: batched FleetEnv stepping vs a loop of one-hub FleetEnvs.

Steps the same action stream through one :class:`repro.rl.FleetEnv`
episode over N hubs (one fused-kernel step + one observation assembly
per slot for all hubs) and through N independent ``n_hubs=1``
:class:`~repro.rl.FleetEnv` instances — the shape the per-hub scheduling
studies (Table III, Fig. 13, the ablations) run — reporting
hub-slots/sec; a second section times the full PPO training loop
(batched acting + per-hub GAE + minibatch updates) over the fleet
environment. Reports persist to ``reports/fleet-env.{txt,json}`` so the
fleet-RL throughput trajectory is tracked across PRs. Guard: the batched
environment is at least 3x the one-hub loop (relaxed under
``ECT_PERF_RELAXED`` / scaled runs).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_scale, perf_relaxed, write_perf_report
from repro.config import replace
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.rl import EnvConfig, FleetEnv, train_fleet_ppo
from repro.rng import RngFactory
from repro.synth.charging import ChargingConfig

#: Fleet size pinned like the engine bench; the horizon scales instead.
N_HUBS = 24


def test_bench_fleet_env_throughput():
    scale = bench_scale(1.0)
    scenario_days = max(int(round(20 * scale)), 4)
    episode_days = max(int(round(5 * scale)), 2)
    n_hours = scenario_days * 24
    episode_h = episode_days * 24

    factory = RngFactory(seed=0)
    scenario_config = ScenarioConfig(
        n_hours=n_hours,
        charging=replace(ChargingConfig(), n_stations=N_HUBS),
    )
    scenarios = build_fleet_scenarios(scenario_config, factory, n_hubs=N_HUBS)
    behavior = fleet_behavior_model(scenario_config, factory)
    env_config = EnvConfig(episode_days=episode_days)
    schedule = np.zeros(n_hours)

    actions = np.random.default_rng(7).integers(
        0, 3, size=(episode_h, N_HUBS)
    )

    fleet_env = FleetEnv(
        scenarios,
        behavior,
        schedule,
        config=env_config,
        rng=RngFactory(seed=1).stream("bench/fleet"),
    )
    fleet_env.reset()
    start = time.perf_counter()
    for t in range(episode_h):
        fleet_env.step(actions[t])
    batched_s = time.perf_counter() - start

    one_hub_envs = [
        FleetEnv(
            [scenario],
            behavior,
            schedule,
            config=env_config,
            rng=RngFactory(seed=1).stream(f"bench/one-hub/{i}"),
        )
        for i, scenario in enumerate(scenarios)
    ]
    for env in one_hub_envs:
        env.reset()
    start = time.perf_counter()
    for t in range(episode_h):
        for i, env in enumerate(one_hub_envs):
            env.step(actions[t, i : i + 1])
    looped_s = time.perf_counter() - start

    hub_slots = N_HUBS * episode_h
    batched_rate = hub_slots / batched_s
    looped_rate = hub_slots / looped_s
    speedup = batched_rate / looped_rate

    # Full training loop: batched acting, env stepping, and PPO updates.
    train_env = FleetEnv(
        scenarios,
        behavior,
        schedule,
        config=env_config,
        rng=RngFactory(seed=2).stream("bench/train"),
    )
    train_episodes = 3
    start = time.perf_counter()
    train_fleet_ppo(
        train_env, episodes=train_episodes, rng=RngFactory(seed=2).stream("a")
    )
    train_s = time.perf_counter() - start
    train_rate = train_episodes * hub_slots / train_s

    report = "\n".join(
        [
            "== fleet-env: batched RL environment throughput ==",
            f"workload: {N_HUBS} hubs x {episode_h}-slot episodes "
            f"({hub_slots} hub-slots/episode), random actions",
            f"batched env  {batched_rate:>12,.0f} hub-slots/sec  ({batched_s:.3f}s)",
            f"one-hub loop {looped_rate:>12,.0f} hub-slots/sec  ({looped_s:.3f}s)  "
            f"({N_HUBS} x FleetEnv(n_hubs=1))",
            f"speedup      {speedup:>12.1f}x",
            f"PPO training {train_rate:>12,.0f} hub-slots/sec  "
            f"({train_episodes} episodes incl. updates in {train_s:.3f}s)",
        ]
    )
    write_perf_report(
        "fleet-env",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "episode_slots": episode_h,
                "hub_slots_per_episode": hub_slots,
                "train_episodes": train_episodes,
            },
            "batched_hub_slots_per_sec": batched_rate,
            "looped_hub_slots_per_sec": looped_rate,
            "speedup": speedup,
            "training_hub_slots_per_sec": train_rate,
        },
    )
    print("\n" + report)

    # The batched env must actually batch: one kernel step per slot.
    assert fleet_env.simulation.book.n_recorded == episode_h
    if not perf_relaxed():
        assert speedup >= 3.0, report
