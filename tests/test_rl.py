"""Tests for the ECT-DRL stack: env, buffer, PPO, schedulers, oracle.

Every study runs the batched :class:`FleetEnv`; the one-hub cases here
are its ``n_hubs=1`` form, and the ``HubSimulation`` reference policies
are driven on a :class:`~repro.hub.simulation.HubSimulation` directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, EnvError, ModelError
from repro.fleet import FleetIdleScheduler
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.hub.scenario import resolve_occupancy
from repro.rl import (
    ActorCritic,
    Box,
    Discrete,
    EnvConfig,
    FleetEnv,
    FleetRolloutBuffer,
    GreedyRenewableScheduler,
    IdleScheduler,
    PpoAgent,
    PpoConfig,
    RandomScheduler,
    RuleBasedScheduler,
    evaluate_daily_rewards,
    optimal_schedule,
    train_fleet_ppo,
)
from repro.rng import RngFactory

#: One-hub action vectors.
IDLE, CHARGE = np.array([0]), np.array([1])


@pytest.fixture(scope="module")
def env_setup():
    factory = RngFactory(seed=21)
    config = ScenarioConfig(n_hours=24 * 40)
    scenario = build_fleet_scenarios(config, factory)[0]
    behavior = fleet_behavior_model(config, factory)
    return factory, scenario, behavior


@pytest.fixture()
def env(env_setup):
    factory, scenario, behavior = env_setup
    return FleetEnv(
        [scenario],
        behavior,
        np.zeros(scenario.n_hours),
        config=EnvConfig(episode_days=5),
        rng=factory.stream("env-test"),
    )


@pytest.fixture()
def hub_sim(env_setup):
    """A HubSimulation over the scenario for the reference policies."""
    _, scenario, _ = env_setup
    n = scenario.n_hours
    return scenario.simulation(np.zeros(n, dtype=int), np.zeros(n))


def add_transition(buffer, state, action, log_prob, value, reward, done):
    """Append one transition to an ``n_envs=1`` buffer."""
    buffer.add(
        np.asarray(state, dtype=float).reshape(1, -1),
        np.array([action]),
        np.array([log_prob]),
        np.array([value]),
        np.array([reward]),
        done,
    )


class TestSpaces:
    def test_discrete(self, rng):
        space = Discrete(3)
        assert space.contains(2) and not space.contains(3)
        assert space.sample(rng) in (0, 1, 2)

    def test_discrete_invalid(self):
        with pytest.raises(EnvError):
            Discrete(0)

    def test_box(self):
        box = Box(low=-1.0, high=1.0, shape=(3,))
        assert box.contains(np.zeros(3))
        assert not box.contains(np.full(3, 2.0))

    def test_box_invalid_bounds(self):
        with pytest.raises(EnvError):
            Box(low=1.0, high=0.0, shape=(2,))


class TestEnv:
    def test_reset_returns_state(self, env):
        state = env.reset()
        assert state.shape == (1, env.state_dim())
        assert env.state_dim() == 5 * 24 + 1

    def test_episode_runs_to_done(self, env):
        env.reset()
        steps = 0
        done = False
        while not done:
            _, reward, done, info = env.step(IDLE)
            assert np.all(np.isfinite(reward))
            assert "reward_raw" in info
            steps += 1
        assert steps == env.episode_length == 5 * 24

    def test_reward_scaling(self, env):
        env.reset()
        _, scaled_reward, _, info = env.step(IDLE)
        assert scaled_reward[0] == pytest.approx(
            info["reward_raw"][0] / env.config.reward_scale
        )

    def test_soc_in_state_tracks_battery(self, env):
        state = env.reset()
        capacity = env.params.capacity_kwh[0]
        assert state[0, -1] == pytest.approx(env.simulation.soc_kwh[0] / capacity)
        state, _, _, _ = env.step(CHARGE)
        assert state[0, -1] == pytest.approx(env.simulation.soc_kwh[0] / capacity)

    def test_schedule_length_validated(self, env_setup):
        factory, scenario, behavior = env_setup
        with pytest.raises(EnvError):
            FleetEnv([scenario], behavior, np.zeros(10))

    def test_outage_mask_reaches_simulation(self, env_setup):
        """Regression: reset() must not silently drop the blackout mask.

        The episode inputs are rebuilt after slicing; a field-by-field
        reconstruction that discarded ``outage`` would mean the env never
        trained on blackouts even when given a mask.
        """
        factory, scenario, behavior = env_setup
        outage = np.ones(scenario.n_hours, dtype=bool)
        env = FleetEnv(
            [scenario],
            behavior,
            np.zeros(scenario.n_hours),
            config=EnvConfig(episode_days=2),
            rng=factory.stream("outage-test"),
            outage=outage,
        )
        env.reset()
        sim_outage = env.simulation.inputs.outage
        assert sim_outage is not None
        assert sim_outage.shape == (1, env.episode_length)
        assert sim_outage.all()
        _, _, _, info = env.step(CHARGE)
        columns = info["columns"]
        assert columns["blackout"][0]
        assert columns["p_grid_kw"][0] == 0.0 and columns["revenue"][0] == 0.0

    def test_outage_mask_length_validated(self, env_setup):
        factory, scenario, behavior = env_setup
        with pytest.raises(EnvError):
            FleetEnv(
                [scenario],
                behavior,
                np.zeros(scenario.n_hours),
                outage=np.ones(10, dtype=bool),
            )

    def test_windows_edge_padded_for_both_trace_lengths(self, env):
        """Windows clamp against the trace they are given.

        The SRTP window reads the episode-length trace, the other
        features the scenario-length traces; both must yield exactly
        ``window_h`` values with edge padding past the end.
        """
        env.reset()
        w = env.config.window_h
        episode_trace = env._obs_srtp
        assert episode_trace.shape == (1, env.episode_length)
        near_end = env._windows(episode_trace, env.episode_length - 1)
        assert near_end.shape == (1, w)
        assert np.all(near_end == episode_trace[:, -1:])

        scenario_trace = env._obs_rtp
        n_hours = env.scenarios[0].n_hours
        at_horizon = env._windows(scenario_trace, n_hours - 1)
        assert at_horizon.shape == (1, w)
        assert np.all(at_horizon == scenario_trace[:, -1:])
        # Interior windows are untouched slices of the trace.
        interior = env._windows(episode_trace, 0)
        assert np.array_equal(interior, episode_trace[:, :w])

    def test_discounts_increase_occupancy(self, env_setup):
        """Evening discounts attract Incentive cells => more occupied slots."""
        factory, scenario, behavior = env_setup
        hours = np.arange(scenario.n_hours) % 24
        evening = np.where(hours >= 18, 0.2, 0.0)
        occupancies = {}
        for name, schedule in (("none", np.zeros(scenario.n_hours)), ("evening", evening)):
            env = FleetEnv(
                [scenario], behavior, schedule,
                config=EnvConfig(episode_days=20, random_initial_soc=False),
                rng=factory.stream("occ-test"),
            )
            env.reset()
            done = False
            total = 0
            while not done:
                _, _, done, info = env.step(IDLE)
                total += info["columns"]["p_cs_kw"][0] > 0
            occupancies[name] = total
        assert occupancies["evening"] > occupancies["none"]


class TestBuffer:
    """GAE on the per-hub reference: a ``FleetRolloutBuffer(n_envs=1)``."""

    def test_add_and_capacity(self):
        buffer = FleetRolloutBuffer(2, 1, 3)
        add_transition(buffer, np.zeros(3), 0, 0.0, 0.0, 1.0, False)
        add_transition(buffer, np.zeros(3), 1, 0.0, 0.0, 1.0, True)
        assert buffer.full
        with pytest.raises(ModelError):
            add_transition(buffer, np.zeros(3), 0, 0.0, 0.0, 1.0, False)

    def test_gae_matches_hand_computation(self):
        buffer = FleetRolloutBuffer(3, 1, 1)
        rewards = [1.0, 0.0, 2.0]
        values = [0.5, 0.4, 0.3]
        for r, v in zip(rewards, values):
            add_transition(buffer, np.zeros(1), 0, 0.0, v, r, False)
        gamma, lam = 0.9, 0.8
        buffer.compute_advantages(
            last_value=0.2, gamma=gamma, gae_lambda=lam, normalize=False
        )
        deltas = [
            rewards[0] + gamma * values[1] - values[0],
            rewards[1] + gamma * values[2] - values[1],
            rewards[2] + gamma * 0.2 - values[2],
        ]
        a2 = deltas[2]
        a1 = deltas[1] + gamma * lam * a2
        a0 = deltas[0] + gamma * lam * a1
        assert buffer.advantages[:3] == pytest.approx([a0, a1, a2])
        assert buffer.returns[:3] == pytest.approx(
            [a0 + values[0], a1 + values[1], a2 + values[2]]
        )

    def test_done_cuts_bootstrap(self):
        buffer = FleetRolloutBuffer(2, 1, 1)
        add_transition(buffer, np.zeros(1), 0, 0.0, 0.0, 1.0, True)
        add_transition(buffer, np.zeros(1), 0, 0.0, 0.0, 1.0, True)
        buffer.compute_advantages(last_value=100.0, normalize=False)
        assert buffer.advantages[0] == pytest.approx(1.0)

    def test_minibatches_require_finalize(self, rng):
        buffer = FleetRolloutBuffer(4, 1, 1)
        add_transition(buffer, np.zeros(1), 0, 0.0, 0.0, 1.0, False)
        with pytest.raises(ModelError):
            list(buffer.minibatches(2, rng))

    def test_normalized_advantages(self, rng):
        buffer = FleetRolloutBuffer(8, 1, 1)
        for i in range(8):
            add_transition(buffer, np.zeros(1), 0, 0.0, 0.0, float(i), i == 7)
        buffer.compute_advantages(0.0)
        adv = buffer.advantages[:8]
        assert abs(adv.mean()) < 1e-9
        assert adv.std() == pytest.approx(1.0, abs=1e-6)


class TestActorCriticAndPpo:
    def test_forward_shapes(self, rng):
        net = ActorCritic(6, 3, rng)
        logits, values = net.forward(np.zeros((4, 6)))
        assert logits.shape == (4, 3) and values.shape == (4, 1)

    def test_act_returns_valid(self, rng):
        net = ActorCritic(6, 3, rng)
        actions, log_probs, values = net.act_batch(np.zeros((1, 6)), rng)
        assert actions.shape == log_probs.shape == values.shape == (1,)
        assert actions[0] in (0, 1, 2)
        assert log_probs[0] <= 0.0
        assert np.isfinite(values[0])

    def test_evaluate_actions_gradients_flow(self, rng):
        net = ActorCritic(4, 3, rng)
        log_probs, values, entropy = net.evaluate_actions(
            np.zeros((5, 4)), np.array([0, 1, 2, 1, 0])
        )
        loss = -log_probs.mean() + values.mean() + entropy
        loss.backward()
        assert any(p.grad is not None for p in net.parameters())

    def test_ppo_learns_bandit(self, rng):
        """PPO should learn to pick the rewarded action in a trivial bandit."""
        agent = PpoAgent(2, 3, PpoConfig(learning_rate=0.01), rng)
        buffer = FleetRolloutBuffer(64, 1, 2)
        states = np.ones((1, 2))
        for _ in range(30):
            for _ in range(64):
                actions, log_probs, values = agent.act_batch(states)
                rewards = (actions == 2).astype(float)
                buffer.add(states, actions, log_probs, values, rewards, True)
            agent.update(buffer)
        counts = np.bincount(agent.act_batch(np.ones((100, 2)))[0], minlength=3)
        assert counts[2] > 60

    def test_update_stats_fields(self, rng):
        agent = PpoAgent(2, 3, PpoConfig(), rng)
        buffer = FleetRolloutBuffer(8, 1, 2)
        states = np.zeros((1, 2))
        for i in range(8):
            actions, log_probs, values = agent.act_batch(states)
            buffer.add(states, actions, log_probs, values, np.ones(1), i == 7)
        stats = agent.update(buffer)
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.entropy > 0
        assert len(buffer) == 0  # cleared after update

    def test_invalid_ppo_config(self):
        with pytest.raises(ModelError):
            PpoConfig(clip_epsilon=1.5)


class TestSchedulersAndTraining:
    def test_schedulers_return_valid_actions(self, hub_sim, factory):
        for scheduler in (
            IdleScheduler(),
            RandomScheduler(factory.stream("rs")),
            RuleBasedScheduler(),
            GreedyRenewableScheduler(),
        ):
            scheduler.reset()
            action = scheduler(hub_sim)
            assert action in (-1, 0, 1)

    def test_rule_based_charges_cheap_discharges_expensive(self, hub_sim):
        scheduler = RuleBasedScheduler()
        scheduler.reset()
        prices = hub_sim.inputs.rtp_kwh
        hub_sim._t = int(np.argmin(prices))
        assert scheduler(hub_sim) == 1
        hub_sim._t = int(np.argmax(prices))
        assert scheduler(hub_sim) == -1

    def test_train_and_evaluate_smoke(self, env, factory):
        agent, history = train_fleet_ppo(env, episodes=2, rng=factory.stream("t"))
        assert len(history.episode_returns) == 2
        daily = evaluate_daily_rewards(env, agent, episodes=1)
        assert daily.shape == (1, 1, 5)
        assert np.all(np.isfinite(daily))
        # The daily series is the last episode's cost-book rollup.
        assert np.array_equal(daily[-1], env.simulation.book.daily_rewards())

    def test_evaluate_scheduler_smoke(self, env):
        daily = evaluate_daily_rewards(env, FleetIdleScheduler(), episodes=2)
        assert daily.shape == (2, 1, 5)
        assert np.array_equal(daily[-1], env.simulation.book.daily_rewards())
        assert (env.simulation.book.action == 0).all()

    def test_invalid_episode_counts(self, env, factory):
        with pytest.raises(ModelError):
            train_fleet_ppo(env, episodes=0)
        agent = PpoAgent(env.state_dim(), 3, rng=factory.stream("a"))
        with pytest.raises(ModelError):
            evaluate_daily_rewards(env, agent, episodes=0)


class TestDpOracle:
    def _inputs(self, env_setup, n=48):
        factory, scenario, behavior = env_setup
        strata = behavior.sample_strata(0, np.arange(n), factory.stream("or"))
        occupied = resolve_occupancy(strata, np.zeros(n, dtype=int))
        full_occ = np.concatenate(
            [occupied, np.zeros(scenario.n_hours - n, dtype=int)]
        )
        return scenario, scenario.inputs_with_occupancy(
            full_occ, np.zeros(scenario.n_hours)
        ).slice(0, n)

    def test_oracle_beats_every_heuristic(self, env_setup):
        scenario, inputs = self._inputs(env_setup)
        oracle = optimal_schedule(scenario.build_hub(), inputs, n_soc_levels=21)
        from repro.hub.simulation import HubSimulation

        for policy in (lambda s: 0, lambda s: 1, lambda s: -1, lambda s: [1, -1][s.t % 2]):
            sim = HubSimulation(scenario.build_hub(), inputs, initial_soc_fraction=0.5)
            book = sim.run(policy)
            assert oracle.total_reward >= book.profit - 1e-6

    def test_oracle_schedule_is_feasible(self, env_setup):
        scenario, inputs = self._inputs(env_setup)
        oracle = optimal_schedule(scenario.build_hub(), inputs, n_soc_levels=21)
        from repro.hub.simulation import HubSimulation

        sim = HubSimulation(scenario.build_hub(), inputs, initial_soc_fraction=0.5)
        book = sim.run(lambda s: int(oracle.actions[s.t]))
        # Executing the oracle schedule in the real engine lands close to
        # the oracle value (exact up to SoC-grid snapping).
        assert book.profit == pytest.approx(oracle.total_reward, rel=0.05, abs=5.0)

    def test_oracle_rejects_outages(self, env_setup):
        scenario, inputs = self._inputs(env_setup, n=24)
        bad = type(inputs)(
            load_rate=inputs.load_rate,
            rtp_kwh=inputs.rtp_kwh,
            pv_power_kw=inputs.pv_power_kw,
            wt_power_kw=inputs.wt_power_kw,
            occupied=inputs.occupied,
            discount=inputs.discount,
            outage=np.ones(24, dtype=bool),
        )
        with pytest.raises(ConfigError):
            optimal_schedule(scenario.build_hub(), bad)
