"""Training and evaluation loops for ECT-DRL.

The paper trains for 500 episodes and tests for 100 (§V-C); these loops
take the episode counts as parameters so benches can run a reduced
schedule (documented in EXPERIMENTS.md) while paper-scale remains one
config away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..telemetry import optional_span
from .buffer import FleetRolloutBuffer, RolloutBuffer
from .env import EctHubEnv
from .fleet_env import FleetEnv
from .ppo import PpoAgent, PpoConfig, UpdateStats
from .schedulers import Scheduler


@dataclass
class TrainingHistory:
    """Per-episode returns and update diagnostics."""

    episode_returns: list[float] = field(default_factory=list)
    update_stats: list[UpdateStats] = field(default_factory=list)

    @property
    def best_return(self) -> float:
        """Highest raw episode return seen during training."""
        if not self.episode_returns:
            raise ModelError("no episodes recorded")
        return max(self.episode_returns)


def train_ppo(
    env: EctHubEnv,
    *,
    episodes: int,
    config: PpoConfig | None = None,
    rng: np.random.Generator | None = None,
    agent: PpoAgent | None = None,
) -> tuple[PpoAgent, TrainingHistory]:
    """Train a PPO agent on one hub environment.

    One PPO update per episode (the 720-slot episode is the rollout).
    Returns the trained agent and the training history (raw Eq. 12
    returns, not reward-scaled).
    """
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    agent = agent or PpoAgent(
        env.state_dim(), env.action_space.n, config, rng
    )
    buffer = RolloutBuffer(env.episode_length, env.state_dim())
    history = TrainingHistory()

    for _ in range(episodes):
        state = env.reset()
        episode_return = 0.0
        done = False
        while not done:
            action, log_prob, value = agent.act(state)
            next_state, reward, done, info = env.step(action)
            buffer.add(state, action, log_prob, value, reward, done)
            episode_return += info["reward_raw"]
            state = next_state
        stats = agent.update(buffer, last_value=0.0)
        history.episode_returns.append(episode_return)
        history.update_stats.append(stats)
    return agent, history


def evaluate_agent(
    env: EctHubEnv,
    agent: PpoAgent,
    *,
    episodes: int,
    greedy: bool = True,
) -> np.ndarray:
    """Daily Eq. 12 rewards over evaluation episodes, shape (episodes, days)."""
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    days = env.config.episode_days
    rewards = np.zeros((episodes, days))
    for e in range(episodes):
        state = env.reset()
        done = False
        while not done:
            action = (
                agent.greedy_action(state) if greedy else agent.act(state)[0]
            )
            state, _, done, _ = env.step(action)
        daily = env.simulation.book.daily_rewards()
        rewards[e, : len(daily)] = daily
    return rewards


@dataclass
class FleetTrainingHistory:
    """Per-episode fleet returns and update diagnostics."""

    episode_returns: list[np.ndarray] = field(default_factory=list)
    update_stats: list[UpdateStats] = field(default_factory=list)

    @property
    def mean_episode_returns(self) -> list[float]:
        """Hub-averaged raw Eq. 12 return per training episode."""
        if not self.episode_returns:
            raise ModelError("no episodes recorded")
        return [float(returns.mean()) for returns in self.episode_returns]

    @property
    def best_mean_return(self) -> float:
        """Highest hub-averaged episode return seen during training."""
        return max(self.mean_episode_returns)


def train_fleet_ppo(
    env: FleetEnv,
    *,
    episodes: int,
    config: PpoConfig | None = None,
    rng: np.random.Generator | None = None,
    agent: PpoAgent | None = None,
    telemetry=None,
) -> tuple[PpoAgent, FleetTrainingHistory]:
    """Train one parameter-shared PPO agent over a batched fleet env.

    Every slot contributes ``n_hubs`` transitions through a single
    forward pass; one PPO update runs per episode over the whole
    ``episode_length x n_hubs`` rollout, with GAE computed per hub.
    Returns the agent and the history of per-hub raw episode returns.

    ``telemetry`` (a :class:`~repro.telemetry.session.Telemetry`, or
    ``None``) records per-episode rollout time, a ``ppo-update`` span per
    update, and the update diagnostics (reward mean/std, losses, KL,
    entropy) — the training half of the RunTelemetry record.
    """
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    agent = agent or PpoAgent(env.state_dim(), env.action_space.n, config, rng)
    buffer = FleetRolloutBuffer(env.episode_length, env.n_hubs, env.state_dim())
    history = FleetTrainingHistory()

    for episode in range(episodes):
        rollout_start = time.perf_counter()
        states = env.reset()
        episode_returns = np.zeros(env.n_hubs)
        done = False
        while not done:
            actions, log_probs, values = agent.act_batch(states)
            next_states, rewards, done, info = env.step(actions)
            buffer.add(states, actions, log_probs, values, rewards, done)
            episode_returns += info["reward_raw"]
            states = next_states
        if telemetry is not None:
            telemetry.metrics.add_time(
                "rl.rollout", time.perf_counter() - rollout_start
            )
        with optional_span(telemetry, "ppo-update", episode=episode):
            stats = agent.update(buffer, last_value=0.0)
        if telemetry is not None:
            telemetry.record_rl_update(
                reward_mean=float(episode_returns.mean()),
                reward_std=float(episode_returns.std()),
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                approx_kl=stats.approx_kl,
                clip_fraction=stats.clip_fraction,
            )
        history.episode_returns.append(episode_returns)
        history.update_stats.append(stats)
    return agent, history


def evaluate_fleet_agent(
    env: FleetEnv,
    agent: PpoAgent,
    *,
    episodes: int,
    greedy: bool = True,
) -> np.ndarray:
    """Raw Eq. 12 episode returns per hub, shape ``(episodes, n_hubs)``."""
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    returns = np.zeros((episodes, env.n_hubs))
    for e in range(episodes):
        states = env.reset()
        done = False
        while not done:
            actions = (
                agent.greedy_actions(states)
                if greedy
                else agent.act_batch(states)[0]
            )
            states, _, done, info = env.step(actions)
            returns[e] += info["reward_raw"]
    return returns


def evaluate_scheduler(
    env: EctHubEnv,
    scheduler: Scheduler,
    *,
    episodes: int,
) -> np.ndarray:
    """Daily rewards for a rule-based scheduler on the same environment."""
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    days = env.config.episode_days
    rewards = np.zeros((episodes, days))
    action_map = {0: 0, 1: 1, -1: 2}
    for e in range(episodes):
        env.reset()
        scheduler.reset()
        done = False
        while not done:
            sbp = scheduler(env.simulation)
            _, _, done, _ = env.step(action_map[int(sbp)])
        daily = env.simulation.book.daily_rewards()
        rewards[e, : len(daily)] = daily
    return rewards
