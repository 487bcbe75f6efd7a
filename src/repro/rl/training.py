"""Training and evaluation loops for ECT-DRL over :class:`FleetEnv`.

Every DRL run — the Table III / Fig. 13 per-(hub, method) agents, the
scheduler ablations, and ``train-fleet`` — trains through
:func:`train_fleet_ppo`; a one-hub study is the ``n_hubs=1`` case. The
paper trains for 500 episodes and tests for 100 (§V-C); these loops take
the episode counts as parameters so benches can run a reduced schedule
while paper-scale remains one config away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..fleet.schedulers import FleetScheduler
from ..telemetry import optional_span
from .buffer import FleetRolloutBuffer
from .fleet_env import FleetEnv
from .ppo import PpoAgent, PpoConfig, UpdateStats


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


def evaluate_daily_rewards(
    env: FleetEnv,
    policy: PpoAgent | FleetScheduler,
    *,
    episodes: int,
) -> np.ndarray:
    """Daily Eq. 12 rewards, shape ``(episodes, n_hubs, days)``.

    ``policy`` is a trained :class:`PpoAgent`, acting greedily on the
    Eq. 24 observations, or a :mod:`repro.fleet.schedulers` baseline run
    on each episode's engine. Either way an episode's rewards are its
    cost book's :meth:`~repro.fleet.costs.FleetCostBook.daily_rewards` —
    the Fig. 13 series, whose mean is the Table III cell.
    """
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    rewards = []
    for _ in range(episodes):
        states = env.reset()
        if isinstance(policy, PpoAgent):
            done = False
            while not done:
                states, _, done, _ = env.step(policy.greedy_actions(states))
        else:
            env.simulation.run(policy)
        rewards.append(env.simulation.book.daily_rewards())
    return np.stack(rewards)
