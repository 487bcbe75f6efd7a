"""Proximal Policy Optimization — the ECT-DRL learner (Eqs. 25–28).

Implements the clipped surrogate objective

``L_clip = Ê[ min(r_t Â_t, clip(r_t, 1−ε, 1+ε) Â_t) ]``           (Eq. 25)

with ``r_t`` the new/old policy probability ratio (Eq. 26), plus the value
MSE term with coefficient ``c`` (Eq. 27). Parameters follow the paper's
§V-A training setup (Adam, lr 1e-3, weight decay 1e-4, batch 64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..errors import ModelError
from .buffer import FleetRolloutBuffer
from .networks import ActorCritic


@dataclass(frozen=True)
class PpoConfig:
    """PPO hyperparameters.

    ``clip_epsilon`` is Eq. 25's ε; ``value_coef`` is Eq. 27's ``c``;
    ``entropy_coef`` adds the standard exploration bonus (0 disables it).
    """

    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    update_epochs: int = 4
    batch_size: int = 64
    max_grad_norm: float = 0.5
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ModelError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}")
        if not 0.0 < self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ModelError("invalid gamma / gae_lambda")
        if self.value_coef < 0 or self.entropy_coef < 0:
            raise ModelError("coefficients must be non-negative")
        if self.update_epochs <= 0 or self.batch_size <= 0:
            raise ModelError("update_epochs and batch_size must be positive")
        if self.max_grad_norm <= 0:
            raise ModelError("max_grad_norm must be positive")


@dataclass
class UpdateStats:
    """Diagnostics from one PPO update.

    ``approx_kl`` is the standard first-order estimator
    ``E[log π_old − log π_new]`` averaged over minibatches — the drift
    diagnostic telemetry reports per update (≈0 means the clipped
    objective barely moved the policy).
    """

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float = 0.0


class PpoAgent:
    """The ECT-DRL agent: an actor-critic trained with PPO."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        config: PpoConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or PpoConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.network = ActorCritic(
            state_dim, n_actions, self._rng, hidden_sizes=self.config.hidden_sizes
        )
        self._optimizer = nn.Adam(
            self.network.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )

    # ------------------------------------------------------------------ #
    # Acting                                                               #
    # ------------------------------------------------------------------ #

    def act_batch(
        self, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``(actions, log_probs, values)`` for a batch of states.

        One forward pass serves the whole fleet — the hub axis is batch
        parallelism through the shared policy.
        """
        return self.network.act_batch(states, self._rng)

    def greedy_actions(self, states: np.ndarray) -> np.ndarray:
        """Deterministic actions for a batch of states (evaluation)."""
        return self.network.greedy_actions(states)

    # ------------------------------------------------------------------ #
    # Learning (Eqs. 25–28)                                                #
    # ------------------------------------------------------------------ #

    def update(
        self,
        buffer: FleetRolloutBuffer,
        *,
        last_value: float | np.ndarray = 0.0,
    ) -> UpdateStats:
        """One PPO update over a filled :class:`FleetRolloutBuffer`.

        GAE runs per hub; ``last_value`` bootstraps beyond the final
        stored slot — a scalar, or an ``(n_envs,)`` per-hub array.
        """
        cfg = self.config
        buffer.compute_advantages(
            last_value, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda
        )
        total_policy, total_value, total_entropy, total_clipped = 0.0, 0.0, 0.0, 0.0
        total_kl = 0.0
        n_batches = 0

        for _ in range(cfg.update_epochs):
            for idx in buffer.minibatches(cfg.batch_size, self._rng):
                states = buffer.states[idx]
                actions = buffer.actions[idx]
                old_log_probs = buffer.log_probs[idx]
                advantages = buffer.advantages[idx]
                returns = buffer.returns[idx]

                new_log_probs, values, entropy = self.network.evaluate_actions(
                    states, actions
                )
                ratio = (new_log_probs - nn.Tensor(old_log_probs)).exp()
                adv = nn.Tensor(advantages)
                unclipped = ratio * adv
                clipped = ratio.clip(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * adv
                policy_loss = -unclipped.minimum(clipped).mean()

                value_loss = nn.mse_loss(values, nn.Tensor(returns))
                loss = (
                    policy_loss
                    + cfg.value_coef * value_loss
                    - cfg.entropy_coef * entropy
                )

                self._optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.network.parameters(), cfg.max_grad_norm)
                self._optimizer.step()

                ratios = ratio.numpy()
                total_clipped += float(
                    (np.abs(ratios - 1.0) > cfg.clip_epsilon).mean()
                )
                # E[log π_old − log π_new] = E[−log r]; ratios are
                # exp(new − old) so positive by construction.
                total_kl += float(-np.log(ratios).mean())
                total_policy += policy_loss.item()
                total_value += value_loss.item()
                total_entropy += entropy.item()
                n_batches += 1

        buffer.clear()
        denom = max(n_batches, 1)
        return UpdateStats(
            policy_loss=total_policy / denom,
            value_loss=total_value / denom,
            entropy=total_entropy / denom,
            clip_fraction=total_clipped / denom,
            approx_kl=total_kl / denom,
        )
