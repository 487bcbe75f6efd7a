"""Actor-critic network for ECT-DRL (paper Fig. 10).

All state inputs are concatenated and fed into a shared fully-connected
layer, which then feeds both the actor (3-way softmax over the battery
actions) and the critic (scalar value) — exactly the topology of Fig. 10.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..errors import ModelError


class ActorCritic(nn.Module):
    """Shared-trunk actor-critic on :mod:`repro.nn`."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        rng: np.random.Generator,
        *,
        hidden_sizes: tuple[int, ...] = (64, 64),
    ) -> None:
        super().__init__()
        if state_dim <= 0 or n_actions <= 1:
            raise ModelError(
                f"state_dim must be positive and n_actions > 1, got "
                f"({state_dim}, {n_actions})"
            )
        if not hidden_sizes:
            raise ModelError("hidden_sizes must be non-empty")
        self.trunk = nn.MLP((state_dim, *hidden_sizes), rng, output_activation=nn.Tanh)
        self.actor_head = nn.Linear(hidden_sizes[-1], n_actions, rng)
        self.critic_head = nn.Linear(hidden_sizes[-1], 1, rng)
        # Small policy-head init keeps the initial policy near uniform.
        self.actor_head.weight.data *= 0.01
        self.n_actions = n_actions

    def forward(self, states: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
        """(policy logits, value estimates) for a batch of states."""
        x = nn.Tensor(np.atleast_2d(np.asarray(states, dtype=float)))
        features = self.trunk(x)
        return self.actor_head(features), self.critic_head(features)

    # ------------------------------------------------------------------ #
    # Acting                                                               #
    # ------------------------------------------------------------------ #

    def act_batch(
        self, states: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one action per row of ``states`` in a single forward pass.

        Returns ``(actions, log_probs, values)``, each shaped ``(n,)``.
        Sampling is inverse-CDF over the row-wise softmax (one uniform
        draw per row), so the whole fleet acts on one network evaluation.
        """
        logits, values = self.forward(states)
        log_probs = logits.log_softmax(axis=-1).numpy()
        probs = np.exp(log_probs)
        draws = rng.random((probs.shape[0], 1))
        # Softmax rows sum to 1 up to float error; the clamp covers a
        # cumsum landing fractionally below a draw at the top edge.
        actions = np.minimum(
            (probs.cumsum(axis=1) < draws).sum(axis=1), self.n_actions - 1
        ).astype(int)
        taken = log_probs[np.arange(len(actions)), actions]
        return actions, taken, values.numpy().reshape(-1)

    def greedy_actions(self, states: np.ndarray) -> np.ndarray:
        """Row-wise argmax actions (batched evaluation mode)."""
        logits, _ = self.forward(states)
        return np.argmax(logits.numpy(), axis=1).astype(int)

    def evaluate_actions(
        self, states: np.ndarray, actions: np.ndarray
    ) -> tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        """(log-probs of taken actions, values, entropy) with gradients."""
        logits, values = self.forward(states)
        log_probs = logits.log_softmax(axis=-1)
        taken = log_probs.select_columns(np.asarray(actions, dtype=int))
        probs = log_probs.exp()
        entropy = -(probs * log_probs).sum(axis=-1).mean()
        batch = values.shape[0]
        return taken, values.reshape(batch), entropy
