"""Rollout storage and Generalised Advantage Estimation for PPO.

:class:`FleetRolloutBuffer` stores ``(T, n_envs)`` batches from the
batched :class:`~repro.rl.fleet_env.FleetEnv`, runs GAE(λ) **per hub**
(vectorized over the hub axis), and exposes the flattened
``(T·n_envs, …)`` views the PPO update consumes — so one
parameter-shared policy trains on every hub's transitions with a single
optimiser. A one-hub study is the ``n_envs=1`` case.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


class FleetRolloutBuffer:
    """On-policy storage for ``n_envs`` hubs stepped in lockstep.

    One :meth:`add` call appends a whole ``(n_envs,)`` transition batch
    (the fleet environment's per-slot output). GAE(λ) (the ``Â_t`` of
    Eq. 25) runs per hub — every hub's advantage stream is exactly what
    an ``n_envs=1`` buffer holding that hub alone computes, vectorized
    across the hub axis — and normalisation spans the full ``T·n_envs``
    pool, which is also the pool :meth:`minibatches` shuffles over. The
    flat column properties (``states``, ``actions``, …) order transitions
    time-major (slot 0's hubs first), matching the ``(T, n_envs)``
    storage reshape.
    """

    def __init__(self, capacity: int, n_envs: int, state_dim: int) -> None:
        if capacity <= 0 or n_envs <= 0 or state_dim <= 0:
            raise ModelError("capacity, n_envs, and state_dim must be positive")
        self.capacity = capacity
        self.n_envs = n_envs
        self._states = np.zeros((capacity, n_envs, state_dim))
        self._actions = np.zeros((capacity, n_envs), dtype=int)
        self._log_probs = np.zeros((capacity, n_envs))
        self._values = np.zeros((capacity, n_envs))
        self._rewards = np.zeros((capacity, n_envs))
        self._dones = np.zeros((capacity, n_envs), dtype=bool)
        self._advantages = np.zeros((capacity, n_envs))
        self._returns = np.zeros((capacity, n_envs))
        self._size = 0
        self._finalized = False

    def __len__(self) -> int:
        """Number of stored transitions across all hubs."""
        return self._size * self.n_envs

    @property
    def full(self) -> bool:
        """Whether the buffer has reached its slot capacity."""
        return self._size >= self.capacity

    def add(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        log_probs: np.ndarray,
        values: np.ndarray,
        rewards: np.ndarray,
        dones: bool | np.ndarray,
    ) -> None:
        """Append one slot's ``(n_envs,)`` transition batch."""
        if self.full:
            raise ModelError(
                f"fleet rollout buffer capacity {self.capacity} exceeded"
            )
        if np.shape(states) != self._states.shape[1:]:
            raise ModelError(
                f"states must have shape {self._states.shape[1:]}, "
                f"got {np.shape(states)}"
            )
        for name, column in (
            ("actions", actions),
            ("log_probs", log_probs),
            ("values", values),
            ("rewards", rewards),
        ):
            if np.shape(column) != (self.n_envs,):
                raise ModelError(
                    f"{name} must have shape ({self.n_envs},), "
                    f"got {np.shape(column)}"
                )
        if np.shape(dones) not in ((), (self.n_envs,)):
            raise ModelError(
                f"dones must be a scalar or have shape ({self.n_envs},), "
                f"got {np.shape(dones)}"
            )
        i = self._size
        self._states[i] = states
        self._actions[i] = actions
        self._log_probs[i] = log_probs
        self._values[i] = values
        self._rewards[i] = rewards
        self._dones[i] = dones
        self._size += 1
        self._finalized = False

    def compute_advantages(
        self,
        last_value: float | np.ndarray,
        *,
        gamma: float = 0.99,
        gae_lambda: float = 0.95,
        normalize: bool = True,
    ) -> None:
        """Per-hub GAE(λ) over the stored slots.

        ``last_value`` bootstraps beyond the final stored slot — a scalar
        (shared) or an ``(n_envs,)`` array of per-hub critic values; hubs
        whose final slot terminated bootstrap zero regardless.
        """
        if not 0.0 < gamma <= 1.0 or not 0.0 <= gae_lambda <= 1.0:
            raise ModelError(f"invalid gamma/lambda: {gamma}, {gae_lambda}")
        n = self._size
        if n == 0:
            raise ModelError("compute_advantages on an empty buffer")
        last = np.broadcast_to(
            np.asarray(last_value, dtype=float), (self.n_envs,)
        )

        gae = np.zeros(self.n_envs)
        for t in reversed(range(n)):
            live = ~self._dones[t]
            next_value = (
                np.where(live, last, 0.0)
                if t == n - 1
                else np.where(live, self._values[t + 1], 0.0)
            )
            delta = self._rewards[t] + gamma * next_value - self._values[t]
            gae = delta + gamma * gae_lambda * np.where(live, gae, 0.0)
            self._advantages[t] = gae
        self._returns[:n] = self._advantages[:n] + self._values[:n]

        if normalize and n * self.n_envs > 1:
            adv = self._advantages[:n]
            self._advantages[:n] = (adv - adv.mean()) / (adv.std() + 1e-8)
        self._finalized = True

    # Flat (T·n_envs, …) views consumed by the PPO minibatch update.
    @property
    def states(self) -> np.ndarray:
        """Stored states, flattened time-major."""
        return self._states[: self._size].reshape(len(self), -1)

    @property
    def actions(self) -> np.ndarray:
        """Stored actions, flattened time-major."""
        return self._actions[: self._size].reshape(-1)

    @property
    def log_probs(self) -> np.ndarray:
        """Stored behaviour log-probs, flattened time-major."""
        return self._log_probs[: self._size].reshape(-1)

    @property
    def advantages(self) -> np.ndarray:
        """GAE advantages, flattened time-major."""
        return self._advantages[: self._size].reshape(-1)

    @property
    def returns(self) -> np.ndarray:
        """Discounted returns, flattened time-major."""
        return self._returns[: self._size].reshape(-1)

    @property
    def values(self) -> np.ndarray:
        """Stored critic values, flattened time-major."""
        return self._values[: self._size].reshape(-1)

    @property
    def rewards(self) -> np.ndarray:
        """Stored rewards, flattened time-major."""
        return self._rewards[: self._size].reshape(-1)

    @property
    def dones(self) -> np.ndarray:
        """Stored done flags, flattened time-major."""
        return self._dones[: self._size].reshape(-1)

    def minibatches(self, batch_size: int, rng: np.random.Generator):
        """Yield shuffled index arrays over the flattened transition pool."""
        if not self._finalized:
            raise ModelError("call compute_advantages before minibatches")
        if batch_size <= 0:
            raise ModelError(f"batch_size must be positive, got {batch_size}")
        order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            yield order[start : start + batch_size]

    def clear(self) -> None:
        """Reset for the next rollout."""
        self._size = 0
        self._finalized = False
