"""Neural Collaborative Filtering (He et al., WWW'17) base model.

The paper uses NCF in two roles (§V-A): as the *labeler* that pre-trains on
charging records to split charged items into Always/Incentive strata, and as
the base model of every pricing method ("All the baselines and the two tasks
in ECT-Price use NCF as base models").

The architecture follows NeuMF: a GMF path (element-wise product of station
and time embeddings) in parallel with an MLP path (concatenated embeddings
through hidden layers), fused into one logit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..errors import ConfigError, NotFittedError
from .dataset import PricingDataset


@dataclass(frozen=True)
class NcfConfig:
    """Hyperparameters of an NCF tower.

    Defaults follow the paper's training setup (§V-A: Adam, lr 0.01, weight
    decay 1e-4, batch 64) at CPU-friendly widths.
    """

    embedding_dim: int = 8
    hidden_sizes: tuple[int, ...] = (32, 16)
    learning_rate: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ConfigError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigError("hidden sizes must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigError("batch_size and epochs must be positive")


def fit_minibatches(
    optimizer: nn.Optimizer,
    batch_loss: Callable[[np.ndarray], nn.Tensor],
    n_items: int,
    *,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> list[float]:
    """The minibatch loop every pricing model trains through.

    Each epoch draws one ``rng.permutation(n_items)``, and for each
    consecutive ``batch_size`` slice of it backpropagates
    ``batch_loss(indices)`` and steps ``optimizer``. Returns the per-epoch
    mean loss.
    """
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n_items)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_items, batch_size):
            loss = batch_loss(order[start : start + batch_size])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            n_batches += 1
        history.append(epoch_loss / max(n_batches, 1))
    return history


class NcfNetwork(nn.Module):
    """The NeuMF network: GMF ⊕ MLP over (station, time) embeddings."""

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig,
        rng: np.random.Generator,
        *,
        n_outputs: int = 1,
    ) -> None:
        super().__init__()
        dim = config.embedding_dim
        self.station_gmf = nn.Embedding(n_stations, dim, rng)
        self.time_gmf = nn.Embedding(n_time_ids, dim, rng)
        self.station_mlp = nn.Embedding(n_stations, dim, rng)
        self.time_mlp = nn.Embedding(n_time_ids, dim, rng)
        self.mlp = nn.MLP((2 * dim, *config.hidden_sizes), rng)
        fused = dim + config.hidden_sizes[-1]
        self.head = nn.Linear(fused, n_outputs, rng)

    def forward(self, station_ids: np.ndarray, time_ids: np.ndarray) -> nn.Tensor:
        """Raw logits of shape (batch, n_outputs)."""
        gmf = self.station_gmf(station_ids) * self.time_gmf(time_ids)
        mlp_in = nn.concat([self.station_mlp(station_ids), self.time_mlp(time_ids)], axis=1)
        mlp_out = self.mlp(mlp_in).relu()
        fused = nn.concat([gmf, mlp_out], axis=1)
        return self.head(fused)


class NcfRegressor:
    """An NCF tower trained on an arbitrary per-item target.

    Serves as the shared base learner for the OR / IPS / DR baselines:
    classification targets use a sigmoid + BCE head, continuous pseudo-
    outcomes (IPS / DR transformed outcomes) use a linear + MSE head.
    """

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig,
        rng: np.random.Generator,
        *,
        binary: bool = True,
    ) -> None:
        self.config = config
        self.binary = binary
        self.network = NcfNetwork(n_stations, n_time_ids, config, rng)
        self._optimizer = nn.Adam(
            self.network.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self._rng = rng
        self._fitted = False

    def fit(
        self,
        station_ids: np.ndarray,
        time_ids: np.ndarray,
        targets: np.ndarray,
        *,
        sample_weight: np.ndarray | None = None,
    ) -> list[float]:
        """Train; returns the per-epoch mean loss trajectory."""
        station_ids = np.asarray(station_ids, dtype=int)
        time_ids = np.asarray(time_ids, dtype=int)
        targets = np.asarray(targets, dtype=float).reshape(-1, 1)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float).reshape(-1, 1)

        history = fit_minibatches(
            self._optimizer,
            lambda idx: self._batch_loss(
                station_ids[idx],
                time_ids[idx],
                targets[idx],
                None if sample_weight is None else sample_weight[idx],
            ),
            len(station_ids),
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            rng=self._rng,
        )
        self._fitted = True
        return history

    def _batch_loss(
        self,
        stations: np.ndarray,
        times: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray | None,
    ) -> nn.Tensor:
        logits = self.network(stations, times)
        if self.binary:
            if weights is None:
                return nn.bce_with_logits(logits, nn.Tensor(targets))
            probs = logits.sigmoid().clip(1e-7, 1.0 - 1e-7)
            t = nn.Tensor(targets)
            w = nn.Tensor(weights)
            losses = -(t * probs.log() + (1.0 - t) * (1.0 - probs).log())
            return (losses * w).mean()
        diff = logits - nn.Tensor(targets)
        squared = diff * diff
        if weights is not None:
            squared = squared * nn.Tensor(weights)
        return squared.mean()

    def predict(self, station_ids: np.ndarray, time_ids: np.ndarray) -> np.ndarray:
        """Predicted probability (binary) or value (regression), shape (n,)."""
        if not self._fitted:
            raise NotFittedError("NcfRegressor.predict called before fit")
        self.network.eval()
        logits = self.network(np.asarray(station_ids, dtype=int), np.asarray(time_ids, dtype=int))
        self.network.train()
        values = logits.sigmoid() if self.binary else logits
        return values.numpy().reshape(-1).copy()


def pretrain_rating_model(
    dataset: PricingDataset,
    config: NcfConfig,
    rng: np.random.Generator,
) -> NcfRegressor:
    """Pre-train an NCF on charged/not-charged — the paper's labeler (§V-A)."""
    model = NcfRegressor(
        dataset.n_stations, dataset.n_time_ids, config, rng, binary=True
    )
    model.fit(dataset.station_ids, dataset.time_ids, dataset.charged)
    return model
