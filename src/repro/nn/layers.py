"""Layers: Linear, Embedding, activations, Dropout, Sequential, MLP.

Every layer takes an explicit RNG for weight init so model construction is
deterministic under :class:`repro.rng.RngFactory`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ModelError
from . import init
from .autograd import Tensor, ensure_tensor
from .module import Module


class Linear(Module):
    """Affine map ``y = x W + b`` with ``W`` of shape (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        bias: bool = True,
        initializer: Callable[[tuple[int, ...], np.random.Generator], np.ndarray] = init.he_uniform,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ModelError(
                f"Linear dims must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(initializer((in_features, out_features), rng), requires_grad=True)
        self.bias = Tensor(init.zeros((out_features,)), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        *,
        std: float = 0.05,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ModelError(
                f"Embedding dims must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            init.normal((num_embeddings, embedding_dim), rng, std=std), requires_grad=True
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=int)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ModelError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return self.weight.gather_rows(ids)


class ReLU(Module):
    """Rectified linear activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).relu()


class Tanh(Module):
    """Hyperbolic tangent activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).tanh()


class Sigmoid(Module):
    """Logistic sigmoid activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).sigmoid()


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ModelError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(float) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]

    def __len__(self) -> int:
        return len(self.steps)


class MLP(Module):
    """Multi-layer perceptron with a uniform hidden activation.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(8, 64, 64, 3)``.
    activation:
        Hidden activation factory (default :class:`ReLU`).
    output_activation:
        Optional activation applied after the final linear layer.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        *,
        activation: Callable[[], Module] = ReLU,
        output_activation: Callable[[], Module] | None = None,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ModelError(f"MLP needs at least input and output sizes, got {sizes}")
        steps: list[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            initializer = init.xavier_uniform if last else init.he_uniform
            steps.append(Linear(fan_in, fan_out, rng, initializer=initializer))
            if not last:
                steps.append(activation())
        if output_activation is not None:
            steps.append(output_activation())
        self.body = Sequential(*steps)

    def forward(self, x) -> Tensor:
        return self.body(x)
