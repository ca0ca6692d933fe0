"""Parameterized building blocks: linear maps, norms, attention, feed-forward.

Each layer keeps its named Parameters (full dotted paths) as attributes,
which its ops take as tensors and `tensor.named_parameters` finds. Weights
are built trainable; a module that freezes some (the text encoder) clears
their `requires_grad` after building them.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Parameter, Tensor


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, stream-id...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream)))


def linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear:
    def __init__(self, name: str, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.weight = Parameter(f"{name}.weight", linear_init(rng, fan_in, fan_out))
        bound = 1.0 / np.sqrt(fan_in)
        self.bias = Parameter(f"{name}.bias", rng.uniform(-bound, bound, size=fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNorm:
    def __init__(self, name: str, dim: int):
        self.gain = Parameter(f"{name}.gain", np.ones(dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gain, self.bias)


class BatchNorm:
    """Per-channel batch norm parameters, applied by `ops.conv_bn_relu`;
    running stats ride along as frozen parameters so checkpoints capture
    them."""

    def __init__(self, name: str, dim: int):
        self.gain = Parameter(f"{name}.gain", np.ones(dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(dim))
        self.running_mean = Parameter(f"{name}.running_mean", np.zeros(dim),
                                      requires_grad=False)
        self.running_var = Parameter(f"{name}.running_var", np.ones(dim),
                                     requires_grad=False)


class CrossAttention:
    """Single-head attention with query/key/value/output projections."""

    def __init__(self, name: str, dim: int, rng: np.random.Generator):
        self.q = Linear(f"{name}.q", dim, dim, rng)
        self.k = Linear(f"{name}.k", dim, dim, rng)
        self.v = Linear(f"{name}.v", dim, dim, rng)
        self.out = Linear(f"{name}.out", dim, dim, rng)

    def __call__(self, queries: Tensor, keys_values: Tensor) -> Tensor:
        attended = ops.scaled_dot_attention(self.q(queries),
                                            self.k(keys_values),
                                            self.v(keys_values))
        return self.out(attended)


class FeedForward:
    """Two-layer MLP with ReLU, hidden width `4 * dim`."""

    def __init__(self, name: str, dim: int, rng: np.random.Generator):
        self.fc1 = Linear(f"{name}.fc1", dim, 4 * dim, rng)
        self.fc2 = Linear(f"{name}.fc2", 4 * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())
