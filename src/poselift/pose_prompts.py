"""Per-action pose prompts and the decoder that refines the final pose feature.

One learnable (L, C) prompt slice per action; the slice matching the sample's
label (ground truth while training, predicted at inference) is attended by
the final pose feature, one query token, in a transformer-decoder block
whose self-attention is therefore its value path. The refined feature
enters through a per-channel residual scale initialized to zero, so an
untrained module leaves the feature untouched.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError
from .layers import CrossAttention, FeedForward, LayerNorm, Linear
from .tensor import Parameter, Tensor


class PosePromptBank:
    """Learnable prompts, shape (K, L, C)."""

    def __init__(self, num_actions: int, prompts_per_action: int, channels: int,
                 rng: np.random.Generator):
        self.prompts = Parameter(
            "app.prompts",
            rng.normal(scale=0.02, size=(num_actions, prompts_per_action, channels)))


def select_prompts(bank: PosePromptBank, labels) -> Tensor:
    """Pick each sample's prompt slice: labels (B,) -> (B, L, C).

    A scalar label yields a single (L, C) slice. Gradients reach only the
    selected slices.
    """
    labels = np.asarray(labels)
    k = bank.prompts.shape[0]
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError(f"action label out of range [0, {k}): {labels}")
    return bank.prompts[labels]


class DecoderBlock:
    """Pre-norm decoder block over one query token: self-attention, which a
    softmax over one key (exactly 1) makes bitwise its value path
    `out(v(ln1(query)))`, then cross-attention into the prompts and
    feed-forward. q and k would get zero gradients and are not built; their
    initial values are still drawn and discarded, so later draws are unchanged."""

    def __init__(self, name: str, channels: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(f"{name}.ln1", channels)
        rng.uniform(size=2 * (channels * channels + channels))   # q's and k's draws
        self.v = Linear(f"{name}.self_attn.v", channels, channels, rng)
        self.out = Linear(f"{name}.self_attn.out", channels, channels, rng)
        self.ln2 = LayerNorm(f"{name}.ln2", channels)
        self.cross_attn = CrossAttention(f"{name}.cross_attn", channels, rng)
        self.ln3 = LayerNorm(f"{name}.ln3", channels)
        self.ffn = FeedForward(f"{name}.ffn", channels, rng)

    def __call__(self, query: Tensor, memory: Tensor) -> Tensor:
        query = query + self.out(self.v(self.ln1(query)))
        query = query + self.cross_attn(self.ln2(query), memory)
        return query + self.ffn(self.ln3(query))


class PosePromptRefiner:
    """zd (B, 1, C) + selected prompts (B, L, C) -> refined (B, 1, C)."""

    def __init__(self, channels: int, rng: np.random.Generator, blocks: int = 1):
        self.blocks = [DecoderBlock(f"app.decoder{b}", channels, rng)
                       for b in range(1, blocks + 1)]
        self.gamma = Parameter("app.gamma", np.zeros(channels))

    def __call__(self, zd: Tensor, selected: Tensor) -> Tensor:
        channels = self.gamma.shape[0]
        if zd.shape[-2:] != (1, channels) or selected.shape[-1] != channels:
            raise DimensionError(
                f"shape mismatch: zd {zd.shape}, prompts {selected.shape}, "
                f"refiner expects one query token of C={channels}")
        h = zd
        for block in self.blocks:
            h = block(h, selected)
        return zd + self.gamma * h


class OutputHead:
    """Linear map from the refined feature to the 3D pose (B, J, 3).

    `output_scale` fixes the units of the affine map (weights stay O(1) for
    the optimizer while targets live in dataset units).
    """

    def __init__(self, channels: int, joints: int, rng: np.random.Generator,
                 output_scale: float = 100.0):
        self.output_scale = output_scale
        self.out = Linear("head.out", channels, joints * 3, rng)

    def __call__(self, z_bar_d: Tensor) -> Tensor:
        batch = z_bar_d.shape[0]
        flat = self.out(z_bar_d.reshape(batch, -1)) * self.output_scale
        return flat.reshape(batch, -1, 3)
