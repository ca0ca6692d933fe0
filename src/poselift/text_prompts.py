"""Action-text prompting: learnable prompt assembly, a frozen text encoder,
the action projector, pose-to-text enrichment, and the cosine classifier.

The text encoder is a small randomly initialized transformer whose weights
are frozen at construction; only the final projection trains. Gradients
still flow through the frozen layers back into the prompt vectors. After
training, the per-action embeddings are exported so inference never touches
the encoder again.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .config import check_range
from .errors import SequenceTooShortError
from .layers import CrossAttention, FeedForward, LayerNorm, Linear
from .tensor import Parameter, Tensor, concat, named_parameters
from .encoder import TcnBlock


class TextPromptBank:
    """Shared learnable context vectors plus one class token per action."""

    def __init__(self, num_actions: int, context_tokens: int, channels: int,
                 rng: np.random.Generator):
        self.context = Parameter("atp.context",
                                 rng.normal(scale=0.02, size=(context_tokens, channels)))
        self.class_tokens = Parameter("atp.class_tokens",
                                      rng.normal(scale=0.02, size=(num_actions, channels)))


def assemble_prompts(bank: TextPromptBank) -> Tensor:
    """Per action: N shared context rows followed by that action's class token.

    -> (K, N+1, C)
    """
    k = bank.class_tokens.shape[0]
    n, c = bank.context.shape
    ctx = bank.context.reshape(1, n, c).broadcast_to((k, n, c))
    cls = bank.class_tokens.reshape(k, 1, c)
    return concat([ctx, cls], axis=1)


class FrozenTextEncoder:
    """Two pre-norm transformer layers (frozen) plus a trainable projection.

    `forward_calls` counts invocations so the inference path can be audited
    for never touching the encoder.
    """

    def __init__(self, sequence_length: int, channels: int, rng: np.random.Generator,
                 layers: int = 2):
        self.pos = Parameter("atp.text_encoder.pos",
                             rng.normal(scale=0.02, size=(sequence_length, channels)))
        self.layers = []
        for i in range(layers):
            self.layers.append({
                "ln1": LayerNorm(f"atp.text_encoder.layer{i}.ln1", channels),
                "attn": CrossAttention(f"atp.text_encoder.layer{i}.attn", channels, rng),
                "ln2": LayerNorm(f"atp.text_encoder.layer{i}.ln2", channels),
                "ffn": FeedForward(f"atp.text_encoder.layer{i}.ffn", channels, rng),
            })
        self.ln_final = LayerNorm("atp.text_encoder.ln_final", channels)
        self.proj = Parameter("atp.text_encoder.proj",
                              np.eye(channels) + rng.normal(scale=0.02, size=(channels, channels)))
        # The one trainable piece is the final text projection.
        for p in named_parameters(self).values():
            p.requires_grad = p is self.proj
        self.forward_calls = 0

    def forward(self, prompts: Tensor) -> Tensor:
        """(K, S, C) prompt sequences -> (K, C) embeddings at the last position."""
        self.forward_calls += 1
        x = prompts + self.pos
        for layer in self.layers:
            normed = layer["ln1"](x)
            x = x + layer["attn"](normed, normed)
            x = x + layer["ffn"](layer["ln2"](x))
        x = self.ln_final(x)
        last = x[:, -1, :]                      # class-token position
        return last @ self.proj


class ActionProjector:
    """Map shallow pose features (B, F', C) to one action feature (B, C):
    `blocks` dilation-1 TCN blocks with "same" padding, so any length down to
    a single frame works, then temporal mean pooling."""

    def __init__(self, channels: int, rng: np.random.Generator, blocks: int = 2):
        self.blocks = [
            TcnBlock(f"proj.block{b}", channels, dilation=1, rng=rng)
            for b in range(1, blocks + 1)
        ]
        self.out = Linear("proj.out", channels, channels, rng)

    def __call__(self, z: Tensor, training: bool) -> Tensor:
        h = z
        for block in self.blocks:
            h = block(h, training=training, padding="same")
        pooled = h.mean(axis=-2)                # (B, C)
        return self.out(pooled)


class LabelHead:
    """Plain multi-task classifier: action feature -> K logits."""

    def __init__(self, channels: int, num_actions: int, rng: np.random.Generator):
        self.out = Linear("labelhead.out", channels, num_actions, rng)

    def __call__(self, action_feature: Tensor) -> Tensor:
        return ops.softmax(self.out(action_feature))


def first_order_motion(z0: Tensor) -> Tensor:
    """Neighbor-frame differences along the time axis: (..., F, C) -> (..., F-1, C)."""
    frames = z0.shape[-2]
    if frames < 2:
        raise SequenceTooShortError(f"need at least 2 frames to difference, got {frames}")
    return z0[..., 1:, :] - z0[..., :-1, :]


class PoseToText:
    """Enrich text embeddings with pose velocity via cross attention.

    Keys/values are the shallow features concatenated with their first-order
    motion; the residual is scaled by a scalar initialized to zero, so at
    initialization the output equals the input exactly.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.attn = CrossAttention("p2t.attn", channels, rng)
        self.beta = Parameter("p2t.beta", np.zeros(()))

    def __call__(self, t: Tensor, z0: Tensor) -> Tensor:
        """t: (K, C) text embeddings, z0: (B, F, C) -> (B, K, C)."""
        batch = z0.shape[0]
        k, c = t.shape
        z_bar = concat([z0, first_order_motion(z0)], axis=1)   # (B, 2F-1, C)
        queries = t.reshape(1, k, c).broadcast_to((batch, k, c))
        enhanced = self.attn(queries, z_bar)
        return queries + self.beta * enhanced


def classify(t_bar: Tensor, action_feature: Tensor, tau: float) -> Tensor:
    """Softmax over cosine similarities between embeddings and the action feature.

    t_bar: (B, K, C) or (K, C); action_feature: (B, C) or (C,) -> (B, K) or (K,).
    """
    check_range("atp.tau", tau)
    squeeze = action_feature.ndim == 1
    a = action_feature.reshape(1, -1) if squeeze else action_feature
    t3 = t_bar.reshape(1, *t_bar.shape) if t_bar.ndim == 2 else t_bar
    batch, channels = a.shape
    y = ops.cosine_softmax(t3, a.reshape(batch, 1, channels), tau)  # (B, K)
    return y.reshape(-1) if squeeze else y
