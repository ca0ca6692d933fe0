"""Temporal-convolutional 2D-to-3D pose encoder.

Width-3 convolutions with a x3 dilation schedule reduce the time axis from
F to exactly 1, so the sequence length must be a power of three (9, 27, 81,
243). Block 1 is applied twice with shared weights: once valid (feeding the
deeper blocks) and once zero-padded to keep all F frames, which provides
the full-length shallow feature tap that downstream consumers difference
over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError
from .layers import BatchNorm, Linear
from .tensor import Parameter, Tensor


KERNEL_WIDTH = 3     # temporal kernel of every TCN block, encoder and projector


def blocks_for_frames(frames: int) -> int:
    blocks = round(np.log(frames) / np.log(KERNEL_WIDTH)) if frames > 1 else 0
    if blocks < 2 or KERNEL_WIDTH ** blocks != frames:
        raise ConfigError(
            f"unsupported sequence length {frames}; supported: [9, 27, 81, 243]")
    return blocks


@dataclass
class EncoderConfig:
    frames: int
    joints: int
    channels: int = 16

    @property
    def blocks(self) -> int:
        return blocks_for_frames(self.frames)


@dataclass
class EncoderOutput:
    z0: Tensor              # (B, F, C) shallow features, full time extent
    zd: Tensor              # (B, 1, C) final features
    taps: list[Tensor] = field(default_factory=list)  # per-block features, 1-based

    def tap(self, layer: int) -> Tensor:
        if not 1 <= layer <= len(self.taps):
            raise ConfigError(f"tap layer {layer} out of range 1..{len(self.taps)}")
        return self.taps[layer - 1]


class TcnBlock:
    """Dilated conv + BN + ReLU, pointwise conv + BN + ReLU, plus a residual
    from the (time-cropped) block input."""

    def __init__(self, name: str, channels: int, dilation: int,
                 rng: np.random.Generator):
        bound = 1.0 / np.sqrt(KERNEL_WIDTH * channels)
        self.conv = Parameter(f"{name}.conv", rng.uniform(
            -bound, bound, size=(KERNEL_WIDTH, channels, channels)))
        self.conv_bias = Parameter(f"{name}.conv_bias",
                                   rng.uniform(-bound, bound, size=channels))
        self.bn1 = BatchNorm(f"{name}.bn1", channels)
        bound_pw = 1.0 / np.sqrt(channels)
        self.pointwise = Parameter(f"{name}.pointwise",
                                   rng.uniform(-bound_pw, bound_pw, size=(1, channels, channels)))
        self.pointwise_bias = Parameter(f"{name}.pointwise_bias",
                                        rng.uniform(-bound_pw, bound_pw, size=channels))
        self.bn2 = BatchNorm(f"{name}.bn2", channels)
        self.dilation = dilation

    def __call__(self, x: Tensor, training: bool, padding: str = "valid",
                 update_stats: bool = True) -> Tensor:
        h = ops.dilated_conv1d(x, self.conv.tensor, dilation=self.dilation,
                               bias=self.conv_bias.tensor, padding=padding)
        h = self.bn1(h, training=training, update_stats=update_stats).relu()
        h = ops.dilated_conv1d(h, self.pointwise.tensor, dilation=1,
                               bias=self.pointwise_bias.tensor)
        h = self.bn2(h, training=training, update_stats=update_stats).relu()
        if padding == "valid":
            crop = self.dilation * (KERNEL_WIDTH - 1) // 2
            residual = x[:, crop:x.shape[1] - crop, :]
        else:
            residual = x
        return residual + h

    def parameters(self) -> list[Parameter]:
        return ([self.conv, self.conv_bias, self.pointwise, self.pointwise_bias]
                + self.bn1.parameters() + self.bn2.parameters())


class TcnEncoder:
    """Stacked dilated-convolution encoder exposing per-block taps.

    tap 1 is the full-length shallow feature z0 (B, F, C); deeper taps follow
    the valid-convolution time reduction down to zd (B, 1, C).
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, name: str = "encoder"):
        self.cfg = cfg
        blocks = cfg.blocks
        self.input_proj = Linear(f"{name}.input_proj", 2 * cfg.joints, cfg.channels, rng)
        self.blocks = [
            TcnBlock(f"{name}.block{b}", cfg.channels, KERNEL_WIDTH ** (b - 1), rng)
            for b in range(1, blocks + 1)
        ]

    def forward(self, x: Tensor, training: bool) -> EncoderOutput:
        """x: (B, F, J, 2) -> EncoderOutput."""
        batch, frames, joints, _ = x.shape
        if frames != self.cfg.frames or joints != self.cfg.joints:
            raise ConfigError(
                f"input ({frames} frames, {joints} joints) does not match encoder "
                f"config ({self.cfg.frames} frames, {self.cfg.joints} joints)")
        h = self.input_proj(x.reshape(batch, frames, 2 * joints))  # (B, F, C)
        first = self.blocks[0]
        z0 = first(h, training=training, padding="same", update_stats=False)
        h = first(h, training=training, padding="valid")
        taps = [z0]
        for block in self.blocks[1:]:
            h = block(h, training=training)
            taps.append(h)
        return EncoderOutput(z0=z0, zd=taps[-1], taps=taps)

    def parameters(self) -> list[Parameter]:
        params = self.input_proj.parameters()
        for block in self.blocks:
            params += block.parameters()
        return params
