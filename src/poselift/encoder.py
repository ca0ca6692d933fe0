"""Temporal-convolutional 2D-to-3D pose encoder.

Width-3 convolutions with a x3 dilation schedule reduce the time axis from
F to exactly 1, so the sequence length must be a power of three (9, 27, 81,
243). Block 1 zero-padded keeps all F frames: z0, the full-length shallow
feature that downstream consumers difference over time.

A block is two TCN units, `ops.conv_bn_relu` (temporal conv, batch norm,
ReLU), the first dilated and the second pointwise, plus a residual. Each
unit is one graph node, one body for both modes, that slices its taps from
its input's values and keeps neither its conv nor its batch-norm output.
Training normalizes with batch statistics and eval with running ones; a
unit that builds no graph (`forward_eval`) writes its output over its own
conv output.

Block 1 runs once in both modes, and block 2 reads its valid frames,
z0[:, 1:-1]; in training, block 1's batch statistics thus cover all F
frames. Training runs every later block over all its valid frames, because
batch norm's batch statistics depend on all of them.
Eval normalizes with running statistics, so every block is pointwise around
its convolutions and computes only the frames the centre output reads:

- blocks up to the tap layer b keep their full extent, because the action
  projector pools the tap over time;
- after block b, the centre output reads only every 3**b-th frame of
  block b's valid output, so every later block runs as an undilated
  stride-3 conv on such a compact array. At F=243 and b=1 that is
  27 + 9 + 3 + 1 output frames instead of the 241 + 235 + 217 + 163 + 1 of
  the valid path, with bitwise the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError
from .layers import BatchNorm, Linear
from .tensor import Parameter, Tensor


KERNEL_WIDTH = 3     # temporal kernel of every TCN block, encoder and projector
# The supported sequence lengths: each block shrinks the time axis threefold,
# so F frames take log3(F) blocks, from 2 blocks at F=9 to 5 at F=243.
SUPPORTED_FRAMES = (9, 27, 81, 243)


def blocks_for_frames(frames: int) -> int:
    if frames not in SUPPORTED_FRAMES:
        raise ConfigError(
            f"unsupported sequence length {frames}; supported: {list(SUPPORTED_FRAMES)}")
    return SUPPORTED_FRAMES.index(frames) + 2


@dataclass
class EncoderOutput:
    z0: Tensor              # (B, F, C) shallow features, full time extent
    tap: Tensor             # (B, F', C) block `tap_layer`'s features: z0 at 1, else valid
    zd: Tensor              # (B, 1, C) final features


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
        bound_pw = 1.0 / np.sqrt(channels)
        self.pointwise = Parameter(f"{name}.pointwise",
                                   rng.uniform(-bound_pw, bound_pw, size=(1, channels, channels)))
        self.pointwise_bias = Parameter(f"{name}.pointwise_bias",
                                        rng.uniform(-bound_pw, bound_pw, size=channels))
        self.bn1 = BatchNorm(f"{name}.bn1", channels)
        self.bn2 = BatchNorm(f"{name}.bn2", channels)
        self.dilation = dilation

    def __call__(self, x: Tensor, training: bool, padding: str = "valid",
                 compact: bool = False) -> Tensor:
        """`compact`: x holds only every `dilation`-th frame of the block's
        valid input, so the dilated conv is an undilated stride-3 one and the
        output holds every (3 * dilation)-th frame of the valid output."""
        dilation, stride = (1, KERNEL_WIDTH) if compact else (self.dilation, 1)
        h = _unit(x, self.conv, self.conv_bias, self.bn1, training,
                  dilation=dilation, padding=padding, stride=stride)
        h = _unit(h, self.pointwise, self.pointwise_bias, self.bn2, training)
        if padding == "valid":
            crop = dilation * (KERNEL_WIDTH - 1) // 2
            residual = x[:, crop:x.shape[1] - crop:stride, :]
        else:
            residual = x
        return residual + h


def _unit(x: Tensor, kernel: Parameter, conv_bias: Parameter, bn: BatchNorm, training: bool,
          **conv) -> Tensor:
    return ops.conv_bn_relu(x, kernel, conv_bias, bn.gain, bn.bias, bn.running_mean.data,
                            bn.running_var.data, training, **conv)


class TcnEncoder:
    """Stacked dilated-convolution encoder exposing one tap.

    Tap 1 is the full-length shallow feature z0 (B, F, C); a deeper tap b is
    block b's valid output, F - (3**b - 1) frames. The input length is read
    off the block count and the joints off the input projection's width.
    """

    def __init__(self, frames: int, joints: int, channels: int, tap_layer: int,
                 rng: np.random.Generator):
        blocks = blocks_for_frames(frames)
        if not 1 <= tap_layer <= blocks:
            raise ConfigError(f"tap layer {tap_layer} out of range 1..{blocks}")
        self.tap_layer = tap_layer      # the block whose full-extent output `tap` holds
        self.input_proj = Linear("encoder.input_proj", 2 * joints, channels, rng)
        self.blocks = [
            TcnBlock(f"encoder.block{b}", channels, KERNEL_WIDTH ** (b - 1), rng)
            for b in range(1, blocks + 1)
        ]

    def forward(self, x: Tensor, training: bool) -> EncoderOutput:
        """x: (B, F, J, 2) -> EncoderOutput."""
        batch, frames, joints, _ = x.shape
        want = (SUPPORTED_FRAMES[len(self.blocks) - 2], self.input_proj.weight.shape[0] // 2)
        if (frames, joints) != want:
            raise ConfigError(f"input ({frames} frames, {joints} joints) does not match "
                              f"encoder ({want[0]} frames, {want[1]} joints)")
        h = self.input_proj(x.reshape(batch, frames, 2 * joints))  # (B, F, C)
        z0 = self.blocks[0](h, training=training, padding="same")
        layer = self.tap_layer
        tap, h = z0, z0[:, 1:-1, :]     # block 1's valid frames
        for block in self.blocks[1:layer]:
            h = tap = block(h, training=training)
        if not training:
            h = h[:, ::KERNEL_WIDTH ** layer, :]    # the frames the centre reads
        for block in self.blocks[layer:]:
            h = block(h, training=training, compact=not training)
        return EncoderOutput(z0=z0, tap=tap, zd=h)
