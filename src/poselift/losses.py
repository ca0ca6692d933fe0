"""Training losses: mean per-joint position error plus weighted cross-entropy
on the action classification vector."""

from __future__ import annotations

import numpy as np

from . import ops
from .config import check_range
from .errors import ConfigError, DimensionError
from .tensor import Tensor


def pose_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean over batch and joints of the per-joint Euclidean error.

    pred, gt: (B, J, 3) or (J, 3).
    """
    if pred.shape != gt.shape:
        raise DimensionError(f"pose loss shapes disagree: {pred.shape} vs {gt.shape}")
    return ops.l2_norm(pred - gt).mean()     # per joint (..., J), then mean


def action_loss(y: Tensor, labels) -> Tensor:
    """Cross-entropy -log y[label], averaged over the batch.

    y: (B, K) or (K,) distribution rows; labels: (B,) ints or a scalar.
    """
    labels = np.asarray(labels)
    if y.ndim == 1:
        k = y.shape[0]
        if labels.ndim != 0:
            raise DimensionError(f"scalar label expected for 1D y, got {labels.shape}")
        if not 0 <= int(labels) < k:
            raise ConfigError(f"label {int(labels)} out of range [0, {k})")
        picked = y[int(labels)]
    else:
        batch, k = y.shape
        if labels.shape != (batch,):
            raise DimensionError(f"labels shape {labels.shape} != batch ({batch},)")
        if labels.min() < 0 or labels.max() >= k:
            raise ConfigError(f"label out of range [0, {k}): {labels}")
        picked = y[np.arange(batch), labels]
    return -(picked.log().mean())


def total_loss(lp: Tensor, la: Tensor | float, weight: float) -> Tensor:
    """lp + weight * la."""
    check_range("train.loss_weight", weight)
    return lp + weight * la
