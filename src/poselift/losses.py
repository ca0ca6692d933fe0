"""Training losses: mean per-joint position error plus weighted cross-entropy
on the action classification vector."""

from __future__ import annotations

import numpy as np

from . import ops
from .config import check_range
from .errors import ConfigError, DimensionError
from .metrics import check_poses
from .model import check_labels
from .tensor import Tensor


def pose_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean over batch and joints of the per-joint Euclidean error.

    pred, gt: (B, J, 3) or (J, 3), with B, J >= 1.
    """
    check_poses("pose loss", pred, gt)
    return ops.l2_norm(pred - gt).mean()     # per joint (..., J), then mean


def action_loss(y: Tensor, labels) -> Tensor:
    """Cross-entropy -log y[label], averaged over the batch.

    y: (B, K) distribution rows with B >= 1, or one (K,) row; labels: (B,)
    ints, or one int for one row, each in [0, K).
    """
    if y.ndim not in (1, 2) or y.size == 0:
        raise DimensionError(f"class probabilities have shape {y.shape}, "
                             "want (B, K) with B >= 1 or (K,)")
    labels = check_labels(labels, y.shape[:-1])
    k = y.shape[-1]
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError(f"label out of range [0, {k}): {labels}")
    picked = y[int(labels)] if y.ndim == 1 else y[np.arange(len(labels)), labels]
    return -(picked.log().mean())


def total_loss(lp: Tensor, la: Tensor | float, weight: float) -> Tensor:
    """lp + weight * la."""
    check_range("train.loss_weight", weight)
    return lp + weight * la
