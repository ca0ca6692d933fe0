"""Adam optimizer over named parameters."""

from __future__ import annotations

import numpy as np

from .config import check_range
from .errors import TrainingError
from .tensor import Parameter

BETA1 = 0.9       # decay of the first-moment (mean) estimate
BETA2 = 0.999     # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8


class Adam:
    """Adam with bias correction; moment buffers exist only for trainable params.

    Frozen parameters (`requires_grad` False) are never touched by `step`.
    """

    def __init__(self, params: dict[str, Parameter], lr: float = 1e-3,
                 lr_decay: float = 0.98):
        check_range("train.lr", lr)
        check_range("train.lr_decay", lr_decay)
        self.params = params
        self.lr = float(lr)
        self.lr_decay = float(lr_decay)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data)
                  for name, p in params.items() if p.requires_grad}
        self.v = {name: np.zeros_like(p.data)
                  for name, p in params.items() if p.requires_grad}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            if not p.requires_grad:
                continue
            if p.grad is None:
                raise TrainingError(f"missing gradient for trainable parameter {name!r}")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= self.lr * update     # in place: a 0-d value stays an array

    def decay_lr(self) -> None:
        """Apply one epoch of exponential learning-rate decay."""
        self.lr *= self.lr_decay
