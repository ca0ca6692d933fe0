"""Adam over one flat store of the trainable values.

Adam's update is elementwise, so it runs once over vectors instead of once
per parameter (the "foreach" form): `Adam` copies the trainable parameters'
values into one vector, in `params` order, and makes each `.data` a view of
its slice, so writing a value in place (`p.data[...] = values`) writes the
store; assigning `p.data` would detach it. The moments are vectors beside
it. A step gathers the gradients into a third vector with one
`np.concatenate` and runs the update expressions once over the vectors, so
every value is what a loop over the parameters gives. Frozen parameters,
the batch-norm running statistics among them, stay outside the store and
are never touched.
"""

from __future__ import annotations

import numpy as np

from .config import check_range
from .errors import TrainingError
from .tensor import Parameter

BETA1 = 0.9       # decay of the first-moment (mean) estimate
BETA2 = 0.999     # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8


class Adam:
    """Adam with bias correction over the trainable params' flat store.

    `values` is the store; `m` and `v` map each trainable parameter's name
    to its slice of the moment vectors, in the parameter's shape.
    """

    def __init__(self, params: dict[str, Parameter], lr: float = 1e-3,
                 lr_decay: float = 0.98):
        check_range("train.lr", lr)
        check_range("train.lr_decay", lr_decay)
        self.params = params
        self.lr = float(lr)
        self.lr_decay = float(lr_decay)
        self.step_count = 0
        self._trainable = {name: p for name, p in params.items() if p.requires_grad}
        dtypes = {p.dtype for p in self._trainable.values()}
        if len(dtypes) > 1:
            raise TrainingError(f"trainable parameters mix dtypes {sorted(map(str, dtypes))}; "
                                "the optimizer keeps them in one vector")
        self.values = np.zeros(sum(p.size for p in self._trainable.values()), *dtypes)
        for p, view in zip(self._trainable.values(), self._views(self.values)):
            view[...] = p.data
            p.data = view
        self._grad = np.empty_like(self.values)
        self._m, self._v = np.zeros_like(self.values), np.zeros_like(self.values)
        self.m = dict(zip(self._trainable, self._views(self._m)))
        self.v = dict(zip(self._trainable, self._views(self._v)))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """`flat`'s slice for each trainable parameter, in its shape."""
        views, offset = [], 0
        for p in self._trainable.values():
            views.append(flat[offset:offset + p.size].reshape(p.shape))
            offset += p.size
        return views

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        grads = [p.grad for p in self._trainable.values()]
        if any(g is None for g in grads):
            name = next(name for name, p in self._trainable.items() if p.grad is None)
            raise TrainingError(f"missing gradient for trainable parameter {name!r}")
        if grads:
            np.concatenate(grads, axis=None, out=self._grad)
        g, m, v = self._grad, self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        self.values -= self.lr * update

    def decay_lr(self) -> None:
        """Apply one epoch of exponential learning-rate decay."""
        self.lr *= self.lr_decay
