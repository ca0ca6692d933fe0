"""Central finite-difference verification of analytic gradients.

Run in float64 (see `tensor.precision`); the `TOL` tolerance is not
meaningful in float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import POSITIVE, Config, apply_overrides, check_range
from .errors import TrainingError
from .tensor import Parameter, Tensor

EPS = 1e-5       # the central-difference step
TOL = 1e-4       # the default largest relative error that passes


@dataclass
class GradCheckReport:
    tol: float
    max_rel_err: float = 0.0
    worst_param: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {verdict}: max rel err {self.max_rel_err:.3e} "
                f"(worst: {self.worst_param or '-'}, tol {self.tol:.1e})")


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # Relative error with a unit floor so near-zero gradients compare absolutely.
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale)) if analytic.size else 0.0


def grad_check(build_loss: Callable[[], Tensor], params: list[Parameter],
               tol: float = TOL) -> GradCheckReport:
    """Compare backward() gradients with central differences for every element.

    `build_loss` must rebuild the forward pass from the current parameter
    values and return a scalar Tensor; it is re-evaluated 2 * n_elements
    times, so keep the model small. `tol` must be positive and finite.
    """
    check_range("gradcheck.tol", tol, POSITIVE)
    loss = build_loss()
    if not np.isfinite(loss.data).all():
        raise TrainingError(f"gradient check aborted: loss is not finite ({loss.data})")
    for p in params:
        p.grad = None
    loss.backward()
    analytic = {}
    for p in params:
        if p.grad is None:
            analytic[p.name] = np.zeros_like(p.data)
        else:
            analytic[p.name] = np.array(p.grad, copy=True)

    report = GradCheckReport(tol=tol)
    for p in params:
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + EPS
            plus = build_loss().item()
            flat[i] = saved - EPS
            minus = build_loss().item()
            flat[i] = saved
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise TrainingError(
                    f"gradient check aborted: non-finite loss while perturbing {p.name!r}")
            num_flat[i] = (plus - minus) / (2.0 * EPS)
        err = _rel_err(analytic[p.name], numeric)
        if err > report.max_rel_err:
            report.max_rel_err = err
            report.worst_param = p.name
    return report


def run_op_suite(tol: float = TOL) -> dict[str, GradCheckReport]:
    """Finite-difference check of every differentiable operation (float64)."""
    from . import ops
    from .tensor import concat, precision

    reports: dict[str, GradCheckReport] = {}
    with precision("float64"):
        rng = np.random.default_rng(20240501)

        def check(name: str, build, params):
            reports[name] = grad_check(build, params, tol=tol)

        a = Parameter("a", rng.normal(size=(4, 5)))
        b = Parameter("b", rng.normal(size=(5, 3)))
        bat = Parameter("bat", rng.normal(size=(2, 4, 5)))
        w_mm = rng.normal(size=(4, 3))
        w_bat = rng.normal(size=(2, 4, 3))
        check("matmul", lambda: ((a @ b) * w_mm).sum(), [a, b])
        check("matmul_batched", lambda: ((bat @ b) * w_bat).sum(), [bat, b])

        x = Parameter("x", rng.normal(size=(3, 4)))
        y = Parameter("y", rng.normal(size=(4,)))           # broadcasts over rows
        w34 = rng.normal(size=(3, 4))
        check("add", lambda: ((x + y) * w34).sum(), [x, y])
        check("mul", lambda: ((x * y) * w34).sum(), [x, y])
        check("sub", lambda: ((x - y) * w34).sum(), [x, y])
        check("div", lambda: ((x / (y * y + 1.5)) * w34).sum(), [x, y])
        check("neg", lambda: ((-x) * w34).sum(), [x])
        check("exp", lambda: (x.exp() * w34).sum(), [x])
        check("log", lambda: ((x * x + 0.5).log() * w34).sum(), [x])
        check("sqrt", lambda: ((x * x + 0.5).sqrt() * w34).sum(), [x])
        check("relu", lambda: ((x + 0.05).relu() * w34).sum(), [x])
        check("reshape", lambda: ((x.reshape(4, 3)) * w34.reshape(4, 3)).sum(), [x])
        check("swapaxes", lambda: ((x.swapaxes(1, 0)) * w34.T).sum(), [x])
        check("slice", lambda: (x[1:, ::2] * w34[1:, ::2]).sum(), [x])
        idx = np.array([0, 2, 0])
        check("gather", lambda: (x[idx] * w34).sum(), [x])
        check("concat", lambda: (concat([x, x * 2.0], axis=1)
                                 * np.concatenate([w34, w34], axis=1)).sum(), [x])
        check("broadcast_to", lambda: (y.reshape(1, 4).broadcast_to((3, 4))
                                       * w34).sum(), [y])
        check("sum", lambda: (x.sum(axis=0) * w34[0]).sum(), [x])
        check("mean", lambda: (x.mean(axis=1, keepdims=True)
                               * w34[:, :1]).sum(), [x])
        check("softmax", lambda: (ops.softmax(x) * w34).sum(), [x])
        check("l2_norm", lambda: (ops.l2_norm(x) * w34[:, 0]).sum(), [x])

        gain = Parameter("gain", 1.0 + 0.1 * rng.normal(size=4))
        bias = Parameter("bias", 0.1 * rng.normal(size=4))
        check("layer_norm", lambda: (ops.layer_norm(x, gain, bias)
                                     * w34).sum(), [x, gain, bias])

        q = Parameter("q", rng.normal(size=(2, 3, 4)))
        kv = Parameter("kv", rng.normal(size=(2, 5, 4)))
        w_attn = rng.normal(size=(2, 3, 4))
        check("scaled_dot_attention",
              lambda: (ops.scaled_dot_attention(q, kv, kv)
                       * w_attn).sum(), [q, kv])

        seq = Parameter("seq", rng.normal(size=(2, 9, 3)))
        kern = Parameter("kern", rng.normal(size=(3, 3, 4)))
        cbias = Parameter("cbias", rng.normal(size=4))
        w_same = rng.normal(size=(2, 9, 4))
        # The conv's cases, each a training-mode unit over the layer norm's
        # gain and bias: "valid", dilated, strided and "same".
        conv_cases = {"conv_valid": (dict(dilation=1), w_same[:, :7]),
                      "conv_dilated": (dict(dilation=3), w_same[:, :3]),
                      "conv_strided": (dict(dilation=1, stride=3), w_same[:, :3]),
                      "conv_same": (dict(dilation=1, padding="same"), w_same)}
        for name, (kw, weights) in conv_cases.items():
            check(name, lambda kw=kw, weights=weights: (ops.conv_bn_relu(
                seq, kern, cbias, gain, bias, np.zeros(4), np.ones(4), training=True, **kw)
                * weights).sum(), [seq, kern, cbias, gain, bias])

        # Drawn after every other entry's values, so those stay as they were.
        lin_bias = Parameter("lin_bias", rng.normal(size=3))
        check("linear", lambda: (ops.linear(bat, b, lin_bias) * w_bat).sum(),
              [bat, b, lin_bias])
        unit_mean, unit_var = np.zeros(4), np.ones(4)
        stats_mean, stats_var = np.linspace(-0.5, 0.5, 4), np.linspace(0.5, 2.0, 4)
        check("conv_bn_relu", lambda: (ops.conv_bn_relu(
            seq, kern, cbias, gain, bias, unit_mean, unit_var, training=True,
            dilation=2, padding="same") * w_same).sum(), [seq, kern, cbias, gain, bias])
        check("conv_bn_relu_eval", lambda: (ops.conv_bn_relu(
            seq, kern, cbias, gain, bias, stats_mean, stats_var, training=False,
            dilation=2, padding="same") * w_same).sum(), [seq, kern, cbias, gain, bias])
        # classify's shapes: K = 3 embeddings against each of 2 samples' features
        feature = Parameter("feature", rng.normal(size=(2, 1, 5)))
        w_cls = rng.normal(size=(2, 3))
        check("cosine_softmax", lambda: (ops.cosine_softmax(bat[:, :3], feature, 0.5)
                                         * w_cls).sum(), [bat, feature])
    return reports


def micro_model_config():
    """Tiny full-model configuration for the end-to-end gradient check."""
    return apply_overrides(Config(), {
        "data.num_actions": 2, "data.frames": 9, "data.joints": 4, "encoder.channels": 8,
        "atp.context_tokens": 2, "app.prompts_per_action": 2})


def run_model_check(tol: float = TOL) -> GradCheckReport:
    """Finite-difference check of the combined loss through the whole model
    (float64, 2-sample micro batch)."""
    from .data import gen_synthetic
    from .losses import action_loss, pose_loss, total_loss
    from .model import PoseLifter
    from .tensor import precision

    cfg = micro_model_config()
    with precision("float64"):
        dataset = gen_synthetic(cfg.data.num_actions, cfg.data.frames,
                                cfg.data.joints, 1, 1, seed=99)
        model = PoseLifter(cfg)
        x2d = dataset.train.input2d
        labels = dataset.train.labels
        target = dataset.train.target3d.astype(np.float64)

        def build_loss() -> Tensor:
            result = model.forward(x2d, labels, training=True)
            lp = pose_loss(result.pred3d, Tensor(target))
            la = action_loss(result.class_probs, labels)
            return total_loss(lp, la, cfg.train.loss_weight)

        trainable = [p for p in model.params.values() if p.requires_grad]
        return grad_check(build_loss, trainable, tol=tol)
