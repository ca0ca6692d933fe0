"""The primitive-op oracles of the temporal conv and training-mode batch
norm, which the fused TCN unit is checked against, and the helpers the
fused-op tests share."""

import numpy as np
from hypothesis import settings, strategies as st

from poselift import ops
from poselift.tensor import Parameter, Tensor, concat


# -- the composed oracles: each primitive op its own graph node ----------------------

def composed_batch_norm(x, gain, bias, running_mean, running_var):
    """Training-mode batch norm built from primitive ops."""
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    n = x.size // x.shape[-1]
    unbiased = var.data * (n / max(n - 1, 1))
    running_mean *= 1.0 - ops.BN_MOMENTUM
    running_mean += ops.BN_MOMENTUM * mu.data.reshape(-1)
    running_var *= 1.0 - ops.BN_MOMENTUM
    running_var += ops.BN_MOMENTUM * unbiased.reshape(-1)
    normed = centered / (var + ops.BN_EPS).sqrt()
    return normed * gain + bias


def composed_dilated_conv1d(x, kernel, dilation=1, bias=None, padding="valid", stride=1):
    """The temporal conv as a chain of slice, matmul and add nodes."""
    width = kernel.shape[0]
    if padding == "same":
        total = dilation * (width - 1)
        left, right = total // 2, total - total // 2
        pad_shape = list(x.shape)
        if left:
            pad_shape[-2] = left
            x = concat([Tensor(np.zeros(pad_shape)), x], axis=-2)
        if right:
            pad_shape[-2] = right
            x = concat([x, Tensor(np.zeros(pad_shape))], axis=-2)
    out_frames = x.shape[-2] - dilation * (width - 1)
    span = (out_frames - 1) // stride * stride + 1
    index = [slice(None)] * x.ndim
    out = None
    for i in range(width):
        index[-2] = slice(i * dilation, i * dilation + span, stride)
        term = x[tuple(index)] @ kernel[i]
        out = term if out is None else out + term
    if bias is not None:
        out = out + bias
    return out


def leaf(name, values, requires_grad):
    return Parameter(name, values, requires_grad=requires_grad)


def assert_same_gradients(fused_leaves, oracle_leaves):
    for fused, oracle in zip(fused_leaves, oracle_leaves):
        assert (fused.grad is None) == (oracle.grad is None), fused.name
        if fused.grad is not None:
            assert fused.grad.dtype == oracle.grad.dtype, fused.name
            assert np.array_equal(fused.grad, oracle.grad), fused.name


FUSED_SETTINGS = settings(max_examples=40, deadline=None)
DTYPES = st.sampled_from(["float32", "float64"])


# -- the other readers of a unit's input ---------------------------------------------

# Readers of a unit's input besides it, each drawn or not.
CONSUMERS = st.lists(st.sampled_from(["residual", "shared", "summed"]), unique=True).map(
    lambda names: tuple(sorted(names)))


def add_consumers(h, loss, leaves, consumers):
    """`loss` plus the terms of the `consumers` of `h`, each of whose
    backward runs before the rest of `loss`'s, the later in the list the
    earlier. "residual" reads the first frame, as a TCN block's residual
    does; "shared" is `(h + y)` for a new leaf `y`, appended to `leaves`,
    which gets the very array `h` gets; "summed" is `h.sum()`, whose
    gradient is a read-only broadcast view."""
    if "residual" in consumers:
        loss = (h[..., :1, :] * 2.0).sum() + loss
    if "shared" in consumers:
        y = leaf("y", h.data * 0.5, True)
        leaves.append(y)
        loss = ((h + y) * h.data).sum() + loss
    if "summed" in consumers:
        loss = h.sum() + loss
    return loss
