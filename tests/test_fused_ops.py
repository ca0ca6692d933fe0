"""The fused `dilated_conv1d` node against the op-by-op graph it replaces:
equal outputs and gradients, bit for bit, in float32 and float64; and the
primitive-op oracles the fused units are checked against."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poselift import ops
from poselift.tensor import Parameter, Tensor, concat, precision, zeros


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
            x = concat([zeros(tuple(pad_shape)), x], axis=-2)
        if right:
            pad_shape[-2] = right
            x = concat([x, zeros(tuple(pad_shape))], axis=-2)
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


# -- the temporal conv -------------------------------------------------------------------

# Readers of a conv's or unit's input besides it, each drawn or not.
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


def run_conv(conv, x_values, kernel_values, bias_values, weights, grads, consumers, **kw):
    """One backward through `conv`; `consumers` are the other readers of its
    input whose backward runs first (see `add_consumers`)."""
    x = leaf("x", x_values, grads[0])
    kernel = leaf("kernel", kernel_values, grads[1])
    bias = None if bias_values is None else leaf("bias", bias_values, grads[2])
    leaves = [p for p in (x, kernel, bias) if p is not None]
    h = x * 1.5
    out = conv(h, kernel, bias=bias, **kw)
    loss = add_consumers(h, (out * weights).sum(), leaves, consumers)
    loss.backward()
    return out.data, leaves


@FUSED_SETTINGS
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
       frames=st.integers(1, 20), width=st.integers(1, 3), dilation=st.integers(1, 4),
       stride=st.integers(1, 4), padding=st.sampled_from(["valid", "same"]),
       c_in=st.integers(1, 4), c_out=st.integers(1, 4), with_bias=st.just(True),
       grads=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       consumers=CONSUMERS, dtype=DTYPES, seed=st.integers(0, 2**31 - 1))
@example(lead=(2,), frames=27, width=3, dilation=3, stride=1, padding="valid", c_in=4,
         c_out=4, with_bias=True, grads=(True, True, True), consumers=("residual",),
         dtype="float32", seed=0)                                      # a TCN block
@example(lead=(2,), frames=9, width=3, dilation=1, stride=3, padding="valid", c_in=2,
         c_out=3, with_bias=True, grads=(True, True, True), consumers=(),
         dtype="float32", seed=1)                                      # eval layout
@example(lead=(2,), frames=9, width=3, dilation=2, stride=1, padding="valid", c_in=2,
         c_out=3, with_bias=True, grads=(True, True, True), consumers=("shared",),
         dtype="float64", seed=2)                      # an input gradient y shares
@example(lead=(2,), frames=9, width=3, dilation=2, stride=1, padding="same", c_in=2,
         c_out=3, with_bias=True, grads=(True, True, True), consumers=("shared",),
         dtype="float32", seed=3)
@example(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="valid", c_in=2,
         c_out=3, with_bias=True, grads=(True, True, True), consumers=("summed",),
         dtype="float32", seed=4)                      # a read-only input gradient
@example(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="same", c_in=2,
         c_out=3, with_bias=True, grads=(True, True, True), consumers=("summed",),
         dtype="float64", seed=5)
def test_fused_dilated_conv1d_equals_the_composed_graph(lead, frames, width, dilation,
                                                        stride, padding, c_in, c_out,
                                                        with_bias, grads, consumers, dtype,
                                                        seed):
    assume(padding == "same" or frames > dilation * (width - 1))
    assume(grads[0] or grads[1] or (with_bias and grads[2]))
    rng = np.random.default_rng(seed)
    with precision(dtype):
        x_values = rng.normal(size=lead + (frames, c_in)).astype(dtype)
        kernel_values = rng.normal(size=(width, c_in, c_out)).astype(dtype)
        bias_values = rng.normal(size=c_out).astype(dtype) if with_bias else None
        kw = dict(dilation=dilation, padding=padding, stride=stride)
        out_shape = composed_dilated_conv1d(Tensor(x_values), Tensor(kernel_values),
                                            **kw).shape
        weights = rng.normal(size=out_shape).astype(dtype)

        fused = run_conv(ops.dilated_conv1d, x_values, kernel_values, bias_values, weights,
                         grads, consumers, **kw)
        oracle = run_conv(composed_dilated_conv1d, x_values, kernel_values, bias_values,
                          weights, grads, consumers, **kw)
    assert fused[0].dtype == oracle[0].dtype and np.array_equal(fused[0], oracle[0])
    assert_same_gradients(fused[1], oracle[1])

