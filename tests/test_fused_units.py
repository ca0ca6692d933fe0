"""The fused TCN unit and linear nodes against the graphs of the ops they
replace: the conv in slice, matmul and add nodes -> batch norm in
primitive nodes -> `relu`, and `@` -> `+`. Equal outputs, running
statistics and gradients, bit for bit, in float32 and float64."""

import numpy as np
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp

from poselift import ops
from poselift.tensor import precision

from test_fused_ops import (CONSUMERS, DTYPES, FUSED_SETTINGS, add_consumers,
                            assert_same_gradients, composed_batch_norm,
                            composed_dilated_conv1d, leaf)


# -- the composed oracles -----------------------------------------------------------------

def composed_conv_bn_relu(x, kernel, conv_bias, gain, bias, running_mean, running_var,
                          training, dilation=1, padding="valid", stride=1):
    """The TCN unit as the conv in slice, matmul and add nodes, batch norm
    in primitive nodes (the batch statistics in training, the running ones
    in eval) and ReLU."""
    h = composed_dilated_conv1d(x, kernel, dilation, conv_bias, padding, stride)
    if training:
        normed = composed_batch_norm(h, gain, bias, running_mean, running_var)
    else:
        normed = (h - running_mean) / np.sqrt(running_var + ops.BN_EPS) * gain + bias
    return normed.relu()


def composed_linear(x, weight, bias):
    """`ops.linear` as a matmul node and an add node."""
    return x @ weight + bias


# -- the TCN unit -------------------------------------------------------------------------

def run_unit(unit, values, stats, weights, grads, consumers, training, **kw):
    """One backward through `unit`; `consumers` are the other readers of its
    input whose backward runs first (see `add_consumers`)."""
    x_values, kernel_values, conv_bias_values, gain_values = values
    leaves = [leaf("x", x_values, grads[0]), leaf("kernel", kernel_values, grads[1]),
              leaf("conv_bias", conv_bias_values, grads[2]),
              leaf("gain", gain_values, grads[3]),
              leaf("bias", -0.5 * gain_values, grads[4])]
    x, kernel, conv_bias, gain, bias = leaves
    running_mean, running_var = (s.astype(x_values.dtype) for s in stats)
    h = x * 1.5
    out = unit(h, kernel, conv_bias, gain, bias, running_mean, running_var, training, **kw)
    loss = add_consumers(h, (out * weights).sum(), leaves, consumers)
    loss.backward()
    return out.data, running_mean, running_var, leaves


def in_both_modes(*cases):
    """`@example`s of the unit test for each conv case, once per mode."""
    def decorate(test):
        for case in reversed(cases):
            for training in (False, True):
                test = example(**case, constant_channel=None, grads=(True,) * 5,
                               training=training)(test)
        return test
    return decorate


@FUSED_SETTINGS
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
       frames=st.integers(1, 20), width=st.integers(1, 3), dilation=st.integers(1, 4),
       stride=st.integers(1, 4), padding=st.sampled_from(["valid", "same"]),
       c_in=st.integers(1, 4), c_out=st.integers(1, 4),
       constant_channel=st.none() | st.integers(0, 2),
       grads=st.tuples(*[st.booleans()] * 5), consumers=CONSUMERS,
       training=st.booleans(), dtype=DTYPES, seed=st.integers(0, 2**31 - 1))
@example(lead=(2,), frames=27, width=3, dilation=3, stride=1, padding="valid", c_in=4,
         c_out=4, constant_channel=None, grads=(True,) * 5, consumers=("residual",),
         training=True, dtype="float32", seed=0)                       # a TCN block
@example(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="same", c_in=3,
         c_out=3, constant_channel=1, grads=(True,) * 5, consumers=("residual",),
         training=True, dtype="float32", seed=1)       # block 1, with a channel of var 0
@example(lead=(2,), frames=9, width=3, dilation=1, stride=3, padding="valid", c_in=2,
         c_out=3, constant_channel=None, grads=(True,) * 5, consumers=(),
         training=True, dtype="float64", seed=2)                       # strided
@example(lead=(2,), frames=9, width=3, dilation=2, stride=1, padding="valid", c_in=2,
         c_out=3, constant_channel=None, grads=(True,) * 5, consumers=("shared",),
         training=True, dtype="float32", seed=3)       # an input gradient y shares
@example(lead=(2,), frames=9, width=3, dilation=2, stride=1, padding="same", c_in=2,
         c_out=3, constant_channel=None, grads=(True,) * 5, consumers=("shared",),
         training=False, dtype="float64", seed=4)
@example(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="valid", c_in=2,
         c_out=3, constant_channel=None, grads=(True,) * 5, consumers=("summed",),
         training=True, dtype="float64", seed=5)       # a read-only input gradient
@example(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="same", c_in=2,
         c_out=3, constant_channel=None, grads=(True,) * 5,
         consumers=("residual", "shared", "summed"), training=True, dtype="float32", seed=6)
@in_both_modes(
    dict(lead=(2,), frames=27, width=3, dilation=3, stride=1, padding="valid", c_in=4,
         c_out=4, consumers=("residual",), dtype="float32", seed=0),   # a TCN block
    dict(lead=(2,), frames=9, width=3, dilation=1, stride=3, padding="valid", c_in=2,
         c_out=3, consumers=(), dtype="float32", seed=1),              # eval layout
    dict(lead=(2,), frames=9, width=3, dilation=2, stride=1, padding="valid", c_in=2,
         c_out=3, consumers=("shared",), dtype="float64", seed=2),     # y shares x's gradient
    dict(lead=(2,), frames=9, width=3, dilation=2, stride=1, padding="same", c_in=2,
         c_out=3, consumers=("shared",), dtype="float32", seed=3),
    dict(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="valid", c_in=2,
         c_out=3, consumers=("summed",), dtype="float32", seed=4),     # a read-only gradient
    dict(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="same", c_in=2,
         c_out=3, consumers=("summed",), dtype="float64", seed=5))
def test_fused_conv_bn_relu_equals_the_composed_graph(lead, frames, width, dilation, stride,
                                                      padding, c_in, c_out, constant_channel,
                                                      grads, consumers, training, dtype,
                                                      seed):
    assume(padding == "same" or frames > dilation * (width - 1))
    assume(any(grads))
    rng = np.random.default_rng(seed)
    with precision(dtype):
        kernel_values = rng.normal(size=(width, c_in, c_out)).astype(dtype)
        if constant_channel is not None and constant_channel < c_out:
            kernel_values[..., constant_channel] = 0.0     # the output is the conv bias
        values = (rng.normal(size=lead + (frames, c_in)).astype(dtype) * 2.0 + 0.3,
                  kernel_values, rng.normal(size=c_out).astype(dtype),
                  (1.0 + 0.3 * rng.normal(size=c_out)).astype(dtype))
        stats = (rng.normal(size=c_out), 0.5 + rng.uniform(size=c_out))
        kw = dict(dilation=dilation, padding=padding, stride=stride)
        out_frames = len(range(0, (frames if padding == "same"
                                   else frames - dilation * (width - 1)), stride))
        weights = rng.normal(size=lead + (out_frames, c_out)).astype(dtype)

        fused = run_unit(ops.conv_bn_relu, values, stats, weights, grads, consumers,
                         training, **kw)
        oracle = run_unit(composed_conv_bn_relu, values, stats, weights, grads, consumers,
                          training, **kw)
    for got, want in zip(fused[:3], oracle[:3]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert_same_gradients(fused[3], oracle[3])


# -- linear -------------------------------------------------------------------------------

def run_linear(linear, x_values, weight_values, bias_values, weights, grads, shared):
    """One backward through `linear`; `shared` also feeds its input to a
    second consumer whose backward runs first, as attention's keys and
    values share theirs."""
    leaves = [leaf("x", x_values, grads[0]), leaf("weight", weight_values, grads[1]),
              leaf("bias", bias_values, grads[2])]
    x, weight, bias = leaves
    h = x * 1.5
    out = linear(h, weight, bias)
    loss = (out * weights).sum()
    if shared:
        loss = (h * 2.0).sum() + loss
    loss.backward()
    return out.data, leaves


@FUSED_SETTINGS
@given(lead=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
       fan_in=st.integers(1, 5), fan_out=st.integers(1, 5),
       grads=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       shared=st.booleans(), dtype=DTYPES, seed=st.integers(0, 2**31 - 1))
@example(lead=(4,), fan_in=3, fan_out=2, grads=(True, True, True), shared=True,
         dtype="float32", seed=0)
def test_fused_linear_equals_the_composed_graph(lead, fan_in, fan_out, grads, shared, dtype,
                                                seed):
    assume(any(grads))
    rng = np.random.default_rng(seed)
    with precision(dtype):
        x_values = rng.normal(size=lead + (fan_in,)).astype(dtype)
        weight_values = rng.normal(size=(fan_in, fan_out)).astype(dtype)
        bias_values = rng.normal(size=fan_out).astype(dtype)
        weights = rng.normal(size=lead + (fan_out,)).astype(dtype)
        fused = run_linear(ops.linear, x_values, weight_values, bias_values, weights,
                           grads, shared)
        oracle = run_linear(composed_linear, x_values, weight_values, bias_values,
                            weights, grads, shared)
    assert fused[0].dtype == oracle[0].dtype and np.array_equal(fused[0], oracle[0])
    assert_same_gradients(fused[1], oracle[1])
