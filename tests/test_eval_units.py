"""The eval-mode TCN unit when it keeps no graph, and the in-place sums of
the conv and `linear`: outputs bitwise those of the composed ops, in the
composed ops' dtype; an eval unit that allocates no more than its conv
needs, and a training unit whose backward peaks below the composed ops'."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp

from poselift import ops
from poselift.errors import DimensionError
from poselift.tensor import Parameter, no_grad, precision

from test_fused_ops import DTYPES, FUSED_SETTINGS
from test_fused_units import composed_conv_bn_relu, composed_linear


def unit_inputs(rng, lead, frames, width, c_in, c_out, dtype, constant_channel=None,
                requires_grad=True):
    """Input, kernel, conv bias, gain, bias and running statistics of one
    unit, all of `dtype`. A constant channel has a zero kernel, so its conv
    output is its bias, and a running variance of 0."""
    kernel = rng.normal(size=(width, c_in, c_out)).astype(dtype)
    running_var = (0.5 + rng.uniform(size=c_out)).astype(dtype)
    if constant_channel is not None and constant_channel < c_out:
        kernel[..., constant_channel] = 0.0
        running_var[constant_channel] = 0.0
    gain = (1.0 + 0.3 * rng.normal(size=c_out)).astype(dtype)
    with precision(dtype):
        tensors = [Parameter(name, values, requires_grad=requires_grad) for name, values in (
            ("x", rng.normal(size=lead + (frames, c_in)) * 2.0 + 0.3), ("kernel", kernel),
            ("conv_bias", rng.normal(size=c_out)), ("gain", gain), ("bias", -0.5 * gain))]
    return (*tensors, rng.normal(size=c_out).astype(dtype), running_var)


@FUSED_SETTINGS
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
       frames=st.integers(1, 12), width=st.integers(1, 3), dilation=st.integers(1, 3),
       stride=st.integers(1, 3), padding=st.sampled_from(["valid", "same"]),
       c_in=st.integers(1, 3), c_out=st.integers(1, 3),
       constant_channel=st.none() | st.integers(0, 2), frozen=st.booleans(),
       dtype=DTYPES, seed=st.integers(0, 2**31 - 1))
@example(lead=(2,), frames=9, width=3, dilation=1, stride=1, padding="same", c_in=3,
         c_out=3, constant_channel=1, frozen=False, dtype="float32",
         seed=1)                                       # block 1, with a channel of var 0
@example(lead=(2,), frames=9, width=3, dilation=1, stride=3, padding="valid", c_in=2,
         c_out=3, constant_channel=None, frozen=True, dtype="float64",
         seed=2)                                                       # strided
def test_eval_unit_without_a_graph_equals_the_composed_ops(lead, frames, width, dilation,
                                                           stride, padding, c_in, c_out,
                                                           constant_channel, frozen, dtype,
                                                           seed):
    # Under no_grad, or with `frozen` parents that require no gradient, the
    # unit keeps no graph and writes its output over its conv output.
    assume(padding == "same" or frames > dilation * (width - 1))
    args = unit_inputs(np.random.default_rng(seed), lead, frames, width, c_in, c_out, dtype,
                       constant_channel, requires_grad=not frozen)
    kw = dict(dilation=dilation, padding=padding, stride=stride)
    with precision(dtype), contextlib.nullcontext() if frozen else no_grad():
        got = ops.conv_bn_relu(*args, training=False, **kw)
        want = composed_conv_bn_relu(*args, training=False, **kw)
    assert not got.requires_grad
    assert got.dtype == want.dtype and np.array_equal(got.data, want.data)


def test_mixed_dtype_sums_keep_the_composed_dtype():
    # A float32 product plus a float64 bias is float64, so it cannot be
    # written over the product: the out-of-place sum, in its dtype, is kept,
    # and the eval unit's batch norm and ReLU run over it in float64.
    rng = np.random.default_rng(7)
    with precision("float32"):
        x = Parameter("x", rng.normal(size=(2, 9, 3)))
        weight = Parameter("weight", rng.normal(size=(3, 4)))
        kernel = Parameter("kernel", rng.normal(size=(3, 3, 4)))
        gain = Parameter("gain", 1.0 + 0.3 * rng.normal(size=4))
        unit_bias = Parameter("unit_bias", 0.3 * rng.normal(size=4))
    with precision("float64"):
        bias = Parameter("bias", rng.normal(size=4))
    unit = (x, kernel, bias, gain, unit_bias, rng.normal(size=4), 0.5 + rng.uniform(size=4))
    pairs = [(ops.linear(x, weight, bias), composed_linear(x, weight, bias)),
             (ops.conv_bn_relu(*unit, training=False, dilation=2),
              composed_conv_bn_relu(*unit, training=False, dilation=2))]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.data, want.data)


def test_eval_unit_of_float32_arrays_in_float64_mode_equals_the_composed_ops():
    # In float64 mode the running statistics enter as float64, so each batch
    # norm step promotes the float32 conv output: every step stays out of place.
    args = unit_inputs(np.random.default_rng(8), (2,), 9, 3, 3, 4, "float32")
    for graph in (no_grad, contextlib.nullcontext):
        with precision("float64"), graph():
            got = ops.conv_bn_relu(*args, training=False, dilation=3)
            want = composed_conv_bn_relu(*args, training=False, dilation=3)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("operand", range(4))
def test_a_per_channel_operand_of_another_width_is_a_dimension_error(operand, training):
    args = list(unit_inputs(np.random.default_rng(10), (2,), 9, 3, 3, 4, "float32"))
    wrong = np.ones(3, np.float32)
    args[3 + operand] = Parameter("wrong", wrong) if operand < 2 else wrong
    with pytest.raises(DimensionError, match=r"has shape \(3,\), want .* \(4,\)"):
        ops.conv_bn_relu(*args, training=training)


def peak_bytes(call) -> int:
    """Peak bytes that `call()` allocates on top of what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_no_grad_eval_unit_peaks_at_its_conv_output_and_one_tap_product():
    # One F=81, C=32, B=64 unit, the size of a TCN block's dilated conv. The
    # conv sums each tap product into its output, and the unit writes batch
    # norm and ReLU over it: no more than two output-sized arrays live at a
    # time, plus a little for the tap indices. The three ops in a row peak
    # at three (an old sum, a tap product and the new sum).
    args = unit_inputs(np.random.default_rng(9), (64,), 81, 3, 32, 32, "float32")
    kw = dict(training=False, dilation=1)
    with no_grad():
        out_bytes = ops.conv_bn_relu(*args, **kw).data.nbytes
        bound = 2 * out_bytes + 64 * 1024
        fused = peak_bytes(lambda: ops.conv_bn_relu(*args, **kw))
        composed = peak_bytes(lambda: composed_conv_bn_relu(*args, **kw))
    assert fused <= bound < composed, (fused, bound, composed, out_bytes)


def training_peak_bytes(unit, args, weights, padding) -> int:
    """Peak bytes live while one training backward through `unit` runs,
    counted from before its forward: what the forward kept, and what the
    backward adds on top before it frees it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = (unit(*args, training=True, padding=padding) * weights).sum()
        tracemalloc.reset_peak()
        loss.backward()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_a_training_unit_backward_peaks_below_the_composed_ops(padding):
    # One F=81, C=32, B=64 unit, as above. The forward keeps the output, the
    # centred conv output, with "same" the padded input, and the loss's
    # weighted output. The backward adds about 4 output-sized arrays: it
    # writes batch norm's chain over arrays it owns and sums the taps' input
    # gradients in one buffer. That is 7.1 ("valid") or 8.1 ("same") in all,
    # against the composed ops' 9.3 or 10.3. A backward that allocated a new
    # array per step and a zero-filled input per tap peaked at 11.5 or 12.5.
    args = unit_inputs(np.random.default_rng(11), (64,), 81, 3, 32, 32, "float32")
    out_frames = 81 if padding == "same" else 79
    weights = np.random.default_rng(12).normal(size=(64, out_frames, 32)).astype(np.float32)
    bound = 8.5 * weights.nbytes
    fused = training_peak_bytes(ops.conv_bn_relu, args, weights, padding)
    composed = training_peak_bytes(composed_conv_bn_relu, args, weights, padding)
    assert fused <= bound < composed, (fused / weights.nbytes, composed / weights.nbytes)
