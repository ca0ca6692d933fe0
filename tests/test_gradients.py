"""Finite-difference verification of analytic gradients (float64 mode)."""

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poselift import ops
from poselift.errors import TrainingError
from poselift.gradcheck import grad_check, run_op_suite
from poselift.losses import pose_loss
from poselift.tensor import Parameter, Tensor, concat, precision

from test_fused_layers import composed_cosine_softmax

OP_REPORTS = run_op_suite()


@pytest.mark.parametrize("op_name", sorted(OP_REPORTS))
def test_op_gradient(op_name):
    report = OP_REPORTS[op_name]
    assert report.passed, f"{op_name}: {report}"


# Suite entries by op where they differ from its name: the TCN unit once
# per mode and, in training, once per padding, dilation and stride case of
# its conv, indexing once basic and once advanced, and the Tensor operators
# by what they compute.
SUITE_NAMES = {
    "conv_bn_relu": ("conv_bn_relu", "conv_bn_relu_eval", "conv_valid", "conv_dilated",
                     "conv_same", "conv_strided"),
    "Tensor.__add__": ("add",), "Tensor.__sub__": ("sub",), "Tensor.__mul__": ("mul",),
    "Tensor.__truediv__": ("div",), "Tensor.__neg__": ("neg",),
    "Tensor.__matmul__": ("matmul", "matmul_batched"),
    "Tensor.__getitem__": ("slice", "gather"),
}


def differentiable_ops() -> dict[str, object]:
    """The public functions of `poselift.ops`, `concat`, every Tensor method
    that builds a graph node itself, and the composite method the suite
    checks on its own (`mean`)."""
    found = {name: fn for name, fn in inspect.getmembers(ops, inspect.isfunction)
             if fn.__module__ == ops.__name__ and not name.startswith("_")}
    found["concat"] = concat
    found.update((f"Tensor.{name}", fn) for name, fn in vars(Tensor).items()
                 if inspect.isfunction(fn) and name != "_from_op"
                 and "_from_op(" in inspect.getsource(fn))
    found["Tensor.mean"] = Tensor.mean
    return found


def suite_entries(op: str) -> tuple[str, ...]:
    return SUITE_NAMES.get(op, (op.removeprefix("Tensor."),))


def test_every_public_op_is_in_the_suite():
    found = differentiable_ops()
    assert {"conv_bn_relu", "concat", "Tensor.__add__", "Tensor.swapaxes",
            "Tensor.__getitem__"} <= set(found)
    unchecked = [op for op in found if not all(e in OP_REPORTS for e in suite_entries(op))]
    assert unchecked == []
    # and no entry checks an op that is gone
    assert set(OP_REPORTS) - {e for op in found for e in suite_entries(op)} == set()


def test_square_at_three():
    with precision("float64"):
        x = Parameter("x", np.array(3.0))
        report = grad_check(lambda: (x * x).sum(), [x])
    # analytic 6, central difference 6 + O(eps^2)
    assert report.passed and report.max_rel_err < 1e-8


def test_constant_function_zero_gradients():
    with precision("float64"):
        x = Parameter("x", np.ones(4))
        report = grad_check(lambda: (x * 0.0).sum() + 7.0, [x])
    assert report.max_rel_err == 0.0


def test_nonfinite_loss_aborts_with_diagnostic():
    with precision("float64"), np.errstate(divide="ignore"):
        x = Parameter("x", np.array([0.0]))
        with pytest.raises(TrainingError, match="not finite"):
            grad_check(lambda: x.log().sum(), [x])


def test_gradient_accumulates_for_repeated_operand():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    ((x * x) + x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


# -- property checks over drawn shapes (float64, central differences, 1e-4) --------

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


def grid_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Multiples of 0.1 in [-3, 3], so two distinct values differ by 0.1 or more."""
    return rng.integers(-30, 31, size=shape) / 10.0


@PROPERTY_SETTINGS
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=2),
       frames=st.integers(1, 20), width=st.integers(1, 3), dilation=st.integers(1, 4),
       stride=st.integers(1, 4), padding=st.sampled_from(["valid", "same"]),
       c_in=st.integers(1, 3), c_out=st.integers(1, 3),
       constant_channel=st.none() | st.integers(0, 2), training=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
@example(lead=(1,), frames=1, width=1, dilation=1, stride=1, padding="valid", c_in=2,
         c_out=3, constant_channel=None, training=True, seed=0)         # one sample
@example(lead=(1, 1), frames=1, width=1, dilation=1, stride=1, padding="valid", c_in=1,
         c_out=2, constant_channel=1, training=True, seed=1)
@example(lead=(4,), frames=7, width=3, dilation=1, stride=1, padding="valid", c_in=2,
         c_out=2, constant_channel=0, training=True, seed=2)            # a constant channel
def test_conv_bn_relu_gradient_over_drawn_shapes(lead, frames, width, dilation, stride,
                                                 padding, c_in, c_out, constant_channel,
                                                 training, seed):
    # A constant channel has a zero kernel column: its conv output is the
    # conv bias, so its batch variance is 0 and its pre-activation the bias.
    assume(padding == "same" or frames > dilation * (width - 1))
    rng = np.random.default_rng(seed)
    kernel_values = grid_values(rng, (width, c_in, c_out))
    if constant_channel is not None and constant_channel < c_out:
        kernel_values[..., constant_channel] = 0.0
    with precision("float64"):
        x = Parameter("x", grid_values(rng, lead + (frames, c_in)))
        kernel = Parameter("kernel", kernel_values)
        conv_bias = Parameter("conv_bias", grid_values(rng, c_out))
        gain = Parameter("gain", 1.0 + 0.1 * rng.normal(size=c_out))
        bias = Parameter("bias", rng.choice([-1.0, 1.0], c_out)
                         * (0.1 + 0.2 * rng.uniform(size=c_out)))
        running_mean, running_var = rng.normal(size=c_out), 0.5 + rng.uniform(size=c_out)
        kw = dict(training=training, dilation=dilation, padding=padding, stride=stride)

        def unit(gain, bias):
            return ops.conv_bn_relu(x, kernel, conv_bias, gain, bias, running_mean,
                                    running_var, **kw)

        # relu(p) - relu(-p) is p: no central difference may carry a
        # pre-activation across the ReLU's kink at 0
        pre = (unit(gain, bias) - unit(-gain, -bias)).data
        assume(np.abs(pre).min() > 0.01)
        weights = rng.normal(size=pre.shape)
        report = grad_check(lambda: (unit(gain, bias) * weights).sum(),
                            [x, kernel, conv_bias, gain, bias], tol=1e-4)
    assert report.passed, str(report)


# -- zero vectors: the norm's subgradient there is 0, and sqrt's backward is
# -- unchanged everywhere else --------------------------------------------------

def former_sqrt(x: Tensor) -> Tensor:
    """`Tensor.sqrt` with its former backward, g * 0.5 / sqrt(x): NaN or inf at 0."""
    data = np.sqrt(x.data)
    return Tensor._from_op(data, (x,), lambda g: x._accumulate(g * 0.5 / data))


def gradients(build, leaves, sqrt=None) -> list[np.ndarray]:
    """The leaves' gradients of `build()`, with `sqrt` in place of `Tensor.sqrt`."""
    with mock.patch.object(Tensor, "sqrt", sqrt or Tensor.sqrt), \
            np.errstate(divide="ignore", invalid="ignore"):
        for leaf in leaves:
            leaf.grad = None
        build().backward()
    return [leaf.grad for leaf in leaves]


def check_zero_rows(build, leaves, live: np.ndarray, composed=None) -> None:
    """Finite gradients everywhere; on `live` rows (nonzero norms) equal to
    the former backward's; on the others the former backward was not finite.
    For a fused op, `composed` builds the same loss from primitive nodes,
    whose `Tensor.sqrt` takes the former backward."""
    new = gradients(build, leaves)
    old = gradients(composed or build, leaves, sqrt=former_sqrt)
    for leaf, g_new, g_old in zip(leaves, new, old):
        assert np.isfinite(g_new).all(), leaf.name
        assert np.array_equal(g_new[live], g_old[live]), leaf.name
    if not live.all():
        assert not all(np.isfinite(g).all() for g in old)


@PROPERTY_SETTINGS
@given(rows=st.integers(1, 5), channels=st.integers(1, 4),
       zeroed=st.lists(st.booleans(), min_size=5, max_size=5),
       both=st.booleans(), seed=st.integers(0, 2**31 - 1))
@example(rows=1, channels=3, zeroed=[True] * 5, both=False, seed=0)
def test_cosine_similarity_gradient_with_zero_rows(rows, channels, zeroed, both, seed):
    # through the cosine classifier, whose softmax runs over the rows
    rng = np.random.default_rng(seed)
    dead = np.array(zeroed[:rows])
    a_values = grid_values(rng, (rows, channels))
    a_values[dead] = 0.0
    b_values = np.ones((rows, channels)) if seed == 0 else grid_values(rng, (rows, channels))
    if both:
        b_values[dead] = 0.0
    weights = rng.normal(size=rows)
    with precision("float64"):
        a, b = Parameter("a", a_values), Parameter("b", b_values)
        live = ((a_values * a_values).sum(-1) > 0) & ((b_values * b_values).sum(-1) > 0)
        check_zero_rows(lambda: (ops.cosine_softmax(a, b, 0.5) * weights).sum(), [a, b], live,
                        lambda: (composed_cosine_softmax(a, b, 0.5) * weights).sum())


@PROPERTY_SETTINGS
@given(batch=st.integers(1, 3), joints=st.integers(1, 5),
       matched=st.lists(st.booleans(), min_size=15, max_size=15),
       seed=st.integers(0, 2**31 - 1))
@example(batch=1, joints=2, matched=[True, False] + [False] * 13, seed=0)
def test_pose_loss_gradient_where_prediction_equals_target(batch, joints, matched, seed):
    rng = np.random.default_rng(seed)
    exact = np.array(matched[:batch * joints]).reshape(batch, joints)
    gt_values = grid_values(rng, (batch, joints, 3))
    pred_values = grid_values(rng, (batch, joints, 3))
    pred_values[exact] = gt_values[exact]
    with precision("float64"):
        pred, gt = Parameter("pred", pred_values), Parameter("gt", gt_values)
        diff = pred_values - gt_values
        check_zero_rows(lambda: pose_loss(pred, gt), [pred, gt], (diff * diff).sum(-1) > 0)
