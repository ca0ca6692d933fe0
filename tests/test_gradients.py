"""Finite-difference verification of analytic gradients (float64 mode)."""

import inspect

import numpy as np
import pytest

from poselift import ops
from poselift.errors import TrainingError
from poselift.gradcheck import grad_check, run_op_suite
from poselift.tensor import Parameter, Tensor, precision

OP_REPORTS = run_op_suite()


@pytest.mark.parametrize("op_name", sorted(OP_REPORTS))
def test_op_gradient(op_name):
    report = OP_REPORTS[op_name]
    assert report.passed, f"{op_name}: {report}"


def test_every_public_op_is_in_the_suite():
    # The suite checks dilated_conv1d once per padding, dilation and stride case.
    suite_names = {"dilated_conv1d": ("conv_valid", "conv_dilated", "conv_same",
                                      "conv_strided")}
    public = [name for name, fn in inspect.getmembers(ops, inspect.isfunction)
              if fn.__module__ == ops.__name__ and not name.startswith("_")]
    assert "dilated_conv1d" in public
    unchecked = [name for name in public
                 if not any(entry in OP_REPORTS for entry in suite_names.get(name, (name,)))]
    assert unchecked == []


def test_square_at_three():
    with precision("float64"):
        x = Parameter("x", np.array(3.0))
        report = grad_check(lambda: (x.tensor * x.tensor).sum(), [x])
    # analytic 6, central difference 6 + O(eps^2)
    assert report.passed and report.max_rel_err < 1e-8


def test_constant_function_zero_gradients():
    with precision("float64"):
        x = Parameter("x", np.ones(4))
        report = grad_check(lambda: (x.tensor * 0.0).sum() + 7.0, [x])
    assert report.max_rel_err == 0.0


def test_nonfinite_loss_aborts_with_diagnostic():
    with precision("float64"), np.errstate(divide="ignore"):
        x = Parameter("x", np.array([0.0]))
        with pytest.raises(TrainingError, match="not finite"):
            grad_check(lambda: x.tensor.log().sum(), [x])


def test_gradient_accumulates_for_repeated_operand():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    ((x * x) + x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data + 1)
