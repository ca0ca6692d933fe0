"""Every `composed_*` oracle of the fused-op tests is made of primitive
nodes: with each fused op of `poselift.ops` patched to raise, each oracle
still builds its output. An oracle that called a fused op would compare
that op with itself."""

import contextlib
import inspect
from unittest import mock

import numpy as np
import pytest

from poselift import ops
from poselift.tensor import Tensor

import test_fused_layers
import test_fused_ops
import test_fused_units

# The chains of primitive nodes that `ops` builds for the model's own use.
PRIMITIVE_CHAINS = {"softmax", "l2_norm"}
FUSED_OPS = sorted(name for name, fn in inspect.getmembers(ops, inspect.isfunction)
                   if fn.__module__ == ops.__name__ and not name.startswith("_")
                   and name not in PRIMITIVE_CHAINS)
ORACLES = {name: fn for module in (test_fused_ops, test_fused_units, test_fused_layers)
           for name, fn in vars(module).items()
           if name.startswith("composed_") and inspect.isfunction(fn)}


def values(*shape):
    return Tensor(np.random.default_rng(sum(shape)).normal(size=shape))


def unit_args(training):
    return (values(2, 9, 3), values(3, 3, 4), values(4), values(4), values(4),
            np.zeros(4), np.ones(4), training)


# Each oracle's calls, on small inputs: the conv and the unit with "same"
# padding and a stride, the unit in both modes.
ORACLE_CALLS = {
    "composed_batch_norm": [(values(2, 5, 4), values(4), values(4), np.zeros(4), np.ones(4))],
    "composed_dilated_conv1d": [(values(2, 9, 3), values(3, 3, 4), 2, values(4), "same", 2)],
    "composed_conv_bn_relu": [(*unit_args(training), 2, "same", 2)
                              for training in (True, False)],
    "composed_linear": [(values(2, 5, 3), values(3, 4), values(4))],
    "composed_layer_norm": [(values(2, 5, 4), values(4), values(4))],
    "composed_attention": [(values(2, 3, 4), values(2, 5, 4), values(2, 5, 4))],
    "composed_cosine_similarity": [(values(2, 3, 4), values(2, 1, 4))],
    "composed_cosine_softmax": [(values(2, 3, 4), values(2, 1, 4), 0.5)],
}


def test_the_fused_ops_and_the_oracles_are_all_known():
    assert FUSED_OPS == ["conv_bn_relu", "cosine_softmax", "layer_norm", "linear",
                         "scaled_dot_attention"]
    assert sorted(ORACLES) == sorted(ORACLE_CALLS)


@pytest.mark.parametrize("name", sorted(ORACLE_CALLS))
def test_an_oracle_builds_its_output_with_every_fused_op_refused(name):
    with contextlib.ExitStack() as stack:
        for op in FUSED_OPS:
            stack.enter_context(mock.patch.object(
                ops, op, side_effect=AssertionError(f"{name} calls the fused ops.{op}")))
        for args in ORACLE_CALLS[name]:
            out = ORACLES[name](*args)
            assert isinstance(out, Tensor) and np.isfinite(out.data).all()
