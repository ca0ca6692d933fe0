"""Operator semantics: hand-computed cases plus brute-force oracles."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poselift import ops
from poselift.errors import DimensionError, SequenceTooShortError, TrainingError
from poselift.gradcheck import grad_check
from poselift.tensor import Parameter, Tensor, concat, named_parameters, no_grad, precision


def test_matmul_identity():
    b = np.arange(12, dtype=np.float32).reshape(3, 4)
    out = Tensor(np.eye(3)) @ Tensor(b)
    assert np.array_equal(out.data, b)


def test_matmul_hand_case():
    out = Tensor([[1, 2], [3, 4]]) @ Tensor([[1], [1]])
    assert np.array_equal(out.data, [[3], [7]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


@pytest.mark.parametrize("symbol", ["+", "-", "*", "/"])
def test_elementwise_shape_error_names_both_shapes(symbol):
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4,)))
    op = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b, "/": lambda: a / b}
    with pytest.raises(DimensionError, match=rf"\{symbol} operands do not broadcast") as exc:
        op[symbol]()
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_layer_norm_with_a_wrong_width_gain_is_a_dimension_error():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4,\)"):
        ops.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(3)))


def test_softmax_uniform_rows():
    for k in (2, 5, 17):
        out = ops.softmax(Tensor(np.full((3, k), 1.25)))
        assert np.allclose(out.data, 1.0 / k)


def test_softmax_analytic():
    out = ops.softmax(Tensor([np.log(2.0), 0.0]))
    assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-6)


def test_softmax_large_values_stay_finite():
    out = ops.softmax(Tensor([1e4, 0.0]))
    assert np.isfinite(out.data).all()
    assert abs(out.data.sum() - 1.0) < 1e-6


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ops.softmax(Tensor(rng.normal(size=(50, 9)) * 10))
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-6


def test_softmax_entries_strictly_inside_unit_interval():
    # open-interval claim needs float64 and moderate logits; extreme logits
    # legitimately round to 0/1 in float32
    with precision("float64"):
        rng = np.random.default_rng(0)
        out = ops.softmax(Tensor(rng.normal(size=(50, 9)) * 2.5))
    assert (out.data > 0).all() and (out.data < 1).all()


def test_attention_single_key_copies_value_row():
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(4, 6)))
    k = Tensor(rng.normal(size=(1, 6)))
    v = Tensor(rng.normal(size=(1, 6)))
    out = ops.scaled_dot_attention(q, k, v)
    # softmax over one key is exactly 1, so every query returns the value row
    assert np.array_equal(out.data, np.broadcast_to(v.data, (4, 6)))


def test_attention_orthogonal_queries_average_values():
    k = np.zeros((3, 4), dtype=np.float64)
    k[:, 0] = [1.0, 2.0, -1.0]
    q = np.zeros((2, 4), dtype=np.float64)
    q[:, 1] = 5.0                      # orthogonal to every key -> uniform weights
    with precision("float64"):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(3, 4))
        out = ops.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    assert np.allclose(out.data, v.mean(axis=0), atol=1e-12)


def test_attention_matches_direct_evaluation():
    with precision("float64"):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
        out = ops.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        scores = (q @ k.T) / np.sqrt(4)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        assert np.allclose(out.data, weights @ v, atol=1e-12)


def test_attention_channel_mismatch():
    with pytest.raises(DimensionError):
        ops.scaled_dot_attention(Tensor(np.zeros((2, 3))),
                                 Tensor(np.zeros((4, 5))),
                                 Tensor(np.zeros((4, 5))))


def test_conv_width_one_identity_kernel():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3)).astype(np.float32)
    kernel = np.eye(3, dtype=np.float32)[None]     # (1, 3, 3) identity per channel
    out = ops.dilated_conv1d(Tensor(x), Tensor(kernel), bias=Tensor(np.zeros(3)))
    assert np.allclose(out.data, x, atol=1e-7)


def test_conv_constant_input():
    out = ops.dilated_conv1d(Tensor(np.ones((5, 1))), Tensor(np.ones((3, 1, 1))),
                             dilation=1, bias=Tensor(np.zeros(1)))
    assert out.shape == (3, 1)
    assert np.allclose(out.data, 3.0)


def _conv_oracle(x, kernel, dilation):
    width, c_in, c_out = kernel.shape
    frames = x.shape[0] - dilation * (width - 1)
    out = np.zeros((frames, c_out))
    for f in range(frames):
        for co in range(c_out):
            for i in range(width):
                for ci in range(c_in):
                    out[f, co] += x[f + i * dilation, ci] * kernel[i, ci, co]
    return out


@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_conv_matches_triple_loop_oracle(dilation):
    with precision("float64"):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(11, 3))
        kernel = rng.normal(size=(3, 3, 2))
        out = ops.dilated_conv1d(Tensor(x), Tensor(kernel), dilation=dilation,
                                 bias=Tensor(np.zeros(2)))
        assert np.allclose(out.data, _conv_oracle(x, kernel, dilation), atol=1e-12)


def test_conv_sequence_too_short():
    with pytest.raises(SequenceTooShortError):
        ops.dilated_conv1d(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1, 1))),
                           dilation=1, bias=Tensor(np.zeros(1)))


def test_conv_same_padding_keeps_extent():
    x = Tensor(np.ones((7, 2)))
    out = ops.dilated_conv1d(x, Tensor(np.ones((3, 2, 2))), dilation=2,
                             bias=Tensor(np.zeros(2)), padding="same")
    assert out.shape == (7, 2)


def test_cosine_similarity_scale_invariant():
    rng = np.random.default_rng(6)
    u, v = rng.normal(size=8), rng.normal(size=8)
    base = ops.cosine_similarity(Tensor(u), Tensor(v)).item()
    for alpha in (0.1, 3.7, 250.0):
        scaled = ops.cosine_similarity(Tensor(alpha * u), Tensor(v)).item()
        assert abs(scaled - base) < 1e-6


def test_concat_and_slice_round_trip():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
    joined = concat([Tensor(a), Tensor(b)], axis=0)
    assert np.array_equal(joined.data[:3], a.astype(np.float32))
    assert np.array_equal(joined[3:].data, b.astype(np.float32))


def test_broadcast_add_and_reductions():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    row = Tensor(np.array([10.0, 20.0, 30.0]))
    out = x + row
    assert np.array_equal(out.data, [[10, 21, 32], [13, 24, 35]])
    assert out.sum().item() == out.data.sum()
    assert abs(out.mean(axis=0).data - out.data.mean(axis=0)).max() < 1e-6


def test_detach_blocks_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (x.detach() * x).sum()
    loss.backward()
    assert np.allclose(x.grad, 1.0)   # only the non-detached factor contributes


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(Exception):
        (x * 2).backward()


def test_precision_context_switches_dtype():
    assert Tensor(np.zeros(2)).data.dtype == np.float32
    with precision("float64"):
        assert Tensor(np.zeros(2)).data.dtype == np.float64
    assert Tensor(np.zeros(2)).data.dtype == np.float32


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with no_grad():
        y = (x * 2.0 + 1.0).sum()
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert (x * 2.0).requires_grad       # the mode ends with the block


def test_no_grad_restores_the_mode_when_nested_or_raising():
    x = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert not (x * 2.0).requires_grad     # the inner block restored "off"
    assert (x * 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert (x * 2.0).requires_grad


def live_tensors() -> int:
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def test_backward_frees_op_outputs_and_keeps_leaf_gradients():
    x = Parameter("x", np.array([0.5, -1.0, 2.0]))
    frozen = Parameter("frozen", np.array([1.0, 2.0, 3.0]), requires_grad=False)
    h = x * frozen
    e = h.exp()
    loss = (e * h).sum()
    loss.backward()
    for node in (h, e, loss):
        assert node.grad is None and node._parents == ()
        assert node.data is not None                  # values stay readable
    assert np.allclose(x.grad, np.exp(h.data) * (h.data + 1.0) * frozen.data)
    assert frozen.grad is None


def test_a_second_backward_through_a_freed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = x * 3.0
    loss = (h * h).sum()
    loss.backward()
    first = x.grad
    with pytest.raises(TrainingError, match="earlier backward"):
        loss.backward()
    with pytest.raises(TrainingError, match="earlier backward"):
        (h * 2.0 + x).sum().backward()           # a new graph on a spent node
    assert x.grad is first and h.grad is None    # raised before any gradient moved
    (x * 2.0).sum().backward()                   # leaves start new graphs freely
    assert np.array_equal(x.grad, first + 2.0)


def test_a_graph_is_freed_by_reference_counting():
    x = Tensor(np.ones(3), requires_grad=True)
    gc.disable()                          # no cycle collection may help
    try:
        before = live_tensors()
        loss = ((x * 2.0) * (x * 2.0)).sum()
        loss.backward()
        assert live_tensors() > before
        del loss
        assert live_tensors() == before
    finally:
        gc.enable()
    assert np.allclose(x.grad, 8.0)


# -- slice backward: basic indices assign, advanced indices scatter-add ----------

SLICE_SETTINGS = settings(max_examples=150, deadline=None)
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5)
dtypes = st.sampled_from(["float32", "float64"])


def draw_array(data, dtype, shape):
    return data.draw(hnp.arrays(dtype, shape, elements=st.floats(-4, 4, width=32)))


def scatter_reference(shape, index, g, dtype):
    ref = np.zeros(shape, dtype=dtype)
    np.add.at(ref, index, g)
    return ref


@st.composite
def advanced_indices(draw, shape):
    """Int arrays with repeats, lists, boolean masks, a bool scalar, and
    basic and advanced parts in one tuple."""
    def positions(side):
        return st.lists(st.integers(-side, side - 1), min_size=1, max_size=6)

    kind = draw(st.sampled_from(["array", "list", "mask", "full_mask", "bool", "mixed"]))
    if kind == "array":
        return np.array(draw(positions(shape[0])))
    if kind == "list":
        return draw(positions(shape[0]))
    if kind == "mask":
        return draw(hnp.arrays(bool, shape[0]))
    if kind == "full_mask":
        return draw(hnp.arrays(bool, shape))
    if kind == "bool":
        return draw(st.sampled_from([True, False, np.True_, np.False_]))
    axis = draw(st.integers(0, len(shape) - 1))
    parts = [draw(st.slices(side)) for side in shape[:axis]]
    parts.append(np.array(draw(positions(shape[axis]))))
    if axis + 1 < len(shape):
        parts.append(draw(st.integers(-shape[axis + 1], shape[axis + 1] - 1)))
    return tuple(parts)


def check_slice_backward(data, shape, index, dtype):
    """x[index]'s gradient under the loss sum(x[index] * g) is the scatter-add
    of g. Assignment can keep a -0.0 where adding to zero gives +0.0;
    array_equal counts the two as equal."""
    x = draw_array(data, dtype, shape)
    g = draw_array(data, dtype, x[index].shape)
    with precision(dtype):
        xt = Tensor(x, requires_grad=True)
        (xt[index] * Tensor(g)).sum().backward()
    assert np.array_equal(xt.grad, scatter_reference(shape, index, g, dtype))


@SLICE_SETTINGS
@given(data=st.data(), shape=shapes, dtype=dtypes)
def test_basic_index_gradient_equals_scatter_add(data, shape, dtype):
    index = data.draw(hnp.basic_indices(shape, allow_newaxis=True, allow_ellipsis=True))
    check_slice_backward(data, shape, index, dtype)


@SLICE_SETTINGS
@given(data=st.data(), shape=shapes, dtype=dtypes)
def test_advanced_index_gradient_equals_scatter_add(data, shape, dtype):
    check_slice_backward(data, shape, data.draw(advanced_indices(shape)), dtype)


@SLICE_SETTINGS
@given(data=st.data(), shape=shapes, dtype=dtypes)
def test_two_consumers_accumulate_slice_gradients(data, shape, dtype):
    # One sliced tensor read twice, and the source read through a second index.
    first = data.draw(hnp.basic_indices(shape, allow_newaxis=True))
    second = data.draw(st.one_of(hnp.basic_indices(shape), advanced_indices(shape)))
    x = draw_array(data, dtype, shape)
    g1, g2 = draw_array(data, dtype, x[first].shape), draw_array(data, dtype, x[first].shape)
    g3 = draw_array(data, dtype, x[second].shape)
    with precision(dtype):
        xt = Tensor(x, requires_grad=True)
        y = xt[first]
        ((y * Tensor(g1)).sum() + (y * Tensor(g2)).sum()
         + (xt[second] * Tensor(g3)).sum()).backward()
    want = (scatter_reference(shape, first, g1 + g2, dtype)
            + scatter_reference(shape, second, g3, dtype))
    assert np.array_equal(xt.grad, want)    # two-term sums round the same either way


@pytest.mark.parametrize("index", [
    (slice(None, None, -1), 2),
    (-1, slice(3, 0, -2), None),
    (Ellipsis, slice(1, 1)),
    (None, slice(1, None), Ellipsis, -2),
    (np.array([0, 2, 0, -1]), slice(None, None, -1)),
    (slice(None), np.array([1, 1, 3])),
    np.array([[True, False, True, False, True]] * 3),
], ids=["neg-step", "neg-int", "empty", "newaxis", "repeats", "mixed", "mask"])
def test_slice_gradient_matches_central_differences(index):
    with precision("float64"):
        rng = np.random.default_rng(8)
        x = Parameter("x", rng.normal(size=(3, 5)))
        w = rng.normal(size=x.data[index].shape)
        report = grad_check(lambda: (x[index] * w).sum(), [x])
    assert report.passed, report


# -- the parameter walker ----------------------------------------------------

class Module:
    def __init__(self, **attributes):
        for name, value in attributes.items():
            setattr(self, name, value)


def test_walker_follows_attribute_order_through_nested_lists_and_dicts():
    a, b, c, d, e = (Parameter(name, np.zeros(2)) for name in "abcde")
    inner = Module(weight=c, layers=[[Module(x=d)], []])
    obj = Module(first=b, nested=[[a], {"k": inner, "j": [e]}])
    assert list(named_parameters(obj)) == ["b", "a", "c", "d", "e"]
    assert named_parameters(obj)["c"] is c


def test_walker_skips_none_plain_tensors_and_other_values():
    p = Parameter("p", np.ones(3))
    obj = Module(missing=None, cache=Tensor(np.ones(3), requires_grad=True),
                 array=np.ones(3), count=3, label="p", blocks=[None, Module(p=p)])
    assert named_parameters(obj) == {"p": p}
    assert named_parameters(None) == {} and named_parameters(Module()) == {}


def test_walker_rejects_a_shared_parameter_and_a_repeated_name():
    p = Parameter("shared", np.zeros(2))
    with pytest.raises(TrainingError, match="duplicate parameter name 'shared'"):
        named_parameters(Module(left=Module(w=p), right=[p]))
    with pytest.raises(TrainingError, match="duplicate parameter name 'w'"):
        named_parameters(Module(a=Parameter("w", np.zeros(2)), b=Parameter("w", np.zeros(2))))
