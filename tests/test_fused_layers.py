"""The fused layer-norm, attention and cosine nodes against the graphs of
the primitive ops they replace: equal outputs and gradients, bit for bit,
in float32 and float64, over drawn shapes and degenerate inputs (constant
rows, zero vectors, one sample, one key); and their float64 gradients
against central differences."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poselift import ops
from poselift.gradcheck import grad_check
from poselift.tensor import Parameter, precision

from test_fused_ops import DTYPES, FUSED_SETTINGS, assert_same_gradients, leaf


# -- the composed oracles: each primitive op its own graph node ----------------------

def composed_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + ops.LN_EPS).sqrt() * gain + bias


def composed_attention(q, k, v):
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    return ops.softmax(scores) @ v


def composed_cosine_similarity(a, b):
    dot = (a * b).sum(axis=-1)
    return dot / (ops.l2_norm(a) * ops.l2_norm(b) + ops.COS_EPS)


def composed_cosine_softmax(a, b, tau):
    return ops.softmax(composed_cosine_similarity(a, b) * (1.0 / tau))


# -- one backward through a fused op and through its oracle ---------------------------

# How the inputs of a drawn case are wired: each input from its own leaf,
# one node read as several inputs, or several nodes of one leaf (as the
# text encoder's q, k and v are three projections of one tensor).
SHARING = st.sampled_from(["none", "shared", "common"])


def run(op, values, grads, sharing, weights):
    """One backward through `op`. The inputs are `x * 1.5` of leaves `x`, so
    each op input is an op output as in the model. "shared" passes for each
    input the first input's node of its shape (attention's `(x, x, x)` or
    `(q, m, m)`, `cos(a, a)`); "common" makes each input of the first
    input's shape a node of its own on the first leaf, so that leaf's
    gradient sums their terms in the order `backward()` reaches them."""
    leaves = [leaf(f"x{i}", v, g) for i, (v, g) in enumerate(zip(values, grads))]
    inputs = [x * 1.5 for x in leaves]
    if sharing == "shared":
        inputs = [next(u for u in inputs if u.shape == t.shape) for t in inputs]
    elif sharing == "common":
        inputs = [leaves[0] * (1.5 + i) if t.shape == leaves[0].shape else t
                  for i, t in enumerate(inputs)]
    out = op(*inputs)
    # other readers of the first leaf and of the first input: the leaf's
    # gradient sums three or more terms, so their order shows in it
    loss = (leaves[0] * 0.5).sum() + (inputs[0] * 2.0).sum() + (out * weights).sum()
    loss.backward()
    return out.data, leaves


def assert_fused_equals_oracle(fused_op, oracle_op, values, grads, sharing, seed):
    rng = np.random.default_rng(seed)
    oracle_out = oracle_op(*[leaf("c", v, False) for v in values])
    weights = rng.normal(size=oracle_out.shape).astype(values[0].dtype)
    fused = run(fused_op, values, grads, sharing, weights)
    oracle = run(oracle_op, values, grads, sharing, weights)
    assert fused[0].dtype == oracle[0].dtype and np.array_equal(fused[0], oracle[0])
    assert_same_gradients(fused[1], oracle[1])
    for x in fused[1]:
        assert x.grad is None or np.isfinite(x.grad).all(), x.name


# -- layer norm ----------------------------------------------------------------------

@FUSED_SETTINGS
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=4),
       channels=st.integers(1, 6), constant_row=st.booleans(),
       grads=st.tuples(*[st.booleans()] * 3), dtype=DTYPES, seed=st.integers(0, 2**31 - 1))
@example(lead=(3, 5), channels=16, constant_row=False, grads=(True, False, False),
         dtype="float32", seed=0)                      # the frozen text encoder's
@example(lead=(2, 1), channels=16, constant_row=True, grads=(True, True, True),
         dtype="float32", seed=1)                      # APP's, with a constant row
@example(lead=(1,), channels=1, constant_row=False, grads=(True, True, True),
         dtype="float64", seed=2)                      # one channel: every row constant
def test_fused_layer_norm_equals_the_composed_graph(lead, channels, constant_row, grads,
                                                    dtype, seed):
    rng = np.random.default_rng(seed)
    with precision(dtype):
        x = rng.normal(size=lead + (channels,)).astype(dtype)
        if constant_row:
            x.reshape(-1, channels)[0] = 0.75
        values = [x, (1.0 + 0.1 * rng.normal(size=channels)).astype(dtype),
                  (0.1 * rng.normal(size=channels)).astype(dtype)]
        assert_fused_equals_oracle(ops.layer_norm, composed_layer_norm, values, grads,
                                   "none", seed)


# -- attention -----------------------------------------------------------------------

@FUSED_SETTINGS
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
       queries=st.integers(1, 4), keys=st.integers(1, 5), channels=st.integers(1, 5),
       grads=st.tuples(*[st.booleans()] * 3), sharing=SHARING, dtype=DTYPES,
       seed=st.integers(0, 2**31 - 1))
@example(lead=(3,), queries=5, keys=5, channels=16, grads=(True, True, True),
         sharing="shared", dtype="float32", seed=0)    # the text encoder's self-attention
@example(lead=(2,), queries=1, keys=1, channels=4, grads=(True, True, True),
         sharing="none", dtype="float32", seed=1)      # one key: its weight is exactly 1
@example(lead=(1,), queries=3, keys=5, channels=4, grads=(True, True, True),
         sharing="none", dtype="float64", seed=2)      # one sample
@example(lead=(2,), queries=3, keys=3, channels=4, grads=(True, True, True),
         sharing="common", dtype="float32", seed=3)    # q, k and v of one tensor
def test_fused_attention_equals_the_composed_graph(lead, queries, keys, channels, grads,
                                                   sharing, dtype, seed):
    rng = np.random.default_rng(seed)
    with precision(dtype):
        values = [rng.normal(size=lead + (n, channels)).astype(dtype)
                  for n in (queries, keys, keys)]
        assert_fused_equals_oracle(ops.scaled_dot_attention, composed_attention, values,
                                   grads, sharing, seed)


# -- cosine similarity and the cosine classifier -------------------------------------

@FUSED_SETTINGS
@given(batch=st.integers(1, 3), rows=st.integers(1, 4), channels=st.integers(1, 5),
       zero=st.sampled_from(["none", "a", "b", "both"]), softmax=st.booleans(),
       grads=st.tuples(*[st.booleans()] * 2), sharing=SHARING, dtype=DTYPES,
       seed=st.integers(0, 2**31 - 1))
@example(batch=4, rows=4, channels=16, zero="none", softmax=True, grads=(True, True),
         sharing="none", dtype="float32", seed=0)      # classify's (B, K, C) x (B, 1, C)
@example(batch=1, rows=3, channels=4, zero="both", softmax=True, grads=(True, True),
         sharing="none", dtype="float32", seed=1)      # zero vectors, one sample
@example(batch=2, rows=1, channels=3, zero="a", softmax=False, grads=(True, True),
         sharing="shared", dtype="float64", seed=2)    # cos(a, a)
@example(batch=2, rows=3, channels=4, zero="none", softmax=True, grads=(True, True),
         sharing="common", dtype="float32", seed=3)    # a and b of one tensor
def test_fused_cosine_equals_the_composed_graph(batch, rows, channels, zero, softmax, grads,
                                                sharing, dtype, seed):
    rng = np.random.default_rng(seed)
    with precision(dtype):
        a = rng.normal(size=(batch, rows, channels)).astype(dtype)
        b = rng.normal(size=(batch, 1 if sharing == "none" else rows, channels)).astype(dtype)
        if zero in ("a", "both"):
            a[0, 0] = 0.0
        if zero in ("b", "both"):
            b[0, 0] = 0.0
        if softmax:
            fused_op, oracle_op = (lambda x, y: ops.cosine_softmax(x, y, 0.07),
                                   lambda x, y: composed_cosine_softmax(x, y, 0.07))
        else:
            fused_op, oracle_op = ops.cosine_similarity, composed_cosine_similarity
        assert_fused_equals_oracle(fused_op, oracle_op, [a, b], grads, sharing, seed)


# -- central differences over drawn shapes (float64) ---------------------------------

@settings(max_examples=15, deadline=None)
@given(lead=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=3),
       keys=st.integers(1, 4), channels=st.integers(2, 4), seed=st.integers(0, 2**31 - 1))
def test_fused_ops_gradients_over_drawn_shapes(lead, keys, channels, seed):
    rng = np.random.default_rng(seed)
    with precision("float64"):
        x, k, v = (Parameter(name, rng.normal(size=lead + (n, channels)))
                   for name, n in (("x", 2), ("k", keys), ("v", keys)))
        gain = Parameter("gain", 1.0 + 0.1 * rng.normal(size=channels))
        bias = Parameter("bias", 0.1 * rng.normal(size=channels))
        w_x, w_cos = rng.normal(size=x.shape), rng.normal(size=lead + (2, keys))
        checks = {
            "layer_norm": (lambda: (ops.layer_norm(x, gain, bias) * w_x).sum(),
                           [x, gain, bias]),
            "attention": (lambda: (ops.scaled_dot_attention(x, k, v) * w_x).sum(), [x, k, v]),
            "cosine_softmax": (lambda: (ops.cosine_softmax(
                x.reshape(*lead, 2, 1, channels), k.reshape(*lead, 1, keys, channels), 0.5)
                * w_cos).sum(), [x, k]),
        }
        for name, (build, params) in checks.items():
            report = grad_check(build, params, tol=1e-4)
            assert report.passed, f"{name}: {report}"
