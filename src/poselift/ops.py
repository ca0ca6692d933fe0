"""Neural-net operations: fused graph nodes, and the two chains of
primitive nodes that other modules build (`softmax` for `LabelHead`,
`l2_norm` for `pose_loss`).

Everything here is differentiable end to end; shapes follow the
channel-last convention (..., frames, channels). Softmax, the norms, the
cosines and layer norm reduce over the last axis only; batch norm over all
the others.

A fused op is one graph node in place of a chain of primitive ones: the
TCN unit `conv_bn_relu` (temporal conv, batch norm and ReLU, one body for
both modes), `linear` (`x @ W + b`), `layer_norm`, `scaled_dot_attention`
and the cosine classifier `cosine_softmax` (the temperature softmax over
the cosines). Each is the model's only op for what it computes. The
unit's conv parents are its input, kernel and bias: it slices its taps
from the input's values (for "same", from one zero-padded copy of them)
and builds no slice, pad or concat node. A fused op's forward and backward
run the replaced nodes' own expressions in their order, with the chain's
constants as the chain's nodes hold them (0-d arrays of the default dtype,
see `_const`), so its output and gradients are bitwise those of the
chain. It delivers each input's gradient terms in the order the chain
delivers them, and its parents' order lets `Tensor.backward` reach the
inputs' ancestries in the order the chain let it; so every gradient sums
its terms in the chain's order wherever no input of the op is computed
from another of its inputs, as none is in the model. It keeps only the
arrays that backward reads: no conv, batch-norm, matmul or score array
that no backward needs. A fused step writes over an array the op
allocated itself only where the step's result has that array's dtype and
shape, so it rounds as the chain's new array would: the conv sums its tap
products in place, `linear` adds its bias in place, attention scales,
shifts and exponentiates its scores in place, an op that keeps no graph
writes its later steps over its own earlier arrays (the unit its whole
output over its conv output), and the unit's backward runs batch norm's
chain over arrays it owns and sums the taps' input gradients in one
buffer. The chains, built from primitive nodes in the tests, are the only
oracles.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionError, SequenceTooShortError
from .tensor import (Tensor, _check_matmul, _elementwise, _matmul_backward, _unbroadcast,
                     default_dtype, keeps_graph)


LN_EPS = 1e-5        # added to the layer-norm variance
COS_EPS = 1e-8       # added to the cosine-similarity denominator
BN_MOMENTUM = 0.1    # weight of the newest batch in the running statistics
BN_EPS = 1e-5


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max is subtracted as a constant)."""
    shift = np.max(x.data, axis=-1, keepdims=True)
    e = (x - shift).exp()
    return e / e.sum(axis=-1, keepdims=True)


def l2_norm(x: Tensor) -> Tensor:
    """Euclidean norm over the last axis, which it drops."""
    return (x * x).sum(axis=-1).sqrt()


def cosine_softmax(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """softmax(cos(a, b) / tau) over the last axis of the cosines: the cosine
    classifier as one node, with `COS_EPS` guarding the cosine's
    denominator. At a zero vector its gradient is finite: the norm's
    subgradient there is 0.

    Forward and backward run the expressions of the chain it replaces in
    its order: `a * b` -> sum, the two norms `(x * x)` -> sum -> sqrt, their
    product + `COS_EPS`, the divide, then `* (1 / tau)`, the max shift, exp,
    sum and divide. Each input's gradient contributions are delivered as
    that chain delivers them: `a`, `b` from the dot product, then `a`
    twice from its norm and `b` twice from its own.
    """
    ab = _elementwise("*", operator.mul, a, b)
    dot = np.asarray(ab.sum(axis=-1))
    norm_a = np.sqrt(np.asarray((a.data * a.data).sum(axis=-1)))
    norm_b = np.sqrt(np.asarray((b.data * b.data).sum(axis=-1)))
    den = norm_a * norm_b + _const(COS_EPS)
    cos = dot / den
    inv_tau = _const(1.0 / tau)
    e = cos * inv_tau
    e = np.exp(_apply(np.subtract, e, np.max(e, axis=-1, keepdims=True)), out=e)
    z = np.asarray(e.sum(axis=-1, keepdims=True))
    out = e / z

    def backward(g):
        # the softmax's divide, sum, exp and shift, then the scale
        g_z = _unbroadcast(-g * out / z, z.shape)
        g = (g / z + np.broadcast_to(g_z, e.shape)) * e * inv_tau
        g_den = -g * cos / den
        g_ab = np.broadcast_to(np.expand_dims(g / den, -1), np.broadcast_shapes(a.shape, b.shape))
        if a.requires_grad:
            a._accumulate(_unbroadcast(g_ab * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g_ab * a.data, b.shape))
        for x, norm, other in ((a, norm_a, norm_b), (b, norm_b, norm_a)):
            if x.requires_grad:
                g_norm = _unbroadcast(g_den * other, norm.shape)
                g_sq = g_norm * 0.5 / np.where(norm == 0, np.inf, norm)
                g_x = np.broadcast_to(np.expand_dims(g_sq, -1), x.shape) * x.data
                x._accumulate(g_x)
                x._accumulate(g_x)

    return Tensor._from_op(out, (a, b), backward)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kᵀ / sqrt(C)) v over the last two axes; batch dims broadcast.

    q: (..., nq, C), k: (..., nk, C), v: (..., nk, C) -> (..., nq, C)

    One node, whose forward and backward run the chain's expressions in
    its order (`q @ kᵀ`, the scale, the max shift, exp, sum, divide, `@ v`)
    and which keeps the exponentials, their sums and the weights. It
    delivers `v`'s gradient, then `q`'s, then `k`'s, as the chain does, and
    its parents `(q, k, v)` let `backward()` reach `v`'s ancestry first,
    then `k`'s, then `q`'s, as it reached them through the chain.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-1] != v.shape[-1]:
        raise DimensionError(
            f"attention channel extents disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"attention key/value counts disagree: k {k.shape}, v {v.shape}")
    for x in (q, k, v):
        if x.ndim < 2:
            raise DimensionError(f"attention needs 2D+ operands, got q {q.shape}, "
                                 f"k {k.shape}, v {v.shape}")
    scale = _const(1.0 / math.sqrt(q.shape[-1]))
    e = _apply(np.multiply, q.data @ k.data.swapaxes(-1, -2), scale)
    e = np.exp(_apply(np.subtract, e, np.max(e, axis=-1, keepdims=True)), out=e)
    z = np.asarray(e.sum(axis=-1, keepdims=True))
    parents = (q, k, v)
    weights = _apply(np.true_divide, e, z, overwrite=not keeps_graph(parents))

    def backward(g):
        need_scores = q.requires_grad or k.requires_grad
        if need_scores:
            g_weights = _unbroadcast(g @ v.data.swapaxes(-1, -2), weights.shape)
        if v.requires_grad:
            v._accumulate(_unbroadcast(weights.swapaxes(-1, -2) @ g, v.shape))
        if not need_scores:
            return
        g_z = _unbroadcast(-g_weights * weights / z, z.shape)
        g_scores = (g_weights / z + np.broadcast_to(g_z, e.shape)) * e * scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(g_scores @ k.data, q.shape))
        if k.requires_grad:
            k_t = k.shape[:-2] + k.shape[:-3:-1]
            k._accumulate(_unbroadcast(q.data.swapaxes(-1, -2) @ g_scores,
                                       k_t).swapaxes(-1, -2))

    return Tensor._from_op(weights @ v.data, parents, backward)


def _conv_forward(x: Tensor, kernel: Tensor, bias: Tensor, dilation: int, padding: str,
                  stride: int) -> tuple[np.ndarray, list[tuple], np.ndarray]:
    """The conv's source, `x`'s values or for "same" their zero-padded copy,
    one index of it per kernel slab (the taps: views, not nodes), and the
    conv output: a new array. The taps' products are summed in place."""
    if kernel.ndim != 3:
        raise DimensionError(f"conv kernel must be (w, Cin, Cout), got {kernel.shape}")
    width, c_in, _ = kernel.shape
    if x.shape[-1] != c_in:
        raise DimensionError(
            f"conv input channels {x.shape} do not match kernel {kernel.shape}")
    source = x.data
    if padding == "same":
        total = dilation * (width - 1)
        left, right = total // 2, total - total // 2
        lead = source.shape[:-2]
        source = np.concatenate([np.zeros((*lead, left, c_in), default_dtype()), source,
                                 np.zeros((*lead, right, c_in), default_dtype())], axis=-2)
    elif padding != "valid":
        raise DimensionError(f"unknown conv padding {padding!r}")
    frames = source.shape[-2]
    out_frames = frames - dilation * (width - 1)
    if out_frames < 1:
        raise SequenceTooShortError(
            f"conv needs at least {dilation * (width - 1) + 1} frames, got {frames}")
    span = (out_frames - 1) // stride * stride + 1     # first to last kept frame
    taps, out = [], None
    for i, k in enumerate(kernel.data):
        taps.append((..., slice(i * dilation, i * dilation + span, stride), slice(None)))
        # no name holds a tap product, so each is freed once it is summed
        out = source[taps[i]] @ k if out is None else _apply(np.add, out, source[taps[i]] @ k)
    # A new array, not the tap sum itself: in training it outlives the
    # forward, and an array allocated after the tap products gave F=243
    # training a lower peak RSS than keeping the first product.
    return source, taps, out + _over_frames(bias.data, out)


def _over_frames(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-channel `v`, (C,) or (1, ..., 1, C), repeated over the frames of
    `h` (..., F, C), as `np.tile(v, (F, 1))` repeats it. In an elementwise
    op with `h` it gives the values that broadcasting `v` does, with numpy's
    inner loop run once per sample instead of once per frame."""
    out = np.empty((*v.shape[:-2], h.shape[-2], v.shape[-1]), v.dtype)
    out[...] = v
    return out


def _const(value: float) -> np.ndarray:
    """A constant operand as a Tensor op receives it: a 0-d array of the
    default dtype."""
    return np.asarray(value, dtype=default_dtype())


def _apply(ufunc: np.ufunc, acc: np.ndarray, operand: np.ndarray,
           overwrite: bool = True) -> np.ndarray:
    """`ufunc(acc, operand)`, written over `acc`, an array the caller owns,
    when `overwrite` and the result has `acc`'s dtype and shape: there it
    rounds as the new array would. A new array otherwise."""
    if overwrite and np.result_type(acc, operand) == acc.dtype:
        try:
            return ufunc(acc, operand, out=acc)
        except ValueError:      # the result has more elements: numpy wrote nothing
            pass
    return ufunc(acc, operand)


def _conv_backward(g: np.ndarray, x: Tensor, source: np.ndarray, taps: list[tuple],
                   kernel: Tensor, bias: Tensor) -> None:
    # Each tap is one matmul; its gradient and the kernel slab's are those a
    # matmul node would pass on. The input's gradient is summed tap by tap
    # in one buffer this backward allocates, in the order a slice node per
    # tap (and for "same" a concat node) would have added it: in "valid",
    # after the gradient `x` already holds, which is copied, never written.
    if bias.requires_grad:
        bias._accumulate(_unbroadcast(g, bias.shape))
    if kernel.requires_grad:
        grad_kernel = np.empty_like(kernel.data)
        for i, tap in enumerate(taps):
            grad_kernel[i] = _unbroadcast(source[tap].swapaxes(-1, -2) @ g, kernel.shape[1:])
        kernel._accumulate(grad_kernel)
    if not x.requires_grad:
        return
    padded = source is not x.data
    buf = (np.zeros_like(source) if padded or x.grad is None
           else x.grad.astype(np.result_type(x.grad, source)))
    for tap, k in zip(taps, kernel.data):
        # cast as a slice node's gradient, which had its input's dtype
        buf[tap] += (g @ k.swapaxes(-1, -2)).astype(source.dtype, copy=False)
    if padded:
        frames = x.shape[-2]
        left = (source.shape[-2] - frames) // 2
        x._accumulate(buf[..., left:left + frames, :])
    else:
        x.grad = buf


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias as one node, which keeps no matmul output; its
    gradients are those of the matmul and add nodes it replaces. The bias
    is added in place, repeated over the frames of a (..., F, C) product."""
    _check_matmul(x, weight)
    product = x.data @ weight.data
    data = _apply(np.add, product,
                  _over_frames(bias.data, product) if product.ndim > 2 else bias.data)

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        _matmul_backward(g, x, weight)

    return Tensor._from_op(data, (x, weight, bias), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and
    shift: one node.

    Its forward and backward run the expressions of the chain it replaces
    in its order: mean, subtract, square, mean, + `LN_EPS`, sqrt, divide,
    `* gain`, `+ bias`. It delivers `x`'s gradient as the chain does, the
    subtract's term and then the mean's, and keeps the centred input, the
    sd and the normalized input. Without a graph it writes the divide, the
    scale and the shift over the centred input.
    """
    for name, p in (("gain", gain), ("bias", bias)):
        if p.shape != x.shape[-1:]:
            raise DimensionError(f"layer norm of input {x.shape} needs a {name} of shape "
                                 f"{x.shape[-1:]}, got {p.shape}")
    parents = (x, gain, bias)
    graph = keeps_graph(parents)
    inv_c = _const(1.0 / x.shape[-1])
    centered = x.data - np.asarray(x.data.sum(axis=-1, keepdims=True)) * inv_c
    sd = np.sqrt(np.asarray((centered * centered).sum(axis=-1, keepdims=True)) * inv_c
                 + _const(LN_EPS))
    normed = _apply(np.true_divide, centered, sd, overwrite=not graph)
    out = _apply(np.add, _apply(np.multiply, normed, gain.data, overwrite=not graph),
                 bias.data)

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape))
        if not x.requires_grad:
            return
        g_normed = g * gain.data
        g_sd = _unbroadcast(-g_normed * normed / sd, sd.shape)
        g_var = g_sd * 0.5 / np.where(sd == 0, np.inf, sd) * inv_c
        g_square = np.broadcast_to(g_var, centered.shape) * centered
        g_centered = g_normed / sd + g_square + g_square
        x._accumulate(g_centered)
        x._accumulate(np.broadcast_to(-_unbroadcast(g_centered, sd.shape) * inv_c, x.shape))

    return Tensor._from_op(out, parents, backward)


def conv_bn_relu(x: Tensor, kernel: Tensor, conv_bias: Tensor, gain: Tensor, bias: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray, training: bool,
                 dilation: int = 1, padding: str = "valid", stride: int = 1) -> Tensor:
    """relu(batch_norm(conv(x))), the TCN unit, bitwise.

    x: (..., F, Cin), kernel: (w, Cin, Cout), conv bias and the
    per-channel gain, bias and running statistics: (Cout,). The temporal
    conv runs along axis -2: "valid" yields F' = F - dilation*(w-1) frames,
    "same" zero-pads to keep F, and `stride` keeps every stride-th of those
    output frames, starting at the first: ceil(F' / stride) frames, each
    computed as at stride 1.

    One node, whose parents are `x`, the kernel, the conv bias, the gain
    and the bias, with one forward and one backward for both modes; only
    the statistics depend on the mode. Training normalizes with the batch
    mean and sd and updates the running statistics; eval normalizes with
    the running statistics, cast to the default dtype as
    `x - running_mean` would cast them. The unit centres its conv output in
    place, divides by the sd, multiplies by the gain, adds the bias and
    applies the ReLU, each step written over an array it owns where
    `_apply` can; the divide writes over the centred conv output only when
    the output keeps no graph. It keeps the centred conv output, the
    per-channel sd and its output, whose `> 0` mask is the ReLU's, and for
    "same" the padded input its taps are sliced from. Its backward writes
    batch norm's steps over the arrays it allocates and over the centred
    conv output, which nothing reads after it.
    """
    for name, values in (("gain", gain.data), ("bias", bias.data),
                         ("running mean", running_mean), ("running var", running_var)):
        if np.shape(values) != kernel.shape[-1:]:
            raise DimensionError(f"batch-norm {name} has shape {np.shape(values)}, "
                                 f"want one value per conv output channel {kernel.shape[-1:]}")
    source, taps, h = _conv_forward(x, kernel, conv_bias, dilation, padding, stride)
    axes = tuple(range(h.ndim - 1))
    inv_n = 1.0 / (h.size // h.shape[-1])
    mean = (h.sum(axis=axes, keepdims=True) * inv_n if training
            else np.asarray(running_mean, dtype=default_dtype()))
    centered = _apply(np.subtract, h, _over_frames(mean, h))
    sd = (_batch_sd(centered, mean, running_mean, running_var) if training
          else np.asarray(np.sqrt(running_var + BN_EPS), dtype=default_dtype()))
    conv_parents = (x, kernel, conv_bias)
    parents = (*conv_parents, gain, bias)
    normed = _apply(np.true_divide, centered, _over_frames(sd, h),
                    overwrite=not keeps_graph(parents))
    out = _apply(np.add, _apply(np.multiply, normed, _over_frames(gain.data, h)),
                 _over_frames(bias.data, h))
    np.maximum(out, 0, out=out)
    need_conv = any(p.requires_grad for p in conv_parents)

    def backward(g):
        # The gradient of the ReLU and of batch norm's divide / scale / shift
        # steps, and in training of its mean / centre / variance / sqrt
        # steps, each as that op's own backward computes it, in the same
        # order, so every float rounds as it would node by node. From the
        # gain's step on, each full-size step is written over an array this
        # backward owns, `centered` included: nothing reads it afterwards.
        g = g * (out > 0)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        sd_frames = _over_frames(sd, g)
        normed = centered / sd_frames
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape))
        if not need_conv:
            return
        g_normed = _apply(np.multiply, g, _over_frames(gain.data, g))
        if training:
            g_centered = g_normed / sd_frames
            # The sum of -g_normed * normed / sd, as the exact negation of
            # the sum of normed * g_normed / sd.
            g_sd = -_unbroadcast(_apply(np.true_divide, _apply(np.multiply, normed, g_normed),
                                        sd_frames), sd.shape)
            g_var = g_sd * 0.5 / np.where(sd == 0, np.inf, sd) * inv_n
            g_square = _apply(np.multiply, centered, _over_frames(g_var, g))
            g_centered = _apply(np.add, _apply(np.add, g_centered, g_square), g_square)
            # the mean's term, added as it arrives
            g_centered += -_unbroadcast(g_centered, sd.shape) * inv_n
        else:
            g_centered = _apply(np.true_divide, g_normed, sd_frames)
        del g, normed, g_normed     # freed before the conv's buffers are allocated
        _conv_backward(g_centered, x, source, taps, kernel, conv_bias)

    return Tensor._from_op(out, parents, backward)


def _batch_sd(centered: np.ndarray, mean: np.ndarray, running_mean: np.ndarray,
              running_var: np.ndarray) -> np.ndarray:
    """The per-channel sd of the batch whose per-channel `mean` has been
    subtracted to give `centered` (..., C); moves the running statistics
    towards the batch's."""
    axes = tuple(range(centered.ndim - 1))
    n = centered.size // centered.shape[-1]
    var = (centered * centered).sum(axis=axes, keepdims=True) * (1.0 / n)
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean.reshape(-1)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * (var * (n / max(n - 1, 1))).reshape(-1)
    return np.sqrt(var + BN_EPS)
