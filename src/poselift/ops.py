"""Neural-net operations composed from the autodiff primitives, and fused
nodes.

Everything here is differentiable end to end; shapes follow the
channel-last convention (..., frames, channels). Softmax, the norms and
cosine similarity reduce over the last axis only; batch norm over all the
others.

A fused op is one graph node in place of a chain of primitive ones:
`dilated_conv1d`, the TCN unit `conv_bn_relu` (conv, batch norm and ReLU,
one body for both modes) and `linear` (`x @ W + b`). The conv's parents
are its input, kernel and bias: it slices its taps from the input's values
(for "same", from one zero-padded copy of them) and builds no slice, pad
or concat node. A fused op's forward and backward run the replaced nodes'
own expressions in their order, so its output and gradients are bitwise
those of the chain, and it keeps only the arrays that backward reads: no
conv, batch-norm or matmul output that no backward needs. A fused step
writes over an array the op allocated itself only where the step's result
has that array's dtype and shape, so it rounds as the chain's new array
would: the conv sums its tap products in place, `linear` adds its bias in
place, a unit that keeps no graph writes its whole output over its conv
output, and the unit's backward runs batch norm's chain over arrays it
owns and sums the taps' input gradients in one buffer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, SequenceTooShortError
from .tensor import (Tensor, _check_matmul, _matmul_backward, _unbroadcast, default_dtype,
                     keeps_graph)


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


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """cos(a, b) over the last axis, with `COS_EPS` guarding the denominator."""
    dot = (a * b).sum(axis=-1)
    return dot / (l2_norm(a) * l2_norm(b) + COS_EPS)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kᵀ / sqrt(C)) v over the last two axes; batch dims broadcast.

    q: (..., nq, C), k: (..., nk, C), v: (..., nk, C) -> (..., nq, C)
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-1] != v.shape[-1]:
        raise DimensionError(
            f"attention channel extents disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"attention key/value counts disagree: k {k.shape}, v {v.shape}")
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    return softmax(scores) @ v


def dilated_conv1d(x: Tensor, kernel: Tensor, bias: Tensor, dilation: int = 1,
                   padding: str = "valid", stride: int = 1) -> Tensor:
    """Temporal convolution along axis -2.

    x: (..., F, Cin), kernel: (w, Cin, Cout), bias: (Cout,).
    "valid" yields F' = F - dilation*(w-1); "same" zero-pads to keep F.
    `stride` keeps every stride-th of those output frames, starting at the
    first: ceil(F' / stride) frames, each computed as at stride 1.
    """
    source, taps, out = _conv_forward(x, kernel, bias, dilation, padding, stride)
    return Tensor._from_op(out, (x, kernel, bias),
                           lambda g: _conv_backward(g, x, source, taps, kernel, bias))


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
    index = [slice(None)] * source.ndim
    taps, out = [], None
    for i, k in enumerate(kernel.data):
        index[-2] = slice(i * dilation, i * dilation + span, stride)
        taps.append(tuple(index))
        # no name holds a tap product, so each is freed once it is summed
        out = source[taps[i]] @ k if out is None else _apply(np.add, out, source[taps[i]] @ k)
    # A new array, not the tap sum itself: in training it outlives the
    # forward, and an array allocated after the tap products gave F=243
    # training a lower peak RSS than keeping the first product.
    return source, taps, out + _over_frames(bias.data, out)


def _over_frames(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-channel `v` repeated over the frames of `h` (..., F, C). In an
    elementwise op with `h` it gives the values that broadcasting `v` does,
    with numpy's inner loop run once per sample instead of once per frame."""
    return np.tile(v, (h.shape[-2], 1))


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
    gradients are those of the matmul and add nodes it replaces."""
    _check_matmul(x, weight)
    data = _apply(np.add, x.data @ weight.data, bias.data)

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        _matmul_backward(g, x, weight)

    return Tensor._from_op(data, (x, weight, bias), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + LN_EPS).sqrt() * gain + bias


def conv_bn_relu(x: Tensor, kernel: Tensor, conv_bias: Tensor, gain: Tensor, bias: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray, training: bool,
                 dilation: int = 1, padding: str = "valid", stride: int = 1) -> Tensor:
    """relu(batch_norm(dilated_conv1d(x, ...))), the TCN unit, bitwise.

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
