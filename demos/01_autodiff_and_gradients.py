#!/usr/bin/env python3
"""Tour of the differentiable core: tensors, reverse-mode gradients, and
finite-difference verification.

Run: python demos/01_autodiff_and_gradients.py
"""

import numpy as np

from poselift import ops
from poselift.gradcheck import grad_check, run_op_suite
from poselift.tensor import Parameter, Tensor, precision

# --- forward + backward on a tiny expression --------------------------------
# loss = sum(relu(x @ w) * r); gradients accumulate into x and w.
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
r = rng.normal(size=(3, 2))

loss = ((x @ w).relu() * r).sum()
loss.backward()
print("loss:", loss.item())
print("dloss/dx row 0:", x.grad[0])
print("dloss/dw col 0:", w.grad[:, 0])

# --- the ops the pose model is built from -----------------------------------
# The TCN unit: a dilated temporal conv, batch norm and ReLU as one node.
seq = Tensor(rng.normal(size=(2, 9, 4)))          # (batch, frames, channels)
kernel = Tensor(rng.normal(size=(3, 4, 4)))       # width-3 temporal conv
conv_bias = Tensor(np.zeros(4))                   # one per output channel
gain, bn_bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
running_mean, running_var = np.zeros(4), np.ones(4)
unit = ops.conv_bn_relu(seq, kernel, conv_bias, gain, bn_bias, running_mean, running_var,
                        training=True, dilation=2)
print("\nTCN unit: (2, 9, 4) -> ", unit.shape, " (valid, dilation 2)")
print("batch statistics moved the running mean to", running_mean.round(3))

probs = ops.softmax(Tensor([[2.0, 1.0, 0.1]]))   # over the last axis
print("softmax row:", probs.data[0], "sums to", probs.data.sum())

q = Tensor(rng.normal(size=(2, 3, 4)))
kv = Tensor(rng.normal(size=(2, 7, 4)))
print("attention: queries (2,3,4) x memory (2,7,4) ->",
      ops.scaled_dot_attention(q, kv, kv).shape)

# --- verify analytic gradients against central differences -------------------
# Training runs in float32; verification must run in float64 because the
# 1e-4 tolerance is tighter than float32 noise.
with precision("float64"):
    p = Parameter("p", np.array(3.0))
    report = grad_check(lambda: (p * p).sum(), [p])
print(f"\nd(x^2)/dx at 3: analytic {p.grad}, report -> {report}")

print("\nchecking every operation against central differences...")
reports = run_op_suite()
for name, rep in sorted(reports.items()):
    print(f"  {name:22s} max rel err {rep.max_rel_err:.2e}  "
          f"{'ok' if rep.passed else 'FAILED'}")
print(f"{len(reports)} ops verified.")
