"""Adam optimizer contracts."""

import numpy as np
import pytest

from poselift.errors import TrainingError
from poselift.optim import Adam
from poselift.tensor import Parameter


def test_zero_gradient_leaves_parameters_unchanged():
    p = Parameter("w", np.array([1.0, -2.0, 3.0]))
    before = p.data.copy()
    opt = Adam({"w": p}, lr=1e-3)
    p.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(p.data, before)


def test_first_step_moves_by_about_lr():
    p = Parameter("w", np.array(0.0))
    opt = Adam({"w": p}, lr=1e-3)
    p.grad = np.array(1.0)
    opt.step()
    # bias-corrected first step with constant gradient is ~ -lr
    assert abs(float(p.data) + 1e-3) < 1e-9


def test_frozen_parameter_untouched():
    p = Parameter("frozen", np.array([5.0]), requires_grad=False)
    before = p.data.copy()
    opt = Adam({"frozen": p}, lr=1.0)
    p.grad = np.array([100.0])   # even a forced gradient must be ignored
    opt.step()
    assert np.array_equal(p.data, before)
    assert "frozen" not in opt.m and "frozen" not in opt.v


def test_missing_gradient_raises():
    p = Parameter("w", np.zeros(2))
    opt = Adam({"w": p})
    with pytest.raises(TrainingError, match="w"):
        opt.step()


def test_step_counter_and_decay():
    p = Parameter("w", np.zeros(1))
    opt = Adam({"w": p}, lr=1.0, lr_decay=0.5)
    for expected in (1, 2, 3):
        p.grad = np.ones(1)
        opt.step()
        assert opt.step_count == expected
    opt.decay_lr()
    assert opt.lr == 0.5


def test_moment_buffers_only_for_trainable():
    params = {
        "a": Parameter("a", np.zeros(2)),
        "b": Parameter("b", np.zeros(2), requires_grad=False),
    }
    opt = Adam(params)
    assert set(opt.m) == {"a"} and set(opt.v) == {"a"}
