"""Pose-prompt selection, decoder refinement, residual scaling, output head."""

import numpy as np
import pytest

from poselift import pose_prompts as pp
from poselift.errors import ConfigError, DimensionError
from poselift.gradcheck import grad_check
from poselift.layers import seeded_rng
from poselift.tensor import Parameter, Tensor, named_parameters, precision


def make_bank(k=4, l=3, c=8, seed=0):
    return pp.PosePromptBank(k, l, c, seeded_rng(seed, 6))


def test_select_single_label_slice():
    bank = make_bank()
    out = pp.select_prompts(bank, 0)
    assert out.shape == (3, 8)
    assert np.array_equal(out.data, bank.prompts.data[0])


def test_select_batched():
    bank = make_bank()
    out = pp.select_prompts(bank, np.array([2, 0, 2]))
    assert out.shape == (3, 3, 8)
    assert np.array_equal(out.data[0], bank.prompts.data[2])
    assert np.array_equal(out.data[1], bank.prompts.data[0])


def test_select_out_of_range():
    bank = make_bank()
    with pytest.raises(ConfigError):
        pp.select_prompts(bank, 4)
    with pytest.raises(ConfigError):
        pp.select_prompts(bank, np.array([-1]))


def test_gradient_sparsity_exactly_one_slice():
    bank = make_bank()
    refiner = pp.PosePromptRefiner(8, seeded_rng(0, 6))
    refiner.gamma.data[...] = np.full(8, 0.5)   # off zero-init so gradients flow
    zd = Tensor(np.random.default_rng(2).normal(size=(1, 1, 8)))
    out = refiner(zd, pp.select_prompts(bank, np.array([2])))
    out.sum().backward()
    grads = bank.prompts.grad
    nonzero = [k for k in range(4) if np.abs(grads[k]).sum() > 0]
    assert nonzero == [2]


def test_refiner_identity_at_zero_gamma():
    refiner = pp.PosePromptRefiner(8, seeded_rng(1, 6))
    zd = Tensor(np.random.default_rng(3).normal(size=(2, 1, 8)))
    prompts = Tensor(np.random.default_rng(4).normal(size=(2, 5, 8)))
    out = refiner(zd, prompts)
    assert np.array_equal(out.data, zd.data)


def test_refiner_deterministic_and_shape():
    refiner = pp.PosePromptRefiner(8, seeded_rng(1, 6), blocks=2)
    refiner.gamma.data[...] = np.ones(8)
    zd = Tensor(np.random.default_rng(5).normal(size=(3, 1, 8)))
    prompts = Tensor(np.random.default_rng(6).normal(size=(3, 1, 8)))  # L=1
    a = refiner(zd, prompts)
    b = refiner(zd, prompts)
    assert a.shape == (3, 1, 8)
    assert np.array_equal(a.data, b.data)


def test_refiner_channel_mismatch():
    refiner = pp.PosePromptRefiner(8, seeded_rng(1, 6))
    with pytest.raises(DimensionError):
        refiner(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 3, 4))))


def test_gradcheck_through_refiner():
    with precision("float64"):
        refiner = pp.PosePromptRefiner(6, seeded_rng(2, 6))
        refiner.gamma.data[...] = 0.3 * np.ones(6)
        zd = Parameter("zd", np.random.default_rng(7).normal(size=(2, 1, 6)))
        prompts = Parameter("prompts", np.random.default_rng(8).normal(size=(2, 4, 6)))
        weights = np.random.default_rng(9).normal(size=(2, 1, 6))
        params = [zd, prompts] + list(named_parameters(refiner).values())
        report = grad_check(
            lambda: (refiner(zd, prompts) * weights).sum(), params)
    assert report.passed, str(report)


def test_output_head_shape_and_bias_pattern():
    head = pp.OutputHead(8, joints=5, rng=seeded_rng(3, 1), output_scale=100.0)
    out = head(Tensor(np.zeros((4, 1, 8))))
    assert out.shape == (4, 5, 3)
    expected = (head.out.bias.data * 100.0).reshape(5, 3)
    assert np.allclose(out.data, expected, atol=1e-6)
    again = head(Tensor(np.zeros((4, 1, 8))))
    assert np.array_equal(out.data, again.data)


def test_gradcheck_through_output_head():
    with precision("float64"):
        head = pp.OutputHead(6, joints=4, rng=seeded_rng(4, 1))
        z = Parameter("z", np.random.default_rng(10).normal(size=(2, 1, 6)))
        weights = np.random.default_rng(11).normal(size=(2, 4, 3))
        params = [z] + list(named_parameters(head).values())
        report = grad_check(lambda: (head(z) * weights).sum(), params)
    assert report.passed, str(report)
