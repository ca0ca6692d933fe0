"""Pose-prompt selection, decoder refinement, residual scaling, output head."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poselift import pose_prompts as pp
from poselift.errors import ConfigError, DimensionError
from poselift.gradcheck import grad_check
from poselift.layers import CrossAttention, FeedForward, LayerNorm, seeded_rng
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


class AttentionDecoderBlock:
    """The oracle: the decoder block with its self-attention sublayer in
    attention form, a `CrossAttention` with q, k, v and out applied to
    `(ln1(query), ln1(query))`. It draws its initial values from `rng` in
    the order `pp.DecoderBlock` draws or discards them."""

    def __init__(self, name, channels, rng):
        self.ln1 = LayerNorm(f"{name}.ln1", channels)
        self.self_attn = CrossAttention(f"{name}.self_attn", channels, rng)
        self.ln2 = LayerNorm(f"{name}.ln2", channels)
        self.cross_attn = CrossAttention(f"{name}.cross_attn", channels, rng)
        self.ln3 = LayerNorm(f"{name}.ln3", channels)
        self.ffn = FeedForward(f"{name}.ffn", channels, rng)

    def __call__(self, query, memory):
        normed = self.ln1(query)
        query = query + self.self_attn(normed, normed)
        query = query + self.cross_attn(self.ln2(query), memory)
        return query + self.ffn(self.ln3(query))


def refine_once(refiner, values, weights):
    """One forward and backward through `refiner`. The query and prompts are
    `x * 1.5` of leaves `x`, so they are op outputs as in the model; returns
    the output and the leaves."""
    leaves = [Parameter(name, v) for name, v in zip(("zd", "prompts"), values)]
    out = refiner(*[x * 1.5 for x in leaves])
    (out * weights).sum().backward()
    return out.data, leaves


@settings(max_examples=40, deadline=None)
@given(channels=st.integers(1, 8), prompts_per_action=st.integers(1, 4),
       blocks=st.integers(1, 2), batch=st.integers(1, 3),
       dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 2**31 - 1))
@example(channels=16, prompts_per_action=5, blocks=1, batch=16, dtype="float32",
         seed=0)                                                     # the default size
@example(channels=4, prompts_per_action=1, blocks=2, batch=2, dtype="float64", seed=1)
def test_self_attention_over_one_token_is_its_value_path(
        channels, prompts_per_action, blocks, batch, dtype, seed):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=(batch, 1, channels)),
              rng.normal(size=(batch, prompts_per_action, channels))]
    gamma = rng.normal(size=channels)
    with precision(dtype):
        weights = Tensor(rng.normal(size=(batch, 1, channels))).data
        refiner = pp.PosePromptRefiner(channels, seeded_rng(seed, 6), blocks)
        oracle = pp.PosePromptRefiner(channels, seeded_rng(seed, 6), blocks)
        oracle_rng = seeded_rng(seed, 6)
        oracle.blocks = [AttentionDecoderBlock(f"app.decoder{b}", channels, oracle_rng)
                         for b in range(1, blocks + 1)]
        for r in (refiner, oracle):
            r.gamma.data[...] = gamma
        params, oracle_params = named_parameters(refiner), named_parameters(oracle)
        # the block builds every projection but the self-attention's q and k,
        # and draws each one's initial values as the oracle does
        assert set(oracle_params) - set(params) == {
            f"app.decoder{b}.self_attn.{p}.{w}" for b in range(1, blocks + 1)
            for p in "qk" for w in ("weight", "bias")}
        assert list(params) == [name for name in oracle_params if name in params]
        for name, p in params.items():
            assert np.array_equal(p.data, oracle_params[name].data), name
        out, leaves = refine_once(refiner, values, weights)
        oracle_out, oracle_leaves = refine_once(oracle, values, weights)
    assert out.dtype == oracle_out.dtype == np.dtype(dtype)
    assert np.array_equal(out, oracle_out)
    pairs = [(p, oracle_params[name]) for name, p in params.items()]
    for p, expected in pairs + list(zip(leaves, oracle_leaves)):
        assert p.grad.dtype == expected.grad.dtype, p.name
        assert np.array_equal(p.grad, expected.grad), p.name
    for name in set(oracle_params) - set(params):
        assert not oracle_params[name].grad.any(), name


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
    # the decoder's self-attention is its value path only over one token
    with pytest.raises(DimensionError, match="one query token"):
        refiner(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 8))))


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
