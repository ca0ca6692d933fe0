"""Text-prompt assembly, frozen encoding, action projection, pose-to-text
enrichment, and the cosine classifier."""

import math

import numpy as np
import pytest

from poselift import text_prompts as tp
from poselift.errors import ConfigError, SequenceTooShortError
from poselift.gradcheck import grad_check
from poselift.layers import seeded_rng
from poselift.tensor import Parameter, Tensor, named_parameters, precision


def make_bank(k=4, n=4, c=8, seed=0):
    return tp.TextPromptBank(k, n, c, seeded_rng(seed, 3))


def test_assemble_shape_matches_contract():
    bank = make_bank(k=15, n=16, c=8)
    out = tp.assemble_prompts(bank)
    assert out.shape == (15, 17, 8)


def test_assemble_context_shared_across_classes():
    bank = make_bank()
    out = tp.assemble_prompts(bank).data
    for k in range(1, 4):
        assert np.array_equal(out[0, :4], out[k, :4])
    assert np.array_equal(out[:, 4, :], bank.class_tokens.data)


def test_perturbing_one_class_token_changes_only_its_sequence():
    bank = make_bank()
    before = tp.assemble_prompts(bank).data.copy()
    bank.class_tokens.data[2] += 1.0
    after = tp.assemble_prompts(bank).data
    changed = [k for k in range(4) if not np.array_equal(before[k], after[k])]
    assert changed == [2]


def test_class_tokens_distinct_after_init():
    bank = make_bank()
    rows = bank.class_tokens.data
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(rows[i], rows[j])


def test_encode_deterministic_and_identical_rows_for_identical_prompts():
    bank = make_bank()
    bank.class_tokens.data[1] = bank.class_tokens.data[0]
    enc = tp.FrozenTextEncoder(5, 8, seeded_rng(0, 4))
    t = enc.forward(tp.assemble_prompts(bank)).data
    assert np.array_equal(t[0], t[1])
    t2 = enc.forward(tp.assemble_prompts(bank)).data
    assert np.array_equal(t, t2)
    assert enc.forward_calls == 2


def test_frozen_weights_get_no_gradients():
    bank = make_bank()
    enc = tp.FrozenTextEncoder(5, 8, seeded_rng(0, 4))
    out = enc.forward(tp.assemble_prompts(bank))
    (out * out).sum().backward()
    for p in named_parameters(enc).values():
        if p.requires_grad:
            assert p.grad is not None
        else:
            assert p.grad is None
    assert bank.context.grad is not None
    assert bank.class_tokens.grad is not None


def test_gradcheck_through_text_encoder():
    with precision("float64"):
        bank = make_bank(k=2, n=2, c=6, seed=9)
        enc = tp.FrozenTextEncoder(3, 6, seeded_rng(9, 4))
        weights = np.random.default_rng(1).normal(size=(2, 6))

        def build_loss():
            return (enc.forward(tp.assemble_prompts(bank)) * weights).sum()

        params = [bank.context, bank.class_tokens, enc.proj]
        report = grad_check(build_loss, params)
    assert report.passed, str(report)


# -- action projector --------------------------------------------------------

def test_projector_output_shape_any_length():
    proj = tp.ActionProjector(8, seeded_rng(0, 2))
    for frames in (1, 5, 27):
        out = proj(Tensor(np.random.default_rng(0).normal(size=(3, frames, 8))),
                   training=False)
        assert out.shape == (3, 8)


def test_pooling_projector_on_constant_sequence_equals_single_frame():
    proj = tp.ActionProjector(8, seeded_rng(3, 2), blocks=0)
    row = np.random.default_rng(4).normal(size=8)
    seq = np.broadcast_to(row, (1, 9, 8)).copy()
    out = proj(Tensor(seq), training=False)
    single = proj(Tensor(row.reshape(1, 1, 8)), training=False)
    assert np.allclose(out.data, single.data, atol=1e-6)


def test_gradcheck_through_projector():
    with precision("float64"):
        proj = tp.ActionProjector(6, seeded_rng(7, 2))
        x = Parameter("x", np.random.default_rng(5).normal(size=(2, 7, 6)))
        weights = np.random.default_rng(6).normal(size=(2, 6))
        params = [x] + [p for p in named_parameters(proj).values() if p.requires_grad]
        report = grad_check(
            lambda: (proj(x, training=True) * weights).sum(), params)
    assert report.passed, str(report)


# -- first-order motion --------------------------------------------------------

def test_motion_of_constant_sequence_is_zero():
    z = Tensor(np.ones((5, 3)))
    assert np.abs(tp.first_order_motion(z).data).max() == 0.0


def test_motion_hand_case():
    z = Tensor(np.array([[1.0], [4.0], [9.0]]))
    assert np.array_equal(tp.first_order_motion(z).data, [[3.0], [5.0]])


def test_motion_row_count_long_sequence():
    z = Tensor(np.zeros((243, 4)))
    assert tp.first_order_motion(z).shape == (242, 4)


def test_motion_needs_two_frames():
    with pytest.raises(SequenceTooShortError):
        tp.first_order_motion(Tensor(np.zeros((1, 4))))


# -- pose-to-text ----------------------------------------------------------------

def test_pose_to_text_identity_at_init():
    p2t = tp.PoseToText(8, seeded_rng(0, 5))
    t = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
    z0 = Tensor(np.random.default_rng(2).normal(size=(3, 9, 8)))
    out = p2t(t, z0)
    assert out.shape == (3, 4, 8)
    # beta starts at zero, so the output equals the broadcast input exactly
    assert np.array_equal(out.data, np.broadcast_to(t.data, (3, 4, 8)))


def test_gradcheck_through_pose_to_text():
    with precision("float64"):
        p2t = tp.PoseToText(6, seeded_rng(2, 5))
        p2t.beta.data[...] = np.array(0.35)  # off the zero-init so attention matters
        t = Parameter("t", np.random.default_rng(3).normal(size=(2, 6)))
        z0 = Parameter("z0", np.random.default_rng(4).normal(size=(2, 5, 6)))
        weights = np.random.default_rng(5).normal(size=(2, 2, 6))
        params = [t, z0] + list(named_parameters(p2t).values())
        report = grad_check(lambda: (p2t(t, z0) * weights).sum(), params)
    assert report.passed, str(report)


# -- classifier ---------------------------------------------------------------------

def test_classify_equal_rows_uniform():
    t_bar = Tensor(np.tile(np.array([1.0, 2.0, 3.0]), (5, 1)))
    a = Tensor(np.array([0.3, -1.0, 0.7]))
    y = tp.classify(t_bar, a, tau=0.07)
    assert y.shape == (5,)
    assert np.allclose(y.data, 0.2, atol=1e-6)


def test_classify_direct_evaluation_case():
    # cosines (1, 0) at tau=1 -> (e/(e+1), 1/(e+1))
    t_bar = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    a = Tensor(np.array([1.0, 0.0]))
    y = tp.classify(t_bar, a, tau=1.0)
    e = math.e
    assert np.allclose(y.data, [e / (e + 1), 1 / (e + 1)], atol=1e-4)


def test_classify_scale_invariance_of_action_feature():
    rng = np.random.default_rng(8)
    t_bar = Tensor(rng.normal(size=(6, 8)))
    a = rng.normal(size=8)
    base = tp.classify(t_bar, Tensor(a), tau=0.07).data
    for alpha in (0.01, 5.0, 300.0):
        scaled = tp.classify(t_bar, Tensor(alpha * a), tau=0.07).data
        assert np.abs(scaled - base).max() < 1e-6
        assert np.argmax(scaled) == np.argmax(base)


def test_classify_scale_invariance_of_embedding_matrix():
    rng = np.random.default_rng(12)
    t_bar = rng.normal(size=(6, 8))
    a = Tensor(rng.normal(size=8))
    base = tp.classify(Tensor(t_bar), a, tau=0.07).data
    for alpha in (0.05, 12.0):
        scaled = tp.classify(Tensor(alpha * t_bar), a, tau=0.07).data
        assert np.argmax(scaled) == np.argmax(base)
        assert np.abs(scaled - base).max() < 1e-6


def test_classify_sums_to_one_batched():
    rng = np.random.default_rng(9)
    y = tp.classify(Tensor(rng.normal(size=(3, 5, 8))),
                    Tensor(rng.normal(size=(3, 8))), tau=0.07)
    assert y.shape == (3, 5)
    assert np.abs(y.data.sum(axis=-1) - 1.0).max() < 1e-6


def test_classify_rejects_nonpositive_tau():
    with pytest.raises(ConfigError):
        tp.classify(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), tau=0.0)
