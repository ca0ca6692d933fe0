"""Encoder shapes, taps, gradient flow, and the compact eval layout."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from poselift import ops
from poselift.config import Config
from poselift.encoder import EncoderOutput, TcnBlock, TcnEncoder, blocks_for_frames
from poselift.errors import ConfigError
from poselift.gradcheck import grad_check
from poselift.layers import seeded_rng
from poselift.losses import pose_loss
from poselift.model import PoseLifter
from poselift.pose_prompts import OutputHead
from poselift.tensor import Tensor, named_parameters, no_grad, precision

# Every sequence length with every tap layer it allows.
FRAMES_AND_TAPS = [(f, b) for f in (9, 27, 81, 243) for b in range(1, blocks_for_frames(f) + 1)]
EQUIVALENCE_SETTINGS = settings(max_examples=10, deadline=None)


def make_encoder(frames=27, joints=8, channels=16, seed=0, tap_layer=1):
    return TcnEncoder(frames, joints, channels, tap_layer, seeded_rng(seed, 0))


def full_extent_eval(enc: TcnEncoder, x: Tensor) -> EncoderOutput:
    """The eval encoder before the compact layout, kept as the oracle: block 1
    same-padded for z0 and again valid, then every later block valid over
    all its frames."""
    batch, frames, joints, _ = x.shape
    h = enc.input_proj(x.reshape(batch, frames, 2 * joints))
    first = enc.blocks[0]
    taps = [first(h, training=False, padding="same")]
    h = first(h, training=False)
    for block in enc.blocks[1:]:
        h = block(h, training=False)
        taps.append(h)
    return EncoderOutput(z0=taps[0], tap=taps[enc.tap_layer - 1], zd=taps[-1])


def randomize_running_stats(params, rng: np.random.Generator) -> None:
    for p in params:
        if p.name.endswith(".running_mean"):
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        elif p.name.endswith(".running_var"):
            p.data[...] = rng.uniform(0.25, 4.0, size=p.shape)


def record_block_calls(monkeypatch) -> list[tuple]:
    """Record (block, padding, compact, output frames) of every TcnBlock call."""
    calls = []
    original = TcnBlock.__call__

    def spy(block, x, training, padding="valid", compact=False):
        out = original(block, x, training, padding, compact)
        calls.append((block.conv.name.split(".")[1], padding, compact, out.shape[1]))
        return out

    monkeypatch.setattr(TcnBlock, "__call__", spy)
    return calls


def test_blocks_for_frames():
    assert [blocks_for_frames(f) for f in (9, 27, 81, 243)] == [2, 3, 4, 5]
    with pytest.raises(ConfigError, match=r"9, 27, 81, 243"):
        blocks_for_frames(15)


def test_output_shapes_f27():
    enc = make_encoder()
    out = enc.forward(Tensor(np.random.default_rng(0).normal(size=(2, 27, 8, 2))),
                      training=False)
    assert out.z0.shape == (2, 27, 16)
    assert out.zd.shape == (2, 1, 16)


@pytest.mark.parametrize("frames", [9, 27, 81])
def test_shape_contract_all_lengths(frames):
    enc = make_encoder(frames=frames, channels=12)
    out = enc.forward(Tensor(np.zeros((1, frames, 8, 2))), training=False)
    assert out.z0.shape == (1, frames, 12)
    assert out.zd.shape == (1, 1, 12)


def test_zero_input_finite_and_deterministic():
    enc = make_encoder()
    a = enc.forward(Tensor(np.zeros((3, 27, 8, 2))), training=False)
    b = enc.forward(Tensor(np.zeros((3, 27, 8, 2))), training=False)
    assert np.isfinite(a.zd.data).all()
    assert np.array_equal(a.zd.data, b.zd.data)


def test_taps_endpoints_and_extents():
    x = Tensor(np.random.default_rng(1).normal(size=(1, 27, 8, 2)))
    outs = {b: make_encoder(tap_layer=b).forward(x, training=True)
            for b in (1, 2, 3)}                # 3 blocks at F=27
    assert outs[1].tap is outs[1].z0
    assert outs[3].tap is outs[3].zd
    # valid-conv extents from the dilation schedule: F - (3^b - 1) for b >= 2
    assert outs[2].tap.shape[1] == 27 - (3 ** 2 - 1)
    for layer in (0, 4):
        with pytest.raises(ConfigError, match=f"tap layer {layer} out of range 1..3"):
            make_encoder(tap_layer=layer)


def test_frame_mismatch_is_config_error():
    enc = make_encoder(frames=27)
    with pytest.raises(ConfigError, match="frames"):
        enc.forward(Tensor(np.zeros((1, 9, 8, 2))), training=False)


def test_gradcheck_through_encoder_and_head():
    with precision("float64"):
        rng = np.random.default_rng(2)
        enc = make_encoder(frames=9, joints=4, channels=8, seed=5)
        head = OutputHead(8, 4, seeded_rng(5, 1), output_scale=100.0)
        x2d = rng.normal(size=(2, 9, 4, 2)) * 0.3
        target = rng.normal(size=(2, 4, 3)) * 50

        def build_loss():
            out = enc.forward(Tensor(x2d), training=True)
            return pose_loss(head(out.zd), Tensor(target))

        params = [p for p in named_parameters([enc, head]).values() if p.requires_grad]
        report = grad_check(build_loss, params)
    assert report.passed, str(report)


@pytest.mark.parametrize("frames,tap_layer", FRAMES_AND_TAPS)
@EQUIVALENCE_SETTINGS
@given(batch=st.integers(1, 4), channels=st.sampled_from([4, 16, 64]),
       seed=st.integers(0, 2**31 - 1))
def test_eval_equals_the_full_extent_encoder(frames, tap_layer, batch, channels, seed):
    enc = make_encoder(frames=frames, channels=channels, seed=seed, tap_layer=tap_layer)
    rng = np.random.default_rng(seed)
    randomize_running_stats(named_parameters(enc).values(), rng)
    x = Tensor(rng.normal(size=(batch, frames, 8, 2)))
    with no_grad():
        out = enc.forward(x, training=False)
        oracle = full_extent_eval(enc, x)
    for field in ("z0", "tap", "zd"):
        assert np.array_equal(getattr(out, field).data, getattr(oracle, field).data), field


@pytest.mark.parametrize("tap_layer,extents", [
    (1, [243, 27, 9, 3, 1]),
    (3, [243, 235, 217, 3, 1]),
    (5, [243, 235, 217, 163, 1]),
])
def test_eval_computes_only_the_frames_the_centre_needs(monkeypatch, tap_layer, extents):
    enc = make_encoder(frames=243, channels=4, tap_layer=tap_layer)
    calls = record_block_calls(monkeypatch)
    enc.forward(Tensor(np.zeros((1, 243, 8, 2))), training=False)
    # block 1 runs once (same-padded); blocks past the tap layer are compact
    assert [c[0] for c in calls] == ["block1", "block2", "block3", "block4", "block5"]
    assert [c[2] for c in calls] == [b > tap_layer for b in range(1, 6)]
    assert [c[3] for c in calls] == extents


def test_training_builds_full_valid_extents(monkeypatch):
    enc = make_encoder(frames=81, channels=4, tap_layer=2)
    calls = record_block_calls(monkeypatch)
    out = enc.forward(Tensor(np.random.default_rng(3).normal(size=(2, 81, 8, 2))),
                      training=True)
    assert calls == [("block1", "same", False, 81), ("block2", "valid", False, 73),
                     ("block3", "valid", False, 55), ("block4", "valid", False, 1)]
    assert out.tap.shape[1] == 73 and out.zd.shape[1] == 1


def baseline_lifter(tap_layer: int) -> PoseLifter:
    """A model with no action projector at F=81."""
    cfg = Config()
    cfg.data.frames = 81
    cfg.atp.enabled = cfg.app.enabled = False
    cfg.train.label_aux = "off"
    cfg.atp.tap_layer = tap_layer
    return PoseLifter(cfg)


def test_a_model_without_projector_runs_no_full_extent_tap(monkeypatch):
    model = baseline_lifter(tap_layer=3)
    calls = record_block_calls(monkeypatch)
    model.forward_eval(np.zeros((1, 81, 8, 2)))
    assert [(c[0], c[3]) for c in calls] == [("block1", 81), ("block2", 9),
                                             ("block3", 3), ("block4", 1)]


def test_a_model_without_projector_ignores_the_tap_layer():
    x = np.random.default_rng(4).normal(size=(2, 81, 8, 2))
    deep, shallow = baseline_lifter(tap_layer=3), baseline_lifter(tap_layer=1)
    assert np.array_equal(deep.forward(x, None, training=True).pred3d.data,
                          shallow.forward(x, None, training=True).pred3d.data)
    assert np.array_equal(deep.forward_eval(x)[0], shallow.forward_eval(x)[0])


@settings(max_examples=60, deadline=None)
@given(frames=st.integers(3, 30), dilation=st.integers(1, 4), stride=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1))
def test_strided_conv_keeps_every_stride_th_valid_frame(frames, dilation, stride, seed):
    width = 3
    assume(frames > dilation * (width - 1))
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, frames, 3)))
    kernel, bias = Tensor(rng.normal(size=(width, 3, 5))), Tensor(rng.normal(size=5))
    full = ops.dilated_conv1d(x, kernel, dilation=dilation, bias=bias)
    strided = ops.dilated_conv1d(x, kernel, dilation=dilation, bias=bias, stride=stride)
    assert np.allclose(strided.data, full.data[:, ::stride], rtol=1e-5, atol=1e-5)
