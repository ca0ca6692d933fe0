"""Model assembly: variants, gradient reach, graph lifetime."""

import gc
import hashlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poselift import ops, train as T
from poselift.ablate import VARIANTS, variant_config
from poselift.config import Config
from poselift.encoder import blocks_for_frames
from poselift.errors import ConfigError, TrainingError
from poselift.losses import action_loss, pose_loss, total_loss
from poselift.model import PoseLifter
from poselift.tensor import Parameter, Tensor

from test_encoder import (EQUIVALENCE_SETTINGS, FRAMES_AND_TAPS, full_extent_eval,
                          randomize_running_stats)
from test_fused_units import composed_conv_bn_relu, composed_linear


@pytest.fixture(scope="module")
def small_dataset():
    cfg = Config()
    cfg.data.train_per_action = 8
    cfg.data.eval_per_action = 4
    return T.dataset_from_config(cfg)


def small_config():
    cfg = Config()
    cfg.data.train_per_action = 8
    cfg.data.eval_per_action = 4
    return cfg


def test_parameter_names_unique_and_pathlike():
    model = PoseLifter(small_config())
    names = list(model.params)
    assert len(names) == len(set(names))
    assert all("." in n for n in names)
    assert "atp.context" in names and "app.prompts" in names


# Per ablation variant at the default size: parameters, trainable ones and
# their values, frozen ones and their values, the runs of leading name
# segments in `params` order, and the first 16 hex digits of the SHA-256 of
# the names joined by newlines. `params` order is a checkpoint's record order.
PARAMETER_TABLE = {
    "baseline": (40, 28, 4040, 12, 192, "encoder 38, head 2", "5ac5f4ac17f01c55"),
    "label_only": (68, 48, 6620, 20, 320, "encoder 38, head 2, proj 26, labelhead 2",
                   "a0394717d40ae514"),
    "atp": (113, 58, 8217, 55, 7184, "encoder 38, head 2, proj 26, atp 38, p2t 9",
            "e55532f56b8dcca6"),
    "app": (92, 72, 11004, 20, 320, "encoder 38, head 2, proj 26, labelhead 2, app 24",
            "479bc1d30aa386b8"),
    "full": (137, 82, 12601, 55, 7184, "encoder 38, head 2, proj 26, atp 38, p2t 9, app 24",
             "25596e14727dfae9"),
}


def parameter_table(model: PoseLifter) -> tuple:
    params = list(model.params.values())
    trainable = [p for p in params if p.requires_grad]
    frozen = [p for p in params if not p.requires_grad]
    runs = itertools.groupby(model.params, key=lambda name: name.split(".")[0])
    return (len(params), len(trainable), sum(p.size for p in trainable),
            len(frozen), sum(p.size for p in frozen),
            ", ".join(f"{segment} {len(list(names))}" for segment, names in runs),
            hashlib.sha256("\n".join(model.params).encode()).hexdigest()[:16])


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_table_is_pinned(variant):
    model = PoseLifter(variant_config(Config(), variant))
    assert parameter_table(model) == PARAMETER_TABLE[variant]
    frozen = {name for name, p in model.params.items() if not p.requires_grad}
    assert frozen == {name for name in model.params
                      if name.startswith("atp.text_encoder.") and name != "atp.text_encoder.proj"
                      or name.endswith((".running_mean", ".running_var"))}


def test_the_default_model_is_the_full_variant():
    assert parameter_table(PoseLifter(Config())) == PARAMETER_TABLE["full"]


def assert_no_orphaned_parameter(cfg: Config) -> None:
    """Every Parameter built during `PoseLifter(cfg)` is in `model.params`, so
    it is trained and saved."""
    built = []
    init = Parameter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(Parameter, "__init__", recording_init):
        model = PoseLifter(cfg)
    assert len(built) == len(model.params)
    assert {id(p) for p in built} == {id(p) for p in model.params.values()}


@pytest.mark.parametrize("frames", [9, 27, 81])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_built_parameter_is_registered(variant, frames):
    cfg = Config()
    cfg.data.frames = frames
    assert_no_orphaned_parameter(variant_config(cfg, variant))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), variant=st.sampled_from(VARIANTS),
       frames=st.sampled_from([9, 27, 81]), projector_blocks=st.integers(0, 2),
       decoder_blocks=st.integers(1, 2), text_layers=st.integers(0, 2),
       context_tokens=st.integers(0, 2))
def test_every_built_parameter_is_registered_for_drawn_structure(
        data, variant, frames, projector_blocks, decoder_blocks, text_layers, context_tokens):
    cfg = variant_config(Config(), variant)
    cfg.data.frames = frames
    cfg.encoder.channels = 4
    cfg.atp.projector_blocks = projector_blocks
    cfg.app.decoder_blocks = decoder_blocks
    cfg.atp.text_layers = text_layers
    cfg.atp.context_tokens = context_tokens
    cfg.atp.tap_layer = data.draw(st.integers(1, blocks_for_frames(frames)), label="tap_layer")
    assert_no_orphaned_parameter(cfg)


def test_gradients_reach_all_prompt_components(small_dataset):
    model = PoseLifter(small_config())
    result = model.forward(small_dataset.train.input2d[:6],
                           small_dataset.train.labels[:6], training=True)
    lp = pose_loss(result.pred3d, Tensor(small_dataset.train.target3d[:6]))
    la = action_loss(result.class_probs, small_dataset.train.labels[:6])
    total_loss(lp, la, 0.1).backward()
    for name in ("atp.context", "atp.class_tokens", "atp.text_encoder.proj",
                 "proj.out.weight", "encoder.block1.conv", "head.out.weight"):
        grad = model.params[name].grad
        assert grad is not None and np.abs(grad).sum() > 0, name


def test_eval_requires_embeddings_for_text_prompts(small_dataset):
    model = PoseLifter(small_config())
    with pytest.raises(ConfigError, match="saved text embeddings"):
        model.forward_eval(small_dataset.eval.input2d[:2])


def test_tap_layer_validation():
    cfg = small_config()
    cfg.atp.tap_layer = 4          # F=27 has 3 blocks
    with pytest.raises(ConfigError, match="tap_layer"):
        PoseLifter(cfg)


def test_baseline_has_no_classifier(small_dataset):
    cfg = small_config()
    cfg.atp.enabled = False
    cfg.app.enabled = False
    cfg.train.label_aux = "off"
    model = PoseLifter(cfg)
    result = model.forward(small_dataset.train.input2d[:3],
                           small_dataset.train.labels[:3], training=True)
    assert result.class_probs is None
    pred, labels, probs = model.forward_eval(small_dataset.eval.input2d[:3])
    assert labels is None and probs is None
    assert pred.shape == (3, 8, 3)


def test_app_without_classifier_uses_gt_or_fails(small_dataset):
    cfg = small_config()
    cfg.atp.enabled = False
    cfg.train.label_aux = "off"    # force: pose prompts but no label source
    with pytest.raises(ConfigError, match="label source"):
        PoseLifter(cfg)
    cfg.train.gt_labels_at_eval = True
    model = PoseLifter(cfg)
    x = small_dataset.eval.input2d[:3]
    gt = small_dataset.eval.labels[:3]
    pred, labels, _ = model.forward_eval(x, labels=gt)
    assert pred.shape == (3, 8, 3) and labels is None
    with pytest.raises(ConfigError, match="pose prompts need labels"):
        model.forward_eval(x)


def live_tensors() -> int:
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def test_step_graph_is_freed_without_the_cycle_collector(small_dataset):
    from poselift.optim import Adam
    model = PoseLifter(small_config())
    optimizer = Adam(model.params)
    x, labels = small_dataset.train.input2d[:4], small_dataset.train.labels[:4]
    target = Tensor(small_dataset.train.target3d[:4])
    gc.disable()
    try:
        before = live_tensors()
        result = model.forward(x, labels, training=True)
        loss = total_loss(pose_loss(result.pred3d, target),
                          action_loss(result.class_probs, labels), 0.1)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        during = live_tensors()
        del result, loss
        after = live_tensors()
    finally:
        gc.enable()
    assert during > before and after == before, (before, during, after)


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        before = live_tensors()
        PoseLifter(small_config())
        after = live_tensors()
    finally:
        gc.enable()
    assert after == before, (before, after)


def step_loss(model, split, count):
    result = model.forward(split.input2d[:count], split.labels[:count], training=True)
    return total_loss(pose_loss(result.pred3d, Tensor(split.target3d[:count])),
                      action_loss(result.class_probs, split.labels[:count]), 0.1)


def test_backward_frees_the_step_graph_before_it_returns(small_dataset):
    model = PoseLifter(small_config())
    gc.disable()                          # no cycle collection may help
    try:
        before = live_tensors()
        loss = step_loss(model, small_dataset.train, 4)
        during = live_tensors()
        loss.backward()
        after = live_tensors()
        with pytest.raises(TrainingError, match="earlier backward"):
            loss.backward()
    finally:
        gc.enable()
    assert during > before + 100 and after == before + 1, (before, during, after)
    trainable = [p for p in model.params.values() if p.requires_grad]
    assert all(p.grad is not None for p in trainable)
    assert all(p.grad is None for p in model.params.values() if not p.requires_grad)


def test_backward_peak_memory_stays_near_what_the_forward_retained():
    # One F=81, C=32, B=16 step. The 1.25x bound sits between the 1.06x this
    # step peaks at when backward frees the graph as it goes and the 1.66x
    # it peaks at when every op output keeps its gradient to the end.
    cfg = small_config()
    cfg.data.frames, cfg.encoder.channels = 81, 32
    split = T.dataset_from_config(cfg).train
    model = PoseLifter(cfg)
    tracemalloc.start()
    try:
        loss = step_loss(model, split, 16)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * retained, (peak, retained)
    assert after < 0.05 * retained, (after, retained)


def test_a_training_forward_keeps_no_unit_or_linear_intermediates():
    # One F=81, C=32, B=16 training forward against the same step through
    # the composed graphs. Those also keep, per TCN unit, the conv and the
    # batch-norm output and, per linear, the matmul output: arrays the size
    # of the fused op's output, 4.1 MB in all. The fused step keeps 4.1 MB
    # fewer (7.3 against 11.4 MB); if either op kept its intermediates again,
    # it would save at most 75% of those bytes.
    cfg = small_config()
    cfg.data.frames, cfg.encoder.channels = 81, 32
    split = T.dataset_from_config(cfg).train
    model = PoseLifter(cfg)
    intermediate_bytes = {"conv_bn_relu": 0, "linear": 0}

    def recording(name, arrays):
        op = getattr(ops, name)

        def run(*args, **kwargs):
            out = op(*args, **kwargs)
            intermediate_bytes[name] += arrays * out.data.nbytes
            return out
        return run

    def retained(unit, linear):
        with mock.patch.object(ops, "conv_bn_relu", unit), \
                mock.patch.object(ops, "linear", linear):
            tracemalloc.start()
            try:
                loss = step_loss(model, split, 16)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

    fused = retained(recording("conv_bn_relu", 2), recording("linear", 1))
    composed = retained(composed_conv_bn_relu, composed_linear)
    assert all(intermediate_bytes.values()), intermediate_bytes    # both ops ran
    assert composed - fused >= 0.9 * sum(intermediate_bytes.values()), (
        fused, composed, intermediate_bytes)


def test_forward_eval_equals_forward_with_a_graph(small_dataset):
    assert_eval_equals_forward_with_a_graph(PoseLifter(small_config()),
                                            small_dataset.eval.input2d[:5],
                                            small_dataset.eval.labels[:5])


def test_forward_eval_equals_forward_with_a_graph_at_the_default_size():
    # The default config and the 256-sample batch `evaluate` runs, with
    # running statistics away from their initial 0 and 1.
    cfg = Config()
    cfg.data.eval_per_action = 256 // cfg.data.num_actions
    split = T.dataset_from_config(cfg).eval
    model = PoseLifter(cfg)
    randomize_running_stats(model.params.values(), np.random.default_rng(3))
    assert len(split) == 256
    assert_eval_equals_forward_with_a_graph(model, split.input2d, split.labels)


def assert_eval_equals_forward_with_a_graph(model, x, gt):
    """`forward_eval`, which keeps no graph, against an eval-mode `forward`
    that builds one, by predicted and by given labels."""
    emb = model.export_embeddings()
    for labels in (None, gt):
        pred, predicted, probs = model.forward_eval(x, embeddings=emb, labels=labels)
        result = model.forward(x, labels, training=False, embeddings=emb)
        assert result.pred3d.requires_grad          # this one built a graph
        assert np.array_equal(pred, result.pred3d.data)
        assert np.array_equal(probs, result.class_probs.data)
        assert np.array_equal(predicted, np.argmax(result.class_probs.data, axis=-1))


@pytest.mark.parametrize("frames,tap_layer", FRAMES_AND_TAPS)
@EQUIVALENCE_SETTINGS
@given(batch=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_forward_eval_equals_the_full_extent_encoder(frames, tap_layer, batch, seed):
    cfg = small_config()
    cfg.data.frames = frames
    cfg.atp.tap_layer = tap_layer
    cfg.train.seed = seed
    model = PoseLifter(cfg)
    rng = np.random.default_rng(seed)
    randomize_running_stats(model.params.values(), rng)
    emb = model.export_embeddings()
    x = rng.normal(size=(batch, frames, cfg.data.joints, 2))
    pred, predicted, probs = model.forward_eval(x, embeddings=emb)
    model.encoder.forward = lambda x2d, training: full_extent_eval(model.encoder, x2d)
    want_pred, want_predicted, want_probs = model.forward_eval(x, embeddings=emb)
    assert np.array_equal(pred, want_pred)
    assert np.array_equal(probs, want_probs)
    assert np.array_equal(predicted, want_predicted)
