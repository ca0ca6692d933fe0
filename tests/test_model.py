"""Model assembly: variants, gradient reach, graph lifetime."""

import gc

import numpy as np
import pytest

from poselift import train as T
from poselift.config import Config
from poselift.errors import ConfigError
from poselift.losses import action_loss, pose_loss, total_loss
from poselift.model import PoseLifter
from poselift.tensor import Tensor


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


def test_forward_eval_equals_forward_with_a_graph(small_dataset):
    model = PoseLifter(small_config())
    emb = model.export_embeddings()
    x, gt = small_dataset.eval.input2d[:5], small_dataset.eval.labels[:5]
    for labels in (None, gt):
        pred, predicted, probs = model.forward_eval(x, embeddings=emb, labels=labels)
        result = model.forward(x, labels, training=False, embeddings=emb)
        assert result.pred3d.requires_grad          # this one built a graph
        assert np.array_equal(pred, result.pred3d.data)
        assert np.array_equal(probs, result.class_probs.data)
        assert np.array_equal(predicted, np.argmax(result.class_probs.data, axis=-1))
