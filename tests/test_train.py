"""Training loop, evaluation protocol, and checkpoint container."""

import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poselift import train as T
from poselift.config import Config
from poselift.data import Split
from poselift.errors import ConfigError, FormatError, TrainingError
from poselift.model import PoseLifter


def quick_config(**train_kw):
    cfg = Config()
    cfg.data.train_per_action = 10
    cfg.data.eval_per_action = 5
    cfg.train.epochs = 3
    for key, value in train_kw.items():
        setattr(cfg.train, key, value)
    return cfg


@pytest.fixture(scope="module")
def quick_dataset():
    return T.dataset_from_config(quick_config())


@pytest.fixture(scope="module")
def quick_result(quick_dataset):
    return T.train_model(quick_config(), quick_dataset)


def test_fixed_seed_reruns_reproduce_log(quick_dataset):
    a = T.train_model(quick_config(), quick_dataset)
    b = T.train_model(quick_config(), quick_dataset)
    assert a.train_log == b.train_log
    assert a.train_log.startswith("epoch,L_P,L_A,eval_P1\n")
    assert len(a.log_lines) == 1 + 3


def test_evaluate_is_repeatable(quick_result, quick_dataset):
    names = quick_dataset.manifest.action_names
    hard = quick_dataset.manifest.hard_actions
    model, emb = quick_result.model, quick_result.best.embeddings
    r1 = T.evaluate(model, quick_dataset.eval, names, hard, embeddings=emb)
    r2 = T.evaluate(model, quick_dataset.eval, names, hard, embeddings=emb)
    assert r1 == r2


def test_evaluate_refuses_an_empty_split(quick_result, quick_dataset):
    part = quick_dataset.eval
    empty = Split(part.input2d[:0], part.target3d[:0], part.labels[:0])
    with pytest.raises(ConfigError, match=r"empty split \(input2d shape \(0, 27, 8, 2\)\)"):
        T.evaluate(quick_result.model, empty, quick_dataset.manifest.action_names,
                   quick_dataset.manifest.hard_actions,
                   embeddings=quick_result.best.embeddings)


@pytest.mark.parametrize("bad", ["three_actions", "nan"])
def test_evaluate_refuses_embeddings_no_checkpoint_could_hold(quick_dataset, bad):
    model = PoseLifter(quick_config())
    emb = model.export_embeddings()
    emb = emb[:3] if bad == "three_actions" else np.full_like(emb, np.nan)
    with pytest.raises(ConfigError, match="text embeddings"):
        T.evaluate(model, quick_dataset.eval, quick_dataset.manifest.action_names,
                   quick_dataset.manifest.hard_actions, embeddings=emb)


@pytest.mark.parametrize("batch_size", [0, -1, -256])
def test_evaluate_refuses_a_batch_size_below_one(quick_result, quick_dataset, batch_size):
    with pytest.raises(ConfigError, match=rf"batch_size must be positive, got {batch_size}"):
        T.evaluate(quick_result.model, quick_dataset.eval,
                   quick_dataset.manifest.action_names,
                   quick_dataset.manifest.hard_actions,
                   embeddings=quick_result.best.embeddings, batch_size=batch_size)


@pytest.fixture(scope="module")
def classifying_result():
    """A default-size model after 5 epochs: its predicted labels vary (0.95
    accuracy), so a chunking fault that reorders them shows."""
    cfg = Config()
    cfg.train.epochs = 5
    dataset = T.dataset_from_config(cfg)
    return T.train_model(cfg, dataset), dataset


def evaluate_with_labels(result, dataset, batch_size):
    """`evaluate`'s report and the labels its batches predicted."""
    model, predicted = result.model, []
    forward_eval = model.forward_eval

    def recording(*args, **kwargs):
        out = forward_eval(*args, **kwargs)
        predicted.append(out[1])
        return out

    with mock.patch.object(model, "forward_eval", recording):
        report = T.evaluate(model, dataset.eval, dataset.manifest.action_names,
                            dataset.manifest.hard_actions,
                            embeddings=result.best.embeddings, batch_size=batch_size)
    return report, np.concatenate(predicted)


EVAL_SAMPLES = 80      # the default eval split: 4 actions x 20


@settings(max_examples=20, deadline=None)
@given(batch_size=st.one_of(st.just(1), st.sampled_from([2, 3, 5, 7, 11, 13, 31, 79]),
                            st.integers(EVAL_SAMPLES, 4 * EVAL_SAMPLES)))
def test_chunked_evaluate_equals_one_whole_split_pass(classifying_result, batch_size):
    result, dataset = classifying_result
    assert len(dataset.eval) == EVAL_SAMPLES
    whole, whole_labels = evaluate_with_labels(result, dataset, EVAL_SAMPLES)
    assert 0.5 < whole.accuracy < 1.0
    chunked, labels = evaluate_with_labels(result, dataset, batch_size)
    for metric in ("p1", "p2", "p3", "accuracy"):
        assert math.isclose(getattr(chunked, metric), getattr(whole, metric),
                            rel_tol=1e-5), metric
    assert np.array_equal(labels, whole_labels)


def test_evaluate_never_touches_text_encoder(quick_result, quick_dataset):
    model = quick_result.model
    calls_before = model.text_encoder_calls()
    T.evaluate(model, quick_dataset.eval, quick_dataset.manifest.action_names,
               quick_dataset.manifest.hard_actions,
               embeddings=quick_result.best.embeddings)
    assert model.text_encoder_calls() == calls_before


def test_checkpoint_round_trip_bit_identical(tmp_path, quick_result):
    path = tmp_path / "c.bin"
    T.write_checkpoint(path, quick_result.best)
    loaded = T.load_checkpoint(path)
    assert set(loaded.params) == set(quick_result.best.params)
    for name, values in quick_result.best.params.items():
        assert np.array_equal(loaded.params[name], values)
    assert np.array_equal(loaded.embeddings, quick_result.best.embeddings)


def test_checkpoint_restore_evaluates_identically(tmp_path, quick_result, quick_dataset):
    path = tmp_path / "c.bin"
    T.write_checkpoint(path, quick_result.best)
    loaded = T.load_checkpoint(path)
    model, _ = T.restore_model(loaded)
    names = quick_dataset.manifest.action_names
    hard = quick_dataset.manifest.hard_actions
    ref, _ = T.restore_model(quick_result.best)
    r_ref = T.evaluate(ref, quick_dataset.eval, names, hard,
                       embeddings=quick_result.best.embeddings)
    r_loaded = T.evaluate(model, quick_dataset.eval, names, hard,
                          embeddings=loaded.embeddings)
    assert r_ref == r_loaded


def test_restored_model_keeps_training(tmp_path, quick_result, quick_dataset):
    # loaded values are read-only views of the file; batch norm updates its
    # running statistics in place
    path = tmp_path / "c.bin"
    T.write_checkpoint(path, quick_result.best)
    model, _ = T.restore_model(T.load_checkpoint(path))
    model.forward(quick_dataset.train.input2d[:4], quick_dataset.train.labels[:4],
                  training=True)


def test_checkpoint_shape_mismatch_names_parameter(quick_result):
    other = copy.deepcopy(quick_result.best.cfg)
    other.encoder.channels = 8
    with pytest.raises(FormatError, match=r"shape"):
        T.restore_model(dataclasses.replace(quick_result.best, cfg=other))


def test_checkpoint_bad_magic_and_version(tmp_path, quick_result):
    path = tmp_path / "c.bin"
    T.write_checkpoint(path, quick_result.best)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(FormatError, match="magic"):
        T.load_checkpoint(bad)
    wrong = bytearray(raw)
    wrong[8] = 99
    bad.write_bytes(bytes(wrong))
    with pytest.raises(FormatError, match="version"):
        T.load_checkpoint(bad)


def test_checkpoint_truncation_reports_parameter(tmp_path, quick_result):
    path = tmp_path / "c.bin"
    T.write_checkpoint(path, quick_result.best)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(FormatError, match="parameter"):
        T.load_checkpoint(path)


def test_frozen_parameters_survive_optimizer_steps(quick_dataset):
    cfg = quick_config(epochs=1)
    model = PoseLifter(cfg)
    frozen_before = {n: p.data.copy() for n, p in model.params.items()
                     if not p.requires_grad and "running" not in n}
    T.train_model(cfg, quick_dataset)
    fresh = PoseLifter(cfg)   # same seed: frozen init must be reproducible
    for name, values in frozen_before.items():
        assert np.array_equal(fresh.params[name].data, values)


def test_frozen_text_encoder_unchanged_across_training(quick_dataset):
    cfg = quick_config(epochs=2)
    dataset = quick_dataset
    model = PoseLifter(cfg)
    frozen = {n: p.data.copy() for n, p in model.params.items()
              if n.startswith("atp.text_encoder") and not p.requires_grad}
    from poselift.optim import Adam
    from poselift.losses import action_loss, pose_loss, total_loss
    from poselift.tensor import Tensor
    optimizer = Adam(model.params, lr=cfg.train.lr)
    for _ in range(4):
        result = model.forward(dataset.train.input2d[:8],
                               dataset.train.labels[:8], training=True)
        lp = pose_loss(result.pred3d, Tensor(dataset.train.target3d[:8]))
        la = action_loss(result.class_probs, dataset.train.labels[:8])
        optimizer.zero_grad()
        total_loss(lp, la, 0.1).backward()
        optimizer.step()
    for name, values in frozen.items():
        assert np.array_equal(model.params[name].data, values), name


def test_lambda_zero_leaves_classifier_untrained(quick_dataset):
    cfg = quick_config(loss_weight=0.0, epochs=2)
    model_init = PoseLifter(cfg)
    proj_before = {n: p.data.copy() for n, p in model_init.params.items()
                   if n.startswith(("proj.", "atp.", "p2t.")) and p.requires_grad
                   and "running" not in n}
    result = T.train_model(cfg, quick_dataset)
    for name, values in proj_before.items():
        assert np.array_equal(result.model.params[name].data, values), name


def test_nonfinite_loss_aborts_with_diagnostic(quick_dataset):
    cfg = quick_config(lr=1e18, epochs=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="non-finite"):
            T.train_model(cfg, quick_dataset)


def test_overflowing_last_step_aborts_at_eval(quick_dataset, tmp_path):
    # One step per epoch: its loss is finite, and it leaves finite weights near
    # 1e18 whose eval pass overflows.
    cfg = quick_config(lr=1e18, epochs=1, batch_size=1000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="non-finite eval P1 after epoch 1; "
                                                "last good checkpoint unavailable"):
            T.train_model(cfg, quick_dataset, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_parameters_keep_the_last_good_checkpoint(quick_dataset, tmp_path,
                                                            monkeypatch):
    epoch_1 = {}

    def poison_after_epoch_2(opt):              # one step per epoch
        if opt.step_count == 1:
            epoch_1["context"] = opt.params["atp.context"].data.copy()
        if opt.step_count == 2:
            opt.params["atp.context"].data[0, 0] = np.nan

    monkeypatch.setattr(T.Adam, "decay_lr", poison_after_epoch_2)
    cfg = quick_config(epochs=3, batch_size=1000)
    with pytest.raises(TrainingError, match="non-finite parameter 'atp.context' after "
                                            "epoch 2; last good checkpoint saved"):
        T.train_model(cfg, quick_dataset, out_dir=tmp_path)
    chk = T.load_checkpoint(tmp_path / "checkpoint.bin")
    assert np.array_equal(chk.params["atp.context"], epoch_1["context"])
    assert all(np.isfinite(values).all() for values in chk.params.values())


def test_gt_label_eval_matches_predictions_at_full_accuracy():
    # needs the full-size dataset: the classifier saturates there quickly
    cfg = Config()
    cfg.atp.enabled = False     # pose prompts with the plain classifier
    cfg.train.epochs = 12
    dataset = T.dataset_from_config(cfg)
    result = T.train_model(cfg, dataset)
    names = dataset.manifest.action_names
    hard = dataset.manifest.hard_actions
    predicted = T.evaluate(result.model, dataset.eval, names, hard,
                           use_gt_labels=False)
    assert predicted.accuracy == 1.0, "calibration: classifier saturates"
    with_gt = T.evaluate(result.model, dataset.eval, names, hard,
                         use_gt_labels=True)
    assert predicted.p1 == with_gt.p1 and predicted.p2 == with_gt.p2


def test_reported_accuracy_matches_recount(quick_result, quick_dataset):
    model, emb = quick_result.model, quick_result.best.embeddings
    report = T.evaluate(model, quick_dataset.eval,
                        quick_dataset.manifest.action_names,
                        quick_dataset.manifest.hard_actions, embeddings=emb)
    _, _, probs = model.forward_eval(quick_dataset.eval.input2d, embeddings=emb)
    recount = (np.argmax(probs, axis=-1) == quick_dataset.eval.labels).mean()
    assert report.accuracy == pytest.approx(recount)


def test_dataset_config_mismatch():
    cfg = quick_config()
    cfg.data.num_actions = 6
    with pytest.raises(ConfigError, match="actions"):
        T.train_model(cfg, T.dataset_from_config(quick_config()))


def test_hard_action_override(quick_dataset):
    cfg = quick_config()
    cfg.data.hard_actions = "sway,reach"
    assert T.resolve_hard_actions(cfg, quick_dataset) == ["sway", "reach"]
    cfg.data.hard_actions = "unknown"
    with pytest.raises(ConfigError):
        T.resolve_hard_actions(cfg, quick_dataset)
