"""Training loop, evaluation protocol, and checkpoint container."""

import copy
import dataclasses

import numpy as np
import pytest

from poselift import train as T
from poselift.config import Config
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
                     if not p.trainable and "running" not in n}
    T.train_model(cfg, quick_dataset)
    fresh = PoseLifter(cfg)   # same seed: frozen init must be reproducible
    for name, values in frozen_before.items():
        assert np.array_equal(fresh.params[name].data, values)


def test_frozen_text_encoder_unchanged_across_training(quick_dataset):
    cfg = quick_config(epochs=2)
    dataset = quick_dataset
    model = PoseLifter(cfg)
    frozen = {n: p.data.copy() for n, p in model.params.items()
              if n.startswith("atp.text_encoder") and not p.trainable}
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
                   if n.startswith(("proj.", "atp.", "p2t.")) and p.trainable
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
