"""Training loop, evaluation protocol, and versioned checkpoints.

Training selects pose prompts with ground-truth labels; evaluation predicts
labels from the saved text embeddings (the text encoder itself is never
invoked at eval time). The best checkpoint by eval P1 is kept. A checkpoint
holds what restoring a model for eval reads: the config, each parameter's
values and, for a text-prompt model, the per-action text embeddings. It
holds no optimizer state, so training does not resume from one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .config import (UNBOUNDED, Config, check_range, check_type, dump_config,
                     parse_config_text)
from .container import Reader, write_container
from .data import PoseDataset, Split, check_split, gen_synthetic
from .errors import ConfigError, FormatError, TrainingError
from .layers import seeded_rng
from .losses import action_loss, pose_loss, total_loss
from .metrics import MetricsReport, build_report
from .model import PoseLifter, STREAM_SHUFFLE, check_embeddings
from .optim import Adam
from .tensor import Tensor

CHECKPOINT_MAGIC = b"PLCKPT\x00\x00"
CHECKPOINT_VERSION = 5


@dataclass
class Checkpoint:
    cfg: Config
    params: dict[str, np.ndarray]     # name -> values
    embeddings: np.ndarray | None


@dataclass
class TrainResult:
    model: PoseLifter
    best: Checkpoint
    best_report: MetricsReport
    log_lines: list[str] = field(default_factory=list)

    @property
    def train_log(self) -> str:
        return "".join(self.log_lines)


def dataset_from_config(cfg: Config) -> PoseDataset:
    return gen_synthetic(cfg.data.num_actions, cfg.data.frames, cfg.data.joints,
                         cfg.data.train_per_action, cfg.data.eval_per_action,
                         cfg.data.seed)


def resolve_hard_actions(cfg: Config, dataset: PoseDataset) -> list[str]:
    override = [a.strip() for a in cfg.data.hard_actions.split(",") if a.strip()]
    hard = override or dataset.manifest.hard_actions
    unknown = [a for a in hard if a not in dataset.manifest.action_names]
    if unknown:
        raise ConfigError(f"hard actions not in dataset: {unknown}")
    if not hard:
        raise ConfigError("no hard actions configured and dataset names none")
    return hard


def evaluate(model: PoseLifter, split: Split, action_names: list[str],
             hard_actions: list[str], embeddings: np.ndarray | None = None,
             use_gt_labels: bool = False, batch_size: int = 256) -> MetricsReport:
    """Run the inference path over a split and aggregate metrics.

    For text-prompt models, `embeddings` must be the saved per-action
    embeddings; this function never touches the text encoder. A split
    `check_split` refuses, or a `batch_size` that is not a positive int,
    is a `PoseLiftError`.
    """
    check_split("split", split, len(action_names), ConfigError)
    data = model.cfg.data
    for what, model_has, split_has in (("joints", data.joints, split.target3d.shape[1]),
                                       ("actions", data.num_actions, len(action_names)),
                                       ("frames", data.frames, split.input2d.shape[1])):
        if model_has != split_has:
            raise ConfigError(f"model {what}={model_has} but dataset {what}={split_has}")
    if len(split) == 0:
        raise ConfigError(f"cannot evaluate an empty split (input2d shape "
                          f"{split.input2d.shape})")
    check_range("train.batch_size", batch_size, UNBOUNDED)      # its type
    if batch_size <= 0:
        raise ConfigError(f"evaluate batch_size must be positive, got {batch_size}")
    preds, predicted_labels = [], []
    for start in range(0, len(split), batch_size):
        stop = min(start + batch_size, len(split))
        pred, plabels, _ = model.forward_eval(
            split.input2d[start:stop], embeddings=embeddings,
            labels=split.labels[start:stop] if use_gt_labels else None)
        preds.append(pred)
        predicted_labels.append(plabels)
    pred = np.concatenate(preds, axis=0)
    # every batch predicts labels, or none does (a model without a classifier)
    plabels = None if predicted_labels[0] is None else np.concatenate(predicted_labels)
    return build_report(pred, split.target3d.astype(pred.dtype), split.labels,
                        action_names, hard_actions, predicted_labels=plabels)


def snapshot(model: PoseLifter, embeddings: np.ndarray | None) -> Checkpoint:
    params = {name: np.array(p.data, copy=True) for name, p in model.params.items()}
    emb = None if embeddings is None else np.array(embeddings, copy=True)
    return Checkpoint(cfg=model.cfg, params=params, embeddings=emb)


def train_model(cfg: Config, dataset: PoseDataset,
                out_dir: str | Path | None = None,
                epochs: int | None = None) -> TrainResult:
    """Minibatch training on the combined loss; logs one line per epoch and
    keeps the best-eval-P1 checkpoint (including the text embeddings).
    `epochs`, when given, replaces `cfg.train.epochs` and is checked as it is."""
    check_type("train_model cfg", cfg, Config)
    cfg.validate()
    n_epochs = cfg.train.epochs if epochs is None else epochs
    check_range("train.epochs", n_epochs)
    names = dataset.manifest.action_names
    if len(names) != cfg.data.num_actions:
        raise ConfigError(
            f"config k={cfg.data.num_actions} but dataset has {len(names)} actions")
    model = PoseLifter(cfg)
    optimizer = Adam(model.params, lr=cfg.train.lr, lr_decay=cfg.train.lr_decay)
    frozen = [p for p in model.params.values() if not p.requires_grad]
    shuffle_rng = seeded_rng(cfg.train.seed, STREAM_SHUFFLE)
    hard = resolve_hard_actions(cfg, dataset)
    weight = cfg.train.loss_weight
    train, evals = dataset.train, dataset.eval

    log_lines = ["epoch,L_P,L_A,eval_P1\n"]
    best: Checkpoint | None = None
    best_report: MetricsReport | None = None
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    classifies = model.projector is not None
    for epoch in range(1, n_epochs + 1):
        order = shuffle_rng.permutation(len(train))
        sum_lp, sum_la, seen = 0.0, 0.0, 0
        for start in range(0, len(order), cfg.train.batch_size):
            idx = order[start:start + cfg.train.batch_size]
            result = model.forward(train.input2d[idx], train.labels[idx], training=True)
            lp = pose_loss(result.pred3d, Tensor(train.target3d[idx]))
            la = action_loss(result.class_probs, train.labels[idx]) if classifies else None
            loss = total_loss(lp, la if la is not None else 0.0, weight)
            if not np.isfinite(loss.data).all():
                _abort(f"non-finite loss at epoch {epoch} (L_P={lp.item()}, "
                       f"L_A={'-' if la is None else la.item()})", best, out_path)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            sum_lp += lp.item() * len(idx)
            sum_la += (la.item() if la is not None else 0.0) * len(idx)
            seen += len(idx)
            del result, lp, la, loss      # free this step's graph before the next forward
        optimizer.decay_lr()
        # the trainable values in one call; the frozen ones hold the running statistics
        if not (np.isfinite(optimizer.values).all()
                and all(np.isfinite(p.data).all() for p in frozen)):
            name = next(name for name, p in model.params.items() if not np.isfinite(p.data).all())
            _abort(f"non-finite parameter {name!r} after epoch {epoch}", best, out_path)

        embeddings = model.export_embeddings() if cfg.atp.enabled else None
        report = evaluate(model, evals, names, hard, embeddings=embeddings,
                          use_gt_labels=cfg.train.gt_labels_at_eval)
        if not np.isfinite(report.p1):      # finite weights can still overflow
            _abort(f"non-finite eval P1 after epoch {epoch}", best, out_path)
        log_lines.append(
            f"{epoch},{sum_lp / seen:.6f},{sum_la / seen:.6f},{report.p1:.6f}\n")
        if best_report is None or report.p1 < best_report.p1:
            best = snapshot(model, embeddings)
            best_report = report

    result = TrainResult(model=model, best=best, best_report=best_report,
                         log_lines=log_lines)
    if out_path is not None:
        (out_path / "train.log").write_text(result.train_log, encoding="utf-8")
        write_checkpoint(out_path / "checkpoint.bin", best)
    return result


def _abort(problem: str, best: Checkpoint | None, out_path: Path | None) -> NoReturn:
    """Raise `TrainingError` for `problem`, first writing the last good
    checkpoint to `out_path` when both exist."""
    saved = best is not None and out_path is not None
    if saved:
        write_checkpoint(out_path / "checkpoint.bin", best)
    raise TrainingError(f"{problem}; last good checkpoint "
                        + ("saved" if saved else "unavailable"))


# -- checkpoint container -------------------------------------------------------

def write_checkpoint(path: str | Path, chk: Checkpoint) -> None:
    """Write `chk` as a version-5 container. Refuses, with the same
    `FormatError` and before it opens the file, values `restore_model`
    would reject; a `chk` that is no `Checkpoint` is a `ConfigError`."""
    check_type("write_checkpoint chk", chk, Checkpoint)
    _check_checkpoint_values(chk)
    _write_checkpoint(path, chk)


def _write_checkpoint(path: str | Path, chk: Checkpoint) -> None:
    """`write_checkpoint` without the checks."""
    records = [dump_config(chk.cfg), len(chk.params)]
    for name, values in chk.params.items():
        records += [name, values]
    records += [0] if chk.embeddings is None else [1, chk.embeddings]
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, records)


def load_checkpoint(path: str | Path) -> Checkpoint:
    reader = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    cfg_text = reader.string("config")
    params = {}
    for _ in range(reader.count("parameter count")):
        name = reader.string("parameter name")
        params[name] = reader.tensor(f"parameter {name!r}")
    embeddings = reader.tensor("embeddings") if reader.count("embeddings flag") else None
    reader.finish()
    return Checkpoint(cfg=parse_config_text(cfg_text), params=params, embeddings=embeddings)


def restore_model(chk: Checkpoint) -> tuple[PoseLifter, Adam]:
    """Rebuild a model from a checkpoint's config and parameter values.

    The optimizer returned with it is a fresh `Adam` (a checkpoint holds no
    optimizer state). Raises `FormatError` for a missing, unknown or
    wrong-shaped parameter (naming the first), for a text-prompt model's
    embeddings when they are missing or not (actions, channels), and for
    any non-finite value.
    """
    cfg = chk.cfg
    model = PoseLifter(cfg)
    for name, param in model.params.items():
        if name not in chk.params:
            raise FormatError(f"checkpoint is missing parameter {name!r}")
        values = chk.params[name]
        if values.shape != param.shape:
            raise FormatError(
                f"parameter {name!r}: checkpoint shape {values.shape} does not "
                f"match model shape {param.shape}")
        param.data[...] = values      # copied out of the read-only file views
    extra = set(chk.params) - set(model.params)
    if extra:
        raise FormatError(f"checkpoint has unknown parameters: {sorted(extra)[:3]}")
    _check_checkpoint_values(chk)
    return model, Adam(model.params, lr=cfg.train.lr, lr_decay=cfg.train.lr_decay)


def _check_checkpoint_values(chk: Checkpoint) -> None:
    """Raise `FormatError` unless every parameter value is finite and the
    embeddings pass `check_embeddings` for the checkpoint's config. The name
    and shape checks need a model and stay in `restore_model`."""
    for name, values in chk.params.items():
        if not np.isfinite(values).all():
            raise FormatError(f"checkpoint parameter {name!r} holds non-finite values")
    check_embeddings(chk.cfg, chk.embeddings, FormatError)
