"""Evaluation metrics: P1 (mean per-joint position error), P2 (depth-axis
error), P3 (P2 over the designated hard actions), and action accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError
from .model import check_labels


@dataclass
class MetricsReport:
    per_action_p1: dict[str, float]    # the actions present, in label order
    per_action_p2: dict[str, float]
    counts: dict[str, int]
    p1: float
    p2: float
    p3: float
    accuracy: float | None

    def summary_line(self) -> str:
        acc = "" if self.accuracy is None else f"{self.accuracy:.4f}"
        return f"P1={self.p1:.3f} P2={self.p2:.3f} P3={self.p3:.3f} acc={acc or '-'}"


def mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean per-joint Euclidean error over (N, J, 3) arrays, N, J >= 1."""
    check_poses("mpjpe", pred, gt)
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


def dmpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute error on the depth axis (coordinate index 2)."""
    check_poses("dmpjpe", pred, gt)
    return float(np.abs(pred[..., 2] - gt[..., 2]).mean())


def check_poses(name: str, pred, gt) -> None:
    """Predicted and true poses of one shape, holding at least one position:
    the mean over none is no error."""
    if pred.shape != gt.shape:
        raise DimensionError(f"{name} shapes disagree: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise DimensionError(f"{name} of an empty batch: poses of shape {pred.shape}")


def tail_dmpjpe(per_action_p2: dict[str, float], hard_actions: list[str]) -> float:
    """Mean of per-action P2 over the hard-action subset."""
    if not hard_actions:
        raise ConfigError("hard-action set is empty")
    missing = [a for a in hard_actions if a not in per_action_p2]
    if missing:
        raise ConfigError(f"hard actions not present in report: {missing}")
    return float(np.mean([per_action_p2[a] for a in hard_actions]))


def build_report(pred: np.ndarray, gt: np.ndarray, labels: np.ndarray,
                 action_names: list[str], hard_actions: list[str],
                 predicted_labels: np.ndarray | None = None) -> MetricsReport:
    """Group per-sample errors by ground-truth action and aggregate.

    `pred` and `gt` are (N, J, 3) poses of one shape with N, J >= 1;
    `labels`, and `predicted_labels` when given, one integer per sample.
    Poses or labels of another shape are a `DimensionError`; labels that
    are not integers, or a label that names no action, a `ConfigError`.
    """
    check_poses("build_report", pred, gt)
    labels = check_labels(labels, pred.shape[:1])
    if predicted_labels is not None:
        predicted_labels = check_labels(predicted_labels, pred.shape[:1])
    unnamed = labels[(labels < 0) | (labels >= len(action_names))]
    if unnamed.size:
        raise ConfigError(f"label {unnamed[0]} names no action: want one in "
                          f"[0, {len(action_names)}) for actions {action_names}")
    per_p1, per_p2, counts = {}, {}, {}
    for idx, name in enumerate(action_names):
        mask = labels == idx
        if not mask.any():
            continue
        per_p1[name] = mpjpe(pred[mask], gt[mask])
        per_p2[name] = dmpjpe(pred[mask], gt[mask])
        counts[name] = int(mask.sum())
    accuracy = None
    if predicted_labels is not None:
        accuracy = float((predicted_labels == labels).mean())
    present_hard = [a for a in hard_actions if a in per_p2]
    return MetricsReport(
        per_action_p1=per_p1, per_action_p2=per_p2, counts=counts,
        p1=mpjpe(pred, gt), p2=dmpjpe(pred, gt),
        p3=tail_dmpjpe(per_p2, present_hard or hard_actions), accuracy=accuracy)


def write_metrics_csv(report: MetricsReport, path: str | Path) -> None:
    lines = ["action,P1,P2,n"]
    for name, p1 in report.per_action_p1.items():
        lines.append(f"{name},{p1:.6f},{report.per_action_p2[name]:.6f},{report.counts[name]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_csv(report: MetricsReport, path: str | Path) -> None:
    acc = "" if report.accuracy is None else f"{report.accuracy:.6f}"
    text = ("P1,P2,P3,accuracy\n"
            f"{report.p1:.6f},{report.p2:.6f},{report.p3:.6f},{acc}\n")
    Path(path).write_text(text, encoding="utf-8")
