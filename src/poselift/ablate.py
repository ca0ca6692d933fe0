"""Ablation harness: the component on/off matrix plus the sequence-length
and projector-position sweeps, each emitted as a CSV table."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Config, apply_overrides
from .data import PoseDataset
from .encoder import blocks_for_frames
from .errors import ConfigError
from .metrics import MetricsReport
from .train import dataset_from_config, train_model

# The components each ablation row turns on or off, as config overrides.
_ROWS = {
    "baseline": {"atp.enabled": False, "app.enabled": False, "train.label_aux": "off"},
    "label_only": {"atp.enabled": False, "app.enabled": False, "train.label_aux": "on"},
    "atp": {"atp.enabled": True, "app.enabled": False, "train.label_aux": "off"},
    # the plain projector predicts the label
    "app": {"atp.enabled": False, "app.enabled": True, "train.label_aux": "auto"},
    "full": {"atp.enabled": True, "app.enabled": True, "train.label_aux": "off"},
}
VARIANTS = tuple(_ROWS)


def variant_config(cfg: Config, variant: str, sweep: dict[str, object] | None = None
                   ) -> Config:
    """One ablation row's config: a copy of `cfg` with the row's components
    and the sweep's own overrides laid on in one validated merge."""
    if variant not in _ROWS:
        raise ConfigError(f"unknown ablation variant {variant!r}; know {VARIANTS}")
    return apply_overrides(copy.deepcopy(cfg), {**_ROWS[variant], **(sweep or {})})


@dataclass
class AblationRow:
    key: dict
    report: MetricsReport


@dataclass
class AblationTable:
    columns: list[str]
    rows: list[AblationRow] = field(default_factory=list)

    def to_csv(self) -> str:
        header = ",".join(self.columns + ["P1", "P2", "P3", "accuracy"])
        lines = [header]
        for row in self.rows:
            acc = "" if row.report.accuracy is None else f"{row.report.accuracy:.6f}"
            front = ",".join(str(row.key[c]) for c in self.columns)
            lines.append(f"{front},{row.report.p1:.6f},{row.report.p2:.6f},"
                         f"{row.report.p3:.6f},{acc}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def run_components(cfg: Config, seeds: list[int] | None = None,
                   dataset: PoseDataset | None = None,
                   variants: tuple[str, ...] = VARIANTS) -> tuple[AblationTable, AblationTable]:
    """Train every variant on identical data with identical seeds.

    Returns (per-run table, per-variant mean table).
    """
    seeds = list(seeds) if seeds else [cfg.train.seed]
    dataset = dataset or dataset_from_config(cfg)
    detail = AblationTable(columns=["variant", "seed"])
    summary = AblationTable(columns=["variant"])
    for variant in variants:
        reports = []
        for seed in seeds:
            run_cfg = variant_config(cfg, variant, {"train.seed": seed})
            result = train_model(run_cfg, dataset)
            detail.rows.append(AblationRow(key={"variant": variant, "seed": run_cfg.train.seed},
                                           report=result.best_report))
            reports.append(result.best_report)
        summary.rows.append(AblationRow(
            key={"variant": variant}, report=_mean_report(reports)))
    return detail, summary


def run_seq_length(cfg: Config, frames_list: tuple[int, ...] = (9, 27)
                   ) -> AblationTable:
    """Sequence-length sweep: baseline vs text prompts at each length."""
    table = AblationTable(columns=["frames", "variant"])
    for frames in frames_list:
        runs = {v: variant_config(cfg, v, {"data.frames": frames}) for v in ("baseline", "atp")}
        dataset = dataset_from_config(runs["baseline"])
        for variant, run_cfg in runs.items():
            result = train_model(run_cfg, dataset)
            table.rows.append(AblationRow(
                key={"frames": frames, "variant": variant},
                report=result.best_report))
    return table


def run_tap_layers(cfg: Config, layers: list[int] | None = None) -> AblationTable:
    """Projector-position sweep: connect the action projector to each encoder
    block. Tap 1 is z0 (all F frames); a deeper tap b is block b's valid
    output, F - (3**b - 1) frames. Eval computes the blocks up to the tap
    over all their valid frames and later blocks only over the frames the
    centre output reads, so a deeper tap costs more eval time."""
    blocks = blocks_for_frames(cfg.data.frames)
    layers = layers or list(range(1, blocks + 1))
    dataset = dataset_from_config(cfg)
    table = AblationTable(columns=["tap_layer"])
    for layer in layers:
        run_cfg = variant_config(cfg, "atp", {"atp.tap_layer": layer})
        result = train_model(run_cfg, dataset)
        table.rows.append(AblationRow(key={"tap_layer": layer},
                                      report=result.best_report))
    return table


def _mean_report(reports: list[MetricsReport]) -> MetricsReport:
    first = reports[0]
    accs = [r.accuracy for r in reports]
    return MetricsReport(
        action_names=first.action_names,
        per_action_p1={a: float(np.mean([r.per_action_p1[a] for r in reports]))
                       for a in first.per_action_p1},
        per_action_p2={a: float(np.mean([r.per_action_p2[a] for r in reports]))
                       for a in first.per_action_p2},
        counts=first.counts,
        p1=float(np.mean([r.p1 for r in reports])),
        p2=float(np.mean([r.p2 for r in reports])),
        p3=float(np.mean([r.p3 for r in reports])),
        accuracy=None if accs[0] is None else float(np.mean(accs)),
        n=first.n)
