"""Ablation harness: the component on/off matrix plus the sequence-length
and projector-position sweeps, each emitted as a CSV table. A mode is a
list of runs, each config built and validated before any run trains."""

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
# The summary's columns after the means: each variant's range over its seeds.
SPREAD_COLUMNS = ["P1_min", "P1_max", "accuracy_min", "accuracy_max"]


def variant_config(cfg: Config, variant: str, sweep: dict[str, object] | None = None
                   ) -> Config:
    """One ablation run's config: a copy of `cfg` with the row's components
    and then the sweep's own overrides laid on, validated once on the merge.
    So `cfg` need not be valid alone (see `config.merge_config`)."""
    if variant not in _ROWS:
        raise ConfigError(f"unknown ablation variant {variant!r}; know {VARIANTS}")
    return apply_overrides(copy.deepcopy(cfg), {**_ROWS[variant], **(sweep or {})})


@dataclass
class AblationRow:
    key: dict
    report: MetricsReport
    tail: dict = field(default_factory=dict)    # the table's `tail` columns' values


@dataclass
class AblationTable:
    columns: list[str]
    rows: list[AblationRow] = field(default_factory=list)
    tail: list[str] = field(default_factory=list)     # columns after the metrics

    def to_csv(self) -> str:
        header = ",".join(self.columns + ["P1", "P2", "P3", "accuracy"] + self.tail)
        lines = [header]
        for row in self.rows:
            front = ",".join(str(row.key[c]) for c in self.columns)
            back = "".join(f",{_cell(row.tail[c])}" for c in self.tail)
            lines.append(f"{front},{row.report.p1:.6f},{row.report.p2:.6f},"
                         f"{row.report.p3:.6f},{_cell(row.report.accuracy)}{back}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


# A run: its key columns in the table, and its validated config. A mode's
# runs are all built before any trains, so a bad one stops it before work.
Run = tuple[dict, Config]


def component_runs(cfg: Config, seeds: list | None = None) -> list[Run]:
    """Every variant at each seed (`cfg`'s own when none are given); a seed
    is checked as a `[train] seed` override is."""
    runs = []
    for variant in VARIANTS:
        for seed in seeds or [cfg.train.seed]:
            run_cfg = variant_config(cfg, variant, {"train.seed": seed})
            runs.append(({"variant": variant, "seed": run_cfg.train.seed}, run_cfg))
    return runs


def seq_length_runs(cfg: Config, frames_list: tuple[int, ...] = (9, 27)) -> list[Run]:
    """Baseline vs text prompts at each sequence length."""
    return [({"frames": frames, "variant": variant},
             variant_config(cfg, variant, {"data.frames": frames}))
            for frames in frames_list for variant in ("baseline", "atp")]


def tap_layer_runs(cfg: Config) -> list[Run]:
    """Text prompts with the action projector on each encoder block. Tap 1
    is z0 (all F frames); a deeper tap b is block b's valid output,
    F - (3**b - 1) frames. Eval computes the blocks up to the tap over all
    their valid frames and later blocks only over the frames the centre
    output reads, so a deeper tap costs more eval time."""
    return [({"tap_layer": layer}, variant_config(cfg, "atp", {"atp.tap_layer": layer}))
            for layer in range(1, blocks_for_frames(cfg.data.frames) + 1)]


def train_runs(runs: list[Run], dataset: PoseDataset | None = None) -> AblationTable:
    """Train each run in order, on `dataset` or else on the dataset its data
    section generates (once for consecutive runs that share one)."""
    table = AblationTable(columns=list(runs[0][0]))
    data_cfg = None
    for key, run_cfg in runs:
        if run_cfg.data != data_cfg:
            data_cfg, data = run_cfg.data, dataset or dataset_from_config(run_cfg)
        table.rows.append(AblationRow(key=key, report=train_model(run_cfg, data).best_report))
    return table


def summarize(detail: AblationTable) -> AblationTable:
    """Per-variant means over the seeds of a component table, and the
    spread of P1 and accuracy over the seeds: their minimum and maximum."""
    summary = AblationTable(columns=["variant"], tail=SPREAD_COLUMNS)
    for variant in dict.fromkeys(row.key["variant"] for row in detail.rows):
        reports = [row.report for row in detail.rows if row.key["variant"] == variant]
        p1s, accs = [r.p1 for r in reports], [r.accuracy for r in reports]
        spread = {"P1_min": min(p1s), "P1_max": max(p1s),
                  "accuracy_min": None if accs[0] is None else min(accs),
                  "accuracy_max": None if accs[0] is None else max(accs)}
        summary.rows.append(AblationRow(key={"variant": variant},
                                        report=_mean_report(reports), tail=spread))
    return summary


def run_components(cfg: Config, seeds: list | None = None,
                   dataset: PoseDataset | None = None) -> tuple[AblationTable, AblationTable]:
    """Train every variant on identical data with identical seeds.

    Returns (per-run table, per-variant mean table).
    """
    detail = train_runs(component_runs(cfg, seeds), dataset)
    return detail, summarize(detail)


def run_seq_length(cfg: Config, frames_list: tuple[int, ...] = (9, 27)) -> AblationTable:
    """Sequence-length sweep: baseline vs text prompts at each length."""
    return train_runs(seq_length_runs(cfg, frames_list))


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _mean_report(reports: list[MetricsReport]) -> MetricsReport:
    first = reports[0]
    accs = [r.accuracy for r in reports]
    return MetricsReport(
        per_action_p1={a: float(np.mean([r.per_action_p1[a] for r in reports]))
                       for a in first.per_action_p1},
        per_action_p2={a: float(np.mean([r.per_action_p2[a] for r in reports]))
                       for a in first.per_action_p2},
        counts=first.counts,
        p1=float(np.mean([r.p1 for r in reports])),
        p2=float(np.mean([r.p2 for r in reports])),
        p3=float(np.mean([r.p3 for r in reports])),
        accuracy=None if accs[0] is None else float(np.mean(accs)))
