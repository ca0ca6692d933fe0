"""Action-prompted 2D-to-3D human pose lifting on a small numpy autodiff core.

Library layout:

- `tensor`, `ops`, `optim`, `gradcheck`: the differentiable substrate
  (float32 for training, float64 for gradient verification).
- `container`: the binary format of checkpoints and datasets.
- `data`: synthetic action-conditioned sequences and dataset directories.
- `encoder`: the dilated temporal-convolution pose encoder.
- `text_prompts` / `pose_prompts`: the two action-prompting modules.
- `model`, `losses`, `metrics`, `train`, `ablate`: assembly, objectives,
  evaluation protocols, training, and the ablation harness.
- `cli`: the `poselift` command.
"""

from .config import Config, apply_overrides, load_config
from .data import (PoseDataset, Split, gen_synthetic, load_dataset,
                   nearest_centroid_accuracy, save_dataset)
from .errors import (ConfigError, DimensionError, FormatError, PoseLiftError,
                     SequenceTooShortError, TrainingError)
from .gradcheck import grad_check, run_model_check, run_op_suite
from .losses import action_loss, pose_loss, total_loss
from .metrics import MetricsReport, build_report, dmpjpe, mpjpe, tail_dmpjpe
from .model import PoseLifter
from .optim import Adam
from .tensor import Parameter, Tensor, concat, precision
from .train import (Checkpoint, dataset_from_config, evaluate, load_checkpoint,
                    restore_model, train_model, write_checkpoint)

__all__ = [
    "Adam", "Checkpoint", "Config", "ConfigError", "DimensionError",
    "FormatError", "MetricsReport", "Parameter", "PoseDataset", "PoseLifter",
    "PoseLiftError", "SequenceTooShortError", "Split", "Tensor",
    "TrainingError", "action_loss", "apply_overrides", "build_report",
    "concat", "dataset_from_config", "dmpjpe", "evaluate",
    "gen_synthetic", "grad_check", "load_checkpoint", "load_config",
    "load_dataset", "mpjpe", "nearest_centroid_accuracy",
    "pose_loss", "precision", "restore_model", "run_model_check",
    "run_op_suite", "save_dataset", "tail_dmpjpe", "total_loss",
    "train_model", "write_checkpoint",
]

__version__ = "0.1.0"
