"""Synthetic action-conditioned pose sequences and their on-disk format.

Each action is a procedural motion motif: joints oscillate in the image
plane with an action-specific frequency and amplitude pattern, while the
depth coordinate follows an action-specific program (a static posture
offset plus an excursion phase-locked to the visible motion). Depth is
therefore invisible in the 2D input but predictable once the action is
known, which is exactly the ambiguity structure the model targets.

Units: 3D coordinates are in "dataset units" (millimeter-like); 2D inputs
are dimensionless in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import Reader, write_container
from .errors import ConfigError, FormatError

SUPPORTED_FRAMES = (9, 27, 81, 243)
FORMAT_VERSION = 2
DATASET_MAGIC = b"PLDATA\x00\x00"

# Fixed entropy for motif-identity randomness (joint direction patterns);
# independent of the dataset seed so action definitions are stable.
_MOTIF_ENTROPY = 1618033988

_BASE_NAMES = ("sway", "stride", "reach", "crouch")
_BASE_FREQ = (0.8, 1.15, 1.55, 2.0)          # cycles per window
_BASE_EXCURSION = (0.0, 30.0, 60.0, 100.0)   # dynamic depth amplitude
_BASE_DEPTH_OFFSET = (0.0, 45.0, 75.0, 105.0)  # static per-action depth posture

_TEMPLATE_XY = 140.0      # template skeleton span
_TEMPLATE_Z = 60.0
_POSTURE_SCALE = 22.0     # per-action posture delta
_AMP_BASE = 10.0          # baseline oscillation for all joints
_AMP_SIGNATURE = 22.0     # extra oscillation on the action's signature group
_DRIFT_XY = 15.0          # per-sample global drift
_DRIFT_Z = 5.0
_OBS_NOISE = 3.0          # 2D observation noise, in units before scaling
_SCALE_2D = 320.0         # units-per-1.0 of normalized image coordinates


@dataclass(frozen=True)
class ActionMotif:
    """Procedural parameters of one action."""
    index: int
    name: str
    frequency: float          # oscillation cycles per window
    signature_group: int      # which third of the skeleton moves most (0/1/2)
    depth_excursion: float    # amplitude of the phase-locked depth oscillation
    depth_offset: float       # magnitude of the static depth posture
    noise_scale: float        # 3D trajectory noise sigma

    def joint_fields(self, joints: int) -> dict[str, np.ndarray]:
        """Per-joint direction patterns, deterministic in (action, joints)."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=_MOTIF_ENTROPY, spawn_key=(self.index, joints)))
        posture = rng.normal(scale=_POSTURE_SCALE, size=(joints, 3))
        amp = np.full(joints, _AMP_BASE)
        group = np.array_split(np.arange(1, joints), 3)[self.signature_group]
        amp[group] += _AMP_SIGNATURE
        amp *= rng.uniform(0.85, 1.15, size=joints)
        phase_x = rng.uniform(0, 2 * np.pi, size=joints)
        phase_y = rng.uniform(0, 2 * np.pi, size=joints)
        depth_dir = rng.uniform(-1.0, 1.0, size=joints)
        depth_offset_dir = rng.uniform(-1.0, 1.0, size=joints)
        depth_lag = rng.uniform(0, 2 * np.pi)
        return {"posture": posture, "amp": amp, "phase_x": phase_x,
                "phase_y": phase_y, "depth_dir": depth_dir,
                "depth_offset_dir": depth_offset_dir,
                "depth_lag": np.array(depth_lag)}


def default_motifs(num_actions: int) -> list[ActionMotif]:
    """Motif table; the first four are named, further actions extend the pattern."""
    motifs = []
    for k in range(num_actions):
        base = k % 4
        tier = k // 4
        motifs.append(ActionMotif(
            index=k,
            name=_BASE_NAMES[k] if k < 4 else f"action{k}",
            frequency=_BASE_FREQ[base] + 0.45 * tier + 0.07 * k,
            signature_group=k % 3,
            depth_excursion=_BASE_EXCURSION[base] + 6.0 * tier,
            depth_offset=_BASE_DEPTH_OFFSET[base] + 5.0 * tier,
            noise_scale=1.5,
        ))
    return motifs


def hard_action_names(motifs: list[ActionMotif]) -> list[str]:
    """The designated hard action: the motif with the largest depth excursion."""
    worst = max(motifs, key=lambda m: m.depth_excursion + m.depth_offset)
    return [worst.name]


def _skeleton_template(joints: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=_MOTIF_ENTROPY, spawn_key=(9999, joints)))
    template = np.empty((joints, 3))
    template[:, 0] = rng.uniform(-_TEMPLATE_XY, _TEMPLATE_XY, size=joints)
    template[:, 1] = rng.uniform(-_TEMPLATE_XY, _TEMPLATE_XY, size=joints)
    template[:, 2] = rng.uniform(-_TEMPLATE_Z, _TEMPLATE_Z, size=joints)
    template[0] = 0.0
    return template


@dataclass
class DatasetManifest:
    """Dataset metadata; on load everything but the names and the seed is
    read off the array shapes."""
    num_actions: int
    frames: int
    joints: int
    seed: int
    action_names: list[str]
    hard_actions: list[str]
    train_count: int
    eval_count: int


@dataclass
class Split:
    input2d: np.ndarray   # (N, F, J, 2) float32 in [-1, 1]
    target3d: np.ndarray  # (N, J, 3) float32, root-relative
    labels: np.ndarray    # (N,) int64 in [0, K)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class PoseDataset:
    manifest: DatasetManifest
    train: Split
    eval: Split
    motifs: list[ActionMotif] = field(default_factory=list)


def _generate_sample(motif: ActionMotif, fields: dict[str, np.ndarray],
                     template: np.ndarray, frames: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    joints = template.shape[0]
    t = np.arange(frames)[:, None]                        # (F, 1)
    omega = 2 * np.pi * motif.frequency / frames
    phase = rng.uniform(0, 2 * np.pi)
    drift = np.array([rng.normal(scale=_DRIFT_XY), rng.normal(scale=_DRIFT_XY),
                      rng.normal(scale=_DRIFT_Z)])
    amp = fields["amp"] * rng.uniform(0.9, 1.1)

    pose = np.empty((frames, joints, 3))
    base = template + fields["posture"]
    pose[:, :, 0] = base[:, 0] + drift[0] + amp * np.sin(omega * t + phase + fields["phase_x"])
    pose[:, :, 1] = base[:, 1] + drift[1] + amp * np.cos(omega * t + phase + fields["phase_y"])
    pose[:, :, 2] = (base[:, 2] + drift[2]
                     + motif.depth_offset * fields["depth_offset_dir"]
                     + motif.depth_excursion * fields["depth_dir"]
                     * np.sin(omega * t + phase + fields["depth_lag"]))
    pose += rng.normal(scale=motif.noise_scale, size=pose.shape)

    observed = pose[:, :, :2] + rng.normal(scale=_OBS_NOISE, size=(frames, joints, 2))
    input2d = np.clip(observed / _SCALE_2D, -1.0, 1.0).astype(np.float32)
    center = pose[frames // 2]
    target3d = (center - center[0]).astype(np.float32)    # root-relative, root exactly 0
    return input2d, target3d


def _generate_split(motifs: list[ActionMotif], frames: int, joints: int,
                    n_per_action: int, seed: int, split_id: int) -> Split:
    template = _skeleton_template(joints)
    inputs, targets, labels = [], [], []
    for motif in motifs:
        fields = motif.joint_fields(joints)
        for i in range(n_per_action):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(split_id, motif.index, i)))
            x2d, y3d = _generate_sample(motif, fields, template, frames, rng)
            inputs.append(x2d)
            targets.append(y3d)
            labels.append(motif.index)
    return Split(input2d=np.stack(inputs), target3d=np.stack(targets),
                 labels=np.array(labels, dtype=np.int64))


def gen_synthetic(num_actions: int, frames: int, joints: int,
                  train_per_action: int, eval_per_action: int,
                  seed: int) -> PoseDataset:
    """Generate disjoint train/eval splits, deterministic in every argument."""
    if num_actions < 2:
        raise ConfigError(f"need at least 2 actions, got {num_actions}")
    if joints < 4:
        raise ConfigError(f"need at least 4 joints, got {joints}")
    if frames not in SUPPORTED_FRAMES:
        raise ConfigError(
            f"unsupported sequence length {frames}; supported: {list(SUPPORTED_FRAMES)}")
    motifs = default_motifs(num_actions)
    train = _generate_split(motifs, frames, joints, train_per_action, seed, split_id=0)
    evals = _generate_split(motifs, frames, joints, eval_per_action, seed, split_id=1)
    manifest = DatasetManifest(
        num_actions=num_actions, frames=frames, joints=joints, seed=seed,
        action_names=[m.name for m in motifs],
        hard_actions=hard_action_names(motifs),
        train_count=len(train), eval_count=len(evals))
    return PoseDataset(manifest=manifest, train=train, eval=evals, motifs=motifs)


# -- pixel-space normalization ------------------------------------------------

def normalize_2d(points: np.ndarray, width: float, height: float) -> np.ndarray:
    """Pixel coords (..., 2) to normalized coords; width scales both axes so
    the aspect ratio is preserved."""
    if width <= 0 or height <= 0:
        raise ConfigError(f"image dims must be positive, got {width}x{height}")
    points = np.asarray(points, dtype=np.float64)
    out = np.empty_like(points)
    out[..., 0] = (2.0 * points[..., 0] - width) / width
    out[..., 1] = (2.0 * points[..., 1] - height) / width
    return out


def denormalize_2d(points: np.ndarray, width: float, height: float) -> np.ndarray:
    if width <= 0 or height <= 0:
        raise ConfigError(f"image dims must be positive, got {width}x{height}")
    points = np.asarray(points, dtype=np.float64)
    out = np.empty_like(points)
    out[..., 0] = (points[..., 0] * width + width) / 2.0
    out[..., 1] = (points[..., 1] * width + height) / 2.0
    return out


# -- dataset directory io --------------------------------------------------------

def save_dataset(dataset: PoseDataset, path: str | Path) -> None:
    """Directory with dataset.bin: the seed, the K action names, the hard-action
    names, then input2d, target3d and labels of the train and eval splits.

    Refuses, with the same `FormatError`, any dataset `load_dataset` would
    reject, before it creates the directory."""
    _check_dataset(dataset.manifest.seed, dataset.manifest.action_names,
                   dataset.train, dataset.eval)
    _write_dataset(dataset, path)


def _write_dataset(dataset: PoseDataset, path: str | Path) -> None:
    """`save_dataset` without the checks."""
    names, hard = dataset.manifest.action_names, dataset.manifest.hard_actions
    records = [dataset.manifest.seed, len(names), *names, len(hard), *hard]
    for split in (dataset.train, dataset.eval):
        records += [split.input2d, split.target3d, split.labels]
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_container(path / "dataset.bin", DATASET_MAGIC, FORMAT_VERSION, records)


def _check_dataset(seed: int, names: list[str], train: Split, evals: Split) -> None:
    """Raise `FormatError` unless the seed is a count, the names are distinct,
    each split's shapes agree, both splits hold samples of the same frames
    and joints with float32-finite values, and every label is below K."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed <= 2 ** 53):
        raise FormatError(f"dataset: seed {seed!r} is not an integer in [0, 2**53]")
    splits = {"train": train, "eval": evals}
    for name, split in splits.items():
        if split.input2d.ndim != 4 or split.input2d.shape[3] != 2:
            raise FormatError(f"dataset: {name}.input2d shape {split.input2d.shape} "
                              "is not (N, F, J, 2)")
        count, _, joints, _ = split.input2d.shape
        for what, arr, want in (("target3d", split.target3d, (count, joints, 3)),
                                ("labels", split.labels, (count,))):
            if arr.shape != want:
                raise FormatError(f"dataset: {name}.{what} shape {arr.shape} does not match "
                                  f"the {want} that input2d implies")
    if len(set(names)) != len(names):
        raise FormatError(f"dataset action names are not distinct: {names}")
    if train.input2d.shape[1:] != evals.input2d.shape[1:]:
        raise FormatError(f"dataset: train input2d {train.input2d.shape} and eval "
                          f"input2d {evals.input2d.shape} differ in frames or joints")
    for name, split in splits.items():
        if not len(split):
            raise FormatError(f"dataset: the {name} split holds no samples")
        for field_name in ("input2d", "target3d"):
            values = getattr(split, field_name)
            if values.dtype.kind != "f":
                raise FormatError(f"dataset: {name}.{field_name} has dtype {values.dtype}, "
                                  "not a float type")
            with np.errstate(over="ignore"):      # float32 is what is stored
                if not np.isfinite(values.astype(np.float32, copy=False)).all():
                    raise FormatError(f"dataset: {name}.{field_name} holds non-finite values")
        labels = split.labels
        if labels.dtype.kind not in "biu":
            raise FormatError(f"dataset: {name}.labels has dtype {labels.dtype}, "
                              "not an integer type")
        worst = labels.min() if labels.min() < 0 else labels.max()
        if not 0 <= worst < len(names):
            raise FormatError(f"dataset: {name}.labels holds label {worst}, "
                              f"out of range for {len(names)} actions")


def load_dataset(path: str | Path) -> PoseDataset:
    reader = Reader(Path(path) / "dataset.bin", DATASET_MAGIC, FORMAT_VERSION, "dataset")
    seed = reader.count("seed")
    names = [reader.string(f"name of action {k}")
             for k in range(reader.count("action count"))]
    hard = [reader.string(f"name of hard action {k}")
            for k in range(reader.count("hard action count"))]
    arrays = [(reader.tensor(f"{name}.input2d"), reader.tensor(f"{name}.target3d"),
               reader.tensor(f"{name}.labels", dtype="<u4")) for name in ("train", "eval")]
    reader.finish()
    train, evals = (Split(input2d, target3d, labels.astype(np.int64))
                    for input2d, target3d, labels in arrays)
    _check_dataset(seed, names, train, evals)
    _, frames, joints, _ = train.input2d.shape
    manifest = DatasetManifest(
        num_actions=len(names), frames=frames, joints=joints, seed=seed,
        action_names=names, hard_actions=hard,
        train_count=len(train), eval_count=len(evals))
    return PoseDataset(manifest=manifest, train=train, eval=evals,
                       motifs=default_motifs(len(names)))


# -- calibration helpers ------------------------------------------------------------

def nearest_centroid_accuracy(train: Split, evals: Split) -> float:
    """Accuracy of a nearest-centroid classifier on flattened 3D target poses.

    Calibrates how separable the generated actions are before any learning.
    """
    feats_train = train.target3d.reshape(len(train), -1).astype(np.float64)
    feats_eval = evals.target3d.reshape(len(evals), -1).astype(np.float64)
    classes = np.unique(train.labels)
    centroids = np.stack([feats_train[train.labels == c].mean(axis=0) for c in classes])
    dists = np.linalg.norm(feats_eval[:, None, :] - centroids[None, :, :], axis=-1)
    predicted = classes[np.argmin(dists, axis=1)]
    return float((predicted == evals.labels).mean())
