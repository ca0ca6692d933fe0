"""Run configuration: `key = value` files with [data] [encoder] [atp] [app]
[train] sections. Every key has a default; CLI flags override file values,
and `load_config` validates the merge once.
"""

from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

from .encoder import blocks_for_frames
from .errors import ConfigError


@dataclass
class DataSection:
    num_actions: int = 4          # k: number of action classes
    frames: int = 27              # sequence length (9 | 27 | 81 | 243)
    joints: int = 8
    train_per_action: int = 50
    eval_per_action: int = 20
    seed: int = 1234              # generation seed (independent of training seed)
    hard_actions: str = ""        # comma-separated override of the hard-action set


@dataclass
class EncoderSection:
    channels: int = 16
    output_scale: float = 100.0   # dataset units per unit of head output


@dataclass
class AtpSection:
    enabled: bool = True
    context_tokens: int = 16      # shared learnable context vectors per prompt
    tau: float = 0.07             # classification temperature
    text_layers: int = 2          # frozen transformer depth
    projector_blocks: int = 2     # TCN blocks before pooling; 0 pools only
    tap_layer: int = 1            # encoder block feeding the action projector


@dataclass
class AppSection:
    enabled: bool = True
    prompts_per_action: int = 8   # L
    decoder_blocks: int = 1       # D


@dataclass
class TrainSection:
    epochs: int = 60
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay: float = 0.98        # per-epoch exponential decay
    loss_weight: float = 0.1      # lambda: weight of the action loss
    seed: int = 0                 # init/shuffle seed
    label_aux: str = "auto"       # auto | on | off: plain projector+CE classifier
    gt_labels_at_eval: bool = False


@dataclass(frozen=True)
class _Interval:
    """Allowed values of a numeric field; NaN is never inside, and an
    unbounded float field still excludes infinity."""
    low: float
    high: float = math.inf
    low_open: bool = False
    high_open: bool = True

    def __contains__(self, value) -> bool:
        above = value > self.low if self.low_open else value >= self.low
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def __str__(self) -> str:
        return (f"{'(' if self.low_open else '['}{self.low}, "
                f"{self.high}{')' if self.high_open else ']'}")


_SEED = _Interval(0, 2 ** 53, high_open=False)   # what dataset.bin stores exactly
POSITIVE = _Interval(0, low_open=True)
UNBOUNDED = _Interval(-math.inf)                 # checks a value's type alone
# The range of every numeric field except data.frames and atp.tap_layer,
# which `validate` checks against the supported sequence lengths. Library
# functions that take a field's value as an argument check it here too.
_RANGES = {
    ("data", "num_actions"): _Interval(2),        # the generator needs 2 actions and 4 joints
    ("data", "joints"): _Interval(4),
    ("data", "train_per_action"): _Interval(1),
    ("data", "eval_per_action"): _Interval(1),
    ("data", "seed"): _SEED,
    ("encoder", "channels"): _Interval(2),        # one channel layer-norms to NaN
    ("encoder", "output_scale"): POSITIVE,
    ("atp", "context_tokens"): _Interval(0),
    ("atp", "tau"): POSITIVE,
    ("atp", "text_layers"): _Interval(0),
    ("atp", "projector_blocks"): _Interval(0),
    ("app", "prompts_per_action"): _Interval(1),
    ("app", "decoder_blocks"): _Interval(1),      # none leaves app.prompts without a gradient
    ("train", "epochs"): _Interval(1),
    ("train", "batch_size"): _Interval(1),
    ("train", "lr"): POSITIVE,
    ("train", "lr_decay"): _Interval(0, 1, low_open=True, high_open=False),
    ("train", "loss_weight"): _Interval(0),
    ("train", "seed"): _SEED,
}


@dataclass
class Config:
    data: DataSection = field(default_factory=DataSection)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    atp: AtpSection = field(default_factory=AtpSection)
    app: AppSection = field(default_factory=AppSection)
    train: TrainSection = field(default_factory=TrainSection)

    def validate(self) -> "Config":
        for section_name, attr in _RANGES:
            check_range(f"{section_name}.{attr}", getattr(getattr(self, section_name), attr))
        if self.train.label_aux not in ("auto", "on", "off"):
            raise ConfigError(f"unknown label_aux {self.train.label_aux!r}")
        if self.train.label_aux == "on" and self.atp.enabled:
            raise ConfigError("[train] label_aux = on needs [atp] enabled = false: the text "
                              "prompts classify, so the label head would never train")
        if self.app.enabled and not (self.atp.enabled or self.use_label_aux
                                     or self.train.gt_labels_at_eval):
            raise ConfigError("pose prompts need a label source at eval: enable text "
                              "prompts, label_aux or gt_labels_at_eval")
        blocks = blocks_for_frames(self.data.frames)
        if not 1 <= self.atp.tap_layer <= blocks:
            raise ConfigError(f"tap_layer {self.atp.tap_layer} out of range 1..{blocks}")
        return self

    @property
    def use_label_aux(self) -> bool:
        if self.train.label_aux == "on":
            return True
        if self.train.label_aux == "off":
            return False
        # auto: a plain classifier is needed whenever prompts are refined by
        # predicted labels but no text-prompt classifier exists.
        return self.app.enabled and not self.atp.enabled


def check_type(what: str, value, kind: type) -> None:
    """Raise `ConfigError` unless `value`, the argument `what`, is a `kind`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def check_range(key: str, value, interval: _Interval | None = None) -> None:
    """Raise `ConfigError` unless `value` has the type of the dotted field
    `key` (e.g. "train.lr") and lies in `interval`, by default the field's
    `_RANGES` entry. An int field takes an integer, a float field (and a key
    that is no field, such as "gradcheck.tol") any real number; neither
    takes a bool. The message names the field as a config file does."""
    section, _, attr = key.partition(".")
    interval = interval or _RANGES[section, attr]
    field_name = f"[{section}] {_FILE_KEYS.get((section, attr), attr)}"
    kind = _FIELD_TYPES.get((section, attr), float)
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ConfigError(f"{field_name} = {value!r} is not "
                          f"{'an int' if kind is int else 'a number'}")
    if value not in interval:
        raise ConfigError(f"{field_name} = {value} is outside {interval}")


_SECTIONS = tuple(f.name for f in fields(Config))
_FIELD_TYPES = {(section.name, f.name): type(f.default)
                for section in fields(Config) for f in fields(section.default_factory)}
# "lambda" is the file/CLI spelling of TrainSection.loss_weight.
_KEY_ALIASES = {("train", "lambda"): "loss_weight", ("data", "k"): "num_actions"}
_FILE_KEYS = {(s, attr): key for (s, key), attr in _KEY_ALIASES.items()}


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(value, target: type, where: str):
    """`value` as a field of type `target`, or a `ConfigError` naming
    `where`. A bool takes a bool or a bool word, an int an int that is not a
    bool, a float a finite number, a str a str. A string is read as a config
    file line reads it: it must fit on one line, loses the whitespace at its
    ends and is then parsed as the field's type. So `parse_config_text`
    reads back what `dump_config` writes."""
    if isinstance(value, str):
        if "".join(value.splitlines()) != value:
            raise ConfigError(f"{where}: a value must fit on one line, got {value!r}")
        text = value.strip()
        try:
            value = (text if target is str else
                     _BOOL_WORDS[text.lower()] if target is bool else target(text))
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: expected {target.__name__}, got {value!r}") from None
    if not isinstance(value, bool):
        if target is int and isinstance(value, numbers.Integral):
            value = int(value)
        elif target is float and isinstance(value, numbers.Real):
            value = float(value)
            if not math.isfinite(value):
                raise ConfigError(f"{where}: expected a finite number, got {value}")
    if type(value) is not target:
        raise ConfigError(f"{where}: expected {target.__name__}, got {value!r}")
    return value


def load_config(path: str | Path | None = None,
                overrides: dict[str, object] | None = None) -> Config:
    """The one way a run's config is made: defaults < the file at `path` <
    `overrides` (dotted keys as in `apply_overrides`; None skips), merged
    first and validated once, so a flag can complete a file that is invalid
    on its own."""
    return merge_config(path, overrides).validate()


def merge_config(path: str | Path | None, overrides: dict[str, object] | None) -> Config:
    """`load_config`'s merge, not yet validated: the base an ablation lays
    each run's own keys on, validating every run's merge instead."""
    merged = {}
    if path is not None:
        try:
            merged = _file_overrides(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    merged.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return _assign(Config(), merged)


def parse_config_text(text: str) -> Config:
    """Defaults overlaid with `key = value` lines from `text`."""
    return apply_overrides(Config(), _file_overrides(text))


def _file_overrides(text: str) -> dict[str, str]:
    """The `key = value` lines of `text` as dotted overrides, not yet checked
    against the fields."""
    parser = configparser.ConfigParser(interpolation=None)    # "%" is a plain character
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    for section_name in parser.sections():
        if section_name not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section_name}]")
    return {f"{name}.{key}": raw for name in parser.sections() for key, raw in parser.items(name)}


def apply_overrides(cfg: Config, overrides: dict[str, object]) -> Config:
    """Apply CLI-style dotted overrides, e.g. {"train.lambda": 0.2}, and
    validate the result; each value is coerced to its field's type (see
    `_coerce`), and None skips."""
    return _assign(cfg, overrides).validate()


def _assign(cfg: Config, overrides: dict[str, object]) -> Config:
    """`apply_overrides` without the validation."""
    for dotted, value in overrides.items():
        if value is None:
            continue
        section_name, _, key = dotted.partition(".")
        if section_name not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section_name}]")
        attr = _KEY_ALIASES.get((section_name, key), key)
        if (section_name, attr) not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
        setattr(getattr(cfg, section_name), attr,
                _coerce(value, _FIELD_TYPES[section_name, attr], f"[{section_name}] {key}"))
    return cfg


def dump_config(cfg: Config) -> str:
    """Render back to `key = value` text (lambda keeps its file spelling)."""
    out = io.StringIO()
    for section_name in _SECTIONS:
        section = getattr(cfg, section_name)
        out.write(f"[{section_name}]\n")
        for f in fields(section):
            key = _FILE_KEYS.get((section_name, f.name), f.name)
            value = getattr(section, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
