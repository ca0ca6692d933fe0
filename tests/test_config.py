"""Config file parsing, overrides, and validation."""

import argparse
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from poselift.cli import _build_config, build_parser
from poselift.config import (_KEY_ALIASES, _RANGES, Config, apply_overrides, dump_config,
                             load_config, parse_config_text)
from poselift.errors import ConfigError


def test_defaults():
    cfg = load_config()
    assert cfg.data.num_actions == 4 and cfg.data.frames == 27
    assert cfg.train.loss_weight == 0.1 and cfg.atp.tau == 0.07
    assert cfg.train.epochs == 60 and cfg.train.batch_size == 16


def test_file_parse_and_lambda_alias(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[data]\nk = 6\nframes = 9\n\n"
                    "[train]\nlambda = 0.25\nepochs = 3\n\n"
                    "[atp]\nenabled = false\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.data.num_actions == 6 and cfg.data.frames == 9
    assert cfg.train.loss_weight == 0.25 and cfg.train.epochs == 3
    assert cfg.atp.enabled is False


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match="section"):
        parse_config_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[train]\nlearning = 5\n")


def test_bad_value_types():
    with pytest.raises(ConfigError):
        parse_config_text("[train]\nepochs = banana\n")
    with pytest.raises(ConfigError):
        parse_config_text("[atp]\nenabled = maybe\n")


def test_validation_rules():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config_text("[train]\nlambda = -0.5\n")
    with pytest.raises(ConfigError, match="tau"):
        parse_config_text("[atp]\ntau = 0\n")


def test_tap_layer_range_follows_frames():
    cfg = apply_overrides(Config(), {"data.frames": 81, "atp.tap_layer": 4})
    assert cfg.atp.tap_layer == 4
    with pytest.raises(ConfigError, match=r"tap_layer 4 out of range 1\.\.3"):
        apply_overrides(Config(), {"atp.tap_layer": 4})
    with pytest.raises(ConfigError, match="tap_layer 0"):
        parse_config_text("[atp]\ntap_layer = 0\n")


def test_only_the_supported_sequence_lengths_are_accepted():
    # 729 = 3**6 and 3 are powers of three too, but not supported lengths
    for frames in (9, 27, 81, 243):
        assert apply_overrides(Config(), {"data.frames": frames}).data.frames == frames
    for frames in (729, 3, 1):
        with pytest.raises(ConfigError, match=rf"unsupported sequence length {frames}; "
                                              r"supported: \[9, 27, 81, 243\]"):
            apply_overrides(Config(), {"data.frames": frames})


def test_overrides():
    cfg = apply_overrides(Config(), {"train.lambda": 0.3, "data.frames": 81,
                                     "atp.enabled": False, "train.seed": None})
    assert cfg.train.loss_weight == 0.3
    assert cfg.data.frames == 81
    assert cfg.atp.enabled is False
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"train.nope": 1})


@pytest.mark.parametrize("dotted", ["data.__doc__", "train.__class__", "atp.__dict__"])
def test_only_dataclass_fields_are_keys(dotted):
    section, _, key = dotted.partition(".")
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in section \\[{section}\\]"):
        apply_overrides(Config(), {dotted: "5"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(f"[{section}]\n{key} = 5\n")


def test_dump_round_trip():
    cfg = Config()
    cfg.train.loss_weight = 0.42
    cfg.data.num_actions = 7
    cfg.app.prompts_per_action = 5
    again = parse_config_text(dump_config(cfg))
    assert again == cfg


def test_label_aux_auto_logic():
    cfg = Config()
    assert cfg.use_label_aux is False            # full model classifies via prompts
    cfg.atp.enabled = False
    assert cfg.use_label_aux is True             # pose prompts need a label source
    cfg.app.enabled = False
    assert cfg.use_label_aux is False
    cfg.train.label_aux = "on"
    assert cfg.use_label_aux is True


def test_label_aux_on_with_text_prompts_is_rejected():
    # The text prompts classify, so a label head beside them gets no gradient.
    message = r"\[train\] label_aux = on needs \[atp\] enabled = false"
    with pytest.raises(ConfigError, match=message):
        apply_overrides(Config(), {"train.label_aux": "on"})
    with pytest.raises(ConfigError, match=message):
        parse_config_text("[train]\nlabel_aux = on\n")
    cfg = apply_overrides(Config(), {"train.label_aux": "on", "atp.enabled": "false"})
    assert cfg.use_label_aux is True


# Out-of-range values of every numeric field, by section and file spelling.
OUT_OF_RANGE = {
    "data": {"k": ["1", "0", "-4"], "frames": ["0", "10", "-27"], "joints": ["3", "0"],
             "train_per_action": ["0", "-1"], "eval_per_action": ["0"],
             "seed": ["-1", str(2 ** 53 + 1)]},
    "encoder": {"channels": ["1", "0", "-16"], "output_scale": ["0", "-100", "inf", "nan"]},
    "atp": {"context_tokens": ["-1"], "tau": ["0", "-0.07", "nan", "inf"],
            "text_layers": ["-1"], "projector_blocks": ["-1"], "tap_layer": ["0", "4"]},
    "app": {"prompts_per_action": ["0"], "decoder_blocks": ["0", "-1"]},
    "train": {"epochs": ["0"], "batch_size": ["0", "-16"],
              "lr": ["0", "-1", "nan", "inf"], "lr_decay": ["0", "-0.5", "1.5", "nan"],
              "lambda": ["-0.5", "nan", "inf"], "seed": ["-1", str(2 ** 53 + 1)]},
}
# The edges the code supports stay valid.
AT_THE_EDGE = {
    "data": {"k": "2", "joints": "4", "train_per_action": "1", "eval_per_action": "1",
             "seed": str(2 ** 53)},
    "encoder": {"channels": "2"},
    "atp": {"context_tokens": "0", "text_layers": "0", "projector_blocks": "0"},
    "app": {"prompts_per_action": "1", "decoder_blocks": "1"},
    "train": {"lambda": "0", "lr_decay": "1", "seed": "0", "batch_size": "1"},
}


def test_out_of_range_numbers_cover_every_numeric_field():
    aliases = {"loss_weight": "lambda", "num_actions": "k"}
    cfg = Config()
    for section, bad in OUT_OF_RANGE.items():
        numeric = {aliases.get(f.name, f.name) for f in fields(getattr(cfg, section))
                   if type(getattr(getattr(cfg, section), f.name)) in (int, float)}
        assert set(bad) == numeric, section


@pytest.mark.parametrize("section,key,value", [
    (section, key, value) for section, keys in OUT_OF_RANGE.items()
    for key, values in keys.items() for value in values])
def test_out_of_range_number_is_rejected(section, key, value):
    named = "sequence length" if key == "frames" else key
    with pytest.raises(ConfigError, match=named):
        parse_config_text(f"[{section}]\n{key} = {value}\n")


def test_edge_of_range_numbers_are_accepted():
    for section, keys in AT_THE_EDGE.items():
        for key, value in keys.items():
            parse_config_text(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("dotted,value", [
    ("train.epochs", 2.5), ("train.epochs", "2.5"), ("train.epochs", True),
    ("atp.enabled", 0), ("atp.enabled", 1), ("atp.enabled", "maybe"),
    ("train.lambda", float("nan")), ("train.lambda", float("inf")),
    ("train.lambda", False), ("train.lambda", "0.1x"), ("train.lr", [0.1]),
    ("data.hard_actions", 5), ("train.label_aux", True),
])
def test_override_of_the_wrong_type_is_rejected(dotted, value):
    section, _, key = dotted.partition(".")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected"):
        apply_overrides(Config(), {dotted: value})


@pytest.mark.parametrize("dotted,value,expected", [
    ("train.epochs", 3, 3), ("train.epochs", " 3 ", 3), ("train.epochs", np.int64(3), 3),
    ("atp.enabled", False, False), ("atp.enabled", " Off ", False),
    ("atp.enabled", "yes", True), ("train.lambda", 1, 1.0), ("train.lambda", "0.25", 0.25),
    ("train.lr", np.float32(0.5), 0.5), ("data.hard_actions", "a,b", "a,b"),
])
def test_override_is_coerced_to_the_field_type(dotted, value, expected):
    section, _, key = dotted.partition(".")
    attr = {"lambda": "loss_weight"}.get(key, key)
    got = getattr(getattr(apply_overrides(Config(), {dotted: value}), section), attr)
    assert got == expected and type(got) is type(expected)


def test_a_percent_sign_is_a_plain_character():
    cfg = parse_config_text("[data]\nhard_actions = walk%,run\n")
    assert cfg.data.hard_actions == "walk%,run"
    assert parse_config_text(dump_config(cfg)) == cfg


def test_cli_overrides_keep_their_types():
    args = build_parser().parse_args(
        ["train", "--seed", "3", "--frames", "81", "--lambda", "0.2", "--tap-layer", "2",
         "--disable-atp", "--disable-app", "--gt-labels-at-eval"])
    cfg = _build_config(args)
    assert (cfg.train.seed, cfg.data.frames, cfg.train.loss_weight, cfg.atp.tap_layer,
            cfg.atp.enabled, cfg.app.enabled, cfg.train.gt_labels_at_eval) == (
        3, 81, 0.2, 2, False, False, True)
    assert parse_config_text(dump_config(cfg)) == cfg
    dataset = SimpleNamespace(manifest=SimpleNamespace(action_names=["a", "b", "c"]),
                              train=SimpleNamespace(input2d=np.zeros((1, 9, 5, 2))))
    cfg = _build_config(build_parser().parse_args(["train"]), dataset=dataset)
    assert (cfg.data.frames, cfg.data.num_actions, cfg.data.joints) == (9, 3, 5)


def test_every_dotted_flag_dest_is_a_config_key():
    # A config flag's dest is the key it overrides, so a renamed key must not
    # leave a flag that only fails when someone passes it.
    keys = {f"{name}.{f.name}" for name, section in vars(Config()).items()
            for f in fields(section)} | {f"{s}.{key}" for s, key in _KEY_ALIASES}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    dests = {a.dest for sub in commands.values() for a in sub._actions if "." in a.dest}
    assert dests == {"train.seed", "data.seed", "data.frames", "train.lambda", "atp.enabled",
                     "app.enabled", "atp.tap_layer", "train.gt_labels_at_eval"}
    assert dests <= keys


def test_load_config_merges_file_and_overrides_before_validating(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[atp]\nenabled = false\n\n[train]\nlabel_aux = off\nlambda = 0.3\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="pose prompts need a label source"):
        load_config(path)
    cfg = load_config(path, {"train.gt_labels_at_eval": True, "train.lambda": None,
                             "train.seed": "5"})
    assert (cfg.train.gt_labels_at_eval, cfg.train.loss_weight, cfg.train.seed) == (True, 0.3, 5)
    assert load_config(None, {"data.frames": 81}).data.frames == 81


# Names for `hard_actions`, with "%", whitespace and line breaks among their
# characters, and `label_aux` words with whitespace around them.
_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_% \t\n\r\x0b\u2028", min_size=1,
                 max_size=6)
_PADDING = st.sampled_from(["", " ", "\t", "\n", " \r\n"])
_CHOICES = {("data", "hard_actions"): st.lists(_NAMES, max_size=3).map(",".join),
            ("train", "label_aux"): st.tuples(_PADDING, st.sampled_from(["auto", "on", "off"]),
                                              _PADDING).map("".join),
            ("data", "frames"): st.sampled_from([9, 27, 81, 243]),
            ("atp", "tap_layer"): st.integers(1, 5)}


def _field_values(section: str, f):
    """Values of one field; numbers anywhere in their range (tap layers
    beyond the sequence length are left to `assume`)."""
    if (section, f.name) in _CHOICES:
        return _CHOICES[section, f.name]
    if type(f.default) is bool:
        return st.booleans()
    interval = _RANGES[section, f.name]
    high = None if math.isinf(interval.high) else interval.high
    if type(f.default) is int:
        low = int(interval.low) + interval.low_open
        return st.integers(low, None if high is None else int(high) - interval.high_open)
    return st.floats(interval.low, high, exclude_min=interval.low_open,
                     exclude_max=interval.high_open and high is not None,
                     allow_nan=False, allow_infinity=False)


@st.composite
def field_overrides(draw):
    """One drawn value for every field, as a dotted override map."""
    return {f"{name}.{f.name}": draw(_field_values(name, f))
            for name, section in vars(Config()).items() for f in fields(section)}


def spans_lines(value) -> bool:
    return isinstance(value, str) and "".join(value.splitlines()) != value


@settings(max_examples=60, deadline=None)
@given(overrides=field_overrides())
def test_dumped_config_parses_back_equal(overrides):
    multi_line = [key for key, value in overrides.items() if spans_lines(value)]
    try:
        cfg = apply_overrides(Config(), overrides)
    except ConfigError as exc:
        if multi_line:
            section, _, key = multi_line[0].partition(".")
            assert f"[{section}] {key}: a value must fit on one line" in str(exc)
            return
        assume(False)                     # out of range together, e.g. tap layer
    assert not multi_line
    assert parse_config_text(dump_config(cfg)) == cfg


def test_a_value_on_more_than_one_line_is_rejected():
    with pytest.raises(ConfigError, match=r"\[data\] hard_actions: a value must fit on one"):
        apply_overrides(Config(), {"data.hard_actions": "walk\nrun"})
    # configparser folds an indented line into the value above it
    with pytest.raises(ConfigError, match=r"\[data\] hard_actions: a value must fit on one"):
        parse_config_text("[data]\nhard_actions = walk\n  run\n")


def test_a_string_value_loses_the_whitespace_at_its_ends():
    cfg = apply_overrides(Config(), {"data.hard_actions": " walk,run\t", "train.label_aux": " off"})
    assert (cfg.data.hard_actions, cfg.train.label_aux) == ("walk,run", "off")
    assert parse_config_text(dump_config(cfg)) == cfg


# Every field, the two aliases and two unknown keys.
_KEYS = ([f"{name}.{f.name}" for name, section in vars(Config()).items()
          for f in fields(section)]
         + ["train.lambda", "data.k", "train.nope", "model.channels"])
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 300), st.floats(-2.0, 300.0),
                    st.sampled_from([math.nan, math.inf, "true", "off", "27", "2.5", "nan",
                                     "auto", "walk,run", "", " walk ", "walk\nrun",
                                     "on\r\n", "2\n7"]))


@settings(max_examples=60, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=6))
def test_any_override_map_gives_a_config_that_round_trips_or_a_config_error(overrides):
    try:
        cfg = apply_overrides(Config(), overrides)
    except ConfigError:
        return
    assert parse_config_text(dump_config(cfg)) == cfg
