"""Config file parsing, overrides, and validation."""

from dataclasses import fields

import pytest

from poselift.config import (Config, apply_overrides, dump_config, load_config,
                             parse_config_text)
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
