"""Config file parsing, overrides, and validation."""

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
    with pytest.raises(ConfigError, match="embeddings_path"):
        parse_config_text("[atp]\ntext_mode = file\n")


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
