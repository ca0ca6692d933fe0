"""Command-line surface: subcommands, outputs, exit codes, error lines."""

import dataclasses
import shutil

import numpy as np
import pytest

from poselift.cli import main
from poselift.config import Config
from poselift.data import Split, _write_dataset, load_dataset, save_dataset
from poselift.errors import FormatError
from poselift.model import PoseLifter
from poselift.train import _write_checkpoint, restore_model, snapshot, write_checkpoint


@pytest.fixture(scope="module")
def quick_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "quick.ini"
    path.write_text("[data]\ntrain_per_action = 10\neval_per_action = 5\n\n"
                    "[train]\nepochs = 2\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, quick_ini):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["gen-data", "--config", quick_ini, "--out", str(out),
                 "--seed", "77"]) == 0
    return str(out)


def test_gen_data_writes_directory(dataset_dir, tmp_path):
    from pathlib import Path
    files = {p.name for p in Path(dataset_dir).iterdir()}
    assert files == {"dataset.bin"}
    assert load_dataset(dataset_dir).manifest.seed == 77


def test_train_eval_pipeline(dataset_dir, quick_ini, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", quick_ini, "--data", dataset_dir,
                 "--out", str(run), "--seed", "1", "--plot"]) == 0
    produced = {p.name for p in run.iterdir()}
    assert {"train.log", "checkpoint.bin", "metrics.csv",
            "summary.csv", "plot.dat"} <= produced

    log = (run / "train.log").read_text().splitlines()
    assert log[0] == "epoch,L_P,L_A,eval_P1"
    assert len(log) == 3
    for line in log[1:]:
        epoch, lp, la, p1 = line.split(",")
        float(lp), float(la), float(p1)

    metrics = (run / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "action,P1,P2,n"
    assert len(metrics) == 5
    summary = (run / "summary.csv").read_text().splitlines()
    assert summary[0] == "P1,P2,P3,accuracy"

    out = tmp_path / "evalout"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", dataset_dir, "--out", str(out)]) == 0
    assert (out / "summary.csv").read_text() == (run / "summary.csv").read_text()


def test_train_variant_flags(dataset_dir, quick_ini, tmp_path):
    run = tmp_path / "base"
    assert main(["train", "--config", quick_ini, "--data", dataset_dir,
                 "--out", str(run), "--disable-atp", "--disable-app"]) == 0
    summary = (run / "summary.csv").read_text().splitlines()[1]
    assert summary.endswith(",")          # baseline has no accuracy column value


def test_gt_labels_flag(dataset_dir, quick_ini, tmp_path):
    run = tmp_path / "gt"
    assert main(["train", "--config", quick_ini, "--data", dataset_dir,
                 "--out", str(run), "--gt-labels-at-eval"]) == 0


def test_lambda_flag_changes_training(dataset_dir, quick_ini, tmp_path):
    runs = {}
    for lam in ("0.0", "0.5"):
        out = tmp_path / f"lam{lam}"
        assert main(["train", "--config", quick_ini, "--data", dataset_dir,
                     "--out", str(out), "--lambda", lam]) == 0
        runs[lam] = (out / "train.log").read_text()
    assert runs["0.0"] != runs["0.5"]     # the weight must reach the objective


def test_ablate_components(quick_ini, tmp_path):
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", quick_ini, "--out", str(out),
                 "--seeds", "0"]) == 0
    summary = (out / "ablation_summary.csv").read_text().splitlines()
    assert summary[0] == "variant,P1,P2,P3,accuracy,P1_min,P1_max,accuracy_min,accuracy_max"
    variants = [line.split(",")[0] for line in summary[1:]]
    assert variants == ["baseline", "label_only", "atp", "app", "full"]
    detail = (out / "ablation.csv").read_text().splitlines()
    assert detail[0] == "variant,seed,P1,P2,P3,accuracy"
    assert len(detail) == 6


def test_ablate_tap_layer_mode(quick_ini, tmp_path):
    out = tmp_path / "taps"
    assert main(["ablate", "--config", quick_ini, "--out", str(out),
                 "--mode", "tap-layer", "--frames", "9"]) == 0
    lines = (out / "tap_layer.csv").read_text().splitlines()
    assert lines[0] == "tap_layer,P1,P2,P3,accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def test_gradcheck_ops_only(capsys):
    assert main(["gradcheck", "--ops-only"]) == 0
    out = capsys.readouterr().out
    assert "matmul: PASS" in out and "conv_valid: PASS" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_gradcheck_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    assert main(["gradcheck", "--ops-only", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""           # no op ran
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:ConfigError:[gradcheck] tol = "), captured.err


def test_error_exit_codes(quick_ini, capsys):
    assert main(["eval", "--out", "/tmp/nope"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:ConfigError:") and "\n" not in err

    assert main(["gen-data", "--out", "/tmp/nope2", "--frames", "10"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:ConfigError:")


def test_label_aux_on_with_text_prompts_is_an_error_line(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nepochs = 1\nlabel_aux = on\n", encoding="utf-8")
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "error:ConfigError:[train] label_aux = on needs [atp] enabled = false: the text "
        "prompts classify, so the label head would never train\n")
    ini.write_text("[atp]\nenabled = false\n\n[train]\nepochs = 1\nlabel_aux = on\n",
                   encoding="utf-8")
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 0


def test_missing_out_is_an_error(quick_ini, capsys):
    assert main(["train", "--config", quick_ini]) == 2
    assert "out" in capsys.readouterr().err


def test_baseline_row_matches_standalone_run(quick_ini, tmp_path):
    # ablation baseline row must equal a standalone APM-disabled run, same seed
    out = tmp_path / "ab"
    assert main(["ablate", "--config", quick_ini, "--out", str(out),
                 "--seeds", "3"]) == 0
    run = tmp_path / "solo"
    assert main(["train", "--config", quick_ini, "--out", str(run),
                 "--seed", "3", "--disable-atp", "--disable-app"]) == 0
    baseline_row = [line for line in
                    (out / "ablation.csv").read_text().splitlines()
                    if line.startswith("baseline,")][0]
    p1_ablate = float(baseline_row.split(",")[2])
    p1_solo = float((run / "summary.csv").read_text().splitlines()[1].split(",")[0])
    assert p1_ablate == p1_solo


def default_checkpoint():
    """An untrained default model with its exported text embeddings."""
    model = PoseLifter(Config())
    return snapshot(model, model.export_embeddings())


def assert_one_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error:{kind}:"), err


def test_truncated_checkpoint_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, default_checkpoint())
    path.write_bytes(path.read_bytes()[:10])
    assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "FormatError")


def test_missing_split_file_is_an_error_line(dataset_dir, quick_ini, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    (data / "dataset.bin").unlink()
    assert main(["train", "--config", quick_ini, "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "FormatError")


def test_missing_checkpoint_is_an_error_line(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "FormatError")


def test_eval_rejects_data_with_other_actions(tmp_path, capsys):
    ini = tmp_path / "six.ini"
    ini.write_text("[data]\nk = 6\ntrain_per_action = 2\neval_per_action = 1\n",
                   encoding="utf-8")
    assert main(["gen-data", "--config", str(ini), "--out", str(tmp_path / "ds")]) == 0
    path = tmp_path / "checkpoint.bin"          # a 4-action model
    write_checkpoint(path, default_checkpoint())
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "ds"),
                 "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "ConfigError")


def test_out_under_a_regular_file_is_an_error_line(tmp_path, capsys):
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert main(["gen-data", "--out", str(tmp_path / "file" / "sub")]) == 2
    assert_one_error_line(capsys, "ConfigError")


@pytest.mark.parametrize("command,name", [("gen-data", "dataset.bin"),
                                          ("train", "checkpoint.bin")])
def test_an_output_file_that_is_a_directory_is_an_error_line(quick_ini, tmp_path, capsys,
                                                             command, name):
    (tmp_path / "o" / name).mkdir(parents=True)
    assert main([command, "--config", quick_ini, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error:ConfigError:cannot create file: ") and name in err, err


def test_missing_config_is_an_error_line(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "ConfigError")


def test_tap_layer_is_checked_against_the_loaded_data(dataset_dir, tmp_path):
    ini = tmp_path / "nine.ini"                 # 9 frames: 2 blocks; the data has 27: 3
    ini.write_text("[data]\nframes = 9\n\n[train]\nepochs = 1\n", encoding="utf-8")
    assert main(["train", "--config", str(ini), "--data", dataset_dir,
                 "--tap-layer", "3", "--out", str(tmp_path / "run")]) == 0


def test_frames_flag_must_match_the_loaded_data(dataset_dir, quick_ini, tmp_path, capsys):
    assert main(["train", "--config", quick_ini, "--data", dataset_dir,
                 "--frames", "81", "--out", str(tmp_path / "run")]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags", [["--config", "x.ini"], ["--seed", "7"], ["--frames", "81"],
                                   ["--lambda", "5"], ["--disable-atp"], ["--disable-app"],
                                   ["--tap-layer", "2"]])
def test_eval_rejects_config_flags(tmp_path, capsys, flags):
    # eval rebuilds the model from the checkpoint's config; nothing can override it.
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, default_checkpoint())
    assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "o"),
                 *flags]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--lambda", "5"], ["--disable-atp"], ["--disable-app"],
                                   ["--tap-layer", "2"], ["--gt-labels-at-eval"]])
def test_gen_data_rejects_model_flags(tmp_path, capsys, flags):
    # the generated data depends on the config file, the seed and the frames only
    assert main(["gen-data", "--out", str(tmp_path / "d"), *flags]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_negative_seed_is_an_error_line(tmp_path, capsys, command):
    assert main([command, "--seed", "-3", "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert not (tmp_path / "o").exists()


def test_zero_eval_samples_is_an_error_line(tmp_path, capsys):
    ini = tmp_path / "empty_eval.ini"
    ini.write_text("[data]\neval_per_action = 0\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key,value", [("atp", "text_mode", "encoder"),
                                               ("atp", "embeddings_path", "emb"),
                                               ("encoder", "dropout", "0.0")])
def test_removed_config_keys_are_an_error_line(tmp_path, capsys, section, key, value):
    ini = tmp_path / "old.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error:ConfigError:unknown key {key!r} in section [{section}]\n")
    assert not (tmp_path / "o").exists()


def test_overflowing_last_step_is_an_error_line(tmp_path, capsys):
    ini = tmp_path / "explode.ini"
    ini.write_text("[data]\ntrain_per_action = 10\neval_per_action = 5\n\n"
                   "[train]\nlr = 1e18\nepochs = 1\nbatch_size = 1000\n", encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "TrainingError")


@pytest.mark.parametrize("split", ["train", "eval"])
def test_empty_split_is_an_error_line(dataset_dir, tmp_path, capsys, split):
    dataset = load_dataset(dataset_dir)
    part = getattr(dataset, split)
    empty = dataclasses.replace(dataset, **{split: Split(part.input2d[:0], part.target3d[:0],
                                                         part.labels[:0])})
    _write_dataset(empty, tmp_path / "ds")          # save_dataset refuses it
    assert main(["train", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "o")]) == 2
    message = f"dataset: the {split} split holds no samples"
    assert capsys.readouterr().err == f"error:FormatError:{message}\n"
    with pytest.raises(FormatError) as refused:
        save_dataset(empty, tmp_path / "saved")
    assert str(refused.value) == message
    assert not (tmp_path / "saved" / "dataset.bin").exists()


def _rows_for_three_actions(chk):
    chk.embeddings = chk.embeddings[:3]


def _one_dimensional(chk):
    chk.embeddings = chk.embeddings.ravel()


def _nan_in_head_bias(chk):
    chk.params["head.out.bias"][1] = np.nan


@pytest.mark.parametrize("corrupt", [_rows_for_three_actions, _one_dimensional,
                                     _nan_in_head_bias])
def test_bad_checkpoint_values_are_an_error_line(tmp_path, capsys, corrupt):
    # Each file is well formed, but what it holds is no usable 4-action model.
    chk = default_checkpoint()
    corrupt(chk)
    path = tmp_path / "checkpoint.bin"
    _write_checkpoint(path, chk)                    # write_checkpoint refuses it
    assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:FormatError:"), err
    with pytest.raises(FormatError) as refused:
        write_checkpoint(tmp_path / "saved.bin", chk)
    assert err == f"error:FormatError:{refused.value}\n"
    assert not (tmp_path / "saved.bin").exists()


def _a_self_attention_query_record(chk):
    # as in every checkpoint written while the decoder's self-attention had q and k
    chk.params["app.decoder1.self_attn.q.weight"] = np.zeros((16, 16), np.float32)


def _no_app_gamma(chk):
    del chk.params["app.gamma"]


@pytest.mark.parametrize("corrupt,message", [
    pytest.param(_a_self_attention_query_record,
                 "checkpoint has unknown parameters: ['app.decoder1.self_attn.q.weight']",
                 id="an unknown record"),
    pytest.param(_no_app_gamma, "checkpoint is missing parameter 'app.gamma'",
                 id="a missing record")])
def test_checkpoint_records_must_name_the_model_parameters(tmp_path, capsys, corrupt,
                                                           message):
    chk = default_checkpoint()
    corrupt(chk)
    with pytest.raises(FormatError) as refused:
        restore_model(chk)
    assert str(refused.value) == message
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, chk)                     # the records are not its to check
    assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error:FormatError:{message}\n"


@pytest.mark.parametrize("mode,flags", [
    *[(mode, flags) for mode in ("components", "seq-length", "tap-layer")
      for flags in (["--disable-atp"], ["--disable-app"])],
    ("components", ["--seed", "3"]), ("seq-length", ["--frames", "81"]),
    ("tap-layer", ["--tap-layer", "2"]), ("seq-length", ["--seeds", "1"]),
    ("tap-layer", ["--seeds", "1"])])
def test_ablate_rejects_a_flag_its_mode_sets(quick_ini, tmp_path, capsys, mode, flags):
    # each row sets these itself, so the flag would be ignored without a word
    assert main(["ablate", "--config", quick_ini, "--mode", mode, "--out", str(tmp_path / "o"),
                 *flags]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds,message", [
    ("abc", "[train] seed: expected int, got 'abc'"),
    ("1,,2", "[train] seed: expected int, got ''"),
    ("1e3", "[train] seed: expected int, got '1e3'"),
    ("-1", "[train] seed = -1 is outside [0, 9007199254740992]")])
def test_ablate_seeds_are_checked_as_train_seeds(quick_ini, tmp_path, capsys, seeds, message):
    assert main(["ablate", "--config", quick_ini, "--seeds", seeds,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error:ConfigError:{message}\n"
    assert not (tmp_path / "o").exists()


def test_ablate_detail_prints_the_coerced_seed(quick_ini, tmp_path):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", quick_ini, "--out", str(out), "--seeds", " 07"]) == 0
    detail = (out / "ablation.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in detail[1:]] == [[v, "7"] for v in
                                                            ("baseline", "label_only", "atp",
                                                             "app", "full")]


NO_LABEL_SOURCE = ("error:ConfigError:pose prompts need a label source at eval: enable text "
                   "prompts, label_aux or gt_labels_at_eval\n")


def test_a_flag_completes_a_file_that_is_invalid_alone(tmp_path, capsys):
    # defaults < file < flags, validated once: the file alone has no label source
    ini = tmp_path / "f.ini"
    ini.write_text("[data]\ntrain_per_action = 2\neval_per_action = 1\n\n[atp]\nenabled = false\n"
                   "\n[train]\nepochs = 1\nlabel_aux = off\n", encoding="utf-8")
    assert main(["train", "--config", str(ini), "--gt-labels-at-eval",
                 "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == NO_LABEL_SOURCE
    assert not (tmp_path / "bad").exists()


def test_disable_atp_rescues_a_file_with_label_aux_on(tmp_path):
    ini = tmp_path / "f.ini"
    ini.write_text("[data]\ntrain_per_action = 2\neval_per_action = 1\n\n"
                   "[train]\nepochs = 1\nlabel_aux = on\n", encoding="utf-8")
    assert main(["train", "--config", str(ini), "--disable-atp",
                 "--out", str(tmp_path / "run")]) == 0
    summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()[1]
    assert not summary.endswith(",")      # the label head reports an accuracy


def test_a_flag_wins_over_the_file_value_it_replaces(tmp_path, capsys):
    ini = tmp_path / "f.ini"
    ini.write_text("[data]\nframes = 10\ntrain_per_action = 2\neval_per_action = 1\n\n"
                   "[train]\nepochs = 1\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(ini), "--out", str(tmp_path / "bad")]) == 2
    assert_one_error_line(capsys, "ConfigError")
    assert main(["gen-data", "--config", str(ini), "--frames", "9",
                 "--out", str(tmp_path / "ds")]) == 0
    assert load_dataset(tmp_path / "ds").train.input2d.shape[1] == 9


def test_ablate_merges_each_run_once(tmp_path):
    # label_aux = on is invalid with the default text prompts, but every row
    # sets atp.enabled, app.enabled and label_aux itself
    ini = tmp_path / "g.ini"
    ini.write_text("[data]\ntrain_per_action = 2\neval_per_action = 1\n\n"
                   "[train]\nepochs = 1\nlabel_aux = on\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["ablate", "--config", str(ini), "--seeds", "0", "--out", str(out)]) == 0
    detail = (out / "ablation.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in detail[1:]] == [[v, "0"] for v in
                                                            ("baseline", "label_only", "atp",
                                                             "app", "full")]


def test_ablate_checks_every_run_before_creating_out(tmp_path, capsys):
    # tap layer 3 fits the file's 27 frames but not the sweep's first length, 9
    ini = tmp_path / "tiny.ini"
    ini.write_text("[data]\ntrain_per_action = 2\neval_per_action = 1\n\n"
                   "[train]\nepochs = 1\n", encoding="utf-8")
    assert main(["ablate", "--config", str(ini), "--mode", "seq-length", "--tap-layer", "3",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error:ConfigError:tap_layer 3 out of range 1..2\n"
    assert not (tmp_path / "o").exists()


def test_gen_data_refuses_an_unsupported_length_before_creating_out(tmp_path, capsys):
    assert main(["gen-data", "--frames", "729", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error:ConfigError:unsupported sequence length 729; "
                                       "supported: [9, 27, 81, 243]\n")
    assert not (tmp_path / "o").exists()


def _truncated(path):
    write_checkpoint(path, default_checkpoint())
    path.write_bytes(path.read_bytes()[:10])


@pytest.mark.parametrize("make", [lambda path: None, _truncated], ids=["missing", "truncated"])
def test_eval_creates_out_only_after_restoring(tmp_path, capsys, make):
    path = tmp_path / "checkpoint.bin"
    make(path)
    assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "FormatError")
    assert not (tmp_path / "o").exists()
