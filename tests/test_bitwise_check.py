"""`tools/bitwise_check.py`'s comparison of two output trees: identical
trees report every file the same; one flipped byte names the file and
where it first differs; two checkpoints that differ by one record or by one
value are read and the difference named."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from poselift.config import Config
from poselift.train import Checkpoint, write_checkpoint

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitwise_check.py"
_spec = importlib.util.spec_from_file_location("bitwise_check", TOOL)
bitwise_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise_check)


def write_outputs(root: Path) -> None:
    (root / "train_default").mkdir(parents=True)
    (root / "train_default" / "train.log").write_text("epoch 1 loss 0.5\nepoch 2 loss 0.25\n")
    (root / "train_default" / "checkpoint.bin").write_bytes(bytes(range(256)) * 4)
    (root / "gradcheck").mkdir()
    (root / "gradcheck" / "stdout.txt").write_text("gradcheck PASS\n")


def test_identical_trees_report_every_file_the_same(tmp_path):
    write_outputs(tmp_path / "a")
    write_outputs(tmp_path / "b")
    lines, differing = bitwise_check.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert differing == 0 and len(lines) == 3
    assert all(line.startswith("same ") for line in lines), lines


def test_one_flipped_byte_names_the_file_and_where_it_differs(tmp_path):
    for name in ("a", "b"):
        write_outputs(tmp_path / name)
    binary = tmp_path / "b" / "train_default" / "checkpoint.bin"
    data = bytearray(binary.read_bytes())
    data[700] ^= 0x01
    binary.write_bytes(bytes(data))
    lines, differing = bitwise_check.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert differing == 1
    assert [line for line in lines if line.startswith("DIFF")] == [
        line for line in lines if "checkpoint.bin: first difference at byte 700" in line]

    text = tmp_path / "b" / "train_default" / "train.log"
    text.write_bytes(text.read_bytes().replace(b"0.25", b"0.35"))
    lines, differing = bitwise_check.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert differing == 2
    assert any("train.log: first difference at line 2: 'epoch 2 loss 0.25' vs "
               "'epoch 2 loss 0.35'" in line for line in lines), lines


def small_checkpoint(extra_record=False, changed_value=False):
    """A three-record checkpoint of the default config, which no model has:
    the tool compares records and never restores a model."""
    params = {"encoder.w": np.arange(6, dtype=np.float32).reshape(2, 3),
              "app.gamma": np.zeros(4, np.float32),
              "head.out.bias": np.ones(3, np.float32)}
    if extra_record:
        params["app.decoder1.self_attn.q.weight"] = np.ones((2, 2), np.float32)
    if changed_value:
        params["app.gamma"][2] = 0.5
    return Checkpoint(cfg=Config(), params=params, embeddings=np.ones((4, 16), np.float32))


@pytest.mark.parametrize("change,report", [
    pytest.param(dict(extra_record=True),
                 ["  parameters only in parent: app.decoder1.self_attn.q.weight",
                  "  parameters only in checkout: none",
                  "  all 3 shared parameters are equal",
                  "  embeddings equal, config equal"], id="one record"),
    pytest.param(dict(changed_value=True),
                 ["  parameters only in parent: none",
                  "  parameters only in checkout: none",
                  "  first shared parameter that differs: app.gamma",
                  "  embeddings equal, config equal"], id="one value")])
def test_differing_checkpoints_are_read_and_the_difference_named(tmp_path, change, report):
    for side, chk in (("a", small_checkpoint(**change)), ("b", small_checkpoint())):
        (tmp_path / side / "train_default").mkdir(parents=True)
        write_checkpoint(tmp_path / side / "train_default" / "checkpoint.bin", chk)
    lines, differing = bitwise_check.compare_dirs(tmp_path / "a", tmp_path / "b",
                                                  ("parent", "checkout"))
    assert differing == 1 and lines[0].startswith("DIFF ")
    assert lines[1:] == report
