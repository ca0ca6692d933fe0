"""`tools/bitwise_check.py`'s comparison of two output trees: identical
trees report every file the same; one flipped byte names the file and
where it first differs."""

import importlib.util
from pathlib import Path

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
