"""The binary container: bounded reads, and property tests over truncated and
byte-flipped checkpoints and dataset files."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poselift import data
from poselift import train as T
from poselift.config import Config
from poselift.container import Reader, write_container
from poselift.errors import FormatError
from poselift.model import PoseLifter
from poselift.optim import Adam

MAGIC, VERSION = b"PLTEST\x00\x00", 7


def read_back(path, kinds):
    reader = Reader(path, MAGIC, VERSION, "test file")
    values = [getattr(reader, kind)(f"record {i}") for i, kind in enumerate(kinds)]
    reader.finish()
    return values


def test_records_round_trip(tmp_path):
    path = tmp_path / "f.bin"
    floats = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_container(path, MAGIC, VERSION, ["héllo", 2.5, 3, floats, np.arange(4)])
    reader = Reader(path, MAGIC, VERSION, "test file")
    assert reader.string("s") == "héllo"
    assert reader.scalar("x") == 2.5
    assert reader.count("n") == 3
    assert np.array_equal(reader.tensor("f"), floats)
    labels = reader.tensor("u", dtype="<u4")
    reader.finish()
    assert labels.dtype == np.dtype("<u4") and np.array_equal(labels, np.arange(4))
    assert os.path.getsize(path) % 4 == 0


def test_huge_declared_shape_is_rejected_before_allocation(tmp_path):
    path = tmp_path / "f.bin"
    write_container(path, MAGIC, VERSION, [np.zeros((1, 1, 1, 4), np.float32)])
    raw = bytearray(path.read_bytes())
    words = np.frombuffer(raw, dtype="<u4")      # writable view of raw
    assert list(words[3:9]) == [1, 4, 1, 1, 1, 4]  # tag, ndim, shape
    words[5:8] = 2 ** 31
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=r"record 0 data at byte 36 needs \d+ bytes"):
        read_back(path, ["tensor"])


@pytest.mark.parametrize("records, kinds, message", [
    ([1.0], ["tensor"], "record 0 at byte 12 is not a <f4 record"),
    ([np.zeros(2, np.float32)], ["tensor", "tensor"], "truncated test file: record 1"),
    ([np.zeros(2, np.float32), 1.0], ["tensor"], "unread bytes"),
    ([1.5], ["count"], "record 0 at byte 12 is not a count"),
    ([-1.0], ["count"], "not a count"),
])
def test_structural_errors(tmp_path, records, kinds, message):
    write_container(tmp_path / "f.bin", MAGIC, VERSION, records)
    with pytest.raises(FormatError, match=message):
        read_back(tmp_path / "f.bin", kinds)


def test_integer_beyond_float64_is_rejected_on_write(tmp_path):
    write_container(tmp_path / "f.bin", MAGIC, VERSION, [2 ** 53])
    assert read_back(tmp_path / "f.bin", ["count"]) == [2 ** 53]
    with pytest.raises(FormatError, match="only up to 2"):
        write_container(tmp_path / "g.bin", MAGIC, VERSION, [2 ** 53 + 1])


def test_invalid_utf8_string(tmp_path):
    path = tmp_path / "f.bin"
    write_container(path, MAGIC, VERSION, ["abcd"])
    raw = bytearray(path.read_bytes())
    raw[20] = 0xFF                                  # first byte of the string
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="record 0 at byte 20 is not UTF-8"):
        read_back(path, ["string"])


def test_checksum_catches_a_payload_flip(tmp_path):
    path = tmp_path / "f.bin"
    write_container(path, MAGIC, VERSION, [np.ones(8, np.float32)])
    raw = bytearray(path.read_bytes())
    raw[24] ^= 0x01
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="checksum mismatch"):
        read_back(path, ["tensor"])


def test_missing_file_and_directory(tmp_path):
    with pytest.raises(FormatError, match="cannot read test file"):
        Reader(tmp_path / "nope.bin", MAGIC, VERSION, "test file")
    with pytest.raises(FormatError, match="cannot read test file"):
        Reader(tmp_path, MAGIC, VERSION, "test file")


def test_version_3_checkpoint_is_rejected(tmp_path):
    # Version 3 config records still carry dropout, text_mode and embeddings_path.
    path = tmp_path / "checkpoint.bin"
    T.write_checkpoint(path, tiny_checkpoint())
    raw = bytearray(path.read_bytes())
    assert raw[:8] == T.CHECKPOINT_MAGIC
    raw[8:12] = struct.pack("<I", 3)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="unsupported checkpoint version 3 at byte 8"):
        T.load_checkpoint(path)


# -- property tests over the two file formats ----------------------------------------

def tiny_checkpoint():
    """A real F=9, C=4 model with optimizer state and exported embeddings."""
    cfg = Config()
    cfg.data.frames, cfg.data.joints, cfg.data.num_actions = 9, 4, 2
    cfg.encoder.channels = 4
    cfg.atp.context_tokens = cfg.atp.text_layers = cfg.atp.projector_blocks = 0
    cfg.app.enabled = False
    model = PoseLifter(cfg)
    return T.snapshot(model, Adam(model.params), model.export_embeddings())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """file name -> (path, loader, original bytes); every loader reads the
    whole checkpoint or dataset directory."""
    root = tmp_path_factory.mktemp("formats")
    T.write_checkpoint(root / "checkpoint.bin", tiny_checkpoint())
    data.save_dataset(data.gen_synthetic(2, 9, 4, 2, 1, seed=5), root / "ds")

    def load_checkpoint():
        return T.load_checkpoint(root / "checkpoint.bin")

    def load_dataset():
        return data.load_dataset(root / "ds")

    paths = {"checkpoint.bin": (root / "checkpoint.bin", load_checkpoint),
             "dataset.bin": (root / "ds" / "dataset.bin", load_dataset)}
    return {name: (path, load, path.read_bytes()) for name, (path, load) in paths.items()}


NAMES = ["checkpoint.bin", "dataset.bin"]


def test_unmodified_files_load(files):
    for _, load, _ in files.values():
        load()


def dataset_regions(raw, eval_shape):
    """dataset.bin split at the first byte of each split's input2d record:
    (seed and names), (train split), (eval split and the checksum)."""
    train_start = raw.index(struct.pack("<II", 1, 4))      # train.input2d: <f4, 4-D
    eval_start = raw.index(struct.pack("<II4I", 1, 4, *eval_shape), train_start + 1)
    assert 0 < train_start < eval_start < len(raw)
    return {"dataset.bin": (0, train_start), "train.bin": (train_start, eval_start),
            "eval.bin": (eval_start, len(raw))}


# Every cut of dataset.bin is tried once, in three cases: the header records
# (dataset.bin) and the records of each split, named after the split files
# train.bin and eval.bin that they replaced.
@pytest.mark.parametrize("name", ["checkpoint.bin", "dataset.bin", "train.bin",
                                  "eval.bin"])
def test_every_truncation_raises_format_error(files, name):
    path, load, raw = files["dataset.bin" if name in ("train.bin", "eval.bin") else name]
    start, stop = (0, len(raw))
    if path.name == "dataset.bin":
        start, stop = dataset_regions(raw, load().eval.input2d.shape)[name]
    try:
        for cut in range(stop - 1, start - 1, -1):  # shrink in place, one syscall each
            os.truncate(path, cut)
            with pytest.raises(FormatError):
                load()
    finally:
        path.write_bytes(raw)


def draw_flips(draw, size):
    """Distinct positions below `size`, each XORed with a nonzero mask."""
    positions = draw(st.lists(st.integers(0, size - 1), min_size=1,
                              max_size=3, unique=True))
    masks = draw(st.lists(st.integers(1, 255), min_size=len(positions),
                          max_size=len(positions)))
    return list(zip(positions, masks))


def write_flipped(path, raw, flips):
    changed = bytearray(raw)
    for pos, mask in flips:
        changed[pos] ^= mask
    path.write_bytes(changed)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(NAMES), draw=st.data())
def test_every_byte_flip_raises_format_error(files, name, draw):
    path, load, raw = files[name]
    try:
        write_flipped(path, raw, draw_flips(draw.draw, len(raw)))
        with pytest.raises(FormatError):
            load()
    finally:
        path.write_bytes(raw)


def test_every_flip_in_the_dataset_names_and_seed_raises_format_error(files):
    # The bytes before the first array: seed, action names, hard-action names.
    path, load, raw = files["dataset.bin"]
    header_end = raw.index(struct.pack("<II", 1, 4))       # train.input2d: <f4, 4-D
    assert raw.index(b"stride") < header_end    # the hard action, named last
    try:
        for pos in range(header_end):
            for mask in (0x01, 0x80):
                write_flipped(path, raw, [(pos, mask)])
                with pytest.raises(FormatError):
                    load()
    finally:
        path.write_bytes(raw)
