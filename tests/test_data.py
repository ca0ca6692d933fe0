"""Dataset generator, binary format, and pixel normalization."""

import dataclasses

import numpy as np
import pytest

from poselift import data
from poselift.container import Reader, write_container
from poselift.errors import ConfigError, FormatError


@pytest.fixture(scope="module")
def dataset():
    return data.gen_synthetic(4, 27, 8, 50, 20, seed=1234)


def test_generation_is_byte_identical(tmp_path, dataset):
    again = data.gen_synthetic(4, 27, 8, 50, 20, seed=1234)
    data.save_dataset(dataset, tmp_path / "a")
    data.save_dataset(again, tmp_path / "b")
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["dataset.bin"]
    assert (tmp_path / "a" / "dataset.bin").read_bytes() == \
        (tmp_path / "b" / "dataset.bin").read_bytes()


def test_counts_and_label_balance(dataset):
    assert len(dataset.train) == 200 and len(dataset.eval) == 80
    assert np.array_equal(np.bincount(dataset.train.labels), [50, 50, 50, 50])


def test_targets_are_root_relative(dataset):
    assert np.abs(dataset.train.target3d[:, 0, :]).max() == 0.0
    assert np.abs(dataset.eval.target3d[:, 0, :]).max() == 0.0


def test_inputs_within_unit_range(dataset):
    for split in (dataset.train, dataset.eval):
        assert split.input2d.min() >= -1.0 and split.input2d.max() <= 1.0


def test_depth_excursion_orders_target_z_variance(dataset):
    variances = {}
    for motif in dataset.motifs:
        z = dataset.train.target3d[dataset.train.labels == motif.index][:, :, 2]
        variances[motif.name] = z.var(axis=0).mean()
    flat = next(m for m in dataset.motifs if m.depth_excursion == 0.0)
    deep = next(m for m in dataset.motifs if m.depth_excursion >= 50.0)
    assert variances[flat.name] < variances[deep.name]


def test_splits_disjoint_bitwise(dataset):
    train_bytes = {x.tobytes() for x in dataset.train.input2d}
    eval_bytes = {x.tobytes() for x in dataset.eval.input2d}
    assert not (train_bytes & eval_bytes)


def test_nearest_centroid_separability(dataset):
    assert data.nearest_centroid_accuracy(dataset.train, dataset.eval) >= 0.95


def test_motifs_pairwise_distinct():
    motifs = data.default_motifs(8)
    seen = set()
    for m in motifs:
        key = (m.frequency, m.signature_group, m.depth_excursion, m.depth_offset)
        assert key not in seen
        seen.add(key)
    assert len({m.name for m in motifs}) == 8


def test_hard_action_is_largest_depth_motif(dataset):
    assert dataset.manifest.hard_actions == ["crouch"]


def test_unsupported_frames_lists_supported_values():
    with pytest.raises(ConfigError, match=r"9, 27, 81, 243"):
        data.gen_synthetic(4, 10, 8, 5, 5, seed=0)
    with pytest.raises(ConfigError):
        data.gen_synthetic(1, 27, 8, 5, 5, seed=0)
    with pytest.raises(ConfigError):
        data.gen_synthetic(4, 27, 3, 5, 5, seed=0)


def test_round_trip_bit_identical(tmp_path, dataset):
    data.save_dataset(dataset, tmp_path / "ds")
    loaded = data.load_dataset(tmp_path / "ds")
    assert np.array_equal(loaded.train.input2d, dataset.train.input2d)
    assert np.array_equal(loaded.train.target3d, dataset.train.target3d)
    assert np.array_equal(loaded.eval.input2d, dataset.eval.input2d)
    assert np.array_equal(loaded.train.labels, dataset.train.labels)
    assert loaded.manifest == dataset.manifest


def test_truncated_blob_reports_offset(tmp_path, dataset):
    data.save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "dataset.bin"
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(FormatError, match="byte"):
        data.load_dataset(tmp_path / "ds")


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "dataset.bin").write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        data.load_dataset(tmp_path)


def assert_rejected(tmp_path, dataset, message, name="ds"):
    """The reader rejects the file that the unchecked writer leaves, and
    `save_dataset` raises the same `FormatError` without writing anything."""
    data._write_dataset(dataset, tmp_path / name)
    with pytest.raises(FormatError, match=message) as read:
        data.load_dataset(tmp_path / name)
    with pytest.raises(FormatError) as saved:
        data.save_dataset(dataset, tmp_path / f"{name}-saved")
    assert str(saved.value) == str(read.value)
    assert not (tmp_path / f"{name}-saved" / "dataset.bin").exists()


def test_non_finite_values_rejected_naming_split(tmp_path, dataset):
    for name in ("input2d", "target3d"):
        bad = data.PoseDataset(dataset.manifest, dataset.train,
                               data.Split(dataset.eval.input2d.copy(),
                                          dataset.eval.target3d.copy(),
                                          dataset.eval.labels))
        getattr(bad.eval, name)[3, 0, 0] = np.nan
        assert_rejected(tmp_path, bad, rf"eval\.{name} holds non-finite", name=name)


def test_split_arrays_are_views_of_one_file_buffer(tmp_path, dataset):
    def owner(arr):
        while isinstance(arr, np.ndarray):
            arr = arr.base
        return arr

    data.save_dataset(dataset, tmp_path / "ds")
    loaded = data.load_dataset(tmp_path / "ds").eval
    assert isinstance(owner(loaded.input2d), bytes)
    assert owner(loaded.input2d) is owner(loaded.target3d)


def test_manifest_label_range_mismatch(tmp_path, dataset):
    # K is the number of stored names: two names cannot cover labels 0..3.
    names = dataclasses.replace(dataset.manifest, action_names=["sway", "stride"])
    assert_rejected(tmp_path, dataclasses.replace(dataset, manifest=names),
                    "label 3, out of range for 2 actions")


def test_manifest_requires_distinct_names(tmp_path, dataset):
    names = dataclasses.replace(dataset.manifest, action_names=["a", "b", "a", "c"])
    assert_rejected(tmp_path, dataclasses.replace(dataset, manifest=names), "distinct")


def test_split_shapes_must_agree(tmp_path, dataset):
    cases = {"target3d": (dataset.eval.input2d, dataset.eval.target3d[:, :-1],
                          dataset.eval.labels),
             "labels": (dataset.eval.input2d, dataset.eval.target3d, dataset.eval.labels[1:]),
             "frames or joints": (dataset.eval.input2d[:, 1:], dataset.eval.target3d,
                                  dataset.eval.labels)}
    for i, (message, arrays) in enumerate(cases.items()):
        bad = dataclasses.replace(dataset, eval=data.Split(*arrays))
        assert_rejected(tmp_path, bad, message, name=f"ds{i}")


@pytest.mark.parametrize("change", ["negative label", "float labels", "integer input2d",
                                    "float32 overflow", "negative seed"])
def test_save_refuses_what_load_rejects_in_stored_form(tmp_path, dataset, change):
    # Cases that only show once the writer converts them: labels and input2d are
    # stored as <u4 and <f4 arrays and the seed as an f64 count.
    evals, manifest = dataset.eval, dataset.manifest
    if change == "negative label":
        evals = data.Split(evals.input2d, evals.target3d, evals.labels - 1)
    elif change == "float labels":
        evals = data.Split(evals.input2d, evals.target3d, evals.labels.astype(np.float32))
    elif change == "integer input2d":
        evals = data.Split(evals.input2d.astype(np.int64), evals.target3d, evals.labels)
    elif change == "float32 overflow":
        target3d = evals.target3d.astype(np.float64)
        target3d[0, 0, 0] = 1e39
        evals = data.Split(evals.input2d, target3d, evals.labels)
    else:
        manifest = dataclasses.replace(manifest, seed=-3)
    bad = dataclasses.replace(dataset, eval=evals, manifest=manifest)
    with np.errstate(over="ignore"):
        data._write_dataset(bad, tmp_path / "ds")
    with pytest.raises(FormatError):
        data.load_dataset(tmp_path / "ds")
    with pytest.raises(FormatError):
        data.save_dataset(bad, tmp_path / "saved")
    assert not (tmp_path / "saved").exists()


def test_tensor_blob_round_trip_shapes(tmp_path):
    path = tmp_path / "blob.bin"
    for shape in [(), (3,), (2, 3), (2, 3, 4)]:
        arr = np.arange(int(np.prod(shape)) or 1, dtype=np.float32).reshape(shape)
        write_container(path, b"PLTEST\x00\x00", 1, [arr])
        reader = Reader(path, b"PLTEST\x00\x00", 1, "blob")
        out = reader.tensor("blob")
        reader.finish()                   # every byte consumed, checksum intact
        assert out.shape == shape and np.array_equal(out, arr)
        # magic, version, tag, ndim, shape, data, checksum
        assert path.stat().st_size == 8 + 4 + 4 + 4 + 4 * len(shape) + arr.nbytes + 4


# -- pixel normalization ----------------------------------------------------

def test_normalize_center_pixel_is_origin():
    out = data.normalize_2d(np.array([320.0, 240.0]), 640, 480)
    assert np.allclose(out, [0.0, 0.0])


def test_normalize_corner_pixel():
    out = data.normalize_2d(np.array([0.0, 0.0]), 640, 480)
    assert np.allclose(out, [-1.0, -480 / 640])


def test_normalize_round_trip():
    rng = np.random.default_rng(11)
    pixels = rng.uniform(0, 640, size=(7, 5, 2))
    back = data.denormalize_2d(data.normalize_2d(pixels, 640, 480), 640, 480)
    assert np.abs(back - pixels).max() < 1e-6


def test_normalize_rejects_zero_dims():
    with pytest.raises(ConfigError):
        data.normalize_2d(np.zeros(2), 0, 480)
