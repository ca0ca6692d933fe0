"""Library entry points that take a config value as an argument check it
against the config's range table: each call returns, or raises
`ConfigError` exactly when an argument lies outside its field's range or
has another type than its field. `PoseLifter.forward_eval`, `evaluate` and
`action_loss` refuse an input they cannot use, and labels that do not name
one action per sample, with a `PoseLiftError`; `concat`, the pose errors
and the pose loss refuse arrays they cannot join or average with a
`DimensionError`; `build_report` refuses poses and labels that do not
pair one label with each sample, and a label that names no action;
`nearest_centroid_accuracy` refuses an empty split, `Tensor` an index or a
shape its values do not fit, each with a `DimensionError`; `save_dataset`
refuses a path it cannot make a directory, and `write_checkpoint` one it
cannot open for writing, with a `ConfigError`; and `PoseLifter`,
`train_model` and `write_checkpoint` refuse a config or checkpoint
argument of another type with a `ConfigError`."""

import math
import numbers
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poselift.ablate import variant_config
from poselift.config import Config, apply_overrides
from poselift.data import (Split, gen_synthetic, load_dataset, nearest_centroid_accuracy,
                           save_dataset)
from poselift.errors import ConfigError, DimensionError
from poselift.gradcheck import grad_check, micro_model_config
from poselift.losses import action_loss, pose_loss, total_loss
from poselift.metrics import build_report, dmpjpe, mpjpe
from poselift.model import PoseLifter
from poselift.optim import Adam
from poselift.tensor import Parameter, Tensor, concat, precision
from poselift.text_prompts import classify
from poselift.train import (Checkpoint, evaluate, load_checkpoint, snapshot, train_model,
                            write_checkpoint)

SETTINGS = settings(max_examples=40, deadline=None)
SPECIAL = st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])


def floats(low, high):
    """Finite floats in [low, high], or a value that is never in a range."""
    return st.one_of(st.floats(low, high, allow_subnormal=False), SPECIAL)


def check(call, valid: bool, expected: str = "is outside"):
    """`call()` if `valid`, else the `ConfigError` it must raise, whose
    message says `expected`: a value of the field's type that lies outside
    its range unless the test names the type message."""
    if valid:
        return call()
    with pytest.raises(ConfigError, match=expected):
        call()


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# A value of another type than the field's, drawn beside the numbers.
WRONG_TYPES = st.sampled_from([2.5, 4.0, True, False, "2", None])


@SETTINGS
@given(num_actions=st.integers(-1, 5) | WRONG_TYPES, frames=st.sampled_from([0, 3, 8, 9]),
       joints=st.integers(-1, 6), train_per_action=st.integers(-1, 3) | WRONG_TYPES,
       eval_per_action=st.integers(-1, 3),
       seed=st.one_of(st.integers(-3, 2 ** 32), st.integers(2 ** 53 - 1, 2 ** 53 + 1),
                      WRONG_TYPES))
@example(4, 27, 8, 0, 20, 1234).via("train_per_action = 0")
@example(4, 9, 8, 1, 1, -1).via("seed = -1")
@example(2.5, 9, 4, 1, 1, 0).via("num_actions = 2.5")
@example(4, 9, 8, 1, 1, True).via("seed = True")
def test_gen_synthetic_checks_every_size_and_the_seed(
        num_actions, frames, joints, train_per_action, eval_per_action, seed):
    # In the order gen_synthetic checks them: the first bad one names the fault.
    faults = ["is outside" if is_int(value) else "is not an int"
              for value, low, high in ((num_actions, 2, math.inf), (joints, 4, math.inf),
                                       (train_per_action, 1, math.inf),
                                       (eval_per_action, 1, math.inf), (seed, 0, 2 ** 53))
              if not (is_int(value) and low <= value <= high)]
    in_range = not faults
    if in_range and frames != 9:       # the one supported length drawn
        with pytest.raises(ConfigError, match="unsupported sequence length"):
            gen_synthetic(num_actions, frames, joints, train_per_action,
                          eval_per_action, seed)
        return
    dataset = check(lambda: gen_synthetic(num_actions, frames, joints, train_per_action,
                                          eval_per_action, seed), in_range, *faults[:1])
    if in_range:
        assert dataset.train.input2d.shape == (num_actions * train_per_action, 9, joints, 2)
        assert dataset.eval.target3d.shape == (num_actions * eval_per_action, joints, 3)
        assert len(dataset.manifest.action_names) == num_actions


@SETTINGS
@given(lr=floats(-1.0, 1.0) | WRONG_TYPES | st.integers(-1, 2), lr_decay=floats(-1.0, 2.0))
@example(-1.0, 0.98).via("lr = -1")
@example("0.1", 0.98).via("lr = '0.1'")
@example(True, 0.98).via("lr = True")
def test_adam_checks_lr_and_lr_decay(lr, lr_decay):
    p = Parameter("w", np.array([1.0, -2.0]))
    opt = check(lambda: Adam({"w": p}, lr=lr, lr_decay=lr_decay),
                is_real(lr) and 0 < lr < math.inf and 0 < lr_decay <= 1,
                "is outside" if is_real(lr) else "is not a number")
    if opt is not None:
        p.grad = np.array([0.5, 0.5])
        opt.step()
        assert np.isfinite(p.data).all()


@SETTINGS
@given(tau=floats(1e-3, 10.0))
@example(0.0).via("tau = 0")
def test_classify_checks_the_temperature(tau):
    rng = np.random.default_rng(0)
    t_bar, a = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=3))
    y = check(lambda: classify(t_bar, a, tau), 0 < tau < math.inf)
    if y is not None:
        assert y.shape == (2,) and abs(float(y.data.sum()) - 1.0) < 1e-5


@SETTINGS
@given(weight=floats(0.0, 10.0))
@example(-0.1).via("a negative weight")
def test_total_loss_checks_its_weight(weight):
    lp, la = Tensor(np.array(2.0)), Tensor(np.array(3.0))
    loss = check(lambda: total_loss(lp, la, weight), 0 <= weight < math.inf)
    if loss is not None:
        assert loss.item() == pytest.approx(2.0 + 3.0 * weight, rel=1e-6)


@SETTINGS
@given(tol=floats(1e-12, 1.0))
@example(math.nan).via("tol = nan")
@example(math.inf).via("tol = inf")
def test_grad_check_checks_its_tolerance(tol):
    with precision("float64"):
        x = Parameter("x", np.array([0.5, -1.5]))
        report = check(lambda: grad_check(lambda: (x * x).sum(), [x], tol=tol),
                       0 < tol < math.inf)
    if report is not None:
        assert report.tol == tol and report.passed == (report.max_rel_err <= tol)


# One model of each kind: the baseline reaches the head with no prompts,
# the full model selects pose prompts by predicted label first.
MODELS = {variant: PoseLifter(variant_config(Config(), variant))
          for variant in ("baseline", "full")}
EMBEDDINGS = {"baseline": None, "full": MODELS["full"].export_embeddings()}


# Label arrays beside the input: integer or float, of up to two axes.
LABELS = st.none() | hnp.arrays(st.sampled_from([np.int64, np.uint32, np.float64]),
                                hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                 max_side=3),
                                elements=st.integers(0, 3))


@SETTINGS
@given(variant=st.sampled_from(sorted(MODELS)),
       shape=st.one_of(st.just((2, 27, 8, 2)),
                       st.tuples(st.integers(0, 2), st.sampled_from([9, 27]),
                                 st.sampled_from([4, 8]), st.integers(1, 3)),
                       st.lists(st.integers(0, 3), max_size=5).map(tuple)),
       bad_value=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       labels=LABELS, seed=st.integers(0, 2**31 - 1))
@example("full", (0, 27, 8, 2), None, None, 0).via("a zero-sample batch")
@example("baseline", (0, 27, 8, 2), None, None, 0).via("a zero-sample batch, baseline")
@example("full", (27, 8, 2), None, None, 0).via("a 3-D input")
@example("full", (2, 27, 8, 2), math.nan, None, 0).via("a NaN input")
@example("full", (2, 27, 8, 2), None, np.array([0]), 0).via("one label for two samples")
@example("full", (2, 27, 8, 2), None, np.array([0.5, 1.2]), 0).via("float labels")
@example("full", (2, 27, 8, 2), None, np.array([[0, 1]]), 0).via("a (1, 2) label array")
@example("full", (2, 27, 8, 2), None, np.array([0, 1, 2]), 0).via("three labels for two")
def test_forward_eval_lifts_or_refuses_its_input(variant, shape, bad_value, labels, seed):
    x = np.random.default_rng(seed).normal(size=shape)
    if bad_value is not None and x.size:
        x.flat[x.size // 2] = bad_value
    valid_input = shape[:1] != (0,) and shape[1:] == (27, 8, 2) and bad_value is None
    valid_labels = labels is None or (labels.shape == shape[:1] and labels.dtype.kind in "iu")
    if valid_input and valid_labels:
        pred, _, _ = MODELS[variant].forward_eval(x, embeddings=EMBEDDINGS[variant],
                                                  labels=labels)
        assert pred.shape == (shape[0], 8, 3) and np.isfinite(pred).all()
        return
    # each refusal names the shape of what it refuses
    refusals = ([r"input"] if not valid_input else []) + (
        [r"labels (have|of) shape \("] if not valid_labels else [])
    with pytest.raises((DimensionError, ConfigError), match="|".join(refusals)):
        MODELS[variant].forward_eval(x, embeddings=EMBEDDINGS[variant], labels=labels)


# A micro model and a two-sample dataset: an epoch on them takes milliseconds.
MICRO = apply_overrides(micro_model_config(), {"train.epochs": 1})
MICRO_DATA = gen_synthetic(2, 9, 4, 1, 1, 0)


@SETTINGS
@given(epochs=st.integers(-1, 2) | WRONG_TYPES, to_disk=st.booleans())
@example(0, True).via("epochs = 0 with out_dir")
@example(-1, False).via("epochs = -1 without out_dir")
@example(1.5, False).via("epochs = 1.5")
def test_train_model_checks_its_epochs(epochs, to_disk):
    # None keeps the config's epochs; a refused call creates no out_dir.
    valid = epochs is None or (is_int(epochs) and epochs >= 1)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run" if to_disk else None
        result = check(lambda: train_model(MICRO, MICRO_DATA, out_dir=out, epochs=epochs),
                       valid, "is outside" if is_int(epochs) else "is not an int")
        if result is None:
            assert out is None or not out.exists()
            return
        assert result.best is not None and len(result.log_lines) == 1 + (epochs or 1)
        assert out is None or (out / "checkpoint.bin").exists()


# Four eval samples, one per action, for the default-size models above.
EVAL_SPLIT = gen_synthetic(4, 27, 8, 1, 1, 0).eval
ACTIONS = ["sway", "stride", "reach", "crouch"]


@SETTINGS
@given(variant=st.sampled_from(sorted(MODELS)), counts=st.tuples(*[st.integers(0, 4)] * 3),
       labels=hnp.arrays(st.sampled_from([np.int64, np.uint32, np.float64]), 4,
                         elements=st.integers(0, 5)),
       batch_size=st.integers(-1, 3) | WRONG_TYPES)
@example("full", (4, 3, 4), np.arange(4), 256).via("one target3d short")
@example("full", (4, 4, 3), np.arange(4), 256).via("one label short")
@example("full", (4, 4, 4), np.array([0, 1, 2, 7]), 256).via("a label out of range")
@example("full", (4, 4, 4), np.arange(4.0), 256).via("float labels")
@example("full", (4, 4, 4), np.arange(4), 2.5).via("batch_size = 2.5")
@example("full", (4, 4, 4), np.arange(4), True).via("batch_size = True")
def test_evaluate_reports_or_refuses_its_split(variant, counts, labels, batch_size):
    inputs, targets, n_labels = counts
    split = Split(EVAL_SPLIT.input2d[:inputs], EVAL_SPLIT.target3d[:targets],
                  labels[:n_labels])
    # In the order evaluate checks them: the first fault names the refusal.
    faults = [(DimensionError, "does not match")] if len(set(counts)) > 1 else []
    if labels.dtype.kind == "f":
        faults.append((ConfigError, "not an integer type"))
    elif inputs and labels[:inputs].max() >= len(ACTIONS):
        faults.append((ConfigError, "out of range for 4 actions"))
    if not inputs:
        faults.append((ConfigError, "empty split"))
    if not is_int(batch_size):
        faults.append((ConfigError, "is not an int"))
    elif batch_size <= 0:
        faults.append((ConfigError, "must be positive"))

    def call():
        return evaluate(MODELS[variant], split, ACTIONS, ACTIONS,
                        embeddings=EMBEDDINGS[variant], batch_size=batch_size)

    if not faults:
        report = call()
        assert sum(report.counts.values()) == inputs and np.isfinite(report.p1)
        return
    error, message = faults[0]
    with pytest.raises(error, match=message):
        call()


@SETTINGS
@given(y_shape=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
       labels=hnp.arrays(st.sampled_from([np.int64, np.float64]),
                         hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
                         elements=st.integers(0, 3)))
@example((2, 3), np.array([0.0, 1.0])).via("float labels")
@example((0, 3), np.zeros(0, np.int64)).via("an empty batch")
@example((2, 2, 3), np.array([0, 1])).via("a 3-D y")
def test_action_loss_scores_or_refuses_its_labels(y_shape, labels):
    y = Tensor(np.full(y_shape, 0.5))
    if len(y_shape) > 2 or 0 in y_shape:
        refusal = (DimensionError, "class probabilities have shape")
    elif labels.shape != y_shape[:-1]:
        refusal = (DimensionError, "labels have shape")
    elif labels.dtype.kind == "f":
        refusal = (ConfigError, "want integers")
    elif labels.max() >= y_shape[-1]:
        refusal = (ConfigError, "out of range")
    else:
        assert action_loss(y, labels).item() == pytest.approx(math.log(2.0))
        return
    with pytest.raises(refusal[0], match=refusal[1]):
        action_loss(y, labels)


@SETTINGS
@given(shapes=st.lists(st.lists(st.integers(1, 3), max_size=3).map(tuple), max_size=3),
       axis=st.integers(-4, 3))
@example([], 0).via("no tensors")
@example([(2, 3), (2, 4)], 0).via("shapes that disagree off the axis")
@example([(2, 3), (2, 3)], 2).via("an axis out of range")
def test_concat_joins_or_refuses_its_tensors(shapes, axis):
    tensors = [Tensor(np.ones(shape)) for shape in shapes]
    ndim = len(shapes[0]) if shapes else 0
    if (ndim and -ndim <= axis < ndim and all(len(s) == ndim for s in shapes)
            and len({s[:axis % ndim] + s[axis % ndim + 1:] for s in shapes}) == 1):
        assert concat(tensors, axis).shape[axis] == sum(s[axis] for s in shapes)
        return
    with pytest.raises(DimensionError, match=r"concat cannot join shapes \[.*along axis"):
        concat(tensors, axis)


@SETTINGS
@given(lead=st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple),
       seed=st.integers(0, 2**31 - 1))
@example((0, 4), 0).via("an empty batch")
@example((2, 0), 0).via("no joints")
def test_pose_errors_and_the_pose_loss_average_or_refuse_their_poses(lead, seed):
    rng = np.random.default_rng(seed)
    pred, gt = rng.normal(size=lead + (3,)), rng.normal(size=lead + (3,))
    calls = {"mpjpe": lambda: mpjpe(pred, gt), "dmpjpe": lambda: dmpjpe(pred, gt),
             "pose loss": lambda: pose_loss(Tensor(pred), Tensor(gt)).item()}
    for name, call in calls.items():
        if 0 in lead:
            with pytest.raises(DimensionError, match=f"{name} of an empty batch"):
                call()
        else:
            assert np.isfinite(call()) and call() >= 0.0


@SETTINGS
@given(rows=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       labels=st.lists(st.integers(-1, 2), min_size=1, max_size=4),
       float_labels=st.booleans(), seed=st.integers(0, 2**31 - 1))
@example((6, 6, 6), [0, 0, 1, 1, 5, 5], False, 0).via("a label outside action_names")
@example((6, 5, 6), [0, 0, 1, 1, 0, 1], False, 0).via("fewer gt rows than pred rows")
@example((6, 6, 5), [0, 0, 1, 1, 0], False, 0).via("labels of another length")
@example((2, 2, 2), [0, 1], True, 0).via("float labels")
def test_build_report_reports_or_refuses_its_samples(rows, labels, float_labels, seed):
    rng = np.random.default_rng(seed)
    n_pred, n_gt, n_predicted = rows
    pred, gt = rng.normal(size=(n_pred, 2, 3)), rng.normal(size=(n_gt, 2, 3))
    labels = np.array(labels, dtype=np.float64 if float_labels else np.int64)
    predicted = np.zeros(n_predicted, np.int64)
    names = ["a", "b"]
    if n_gt != n_pred:
        refusal = (DimensionError, "build_report shapes disagree")
    elif labels.shape != (n_pred,):
        refusal = (DimensionError, "labels have shape")
    elif float_labels:
        refusal = (ConfigError, "want integers")
    elif n_predicted != n_pred:
        refusal = (DimensionError, "labels have shape")
    elif ((labels < 0) | (labels >= len(names))).any():
        refusal = (ConfigError, "names no action")
    else:
        report = build_report(pred, gt, labels, names, ["a", "b"], predicted_labels=predicted)
        assert sum(report.counts.values()) == n_pred
        assert report.p1 == pytest.approx(mpjpe(pred, gt))
        assert report.accuracy == pytest.approx(float((labels == 0).mean()))
        return
    with pytest.raises(refusal[0], match=refusal[1]):
        build_report(pred, gt, labels, names, ["a", "b"], predicted_labels=predicted)


@SETTINGS
@given(counts=st.tuples(st.integers(0, 3), st.integers(0, 3)), seed=st.integers(0, 2**31 - 1))
@example((0, 2), 0).via("an empty train split")
@example((2, 0), 0).via("an empty eval split")
def test_nearest_centroid_accuracy_scores_or_refuses_its_splits(counts, seed):
    rng = np.random.default_rng(seed)
    train, evals = (Split(rng.normal(size=(n, 3, 4, 2)), rng.normal(size=(n, 4, 3)),
                          rng.integers(0, 2, size=n)) for n in counts)
    if 0 in counts:
        with pytest.raises(DimensionError, match="needs samples in both splits"):
            nearest_centroid_accuracy(train, evals)
    else:
        assert 0.0 <= nearest_centroid_accuracy(train, evals) <= 1.0


DATASET = gen_synthetic(2, 9, 4, 1, 1, 0)


@settings(max_examples=8, deadline=None)
@given(path=st.sampled_from(["new", "an existing directory", "an existing file",
                             "under an existing file"]))
@example("an existing file").via("an existing file")
def test_save_dataset_writes_or_refuses_its_path(path):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "data"
        if path == "an existing directory":
            target.mkdir()
        elif path != "new":
            target.write_text("not a directory")
            target = target / "sub" if path == "under an existing file" else target
        if path in ("new", "an existing directory"):
            save_dataset(DATASET, target)
            assert np.array_equal(load_dataset(target).eval.labels, DATASET.eval.labels)
            return
        with pytest.raises(ConfigError, match="cannot create dataset directory"):
            save_dataset(DATASET, target)


@SETTINGS
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3),
       index=st.integers(-4, 3), new_shape=st.lists(st.integers(-1, 6), min_size=1,
                                                    max_size=3).map(tuple))
@example((2, 3), 2, (6,)).via("an index out of range")
@example((2, 3), 0, (4,)).via("a reshape to a size that does not fit")
def test_tensor_index_and_reshape_fit_or_refuse(shape, index, new_shape):
    values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    x = Tensor(values)
    if -shape[0] <= index < shape[0]:
        assert np.array_equal(x[index].data, values[index])
    else:
        with pytest.raises(DimensionError, match=r"cannot index \("):
            x[index]
    try:
        expected = values.reshape(new_shape)
    except ValueError:
        with pytest.raises(DimensionError, match=r"cannot reshape \("):
            x.reshape(*new_shape)
    else:
        assert np.array_equal(x.reshape(*new_shape).data, expected)


# Arguments of another type than a config or a checkpoint.
WRONG_OBJECTS = st.sampled_from([None, {}, "quick.ini", MICRO.data])


@settings(max_examples=8, deadline=None)
@given(cfg=st.just(MICRO) | WRONG_OBJECTS)
@example(None).via("PoseLifter(None)")
@example(MICRO.data).via("a config section")
def test_pose_lifter_and_train_model_take_a_config_or_refuse_it(cfg):
    if isinstance(cfg, Config):
        assert PoseLifter(cfg).params
        assert train_model(cfg, MICRO_DATA).best is not None
        return
    for what, call in (("PoseLifter", lambda: PoseLifter(cfg)),
                       ("train_model", lambda: train_model(cfg, MICRO_DATA))):
        with pytest.raises(ConfigError, match=f"^{what} cfg must be a Config, got "
                                              f"{type(cfg).__name__}$"):
            call()


def micro_checkpoint() -> Checkpoint:
    model = PoseLifter(MICRO)
    return snapshot(model, model.export_embeddings())


@settings(max_examples=8, deadline=None)
@given(chk=st.just("a checkpoint") | WRONG_OBJECTS,
       path=st.sampled_from(["new", "an existing directory"]))
@example(None, "new").via("write_checkpoint(path, None)")
@example("a checkpoint", "an existing directory").via("onto a directory")
def test_write_checkpoint_writes_or_refuses_its_arguments(chk, path):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "checkpoint.bin"
        if path == "an existing directory":
            target.mkdir()
        if chk != "a checkpoint":
            with pytest.raises(ConfigError, match="^write_checkpoint chk must be a "
                                                  f"Checkpoint, got {type(chk).__name__}$"):
                write_checkpoint(target, chk)
            return
        chk = micro_checkpoint()
        if path == "new":
            write_checkpoint(target, chk)
            assert load_checkpoint(target).params.keys() == chk.params.keys()
            return
        with pytest.raises(ConfigError, match="^cannot create file: .*checkpoint.bin"):
            write_checkpoint(target, chk)
