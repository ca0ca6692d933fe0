"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy experiments
(ablation matrix, overfit run) execute once per session and are fully
deterministic: dataset seed 1234, training seeds 0/1/2.
"""

import math
import time

import numpy as np
import pytest

from poselift import ablate
from poselift import train as T
from poselift.config import Config
from poselift.data import PoseDataset
from poselift.gradcheck import run_model_check, run_op_suite
from poselift.losses import action_loss, pose_loss
from poselift.metrics import dmpjpe, mpjpe
from poselift.model import PoseLifter
from poselift.pose_prompts import PosePromptBank, PosePromptRefiner, select_prompts
from poselift.tensor import Tensor, precision
from poselift.text_prompts import classify, first_order_motion
from poselift.layers import seeded_rng

SEEDS = [0, 1, 2]


def _announce(name: str, passed: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_dataset():
    return T.dataset_from_config(Config())


@pytest.fixture(scope="module")
def ablation(default_dataset):
    detail, summary = ablate.run_components(Config(), seeds=SEEDS,
                                            dataset=default_dataset)
    return {row.key["variant"]: row.report for row in summary.rows}


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    op_reports = run_op_suite()
    model_report = run_model_check()
    elapsed = time.monotonic() - start
    worst_op = max(op_reports.values(), key=lambda r: r.max_rel_err)
    ok = all(r.passed for r in op_reports.values()) and model_report.passed
    ok = ok and elapsed < 60.0
    _announce("criterion 1 (gradient suite)", ok,
              f"ops max {worst_op.max_rel_err:.2e}, model max "
              f"{model_report.max_rel_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_zero_init_equivalence(default_dataset):
    full_cfg = Config()
    base_cfg = Config()
    base_cfg.atp.enabled = False
    base_cfg.app.enabled = False
    base_cfg.train.label_aux = "off"
    full = PoseLifter(full_cfg)
    base = PoseLifter(base_cfg)
    x = default_dataset.train.input2d[:16]
    labels = default_dataset.train.labels[:16]
    train_equal = np.array_equal(full.forward(x, labels, training=True).pred3d.data,
                                 base.forward(x, labels, training=True).pred3d.data)
    emb = full.export_embeddings()
    eval_full, _, _ = full.forward_eval(x, embeddings=emb)
    eval_base, _, _ = base.forward_eval(x)
    eval_equal = np.array_equal(eval_full, eval_base)
    _announce("criterion 2 (zero-init equivalence)", train_equal and eval_equal,
              "bit-identical 3D outputs (train and eval paths)")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    # 64-bit mode: a 1e-6 absolute tolerance sits below float32 resolution at
    # these value scales, exactly like the gradient-check tolerance.
    with precision("float64"):
        for _ in range(100):
            b, j, k = rng.integers(1, 5), rng.integers(1, 7), rng.integers(2, 7)
            pred = rng.normal(size=(b, j, 3)) * 30
            gt = rng.normal(size=(b, j, 3)) * 30

            naive_p1 = np.mean([math.sqrt(float(((pred[s, i] - gt[s, i]) ** 2).sum()))
                                for s in range(b) for i in range(j)])
            naive_p2 = np.mean([abs(float(pred[s, i, 2] - gt[s, i, 2]))
                                for s in range(b) for i in range(j)])
            worst = max(worst, abs(mpjpe(pred, gt) - naive_p1),
                        abs(dmpjpe(pred, gt) - naive_p2),
                        abs(pose_loss(Tensor(pred), Tensor(gt)).item() - naive_p1))

            logits = rng.normal(size=(b, k))
            probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
            labels = rng.integers(0, k, size=b)
            naive_ce = np.mean([-math.log(probs[s, labels[s]]) for s in range(b)])
            worst = max(worst, abs(action_loss(Tensor(probs), labels).item() - naive_ce))

            t_bar = rng.normal(size=(k, 8))
            a = rng.normal(size=8)
            tau = float(rng.uniform(0.05, 1.0))
            cos = np.array([
                float((t_bar[i] * a).sum())
                / (math.sqrt(float((t_bar[i] ** 2).sum()))
                   * math.sqrt(float((a ** 2).sum())) + 1e-8)
                for i in range(k)])
            scaled = cos / tau
            naive_y = np.exp(scaled - scaled.max())
            naive_y /= naive_y.sum()
            worst = max(worst, float(np.abs(
                classify(Tensor(t_bar), Tensor(a), tau).data - naive_y).max()))
    _announce("criterion 3 (oracle equivalence)", worst <= 1e-6,
              f"max deviation {worst:.2e} over 100 cases per operation")


def test_criterion_4_overfit_check():
    start = time.monotonic()
    cfg = Config()
    cfg.atp.enabled = False
    cfg.app.enabled = False
    cfg.train.label_aux = "off"
    cfg.data.train_per_action = 8            # 32 samples
    cfg.data.eval_per_action = 1
    cfg.train.epochs = 1000                  # 2 steps/epoch -> 2000 steps
    cfg.train.lr = 3e-3
    cfg.train.lr_decay = 0.999
    generated = T.dataset_from_config(cfg)
    dataset = PoseDataset(manifest=generated.manifest, train=generated.train,
                          eval=generated.train, motifs=generated.motifs)
    result = T.train_model(cfg, dataset)
    elapsed = time.monotonic() - start
    best = result.best_report.p1
    ok = best < 5.0 and elapsed < 300.0
    _announce("criterion 4 (overfit check)", ok,
              f"best P1 {best:.3f} (< 5 units) in {elapsed:.0f}s on 2000 steps")


def test_criterion_5_classification_efficacy(ablation):
    accuracy = ablation["full"].accuracy
    _announce("criterion 5 (classification efficacy)", accuracy >= 0.90,
              f"full model eval accuracy {accuracy:.3f} (mean over {len(SEEDS)} seeds)")


def test_criterion_6_directional_improvement(ablation):
    p1 = {name: ablation[name].p1 for name in ablate.VARIANTS}
    band = 1.02
    checks = {
        "full<=baseline": p1["full"] <= p1["baseline"],
        "label<=1.02*baseline": p1["label_only"] <= band * p1["baseline"],
        "atp<=1.02*label": p1["atp"] <= band * p1["label_only"],
        "app<=1.02*label": p1["app"] <= band * p1["label_only"],
        "full<=1.02*atp": p1["full"] <= band * p1["atp"],
        "full<=1.02*app": p1["full"] <= band * p1["app"],
    }
    detail = " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
    means = " ".join(f"{k}={v:.2f}" for k, v in p1.items())
    _announce("criterion 6 (directional improvement)", all(checks.values()),
              f"{means} | {detail}")


def test_criterion_7_invariance_suite(default_dataset, tmp_path):
    failures = []

    rng = np.random.default_rng(5)
    y = classify(Tensor(rng.normal(size=(4, 6, 8))),
                 Tensor(rng.normal(size=(4, 8))), tau=0.07)
    if np.abs(y.data.sum(axis=-1) - 1.0).max() > 1e-6:
        failures.append("classification rows must sum to 1")

    t_bar = Tensor(rng.normal(size=(5, 8)))
    a = rng.normal(size=8)
    base_argmax = int(np.argmax(classify(t_bar, Tensor(a), 0.07).data))
    for alpha in (0.02, 7.0, 400.0):
        if int(np.argmax(classify(t_bar, Tensor(alpha * a), 0.07).data)) != base_argmax:
            failures.append(f"argmax changed under scaling alpha={alpha}")

    if np.abs(first_order_motion(Tensor(np.ones((9, 4)))).data).max() != 0.0:
        failures.append("motion of constant sequence must be zero")

    bank = PosePromptBank(4, 3, 8, seeded_rng(0, 6))
    refiner = PosePromptRefiner(8, seeded_rng(0, 6))
    refiner.gamma.data = np.full(8, 0.4)
    out = refiner(Tensor(rng.normal(size=(1, 1, 8))),
                  select_prompts(bank, np.array([1])))
    out.sum().backward()
    touched = [k for k in range(4) if np.abs(bank.prompts.grad[k]).sum() > 0]
    if touched != [1]:
        failures.append(f"prompt gradient sparsity violated: {touched}")

    cfg = Config()
    cfg.data.train_per_action = 10
    cfg.data.eval_per_action = 5
    cfg.train.epochs = 3
    small = T.dataset_from_config(cfg)
    model_init = PoseLifter(cfg)
    frozen = {n: p.data.copy() for n, p in model_init.params.items()
              if n.startswith("atp.text_encoder") and not p.trainable}
    run_a = T.train_model(cfg, small)
    for name, values in frozen.items():
        if not np.array_equal(run_a.model.params[name].data, values):
            failures.append(f"frozen text-encoder parameter changed: {name}")
            break

    T.write_checkpoint(tmp_path / "c.bin", run_a.best)
    loaded = T.load_checkpoint(tmp_path / "c.bin")
    for name, values in run_a.best.params.items():
        if not np.array_equal(loaded.params[name], values):
            failures.append(f"checkpoint round trip not bit-identical: {name}")
            break

    run_b = T.train_model(cfg, small)
    if run_a.train_log != run_b.train_log:
        failures.append("fixed-seed rerun did not reproduce train.log")

    _announce("criterion 7 (invariance suite)", not failures,
              "; ".join(failures) or "all 7 invariants hold")


def test_criterion_8_sequence_length_mode():
    cfg = Config()
    cfg.data.train_per_action = 25
    cfg.data.eval_per_action = 10
    cfg.train.epochs = 20
    table = ablate.run_seq_length(cfg, frames_list=(9, 27))
    csv = table.to_csv().splitlines()
    header_ok = csv[0] == "frames,variant,P1,P2,P3,accuracy"
    keys = [tuple(line.split(",")[:2]) for line in csv[1:]]
    rows_ok = keys == [("9", "baseline"), ("9", "atp"),
                       ("27", "baseline"), ("27", "atp")]
    values_ok = all(len(line.split(",")) == 6 for line in csv[1:])
    _announce("criterion 8 (sequence-length mode)",
              header_ok and rows_ok and values_ok,
              f"{len(csv) - 1} rows emitted for F in (9, 27)")
