#!/usr/bin/env python3
"""Train the full action-prompted model and walk through the evaluation
protocol (saved text embeddings, predicted vs ground-truth label selection).

Run: python demos/03_train_and_evaluate.py     (about a minute on CPU)
"""

import tempfile
from pathlib import Path

from poselift.config import load_config
from poselift.train import (dataset_from_config, evaluate, load_checkpoint,
                            restore_model, train_model)

# full model (text prompts + pose prompts); the default is 60 epochs, and 30
# are enough to see the shape
cfg = load_config(overrides={"train.epochs": 30})
dataset = dataset_from_config(cfg)

print("training the full model (text prompts + pose prompts)...")
result = train_model(cfg, dataset)
print("epoch log (first 3 / last 3 lines):")
lines = result.log_lines
print("".join(lines[:4]) + "...\n" + "".join(lines[-3:]))

report = result.best_report
print("best-epoch eval:", report.summary_line())
print("per-action P1/P2:")
for name, p1 in report.per_action_p1.items():
    print(f"  {name:8s} P1={p1:7.3f}  "
          f"P2={report.per_action_p2[name]:7.3f}  n={report.counts[name]}")
print(f"aggregate: P1={report.p1:.3f}  P2(depth)={report.p2:.3f}  "
      f"P3(hard-action depth)={report.p3:.3f}  accuracy={report.accuracy:.3f}")

# The checkpoint carries the trained per-action text embeddings, so inference
# classifies without ever running the text encoder again.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "checkpoint.bin"
    from poselift.train import write_checkpoint
    write_checkpoint(path, result.best)
    chk = load_checkpoint(path)
    model, _ = restore_model(chk)

    calls_before = model.text_encoder_calls()
    names = dataset.manifest.action_names
    hard = dataset.manifest.hard_actions
    predicted = evaluate(model, dataset.eval, names, hard,
                         embeddings=chk.embeddings)
    print(f"\nre-evaluated from checkpoint: {predicted.summary_line()}")
    print("text-encoder invocations during evaluate:",
          model.text_encoder_calls() - calls_before)

    # Selecting pose prompts with ground-truth labels instead of predictions
    # isolates how much label errors cost (none here if accuracy is 1.0).
    with_gt = evaluate(model, dataset.eval, names, hard,
                       embeddings=chk.embeddings, use_gt_labels=True)
    print(f"with ground-truth label selection: {with_gt.summary_line()}")
