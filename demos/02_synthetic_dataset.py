#!/usr/bin/env python3
"""The synthetic action dataset: what the motifs encode, why depth is the
hard axis, and the bit-exact on-disk format.

Run: python demos/02_synthetic_dataset.py
"""

import tempfile
from pathlib import Path

import numpy as np

from poselift.data import (gen_synthetic, load_dataset, nearest_centroid_accuracy,
                           save_dataset)

# Four actions x 50 train / 20 eval sequences, 27 frames, 8 joints.
dataset = gen_synthetic(num_actions=4, frames=27, joints=8,
                        train_per_action=50, eval_per_action=20, seed=1234)

print("actions:", dataset.manifest.action_names)
print("hard action (largest depth program):", dataset.manifest.hard_actions)
print("train/eval samples:", len(dataset.train), "/", len(dataset.eval))
print("input2d:", dataset.train.input2d.shape, "in",
      f"[{dataset.train.input2d.min():.2f}, {dataset.train.input2d.max():.2f}]")
print("target3d:", dataset.train.target3d.shape, "(root joint pinned at 0)")

# Every action oscillates in the image plane with its own frequency and
# joint-group emphasis (that is what a classifier can see), while its depth
# program (static posture offset + phase-locked excursion) never appears in
# the 2D input. Knowing the action therefore resolves depth ambiguity.
print("\nper-action depth structure (z of root-relative targets):")
for motif in dataset.motifs:
    z = dataset.train.target3d[dataset.train.labels == motif.index][:, :, 2]
    print(f"  {motif.name:8s} freq={motif.frequency:.2f}  "
          f"depth offset={motif.depth_offset:5.1f}  excursion={motif.depth_excursion:5.1f}"
          f"  -> observed z-variance across samples {z.var(axis=0).mean():8.1f}")

acc = nearest_centroid_accuracy(dataset.train, dataset.eval)
print(f"\nnearest-centroid accuracy on 3D targets: {acc:.3f} "
      "(actions are separable by construction)")

# Round-trip through the on-disk format: one container file, dataset.bin
# (magic, version, the seed, the action names and the hard-action names,
# then whole-array input2d, target3d and labels records for the train and
# eval splits, then a CRC32; see poselift.container). The manifest holds
# only the seed and the names: K is the number of names, and frames, joints
# and the split sizes are the array shapes.
with tempfile.TemporaryDirectory() as tmp:
    save_dataset(dataset, tmp)
    print("\non disk:")
    for path in sorted(Path(tmp).iterdir()):
        print(f"  {path.name:12s} {path.stat().st_size:9d} bytes")
    again = load_dataset(tmp)
    print("\nloaded manifest:")
    for name, value in vars(again.manifest).items():
        print(f"  {name} = {value}")
    identical = (np.array_equal(again.train.input2d, dataset.train.input2d)
                 and np.array_equal(again.eval.target3d, dataset.eval.target3d))
    print("round-trip bit-identical:", identical)
