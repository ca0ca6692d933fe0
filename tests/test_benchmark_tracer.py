"""The benchmark's layer tracer still hooks the package's entry points.

`benchmarks/tracer.py` wraps named functions and methods of the package and
reads parameter names to label spans, so a refactor that renames or removes
one of them breaks `benchmarks/run.py --trace 1`. The tracer is loaded from
its file and only used here, never changed.
"""

import importlib.util
from pathlib import Path

from poselift import (encoder, layers, model, optim, pose_prompts, tensor, text_prompts,
                      train)
from poselift.config import Config
from poselift.data import gen_synthetic

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
# Everything the tracer may replace: the classes and modules it hooks.
HOOKED = (tensor.Tensor, encoder.TcnEncoder, encoder.TcnBlock, layers.Linear,
          text_prompts, text_prompts.FrozenTextEncoder, text_prompts.ActionProjector,
          text_prompts.PoseToText, pose_prompts, pose_prompts.PosePromptRefiner,
          pose_prompts.OutputHead, train, optim.Adam, model.PoseLifter)


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_time_a_training_step_and_uninstall_cleanly():
    tracer_mod = load_tracer()
    originals = [dict(vars(owner)) for owner in HOOKED]
    cfg = Config()
    data = gen_synthetic(cfg.data.num_actions, cfg.data.frames, cfg.data.joints,
                         2, 1, seed=5).train
    tracer = tracer_mod.Tracer()
    tracer.install_timing()
    tracer.install_layers()
    try:
        assert layers.Linear.__call__ is not originals[HOOKED.index(layers.Linear)]["__call__"]
        lifter = model.PoseLifter(cfg)
        optimizer = optim.Adam(lifter.params)
        result = lifter.forward(data.input2d, data.labels, training=True)
        loss = train.total_loss(
            train.pose_loss(result.pred3d, tensor.Tensor(data.target3d)),
            train.action_loss(result.class_probs, data.labels), cfg.train.loss_weight)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        spans = tracer_mod.by_name(tracer.take())
    finally:
        tracer.uninstall()
    for name in ("encoder.forward", "encoder.input_proj", "encoder.block1",
                 "encoder.block3", "text_prompts.text_encoder", "losses.pose_loss",
                 "tensor.backward", "optim.step", "optim.zero_grad"):
        assert len(spans.get(name, ())) == 1, name
    assert tracer_mod.total_tensors(spans, "encoder.input_proj") > 0
    for owner, before in zip(HOOKED, originals):
        after = vars(owner)
        assert after.keys() == before.keys(), owner
        assert all(after[attr] is value for attr, value in before.items()), owner
