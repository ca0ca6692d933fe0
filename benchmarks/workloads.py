"""The three benchmark workloads and the metrics they report.

Every workload drives poselift through its exported API only, in one
process, with one client (the next operation starts when the previous one
has finished). The workload seed only chooses the generated inputs; the
model's own init/shuffle seed stays at the config default, as a user's
would.

- `train-small`: `train_model` on the full model (ATP + APP) at the default
  config. One operation is a 10-epoch training run on one of five datasets.
- `train-long`: the full model at F=243, C=64, B=16 on a small split. One
  operation is a 3-epoch training run on one of five datasets.
- `infer`: the `poselift eval` path. A checkpoint (a 10-epoch default
  training run) and an 8192-sample eval dataset are written to disk before
  timing; set-up loads both and restores the model; the measured operation
  is an `evaluate` pass over the whole split in 256-sample batches. After
  every pass a 2-epoch default training run follows: the result must
  carry `train_samples_per_s` on every workload, and this machine's speed
  drifts by up to 30% over tens of seconds, so a rate is only steady when
  it is sampled across the whole run. Per-layer metrics on `infer` count
  the eval passes only.

Set-up runs once before timing and again before every training run or eval
pass, so `setup_s`, their median, samples the same stretches of host speed
as the rates do.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from poselift import (Config, PoseLifter, Split, dataset_from_config,
                      gen_synthetic, load_checkpoint, load_dataset,
                      restore_model, save_dataset, train_model,
                      write_checkpoint)
from poselift import train as train_mod

from tracer import Span, Tracer, by_name, median_ms, total_tensors

OP_TRAIN = "train.train_model"
OP_INFER = "infer.pass"
SETUP_SPANS = ("data.gen", "data.load", "train.checkpoint_write",
               "train.checkpoint_load", "train.restore")
MAX_BLOCKS = 5                     # F=243 has five TCN blocks
INFER_EVAL_PER_ACTION = 2048       # 8192 samples: 32 full 256-sample batches
INFER_CHECKPOINT_EPOCHS = 10
INFER_TRAIN_EPOCHS = 2             # the interleaved training runs


@dataclass
class TrainSize:
    frames: int
    channels: int
    train_per_action: int
    eval_per_action: int
    epochs: int          # epochs per operation
    datasets: int        # distinct datasets; quality is their median


TRAIN_SIZES = {
    "train-small": TrainSize(frames=27, channels=16, train_per_action=50,
                             eval_per_action=20, epochs=10, datasets=5),
    # The cycle collector frees each step's graph late, so the peak grows
    # with the steps per operation: 2 steps x 3 epochs peaks near 1.6 GB,
    # 4 steps x 3 epochs at 3.3 GB.
    "train-long": TrainSize(frames=243, channels=64, train_per_action=8,
                            eval_per_action=4, epochs=3, datasets=5),
}


class Outcome:
    """Operations attempted and failed; a raised error or a failed output
    check fails the operation it happened in."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def operation(self, what: str):
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:   # the run goes on and reports the failure
            self.failed += 1
            print(f"error in {what}:", file=sys.stderr)
            traceback.print_exc()
            return
        if problems:
            self.failed += 1
            print(f"check failed in {what}: {'; '.join(problems)}", file=sys.stderr)


def sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def under(spans: list[Span], op: str) -> list[Span]:
    """Spans made inside measured operations of one kind, not by set-up or
    output checks."""
    return [s for s in spans if root(s).name == op]


def check_training(result, problems: list[str]) -> None:
    for line in result.log_lines[1:]:
        _, lp, la, p1 = line.strip().split(",")
        if not all(math.isfinite(float(v)) for v in (lp, la, p1)):
            problems.append(f"non-finite training log line {line.strip()!r}")
    check_report(result.best_report, problems)


def check_report(report, problems: list[str]) -> None:
    values = [report.p1, report.p2, report.p3, *report.per_action_p1.values()]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite metrics: {report.summary_line()}")
    if report.accuracy is None:
        problems.append("no predicted labels")


def require_same_p1(problems: list[str], what: str, p1: float, expected: float) -> None:
    if p1 != expected:
        problems.append(f"{what}: P1 {p1!r} != {expected!r}")


def same_split(a: Split, b: Split) -> bool:
    return (np.array_equal(a.input2d, b.input2d) and np.array_equal(a.target3d, b.target3d)
            and np.array_equal(a.labels, b.labels))


def eval_args(dataset) -> tuple:
    return dataset.manifest.action_names, dataset.manifest.hard_actions


def reload_check(tracer: Tracer, work: Path, result, dataset, problems: list[str]) -> int:
    """Write the best checkpoint, read it back, and require the restored
    model to reproduce the training-time P1 bit for bit. Returns its size."""
    path = work / "checkpoint.bin"
    with tracer.span("train.checkpoint_write"):
        write_checkpoint(path, result.best)
    with tracer.span("train.checkpoint_load"):
        chk = load_checkpoint(path)
    with tracer.span("train.restore"):
        model, _ = restore_model(chk)
    with tracer.span("check.reload"):
        again = train_mod.evaluate(model, dataset.eval, *eval_args(dataset),
                                   embeddings=chk.embeddings)
    require_same_p1(problems, "reloaded checkpoint against training", again.p1,
                    result.best_report.p1)
    return path.stat().st_size


# -- workloads ---------------------------------------------------------------------

class TrainWorkload:
    main_op = OP_TRAIN      # eval passes are the epoch-end ones inside training

    def __init__(self, name: str, seed: int, tracer: Tracer, outcome: Outcome, work: Path):
        self.size = TRAIN_SIZES[name]
        self.tracer, self.outcome, self.work = tracer, outcome, work
        self.data_seeds = sub_seeds(seed, self.size.datasets)
        self.setup_times: list[float] = []
        self.configs, self.datasets = self.set_up()
        self.train_samples = len(self.datasets[0].train)
        self.eval_samples = len(self.datasets[0].eval)
        self.first_p1: dict[int, float] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.checkpoint_bytes: list[int] = []
        self.ops = 0

    def set_up(self) -> tuple[list[Config], list]:
        """Generate every dataset and build a model for each; timed as one."""
        configs, datasets = [], []
        start = time.perf_counter()
        for data_seed in self.data_seeds:
            cfg = Config()
            cfg.data.frames = self.size.frames
            cfg.data.train_per_action = self.size.train_per_action
            cfg.data.eval_per_action = self.size.eval_per_action
            cfg.data.seed = data_seed
            cfg.encoder.channels = self.size.channels
            with self.tracer.span("data.gen"):
                datasets.append(dataset_from_config(cfg))
            PoseLifter(cfg)
            configs.append(cfg)
        self.setup_times.append(time.perf_counter() - start)
        return configs, datasets

    def repeat_setup(self) -> None:
        with self.outcome.operation("repeated set-up") as problems:
            _, datasets = self.set_up()
            if not all(same_split(a.train, b.train) and same_split(a.eval, b.eval)
                       for a, b in zip(datasets, self.datasets)):
                problems.append("the same seeds generated different datasets")

    def min_ops(self, quality: bool) -> int:
        return len(self.datasets) if quality else 1

    def operation(self) -> None:
        self.repeat_setup()
        k = self.ops % len(self.datasets)
        self.ops += 1
        cfg, dataset = self.configs[k], self.datasets[k]
        with self.outcome.operation(f"training run {self.ops} (dataset {k})") as problems:
            with self.tracer.span(OP_TRAIN):
                result = train_model(cfg, dataset, epochs=self.size.epochs)
            check_training(result, problems)
            p1 = result.best_report.p1
            require_same_p1(problems, "rerun on the same inputs", p1,
                            self.first_p1.setdefault(k, p1))
            self.checkpoint_bytes.append(
                reload_check(self.tracer, self.work, result, dataset, problems))
            if not problems:
                self.quality.setdefault(k, (p1, result.best_report.accuracy))

    def finish(self) -> None:
        pass


class InferWorkload:
    main_op = OP_INFER

    def __init__(self, seed: int, tracer: Tracer, outcome: Outcome, work: Path):
        self.tracer, self.outcome, self.work = tracer, outcome, work
        train_seed, eval_seed = sub_seeds(seed, 2)
        self.cfg = cfg = Config()
        cfg.data.seed = train_seed
        ckpt_path, data_dir = work / "checkpoint.bin", work / "data"

        # Inputs written to disk before timing: a trained checkpoint and a
        # large default-size eval split.
        self.train_data = train_data = dataset_from_config(cfg)
        result = train_model(cfg, train_data, epochs=INFER_CHECKPOINT_EPOCHS)
        with tracer.span("train.checkpoint_write"):
            write_checkpoint(ckpt_path, result.best)
        self.checkpoint_bytes = [ckpt_path.stat().st_size]
        self.train_samples = len(train_data.train)
        with tracer.span("data.gen"):
            generated = gen_synthetic(cfg.data.num_actions, cfg.data.frames,
                                      cfg.data.joints, cfg.data.train_per_action,
                                      INFER_EVAL_PER_ACTION, eval_seed)
        save_dataset(generated, data_dir)

        self.data_dir, self.ckpt_path = data_dir, ckpt_path
        self.setup_times: list[float] = []
        self.dataset, self.chk, self.model = self.set_up()
        self.eval_samples = len(self.dataset.eval)

        with outcome.operation("checkpoint training, reload and dataset load") as problems:
            check_training(result, problems)
            if not same_split(self.dataset.eval, generated.eval):
                problems.append("loaded eval split differs from the generated one")
            with tracer.span("check.reload"):
                again = train_mod.evaluate(self.model, train_data.eval, *eval_args(train_data),
                                           embeddings=self.chk.embeddings)
            require_same_p1(problems, "reloaded checkpoint against training", again.p1,
                            result.best_report.p1)
        with outcome.operation("chunked against whole-split evaluate") as problems:
            # 256 samples from every action, so the whole-split pass is no
            # larger than a measured batch and does not set the peak RSS.
            full = self.dataset.eval
            pick = np.arange(0, len(full), len(full) // 256)
            sub = Split(full.input2d[pick], full.target3d[pick], full.labels[pick])
            with tracer.span("check.chunked"):
                chunked = train_mod.evaluate(self.model, sub, *eval_args(self.dataset),
                                             embeddings=self.chk.embeddings, batch_size=64)
                whole = train_mod.evaluate(self.model, sub, *eval_args(self.dataset),
                                           embeddings=self.chk.embeddings, batch_size=len(sub))
            # Batch size changes float32 summation order in matmul, not labels.
            if not (math.isclose(chunked.p1, whole.p1, rel_tol=1e-5)
                    and math.isclose(chunked.p2, whole.p2, rel_tol=1e-5)
                    and chunked.accuracy == whole.accuracy):
                problems.append(f"chunked {chunked.summary_line()} != whole {whole.summary_line()}")
        self.first_p1: dict[str, float] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.ops = 0

    def set_up(self) -> tuple:
        """Load the dataset and the checkpoint and restore the model; timed as one."""
        start = time.perf_counter()
        with self.tracer.span("data.load"):
            dataset = load_dataset(self.data_dir)
        with self.tracer.span("train.checkpoint_load"):
            chk = load_checkpoint(self.ckpt_path)
        with self.tracer.span("train.restore"):
            model, _ = restore_model(chk)
        self.setup_times.append(time.perf_counter() - start)
        return dataset, chk, model

    def repeat_setup(self) -> None:
        # The restored copy is dropped: the first model alone serves every
        # eval pass, so its text-encoder count covers the whole run.
        with self.outcome.operation("repeated set-up") as problems:
            dataset, _, _ = self.set_up()
            if not same_split(dataset.eval, self.dataset.eval):
                problems.append("a second load of the dataset differs from the first")

    def min_ops(self, quality: bool) -> int:
        return 2

    def operation(self) -> None:
        self.ops += 1
        if self.ops % 2 == 0:
            self.train_operation()
        else:
            self.repeat_setup()
            self.eval_operation()

    def train_operation(self) -> None:
        with self.outcome.operation("interleaved training run") as problems:
            with self.tracer.span(OP_TRAIN):
                result = train_model(self.cfg, self.train_data, epochs=INFER_TRAIN_EPOCHS)
            check_training(result, problems)
            p1 = result.best_report.p1
            require_same_p1(problems, "rerun on the same inputs", p1,
                            self.first_p1.setdefault(OP_TRAIN, p1))

    def eval_operation(self) -> None:
        with self.outcome.operation("evaluate pass") as problems:
            with self.tracer.span(OP_INFER):
                report = train_mod.evaluate(self.model, self.dataset.eval,
                                            *eval_args(self.dataset),
                                            embeddings=self.chk.embeddings)
            check_report(report, problems)
            require_same_p1(problems, "rerun on the same inputs", report.p1,
                            self.first_p1.setdefault(OP_INFER, report.p1))
            if not problems:
                self.quality.setdefault(0, (report.p1, report.accuracy))

    def finish(self) -> None:
        with self.outcome.operation("text encoder unused at inference") as problems:
            if self.model.text_encoder_calls() != 0:
                problems.append(f"text encoder ran {self.model.text_encoder_calls()} times")


# -- measuring -----------------------------------------------------------------------

def run_phase(workload, seconds: float, min_ops: int) -> None:
    """Run operations back to back for about `seconds`: the last one starts
    only if it is expected to end nearer the deadline than stopping would."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= min_ops and elapsed + 0.5 * elapsed / done >= seconds:
            return
        # Autodiff nodes reference themselves through their backward
        # closures, so only the cycle collector frees a finished graph.
        # Collecting between operations starts each one from the heap a
        # fresh process would have.
        gc.collect()
        workload.operation()
        done += 1


def timing_metrics(workload, spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Throughput and batch latency from the timing spans of measured operations.

    Training epochs are the gaps between a training run's eval passes. A
    rate is the median over operations (training runs, eval passes) of each
    one's samples over its time. Per-epoch times are bimodal (the cycle
    collector frees a whole graph inside some epochs), so an operation's
    rate spans all its epochs; the median across operations keeps a burst
    of host slowness in one of them from moving the figure.
    """
    training = under(spans, OP_TRAIN)
    train_rates, epochs = [], 0
    for op in (s for s in training if s.name == OP_TRAIN):
        evals = sorted((s for s in training if s.name == "train.evaluate" and s.parent is op),
                       key=lambda s: s.start)
        train_time, previous_end = 0.0, op.start
        for ev in evals:
            train_time += ev.start - previous_end
            previous_end = ev.end
        train_rates.append(len(evals) * workload.train_samples / train_time)
        epochs += len(evals)
    measured = under(spans, workload.main_op)
    passes = [s.end - s.start for s in measured if s.name == "train.evaluate"]
    batches = [s.ms for s in measured if s.name == "model.forward_eval"]
    values = {
        "train_samples_per_s": statistics.median(train_rates),
        "infer_samples_per_s": statistics.median(workload.eval_samples / p for p in passes),
        "infer_batch_ms.p50": float(np.percentile(batches, 50)),
        "infer_batch_ms.p95": float(np.percentile(batches, 95)),
    }
    return values, {"training_runs": len(train_rates), "epochs": epochs,
                    "eval_passes": len(passes), "batches": len(batches)}


UNITS = {
    "train_samples_per_s": "1/s", "infer_samples_per_s": "1/s",
    "infer_batch_ms.p50": "ms", "infer_batch_ms.p95": "ms", "peak_rss_mb": "MB",
    "setup_s": "s", "p1_mm": "mm", "action_acc": "ratio",
}


def end_to_end(workload, spans: list[Span]) -> tuple[dict, dict]:
    timing, counts = timing_metrics(workload, spans)
    quality = list(workload.quality.values())
    values = {
        **timing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(workload.setup_times),
        "p1_mm": statistics.median(q[0] for q in quality),
        "action_acc": statistics.median(q[1] for q in quality),
    }
    counts["quality_datasets"] = len(quality)
    counts["setup_repeats"] = len(workload.setup_times)
    return values, counts


def per_layer(workload, setup_spans: list[Span], spans: list[Span]) -> dict[str, float]:
    measured = by_name(under(spans, workload.main_op))
    setup = by_name([s for s in setup_spans + spans if s.name in SETUP_SPANS])
    steps = len(measured.get("optim.step", ()))
    batches = len(measured.get("model.forward_eval", ()))
    forwards = len(measured.get("encoder.forward", ()))
    train_tensors = (total_tensors(measured, OP_TRAIN)
                     - total_tensors(measured, "train.evaluate"))
    values = {
        "tensor.backward_ms": median_ms(measured, "tensor.backward"),
        "tensor.tensors_per_step": train_tensors / steps if steps else 0.0,
        "tensor.tensors_per_infer_batch":
            total_tensors(measured, "train.evaluate") / batches if batches else 0.0,
        "encoder.forward_ms": median_ms(measured, "encoder.forward"),
        "encoder.input_proj_ms": median_ms(measured, "encoder.input_proj"),
        "encoder.tensors":
            total_tensors(measured, "encoder.forward") / forwards if forwards else 0.0,
    }
    for b in range(1, MAX_BLOCKS + 1):
        block = f"encoder.block{b}"
        values[f"{block}.ms"] = median_ms(measured, block)
        values[f"{block}.calls"] = (len(measured.get(block, ())) / forwards
                                    if forwards else 0.0)
    per_unit = steps or batches
    values.update({
        "text_prompts.text_encoder_ms": median_ms(measured, "text_prompts.text_encoder"),
        "text_prompts.text_encoder_calls":
            len(measured.get("text_prompts.text_encoder", ())) / per_unit,
        "text_prompts.projector_ms": median_ms(measured, "text_prompts.projector"),
        "text_prompts.p2t_ms": median_ms(measured, "text_prompts.p2t"),
        "text_prompts.classify_ms": median_ms(measured, "text_prompts.classify"),
        "pose_prompts.select_ms": median_ms(measured, "pose_prompts.select"),
        "pose_prompts.refiner_ms": median_ms(measured, "pose_prompts.refiner"),
        "pose_prompts.head_ms": median_ms(measured, "pose_prompts.head"),
        "losses.ms": sum(median_ms(measured, f"losses.{fn}")
                         for fn in ("pose_loss", "action_loss", "total_loss")),
        "optim.step_ms": median_ms(measured, "optim.step"),
        "optim.zero_grad_ms": median_ms(measured, "optim.zero_grad"),
        "train.evaluate_ms": median_ms(measured, "train.evaluate"),
        "train.checkpoint_write_ms": median_ms(setup, "train.checkpoint_write"),
        "train.checkpoint_load_ms": median_ms(setup, "train.checkpoint_load"),
        "train.checkpoint_bytes": float(statistics.median(workload.checkpoint_bytes)),
        "train.restore_ms": median_ms(setup, "train.restore"),
        "data.gen_ms": median_ms(setup, "data.gen"),
        "data.load_ms": median_ms(setup, "data.load"),
        "metrics.build_report_ms": median_ms(measured, "metrics.build_report"),
    })
    return values


OVERHEAD = ("train_samples_per_s", "infer_samples_per_s",
            "infer_batch_ms.p50", "infer_batch_ms.p95")


def layer_unit(name: str) -> str:
    if name.startswith("trace.overhead."):
        return UNITS[name.removeprefix("trace.overhead.")]
    if name.endswith("ms"):
        return "ms"
    return "bytes" if name.endswith("bytes") else "count"


def run(name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    tracer, outcome = Tracer(), Outcome()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    tracer.install_timing()
    try:
        if name == "infer":
            workload = InferWorkload(seed, tracer, outcome, work)
        else:
            workload = TrainWorkload(name, seed, tracer, outcome, work)
        setup_spans = tracer.take()
        # Untimed warm-up, one operation of each kind: a process's first eval
        # batches take about twice as long as later ones (first-touch page
        # faults), and with about 40 batches in a train-long run they alone
        # set its p95.
        run_phase(workload, 0, workload.min_ops(quality=False))
        setup_spans += [s for s in tracer.take() if s.name in SETUP_SPANS]
        if trace:
            # First half untraced, second half traced: the difference of the
            # two halves is the tracing overhead.
            run_phase(workload, seconds / 2, workload.min_ops(quality=False))
            untraced, _ = timing_metrics(workload, setup_spans + tracer.take())
            tracer.install_layers()
            run_phase(workload, seconds / 2, workload.min_ops(quality=False))
            workload.finish()
            spans = tracer.take()
            values = per_layer(workload, setup_spans, spans)
            traced, _ = timing_metrics(workload, setup_spans + spans)
            for metric in OVERHEAD:
                values[f"trace.overhead.{metric}"] = traced[metric] - untraced[metric]
            units = {k: layer_unit(k) for k in values}
        else:
            run_phase(workload, seconds, workload.min_ops(quality=True))
            workload.finish()
            values, counts = end_to_end(workload, setup_spans + tracer.take())
            units = UNITS
            print("samples: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
