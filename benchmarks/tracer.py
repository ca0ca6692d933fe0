"""In-memory spans around the calls into each poselift layer.

The benchmark never edits the package: it wraps the package's public entry
points (module functions and class methods) from here, records one span per
call, and restores the originals afterwards. A span holds its name, start,
end, the span that was open when it began, and how many `Tensor` objects
were created while it was open (only counted while the layer hooks are
installed).

Two hook sets exist:

- the timing hooks (`train.evaluate`, `model.forward_eval`), always on: the
  end-to-end metrics need the eval-pass and per-batch boundaries, and they
  cost two clock reads per eval batch;
- the layer hooks, installed only for a traced run.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

from poselift import encoder, layers, model, optim, pose_prompts, tensor, text_prompts
from poselift import train as train_mod


class Span:
    __slots__ = ("name", "parent", "start", "end", "tensors")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.tensors = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tensors = 0            # Tensor objects created while counting
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(rec)
        before = self.tensors
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.tensors = self.tensors - before
            self._stack.pop()
            self.spans.append(rec)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- installing hooks --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name) -> None:
        """Open a span around every call of `owner.attr`. `name` is a string,
        or a function of the receiver that returns one (None: no span)."""
        fn = owner.__dict__[attr]
        span = self.span
        if callable(name):
            @functools.wraps(fn)
            def wrapper(this, *args, **kwargs):
                label = name(this)
                if label is None:
                    return fn(this, *args, **kwargs)
                with span(label):
                    return fn(this, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)
        self._replace(owner, attr, wrapper)

    def install_timing(self) -> None:
        self._wrap(train_mod, "evaluate", "train.evaluate")
        self._wrap(model.PoseLifter, "forward_eval", "model.forward_eval")

    def install_layers(self) -> None:
        self._count_tensors()
        self._wrap(tensor.Tensor, "backward", "tensor.backward")
        self._wrap(encoder.TcnEncoder, "forward", "encoder.forward")
        self._wrap(layers.Linear, "__call__", _input_proj_span)
        self._wrap(encoder.TcnBlock, "__call__", _encoder_block_span)
        self._wrap(text_prompts.FrozenTextEncoder, "forward", "text_prompts.text_encoder")
        self._wrap(text_prompts.ActionProjector, "__call__", "text_prompts.projector")
        self._wrap(text_prompts.PoseToText, "__call__", "text_prompts.p2t")
        self._wrap(text_prompts, "classify", "text_prompts.classify")
        self._wrap(pose_prompts, "select_prompts", "pose_prompts.select")
        self._wrap(pose_prompts.PosePromptRefiner, "__call__", "pose_prompts.refiner")
        self._wrap(pose_prompts.OutputHead, "__call__", "pose_prompts.head")
        for fn in ("pose_loss", "action_loss", "total_loss"):
            self._wrap(train_mod, fn, f"losses.{fn}")
        self._wrap(optim.Adam, "step", "optim.step")
        self._wrap(optim.Adam, "zero_grad", "optim.zero_grad")
        self._wrap(train_mod, "build_report", "metrics.build_report")

    def _count_tensors(self) -> None:
        cls = tensor.Tensor
        init, from_op, detach = (cls.__dict__["__init__"],
                                 cls.__dict__["_from_op"].__func__,
                                 cls.__dict__["detach"])
        tracer = self

        def counted_init(this, *args, **kwargs):
            tracer.tensors += 1
            init(this, *args, **kwargs)

        def counted_from_op(klass, *args, **kwargs):
            tracer.tensors += 1
            return from_op(klass, *args, **kwargs)

        def counted_detach(this):
            tracer.tensors += 1
            return detach(this)

        self._replace(cls, "__init__", counted_init)
        self._replace(cls, "_from_op", classmethod(counted_from_op))
        self._replace(cls, "detach", counted_detach)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _input_proj_span(linear) -> str | None:
    return "encoder.input_proj" if linear.weight.name == "encoder.input_proj.weight" else None


def _encoder_block_span(block) -> str | None:
    # Parameter names are "encoder.block<b>.conv"; the action projector
    # reuses TcnBlock as "proj.block<b>.conv" and is timed as a whole.
    prefix, _, rest = block.conv.name.partition(".")
    return f"encoder.{rest.split('.')[0]}" if prefix == "encoder" else None


def by_name(spans: list[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for s in spans:
        grouped.setdefault(s.name, []).append(s)
    return grouped


def median_ms(grouped: dict[str, list[Span]], name: str) -> float:
    """Median duration of one call; 0 when the layer never ran."""
    spans = grouped.get(name)
    return statistics.median(s.ms for s in spans) if spans else 0.0


def total_tensors(grouped: dict[str, list[Span]], name: str) -> int:
    return sum(s.tensors for s in grouped.get(name, ()))
