"""Full lifting model: encoder + output head, optionally wrapped with the
text-prompt classifier and/or the pose-prompt refiner.

Initialization draws every component from its own fixed seed stream, so two
models built from the same seed share bit-identical encoder/head weights
even when different components are enabled. Combined with the zero-
initialized residual scales, an untrained full model therefore produces
exactly the baseline's 3D outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pose_prompts, text_prompts
from .config import Config
from .encoder import TcnEncoder
from .errors import ConfigError, DimensionError, PoseLiftError
from .layers import seeded_rng
from .tensor import Tensor, named_parameters, no_grad

# Fixed per-component seed streams (independent of which components exist).
_STREAM_ENCODER = 0
_STREAM_HEAD = 1
_STREAM_PROJECTOR = 2
_STREAM_TEXT_BANK = 3
_STREAM_TEXT_ENCODER = 4
_STREAM_P2T = 5
_STREAM_APP = 6
_STREAM_LABEL_HEAD = 7
STREAM_SHUFFLE = 9


def check_embeddings(cfg: Config, embeddings: np.ndarray | None,
                     error: type[PoseLiftError]) -> None:
    """Raise `error` unless `embeddings` are what eval reads for a model of
    `cfg`: finite values, and for a text-prompt model present and (actions,
    channels). A checkpoint's fail with `FormatError`, an argument's with
    `ConfigError`."""
    if cfg.atp.enabled:
        if embeddings is None:
            raise error("a text-prompt model needs its saved text embeddings at eval, "
                        "where its text encoder does not run")
        want = (cfg.data.num_actions, cfg.encoder.channels)
        if np.shape(embeddings) != want:
            raise error(f"text embeddings have shape {np.shape(embeddings)}, "
                        f"want {want} (actions, channels)")
    if embeddings is not None and not np.isfinite(embeddings).all():
        raise error("text embeddings hold non-finite values")


def check_labels(labels, shape: tuple) -> np.ndarray:
    """`labels` as an array, one per sample: a `DimensionError` unless of
    `shape`, a `ConfigError` unless integers."""
    labels = np.asarray(labels)
    if labels.shape != shape:
        raise DimensionError(f"labels have shape {labels.shape}, want {shape}: "
                             "one per sample")
    if labels.dtype.kind not in "iu":
        raise ConfigError(f"labels of shape {labels.shape} have dtype "
                          f"{labels.dtype}, want integers")
    return labels


@dataclass
class ForwardResult:
    pred3d: Tensor                 # (B, J, 3)
    class_probs: Tensor | None     # (B, K) distribution, None for the plain baseline


class PoseLifter:
    """2D-sequence to 3D-pose model with optional action prompting."""

    def __init__(self, cfg: Config):
        cfg.validate()
        self.cfg = cfg
        seed = cfg.train.seed
        k = cfg.data.num_actions
        channels = cfg.encoder.channels

        has_projector = cfg.atp.enabled or cfg.use_label_aux
        # Only the action projector reads a deeper tap.
        self.encoder = TcnEncoder(cfg.data.frames, cfg.data.joints, channels,
                                  cfg.atp.tap_layer if has_projector else 1,
                                  seeded_rng(seed, _STREAM_ENCODER))
        self.head = pose_prompts.OutputHead(channels, cfg.data.joints,
                                            seeded_rng(seed, _STREAM_HEAD),
                                            output_scale=cfg.encoder.output_scale)

        self.projector = None
        if has_projector:
            self.projector = text_prompts.ActionProjector(
                channels, seeded_rng(seed, _STREAM_PROJECTOR),
                blocks=cfg.atp.projector_blocks)

        self.text_bank = None
        self.text_encoder = None
        self.p2t = None
        if cfg.atp.enabled:
            self.text_bank = text_prompts.TextPromptBank(
                k, cfg.atp.context_tokens, channels,
                seeded_rng(seed, _STREAM_TEXT_BANK))
            self.text_encoder = text_prompts.FrozenTextEncoder(
                cfg.atp.context_tokens + 1, channels,
                seeded_rng(seed, _STREAM_TEXT_ENCODER),
                layers=cfg.atp.text_layers)
            self.p2t = text_prompts.PoseToText(channels, seeded_rng(seed, _STREAM_P2T))

        self.label_head = None
        if cfg.use_label_aux:
            self.label_head = text_prompts.LabelHead(
                channels, k, seeded_rng(seed, _STREAM_LABEL_HEAD))

        self.prompt_bank = None
        self.refiner = None
        if cfg.app.enabled:
            rng = seeded_rng(seed, _STREAM_APP)
            self.prompt_bank = pose_prompts.PosePromptBank(
                k, cfg.app.prompts_per_action, channels, rng)
            self.refiner = pose_prompts.PosePromptRefiner(
                channels, rng, blocks=cfg.app.decoder_blocks)

        self.params = named_parameters(self)

    # -- text embeddings ------------------------------------------------------

    def text_embeddings(self) -> Tensor:
        """Current per-action embeddings (K, C), with gradients attached."""
        if self.text_encoder is None:
            raise ConfigError("text prompts are disabled in this model")
        return self.text_encoder.forward(text_prompts.assemble_prompts(self.text_bank))

    def export_embeddings(self) -> np.ndarray:
        """Snapshot of the embeddings for checkpointing / inference."""
        return np.array(self.text_embeddings().data, copy=True)

    def text_encoder_calls(self) -> int:
        return 0 if self.text_encoder is None else self.text_encoder.forward_calls

    # -- forward pass ------------------------------------------------------------

    def forward(self, x2d: np.ndarray, labels: np.ndarray | None, training: bool,
                embeddings: np.ndarray | None = None) -> ForwardResult:
        """Encoder, then the ATP classifier, then APP and the output head.

        `labels` select the pose prompts (ground truth in training); without
        them the predicted labels do. `embeddings` are saved per-action text
        embeddings (K, C); without them a text-prompt model runs its text
        encoder. Training mode normalizes with batch statistics; eval mode
        uses the running ones. An input that is not (B, F, J, 2) with B >= 1
        is a `DimensionError`, non-finite input a `ConfigError`; the encoder
        checks F and J. Labels that are not (B,) are a `DimensionError`,
        labels that are not integers a `ConfigError`.
        """
        x2d = np.asarray(x2d)
        if x2d.ndim != 4 or x2d.shape[0] == 0 or x2d.shape[-1] != 2:
            raise DimensionError(f"input has shape {x2d.shape}, want (B, F, J, 2) with B >= 1")
        if not np.isfinite(x2d).all():
            raise ConfigError(f"input of shape {x2d.shape} holds non-finite values")
        if labels is not None:
            labels = check_labels(labels, x2d.shape[:1])
        enc_out = self.encoder.forward(Tensor(x2d), training=training)
        probs = None
        if self.projector is not None:
            action_feature = self.projector(enc_out.tap, training=training)
            if self.text_encoder is not None:
                t = self.text_embeddings() if embeddings is None else Tensor(embeddings)
                t_bar = self.p2t(t, enc_out.z0)                   # (B, K, C)
                probs = text_prompts.classify(t_bar, action_feature, self.cfg.atp.tau)
            else:
                probs = self.label_head(action_feature)
        zd = enc_out.zd
        if self.refiner is not None:
            if labels is None:
                if probs is None:
                    raise ConfigError(
                        "pose prompts need labels: enable a classifier or pass labels")
                labels = np.argmax(probs.data, axis=-1)
            zd = self.refiner(zd, pose_prompts.select_prompts(self.prompt_bank, labels))
        return ForwardResult(pred3d=self.head(zd), class_probs=probs)

    def forward_eval(self, x2d: np.ndarray, embeddings: np.ndarray | None = None,
                     labels: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Eval-mode `forward` under `no_grad`; the text encoder is never
        invoked (pass saved embeddings instead). `labels`, when given, select
        the pose prompts; otherwise the predicted labels do.

        Returns (pred3d (B, J, 3), predicted_labels (B,) or None, probs or None).
        """
        check_embeddings(self.cfg, embeddings, ConfigError)
        with no_grad():
            result = self.forward(x2d, labels, training=False, embeddings=embeddings)
        probs = None if result.class_probs is None else result.class_probs.data
        predicted = None if probs is None else np.argmax(probs, axis=-1)
        return result.pred3d.data, predicted, probs
