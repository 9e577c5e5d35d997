"""Seeded training harnesses and binary checkpoint I/O.

``pretrain_clip`` trains a visual/text pair with the symmetric contrastive
loss; ``train_taca`` freezes all backbones and optimizes only the attachment.
Both run the one AdamW loop ``_fit``, which stops a diverging run at its step.
Every run is fully determined by its configs and seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset, Frame, write_header, write_text
from .encoders import (
    EncoderWeights,
    TextEncoderConfig,
    VisualEncoderConfig,
    encode_chunked,
    encode_image,
    encode_text,
    init_encoder,
)
from .errors import (ConfigError, ContractError, DegenerateVectorError, FormatError,
                     ParameterError, check_fields, checked)
from .losses import CompatLossConfig, ContrastiveConfig, clip_symmetric_loss, compat_total
from .peft import TacaConfig, attach_taca

CHECKPOINT_MAGIC = b"TACK"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    steps: int = 1500
    seed: int = 0

    def __post_init__(self):
        check_fields(self, seed=0)
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (contrastive negatives)")


class AdamW:
    """Decoupled weight decay Adam over an explicit list of trainable tensors,
    stepped as one flat array: each tensor's values become a view of it."""

    def __init__(self, params, lr: float, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        sizes = [p.values.size for p in self.params]
        self._buffers = np.zeros((5, sum(sizes)))  # m, v, grad and two temporaries
        self._splits = np.cumsum(sizes)[:-1]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        if any(p.grad is None for p in self.params):
            raise ContractError("AdamW.step: parameter has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        m, v, g, tmp, update = self._buffers  # the per-tensor op order, in place
        np.concatenate([p.grad.ravel() for p in self.params], out=g)
        w = np.concatenate([p.values.ravel() for p in self.params])
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, bc1, out=update)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        tmp += ADAM_EPS
        update /= tmp
        update += np.multiply(w, self.weight_decay, out=tmp)
        update *= self.lr
        w -= update
        for p, values in zip(self.params, np.split(w, self._splits)):
            p.values = values.reshape(p.values.shape)


def batch_indices(n: int, batch_size: int, steps: int, seed: int):
    """Epoch-wise seeded permutations; the last partial batch is dropped."""
    if batch_size > n:
        raise ConfigError(f"batch_size {batch_size} exceeds dataset size {n}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xBA7C)))
    emitted = 0
    while emitted < steps:
        perm = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield perm[start:start + batch_size]
            emitted += 1
            if emitted >= steps:
                return


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Checkpoint:
    """JSON metadata plus a named map of float64 arrays."""
    meta: dict
    tensors: dict[str, np.ndarray]


def save_checkpoint(checkpoint: Checkpoint, path):
    for name, values in checkpoint.tensors.items():
        if not np.isfinite(values).all():
            raise ContractError(f"refusing to save non-finite tensor {name!r}")
    with open(path, "wb") as fh:
        write_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        write_text(fh, json.dumps(checkpoint.meta, sort_keys=True))
        fh.write(struct.pack("<I", len(checkpoint.tensors)))
        for name, values in checkpoint.tensors.items():
            arr = np.asarray(values, dtype="<f8")
            write_text(fh, name)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        frame = Frame(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        try:
            meta = json.loads(frame.text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"corrupt checkpoint metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError("checkpoint metadata is not a JSON object")
        (count,) = frame.unpack("<I")
        tensors = {}
        for _ in range(count):
            name = frame.text()
            (rank,) = frame.unpack("<I")
            shape = frame.unpack(f"<{rank}I")
            if name in tensors:
                raise FormatError(f"duplicate tensor name {name!r}")
            tensors[name] = frame.array("<f8", shape, f"tensor {name!r}")
        frame.end()
    return Checkpoint(meta, tensors)


def pack_encoder(weights: EncoderWeights, prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}/{name}": t.values.copy()
            for name, t in weights.params.items()}


def _restore(tensor: Tensor, checkpoint: Checkpoint, key: str):
    """Copy the checkpoint's tensor ``key`` into ``tensor`` (same shape)."""
    if key not in checkpoint.tensors:
        raise FormatError(f"checkpoint missing tensor {key!r}")
    stored = checkpoint.tensors[key]
    if stored.shape != tensor.values.shape:
        raise FormatError(
            f"tensor {key!r} shape {stored.shape} != expected {tensor.values.shape}")
    tensor.values = stored.copy()


def checkpoint_field(checkpoint: Checkpoint, kind: str, key: str, build,
                     minimum: int = 1):
    """Metadata field ``key`` of a ``kind`` checkpoint, built into ``build``:
    a config dataclass from its fields, or a scalar type checked by
    ``errors.checked`` (an int at least ``minimum``). A wrong kind, a missing
    key or a value ``build`` rejects is a ``FormatError`` naming it."""
    if checkpoint.meta.get("kind") != kind:
        raise FormatError(
            f"expected a {kind} checkpoint, got kind={checkpoint.meta.get('kind')!r}")
    if key not in checkpoint.meta:
        raise FormatError(f"{kind} checkpoint metadata lacks {key!r}")
    value = checkpoint.meta[key]
    try:
        if dataclasses.is_dataclass(build):
            return build(**value)
        return build(checked(value, build, key, minimum))
    except (TypeError, ValueError, ConfigError, ParameterError) as exc:
        raise FormatError(
            f"{kind} checkpoint metadata {key!r} does not fit: {exc}") from exc


def unpack_encoder(checkpoint: Checkpoint, prefix: str, config) -> EncoderWeights:
    """Rebuild encoder weights from checkpoint tensors (non-trainable)."""
    weights = init_encoder(config, seed=0)
    for name, tensor in weights.params.items():
        _restore(tensor, checkpoint, f"{prefix}/{name}")
    return weights


def clip_encoders_from_checkpoint(checkpoint: Checkpoint):
    """(visual weights, text weights, temperature) from a CLIP checkpoint."""
    field = functools.partial(checkpoint_field, checkpoint, "clip")
    visual = unpack_encoder(checkpoint, "visual",
                            field("visual_config", VisualEncoderConfig))
    text = unpack_encoder(checkpoint, "text", field("text_config", TextEncoderConfig))
    temperature = field("temperature", float)
    if not temperature > 0:
        raise FormatError(f"clip checkpoint metadata 'temperature' does not fit: "
                          f"must be > 0, got {temperature!r}")
    return visual, text, temperature


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def _fit(params, n: int, train_cfg: TrainConfig, loss_of):
    """The one AdamW loop of both trainers: ``loss_of(batch)`` gives a step's
    (loss, components) on that step's tape. A run stops at its first non-finite
    loss or feature-row norm. Returns one (step, loss, *components) row per step."""
    opt = AdamW(params, lr=train_cfg.learning_rate)
    rows = []
    for step, batch in enumerate(batch_indices(
            n, train_cfg.batch_size, train_cfg.steps, train_cfg.seed)):
        # A diverging step overflows before its own checks stop the run.
        with ad.new_tape(), np.errstate(over="ignore", invalid="ignore"):
            try:
                loss, components = loss_of(batch)
                cause = None if math.isfinite(loss.item()) else f"loss is {loss.item()}"
            except DegenerateVectorError as exc:
                cause = str(exc)
            if cause is not None:
                raise ConfigError(
                    f"training diverged: {cause} at step {step} with learning rate "
                    f"{train_cfg.learning_rate:g}; lower train.learning_rate "
                    f"(or, for train-taca, train.taca_learning_rate when set)")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        rows.append((step, loss.item(), *components.values()))
    return rows


def pretrain_clip(visual_cfg: VisualEncoderConfig, text_cfg: TextEncoderConfig,
                  dataset: Dataset, train_cfg: TrainConfig,
                  contrastive: ContrastiveConfig = ContrastiveConfig(),
                  config_digest: str = "") -> Checkpoint:
    """Jointly train both encoders with the symmetric contrastive loss."""
    if visual_cfg.embed_dim != text_cfg.embed_dim:
        raise ConfigError(
            f"visual embed_dim {visual_cfg.embed_dim} != text embed_dim "
            f"{text_cfg.embed_dim}")
    visual = init_encoder(visual_cfg, seed=train_cfg.seed)
    text = init_encoder(text_cfg, seed=train_cfg.seed + 1)
    visual.set_trainable(True)
    text.set_trainable(True)
    rows = _fit(list(visual.tensors()) + list(text.tensors()), len(dataset), train_cfg,
                lambda batch: (clip_symmetric_loss(
                    encode_image(visual, dataset.images[batch]),
                    encode_text(text, dataset.captions[batch]),
                    contrastive.temperature), {}))
    meta = {
        "kind": "clip",
        "visual_config": dataclasses.asdict(visual_cfg),
        "text_config": dataclasses.asdict(text_cfg),
        "temperature": contrastive.temperature,
        "steps": train_cfg.steps,
        "seed": train_cfg.seed,
        "final_loss": rows[-1][1],
        "config_digest": config_digest,
    }
    tensors = pack_encoder(visual, "visual") | pack_encoder(text, "text")
    return Checkpoint(meta, tensors)


def train_taca(old_ckpt: Checkpoint, new_ckpt: Checkpoint, taca_cfg: TacaConfig,
               dataset: Dataset, train_cfg: TrainConfig,
               loss_cfg: CompatLossConfig = CompatLossConfig(),
               config_digest: str = ""):
    """Compatibility training: only the attachment learns.

    The contrastive term is scored at the old checkpoint's temperature, in
    place of ``loss_cfg.contrastive``.

    Returns (attachment checkpoint, loss log) where the log holds one
    (step, total, contrastive, distillation) row per step. Backbone tensors
    are audited bitwise after the run.
    """
    old_visual, old_text, tau = clip_encoders_from_checkpoint(old_ckpt)
    new_visual, _, _ = clip_encoders_from_checkpoint(new_ckpt)
    d_old = old_visual.config.embed_dim
    attachment, adapted = attach_taca(new_visual, taca_cfg, d_old,
                                      seed=train_cfg.seed)
    loss_cfg = dataclasses.replace(
        loss_cfg, contrastive=ContrastiveConfig(temperature=tau))
    frozen = {"old_visual": old_visual, "old_text": old_text, "new_visual": new_visual}
    snapshot = {label: weights.clone_values() for label, weights in frozen.items()}
    # Old encoders are frozen, so their per-sample features are constants;
    # compute them once instead of once per epoch.
    old_img_all = encode_chunked(lambda x: encode_image(old_visual, x),
                                 dataset.images)
    old_txt_all = encode_chunked(lambda c: encode_text(old_text, c),
                                 dataset.captions)
    log = _fit(attachment.trainable_tensors(), len(dataset), train_cfg,
               lambda batch: compat_total(adapted.encode(dataset.images[batch]),
                                          Tensor(old_txt_all[batch]),
                                          Tensor(old_img_all[batch]), loss_cfg))
    _audit_frozen(snapshot, frozen)
    meta = {
        "kind": "taca_attachment",
        "taca_config": dataclasses.asdict(taca_cfg),
        "new_visual_config": dataclasses.asdict(new_visual.config),
        "dim_old": d_old,
        "dim_new": new_visual.config.embed_dim,
        "temperature": tau,
        "distill_weight": loss_cfg.distill_weight,
        "steps": train_cfg.steps,
        "seed": train_cfg.seed,
        "old_checkpoint_digest": old_ckpt.meta.get("config_digest", ""),
        "new_checkpoint_digest": new_ckpt.meta.get("config_digest", ""),
        "config_digest": config_digest,
    }
    # The frozen new backbone travels with the attachment so the composed
    # encoder can be rebuilt from this checkpoint alone.
    tensors = {name: t.values.copy()
               for name, t in attachment.named_tensors().items()}
    tensors |= pack_encoder(new_visual, "backbone")
    return Checkpoint(meta, tensors), log


def _audit_frozen(snapshot, frozen):
    for label, weights in frozen.items():
        for name, before in snapshot[label].items():
            after = weights.params[name].values
            if not np.array_equal(before, after):
                raise ContractError(
                    f"frozen backbone tensor {label}/{name} changed during training")


def attachment_from_checkpoint(taca_ckpt: Checkpoint,
                               new_visual: EncoderWeights | None = None):
    """Rebuild the attachment (and composed encoder) from its checkpoint.

    When ``new_visual`` is omitted the frozen backbone embedded in the
    checkpoint is used.
    """
    field = functools.partial(checkpoint_field, taca_ckpt, "taca_attachment")
    if new_visual is None:
        new_visual = unpack_encoder(taca_ckpt, "backbone",
                                    field("new_visual_config", VisualEncoderConfig))
    cfg = field("taca_config", TacaConfig)
    try:
        attachment, adapted = attach_taca(new_visual, cfg, field("dim_old", int),
                                          seed=field("seed", int, minimum=0))
    except ConfigError as exc:
        raise FormatError(f"attachment checkpoint metadata 'taca_config' does "
                          f"not fit its backbone: {exc}") from exc
    for name, tensor in attachment.named_tensors().items():
        _restore(tensor, taca_ckpt, name)
    return attachment, adapted
