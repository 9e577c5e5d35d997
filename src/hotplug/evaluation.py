"""Downstream proxies and the hot-plug compatibility verdict.

Two proxies stand in for real downstream systems: caption retrieval against
the frozen old text encoder, and a frozen linear head on visual features. The
report compares the old system, the hot-plugged system (old head, adapted new
encoder), and the cold-plugged upper bound (head retrained for the new
encoder).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import DEFAULT_CONFIG, eval_settings_from
from .data import (
    CAPTION_LEN,
    NUM_FACTORS,
    Dataset,
    LatentFactor,
    render_caption,
)
from .encoders import encode_chunked, encode_image, encode_text
from .errors import ConfigError, ContractError, DimensionError, ParameterError
from .training import (
    AdamW,
    Checkpoint,
    attachment_from_checkpoint,
    clip_encoders_from_checkpoint,
)


_EVAL = eval_settings_from(DEFAULT_CONFIG)  # k, head_seeds, gallery_seed


def recall_at_k(query_feats, gallery_feats, ground_truth, k: int) -> float:
    """Fraction of queries whose true gallery item ranks in the top k by
    cosine similarity; ties break toward the lower gallery index."""
    query = np.asarray(query_feats, dtype=np.float64)
    gallery = np.asarray(gallery_feats, dtype=np.float64)
    truth = np.asarray(ground_truth)
    if query.ndim != 2 or gallery.ndim != 2 or query.shape[1] != gallery.shape[1]:
        raise DimensionError(f"recall_at_k: queries {query.shape} vs gallery {gallery.shape}")
    if query.shape[0] == 0:
        raise ContractError("recall_at_k: no queries")
    if not 1 <= k <= gallery.shape[0]:
        raise ParameterError(f"k={k} out of range 1..{gallery.shape[0]}")
    if truth.shape != (query.shape[0],):
        raise ContractError(f"ground truth shape {truth.shape} != ({query.shape[0]},)")
    if not np.issubdtype(truth.dtype, np.integer) or (
            truth.size and not 0 <= truth.min() <= truth.max() < gallery.shape[0]):
        raise ParameterError(f"ground truth ids must be integers in 0..{gallery.shape[0] - 1}")
    sims = query @ gallery.T
    # rank = better-scoring items, counting equal scores at lower index
    t = sims[np.arange(query.shape[0]), truth][:, None]
    tied_before = (sims == t) & (np.arange(gallery.shape[0]) < truth[:, None])
    rank = (sims > t).sum(axis=1) + tied_before.sum(axis=1)
    return int((rank < k).sum()) / query.shape[0]


@dataclass
class DownstreamHead:
    """Frozen linear classifier on precomputed features."""
    weight: np.ndarray  # (d, num_classes)
    bias: np.ndarray    # (num_classes,)


def train_head(features, labels, num_classes: int, seeds, steps: int = 300,
               lr: float = 0.05) -> list[DownstreamHead]:
    """Softmax cross-entropy heads on frozen features, one per seed, with
    full-batch AdamW. The seeds train as one stack on the closed-form gradient,
    in the tape's op order, so each head is bitwise equal to its seed alone."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, d = features.shape
    if len(seeds) == 0:
        raise ConfigError("head training needs at least one seed")
    if n != labels.shape[0]:
        raise ContractError(f"features/labels disagree: {n} vs {labels.shape[0]}")
    if n < num_classes:
        raise ConfigError(f"need at least {num_classes} samples, got {n}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigError("labels out of range")
    if np.unique(labels).size < 2:
        raise ConfigError("head training needs at least two classes present")
    w = ad.Tensor(np.stack([np.random.default_rng(s).normal(0.0, 0.02, size=(d, num_classes))
                            for s in seeds]), trainable=True)  # (S, d, C)
    b = ad.Tensor(np.zeros((len(seeds), 1, num_classes)), trainable=True)
    g0 = np.zeros((n, num_classes))  # d(loss)/d(logp) = -onehot / n at every step
    g0[np.arange(n), labels] = -1.0 / n
    g0_sum = g0.sum(axis=-1, keepdims=True)
    opt = AdamW([w, b], lr=lr, weight_decay=0.0)
    z, g = np.empty((2, len(seeds), n, num_classes))
    row = np.empty((len(seeds), n, 1))
    w.grad, b.grad = np.empty_like(w.values), np.empty_like(b.values)
    for _ in range(steps):  # the tape's ops, in its order, in place
        np.matmul(features, w.values, out=z)
        z += b.values  # (S, n, C) logits
        z -= np.max(z, axis=-1, keepdims=True, out=row)
        np.exp(z, out=g)
        np.log(np.sum(g, axis=-1, keepdims=True, out=row), out=row)
        z -= row  # log-softmax
        np.exp(z, out=g)
        g *= g0_sum
        np.subtract(g0, g, out=g)  # d(loss)/d(logits)
        np.sum(g, axis=1, keepdims=True, out=b.grad)
        np.matmul(features.T, g, out=w.grad)
        opt.step()
    return [DownstreamHead(w_s.copy(), b_s[0].copy()) for w_s, b_s in zip(w.values, b.values)]


def eval_top1(head: DownstreamHead, features, labels) -> float:
    """Argmax accuracy; argmax ties break toward the lower class index."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.size == 0:
        raise ContractError("eval_top1: empty feature set")
    if features.shape[0] != labels.shape[0]:
        raise ContractError(
            f"features/labels disagree: {features.shape[0]} vs {labels.shape[0]}")
    if features.ndim != 2 or features.shape[1] != head.weight.shape[0]:
        raise DimensionError(f"eval_top1: features {features.shape} do not fit "
                             f"a head of input width {head.weight.shape[0]}")
    logits = features @ head.weight + head.bias
    pred = logits.argmax(axis=1)  # np.argmax picks the lowest tied index
    return float((pred == labels).mean())


@dataclass
class CompatReport:
    """The three ordering metrics plus the verdict flags computed from them."""
    task: str
    metric: str
    m_old_old: float
    m_old_new: float
    m_new_new: float | None
    seeds: list
    config_digests: dict
    per_seed: dict
    left_ok: bool = field(init=False)
    right_ok: bool | None = field(init=False)

    def __post_init__(self):
        self.left_ok = bool(self.m_old_old < self.m_old_new)
        self.right_ok = (None if self.m_new_new is None
                         else bool(self.m_old_new < self.m_new_new))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def canonical_caption_gallery(text_weights, gallery_seed=_EVAL["gallery_seed"]) -> np.ndarray:
    """Text features for one caption per latent factor (gallery index ==
    factor index)."""
    captions = np.stack([
        render_caption(LatentFactor.from_index(i), gallery_seed + i)
        for i in range(NUM_FACTORS)
    ])
    assert captions.shape == (NUM_FACTORS, CAPTION_LEN)
    return encode_chunked(lambda c: encode_text(text_weights, c), captions)


def _refuse_unless_forced(msg: str, force: bool) -> None:
    if not force:
        raise ConfigError(msg + " (use --force to override)")
    print(f"warning: {msg}", file=sys.stderr)


def hot_plug_report(old_ckpt: Checkpoint, taca_ckpt: Checkpoint,
                    new_ckpt: Checkpoint | None, eval_dataset: Dataset,
                    task: str, k: int = _EVAL["k"], head_seeds=_EVAL["head_seeds"],
                    gallery_seed: int = _EVAL["gallery_seed"],
                    force: bool = False) -> CompatReport:
    """Build the compatibility-ordering report for one trained pipeline.

    The hot-plugged encoder is rebuilt from the attachment checkpoint, on its
    embedded backbone; ``new_ckpt`` gives the cold-plug upper bound and may be
    omitted. Each checkpoint is read first: a wrong kind is a ``FormatError``.
    Then each non-empty config digest is checked against the one the
    attachment recorded, and ``new_ckpt``'s visual encoder against the embedded
    backbone, bitwise: a mismatch is a ``ConfigError``, or with ``force`` a
    warning. ``k``, ``head_seeds`` and ``gallery_seed`` default to the default
    config's ``eval`` section. Each encoder encodes the eval split once; with
    an adapter hook, the hot-plugged and cold-plug encoders go on from one fork
    of each chunk there (``adapted.fork``). For classification the first half
    trains the heads and the second is scored.
    """
    old_visual, old_text, _ = clip_encoders_from_checkpoint(old_ckpt)
    new_visual = new_text = None
    if new_ckpt is not None:
        new_visual, new_text, _ = clip_encoders_from_checkpoint(new_ckpt)
    _, adapted = attachment_from_checkpoint(taca_ckpt)
    digests = {role: "" if ckpt is None else ckpt.meta.get("config_digest", "")
               for role, ckpt in (("old", old_ckpt), ("taca", taca_ckpt), ("new", new_ckpt))}
    for role in ("old", "new"):
        recorded, actual = taca_ckpt.meta.get(f"{role}_checkpoint_digest", ""), digests[role]
        if recorded and actual and recorded != actual:
            _refuse_unless_forced(
                f"{role} checkpoint digest {actual[:12]} does not match the digest "
                f"recorded at attachment training time {recorded[:12]}", force)
    if task not in ("retrieval", "classification"):
        raise ConfigError(f"unknown task {task!r}")
    n = len(eval_dataset)
    if task == "classification" and n < 4:
        raise ConfigError("evaluation dataset too small to split")
    if adapted.attachment.projector.dim_old != old_visual.config.embed_dim:
        raise ConfigError(
            f"projector output dim {adapted.attachment.projector.dim_old} "
            f"!= old embed dim {old_visual.config.embed_dim}")
    shared = new_visual is not None  # one backbone pass up to the first adapter
    if shared and (differs := new_visual.first_difference(adapted.weights)) is not None:
        _refuse_unless_forced(
            f"new checkpoint visual tensor {differs!r} is not bitwise equal to "
            f"the backbone embedded in the attachment", force)
        shared = False
    shared = shared and adapted.attachment.first_site() is not None

    def encode(x):  # a chunk's old, hot-plug and, with new_ckpt, cold-plug features
        batch = adapted.fork(x) if shared else x
        cold = () if new_visual is None else (encode_image(new_visual, batch),)
        return encode_image(old_visual, x), adapted.encode(batch), *cold

    labels = eval_dataset.factor_indices()
    old_feats, adapted_feats, *new_feats = encode_chunked(encode, eval_dataset.images)
    new_feats = new_feats[0] if new_feats else None

    if task == "retrieval":
        gallery_old = canonical_caption_gallery(old_text, gallery_seed)
        m_old_old = recall_at_k(old_feats, gallery_old, labels, k)
        m_old_new = recall_at_k(adapted_feats, gallery_old, labels, k)
        m_new_new = None if new_ckpt is None else recall_at_k(
            new_feats, canonical_caption_gallery(new_text, gallery_seed), labels, k)
        return CompatReport("retrieval", f"recall@{k}", m_old_old, m_old_new,
                            m_new_new, [], digests, {})

    half = n // 2
    heads = lambda feats: train_head(feats[:half], labels[:half], NUM_FACTORS,
                                     seeds=head_seeds)
    top1 = lambda head, feats: eval_top1(head, feats[half:], labels[half:])
    per_seed = {"m_old_old": [], "m_old_new": [], "m_new_new": []}
    for head in heads(old_feats):
        frozen = (head.weight.copy(), head.bias.copy())
        per_seed["m_old_old"].append(top1(head, old_feats))
        per_seed["m_old_new"].append(top1(head, adapted_feats))
        if not (np.array_equal(frozen[0], head.weight)
                and np.array_equal(frozen[1], head.bias)):
            raise ContractError("old head mutated during hot-plug evaluation")
    if new_ckpt is not None:
        per_seed["m_new_new"] = [top1(head, new_feats) for head in heads(new_feats)]
    med = lambda xs: float(np.median(xs)) if xs else None
    return CompatReport("classification", "top1", med(per_seed["m_old_old"]),
                        med(per_seed["m_old_new"]), med(per_seed["m_new_new"]),
                        list(head_seeds), digests, per_seed)


def raw_swap_baseline(old_ckpt: Checkpoint, new_ckpt: Checkpoint,
                      eval_dataset: Dataset, seed: int, k: int = _EVAL["k"]) -> float:
    """No-compatibility control: the new encoder bridged to the old dimension
    by a random untrained linear map, scored on the retrieval proxy."""
    old_visual, old_text, _ = clip_encoders_from_checkpoint(old_ckpt)
    new_visual, _, _ = clip_encoders_from_checkpoint(new_ckpt)
    rng = np.random.default_rng(seed)
    bridge = rng.normal(0.0, 1.0, size=(new_visual.config.embed_dim,
                                        old_visual.config.embed_dim))

    feats = encode_chunked(lambda x: ad.l2_normalize_rows(
        ad.Tensor(encode_image(new_visual, x).values @ bridge)), eval_dataset.images)
    gallery = canonical_caption_gallery(old_text)
    return recall_at_k(feats, gallery, eval_dataset.factor_indices(), k)
