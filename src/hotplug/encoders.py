"""Toy-scale dual encoders: a patch-based visual transformer and a text
transformer, both projecting into a shared unit-normalized embedding space.

Each encoder is a per-modality stem (patches, CLS and positions; tokens and
positions) feeding one shared trunk: pre-norm blocks with GELU feed-forwards
(expansion 4x), then ``ln_f``, ``proj`` and unit-normalization of the readout
row, so downstream losses can treat dot products as cosine similarities. All
forwards are pure functions of the weights and inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, ParameterError, check_fields

FFN_EXPANSION = 4
INIT_STD = 0.02
# Rows per no-grad encode. Chunks of 2 to 256 rows give bitwise-equal features
# (OpenBLAS, default encoders); a 1-row chunk, numpy's GEMV path, differs, so
# encode_chunked folds a 1-row tail into the chunk before it (64 + 1 rows).
ENCODE_CHUNK = 64


@dataclass(frozen=True)
class ImageSpec:
    height: int
    width: int
    channels: int
    patch: int

    def __post_init__(self):
        check_fields(self)
        if self.height % self.patch or self.width % self.patch:
            raise ConfigError(
                f"patch size {self.patch} must divide image {self.height}x{self.width}")

    @property
    def num_patches(self) -> int:
        return (self.height * self.width) // (self.patch * self.patch)

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * self.channels


@dataclass(frozen=True)
class VisualEncoderConfig:
    image_spec: ImageSpec
    layers: int
    width: int
    heads: int
    embed_dim: int

    def __post_init__(self):
        if isinstance(self.image_spec, dict):  # as read back from metadata
            object.__setattr__(self, "image_spec", ImageSpec(**self.image_spec))
        check_fields(self)
        if self.width % self.heads:
            raise ConfigError(f"heads {self.heads} must divide width {self.width}")


@dataclass(frozen=True)
class TextEncoderConfig:
    vocab_size: int
    max_len: int
    layers: int
    width: int
    heads: int
    embed_dim: int
    cls_id: int
    sep_id: int

    def __post_init__(self):
        check_fields(self, cls_id=0, sep_id=0)
        if self.cls_id == self.sep_id:
            raise ConfigError("cls_id and sep_id must differ")
        if self.cls_id >= self.vocab_size or self.sep_id >= self.vocab_size:
            raise ConfigError("cls/sep ids must be < vocab_size")
        if self.width % self.heads:
            raise ConfigError(f"heads {self.heads} must divide width {self.width}")


class EncoderWeights:
    """Named parameter map for one encoder; order of creation is fixed."""

    def __init__(self, config, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def tensors(self):
        return self.params.values()

    def set_trainable(self, flag: bool):
        for t in self.params.values():
            t.trainable = flag

    def clone_values(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.params.items()}


def _init_block(rng: np.random.Generator, params, prefix: str, width: int):
    """A gain starts at 1, any other vector at 0; a matrix is N(0, 1/fan_in)."""
    k, f = width, FFN_EXPANSION * width
    shapes = {
        "ln1.gain": (k,), "ln1.bias": (k,),
        "attn.wq": (k, k), "attn.bq": (k,),
        "attn.wk": (k, k),
        "attn.wv": (k, k), "attn.bv": (k,),
        "attn.wo": (k, k), "attn.bo": (k,),
        "ln2.gain": (k,), "ln2.bias": (k,),
        "ffn.w1": (k, f), "ffn.b1": (f,),
        "ffn.w2": (f, k), "ffn.b2": (k,),
    }
    for name, shape in shapes.items():
        if len(shape) == 2:
            values = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        else:
            values = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        params[f"{prefix}.{name}"] = Tensor(values)


def init_encoder(config, seed: int) -> EncoderWeights:
    """Seeded weight initialization; same (config, seed) gives identical weights."""
    rng = np.random.default_rng(seed)
    k = config.width

    def normal(*shape):
        return Tensor(rng.normal(0.0, INIT_STD, size=shape))

    if isinstance(config, VisualEncoderConfig):
        spec = config.image_spec
        params = {"patch_embed": normal(spec.patch_dim, k),
                  "patch_bias": Tensor(np.zeros(k)),
                  "cls_token": normal(k),
                  "pos_embed": normal(spec.num_patches + 1, k)}
    elif isinstance(config, TextEncoderConfig):
        params = {"tok_embed": normal(config.vocab_size, k),
                  "pos_embed": normal(config.max_len, k)}
    else:
        raise ConfigError(f"unknown encoder config type: {type(config).__name__}")
    for i in range(config.layers):
        _init_block(rng, params, f"block{i}", k)
    params["ln_f.gain"] = Tensor(np.ones(k))
    params["ln_f.bias"] = Tensor(np.zeros(k))
    params["proj"] = normal(k, config.embed_dim)
    return EncoderWeights(config, params)


def _patchify_batch(images: np.ndarray, spec: ImageSpec) -> np.ndarray:
    """(B, H, W, C) images to (B, patches, patch_dim): patches row-major over the
    grid; inside a patch, pixels row-major with the channel varying fastest."""
    b = images.shape[0]
    gh = spec.height // spec.patch
    gw = spec.width // spec.patch
    x = images.reshape(b, gh, spec.patch, gw, spec.patch, spec.channels)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, gh * gw, spec.patch_dim)


def _attention(params, prefix: str, x: Tensor, heads: int, attachment=None,
               layer: int | None = None) -> Tensor:
    b, t, k = x.shape
    dh = k // heads
    wq, wv = params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.wv"]
    if attachment is not None:
        wq, wv = attachment.qv_weights(layer, wq, wv)
    q = ad.matmul(x, wq, params[f"{prefix}.attn.bq"])
    kk = ad.matmul(x, params[f"{prefix}.attn.wk"])  # no key bias: the softmax cancels it
    v = ad.matmul(x, wv, params[f"{prefix}.attn.bv"])

    def split(h):
        return ad.transpose(ad.reshape(h, (b, t, heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(kk), split(v)
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ad.softmax_rows(scores)
    mixed = ad.matmul(attn, vh)
    merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (b, t, k))
    return ad.matmul(merged, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])


def _trunk(weights: EncoderWeights, x: Tensor, readout: int,
           attachment=None, collect=None) -> Tensor:
    """The blocks, then ``ln_f``, ``proj`` and unit-normalization of row ``readout``.

    The last block keeps only that row after its attention residual, so its FFN
    runs on (B, width). The embedding is (B, d).
    """
    cfg, params = weights.config, weights.params
    for i in range(cfg.layers):
        p = f"block{i}"
        a_in = ad.layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        a_out = _attention(params, p, a_in, cfg.heads, attachment, i)
        if attachment is not None:
            a_out = attachment.apply_adapter(i, "attn", a_out)
        x = ad.add(x, a_out)
        if i == cfg.layers - 1:  # only the readout row reaches the embedding
            x = ad.index_select(x, 1, readout)
        f_in = ad.layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        h = ad.matmul(f_in, params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"])
        h = ad.elementwise_activation(h, "gelu")
        h = ad.matmul(h, params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"])
        if attachment is not None:
            h = attachment.apply_adapter(i, "ffn", h)
        x = ad.add(x, h)
        if collect is not None:
            collect.append(x.values.copy())
    head = ad.layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])
    return ad.l2_normalize_rows(ad.matmul(head, params["proj"]))


def encode_image(weights: EncoderWeights, images, attachment=None,
                 return_blocks: bool = False):
    """Embed an image batch (B, H, W, C) to a (B, d) tensor of unit vectors.

    With ``return_blocks`` also returns the per-block hidden states (values only):
    (B, T, width) for every block but the last, whose entry is the CLS row
    alone, (B, width).
    """
    if not isinstance(weights.config, VisualEncoderConfig):
        raise ConfigError("encode_image requires visual weights")
    cfg = weights.config
    spec = cfg.image_spec
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != (spec.height, spec.width, spec.channels):
        raise DimensionError(
            f"image batch shape {images.shape} does not match spec "
            f"(B, {spec.height}, {spec.width}, {spec.channels})")
    b, t, k = images.shape[0], spec.num_patches + 1, cfg.width
    params = weights.params
    patches = Tensor(_patchify_batch(images, spec))
    x = ad.matmul(patches, params["patch_embed"], params["patch_bias"])
    cls = ad.broadcast_to(ad.reshape(params["cls_token"], (1, 1, k)), (b, 1, k))
    x = ad.concat([cls, x], axis=1)
    pos = ad.broadcast_to(ad.reshape(params["pos_embed"], (1, t, k)), (b, t, k))
    x = ad.add(x, pos)
    collect = [] if return_blocks else None
    emb = _trunk(weights, x, 0, attachment, collect)  # CLS row
    return (emb, collect) if return_blocks else emb


def encode_chunked(encode, inputs) -> np.ndarray:
    """``encode``'s Tensor values, ENCODE_CHUNK rows at a time, under no_grad."""
    stops = [*range(ENCODE_CHUNK, inputs.shape[0] - 1, ENCODE_CHUNK), inputs.shape[0]]
    with ad.no_grad():  # no 1-row chunk unless the input has 1 row
        chunks = [encode(inputs[a:b]).values for a, b in zip([0, *stops], stops)]
    return np.concatenate(chunks, axis=0)


def encode_text(weights: EncoderWeights, tokens) -> Tensor:
    """Embed a batch of token id sequences (B, T); CLS/SEP are added here.

    The final-layer hidden state at the SEP position is projected and
    unit-normalized.
    """
    if not isinstance(weights.config, TextEncoderConfig):
        raise ConfigError("encode_text requires text weights")
    cfg = weights.config
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise DimensionError(f"token batch shape {tokens.shape} is not (B, T)")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        raise ParameterError(
            f"token id out of range for vocab_size {cfg.vocab_size}")
    b, t = tokens.shape
    if t + 2 > cfg.max_len:
        raise DimensionError(
            f"sequence length {t} + CLS/SEP exceeds max_len {cfg.max_len}")
    full = np.concatenate([
        np.full((b, 1), cfg.cls_id, dtype=tokens.dtype),
        tokens,
        np.full((b, 1), cfg.sep_id, dtype=tokens.dtype),
    ], axis=1)
    seq, k = t + 2, cfg.width
    params = weights.params
    x = ad.embedding_lookup(params["tok_embed"], full)
    pos_rows = ad.embedding_lookup(params["pos_embed"], np.arange(seq))
    pos = ad.broadcast_to(ad.reshape(pos_rows, (1, seq, k)), (b, seq, k))
    x = ad.add(x, pos)
    return _trunk(weights, x, seq - 1)  # SEP row
