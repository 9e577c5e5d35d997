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
# train_taca's cache relies on the same rows-per-GEMM invariance: the y of
# the image_fork it forms in these chunks is bitwise what its training batches
# (32 rows by default) would form.
ENCODE_CHUNK = 64
# A block's adapter hook points, in forward order: the attention output and the
# FFN output. A LoRA update acts inside the attention weights, so it has none.
SITES = ("attn", "ffn")


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

    def clone(self) -> "EncoderWeights":
        return EncoderWeights(self.config, {name: Tensor(t.values.copy())
                                            for name, t in self.params.items()})

    def first_difference(self, other: "EncoderWeights") -> str | None:
        """The first parameter that is not bitwise equal in ``other`` (or that
        only one of the two has); None when none is."""
        mine, theirs = self.params, other.params
        return next((name for name in dict.fromkeys([*mine, *theirs])
                     if name not in mine or name not in theirs
                     or not np.array_equal(mine[name].values, theirs[name].values)), None)


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


def _attention(params, prefix: str, x: Tensor, heads: int) -> Tensor:
    b, t, k = x.shape
    dh = k // heads
    q = ad.matmul(x, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"])
    kk = ad.matmul(x, params[f"{prefix}.attn.wk"])  # no key bias: the softmax cancels it
    v = ad.matmul(x, params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"])

    def split(h):
        return ad.transpose(ad.reshape(h, (b, t, heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(kk), split(v)
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ad.softmax_rows(scores)
    mixed = ad.matmul(attn, vh)
    merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (b, t, k))
    return ad.matmul(merged, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])


def _trunk(weights: EncoderWeights, fork: tuple, readout: int,
           attachment=None, collect=None, stop=None):
    """From ``fork`` on: the blocks, then ``ln_f``, ``proj`` and unit-normalization
    of row ``readout``, a (B, d) embedding.

    A fork (block, site, x, y) is the state at a site's hook: the residual stream
    ``x`` and the output ``y`` the hook acts on, or None where that output is not
    formed yet; the stem's is (0, "attn", stem, None). With ``stop`` =
    (block, site) the trunk returns its fork there before forming ``y``;
    ``_site_output`` forms it. The last block keeps only the readout row after
    its attention residual, so its FFN runs on (B, width).
    An ``attachment`` reaches the backbone here alone: its weights once per
    pass, through ``weights_on``, its activations through ``apply_adapter``.
    """
    if attachment is not None:
        weights = attachment.weights_on(weights)
    cfg = weights.config
    first, site, x, y = fork
    for i in range(first, cfg.layers):
        for s in SITES[SITES.index(site) if i == first else 0:]:
            if (i, s) == stop:
                return i, s, x, y
            if y is None:
                y = _site_output(weights, (i, s, x, None))
            if attachment is not None:
                y = attachment.apply_adapter(i, s, y)
            x, y = ad.add(x, y), None
            if s == "attn" and i == cfg.layers - 1:  # only the readout row goes on
                x = ad.index_select(x, 1, readout)
            elif s == "ffn" and collect is not None:
                collect.append(x.values.copy())
    params = weights.params
    head = ad.layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])
    return ad.l2_normalize_rows(ad.matmul(head, params["proj"]))


def _site_output(weights: EncoderWeights, fork: tuple):
    """The output a fork's site hooks, formed from its residual stream: the
    attention's at "attn", the FFN's at "ffn"."""
    i, site, x, _ = fork
    params, p = weights.params, f"block{i}"
    if site == "attn":
        a_in = ad.layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        return _attention(params, p, a_in, weights.config.heads)
    f_in = ad.layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
    h = ad.matmul(f_in, params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"])
    h = ad.elementwise_activation(h, "gelu")
    return ad.matmul(h, params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"])


def _image_stem(weights: EncoderWeights, batch) -> tuple:
    """The trunk's starting fork for a batch: the batch itself if it is a fork,
    else the stem of its images (B, H, W, C): patches, CLS and positions."""
    if not isinstance(weights.config, VisualEncoderConfig):
        raise ConfigError("encode_image requires visual weights")
    if isinstance(batch, tuple) and len(batch) == 4 and isinstance(batch[2], Tensor):
        return batch
    images, cfg = batch, weights.config
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
    return 0, "attn", ad.add(x, pos), None


def image_fork(weights: EncoderWeights, images, site: tuple, y=None) -> tuple:
    """An image batch's fork at adapter ``site`` = (block, one of SITES): the
    residual stream there and the output the hook there acts on. Given ``y``,
    this batch's output values at ``site`` from an earlier fork, only the
    residual stream is formed (for block 0's "ffn": the stem, LN1, attention
    and residual). A fork stands for its batch in ``encode_image``."""
    if site not in [(i, s) for i in range(weights.config.layers) for s in SITES]:
        raise ParameterError(f"site {site!r} is not a (block, site) of this encoder")
    fork = _trunk(weights, _image_stem(weights, images), 0, stop=site)
    if y is not None and np.shape(y) != fork[2].shape:
        raise DimensionError(f"site output {np.shape(y)} does not fit stream {fork[2].shape}")
    return (*fork[:3], _site_output(weights, fork) if y is None else Tensor(y))


def encode_image(weights: EncoderWeights, batch, attachment=None,
                 return_blocks: bool = False):
    """Embed a batch, images (B, H, W, C) or their ``image_fork``, to a (B, d)
    tensor of unit vectors; from a fork, bitwise equal to the whole pass. With
    ``return_blocks`` also returns the per-block hidden states (values only):
    (B, T, width) for every block but the last, whose entry is the CLS row
    alone, (B, width); from a fork they start at its block."""
    collect = [] if return_blocks else None
    emb = _trunk(weights, _image_stem(weights, batch), 0, attachment, collect)  # CLS row
    return (emb, collect) if return_blocks else emb


def encode_chunked(encode, inputs):
    """``encode``'s Tensor values, ENCODE_CHUNK rows at a time, under no_grad,
    each written into one array allocated for all rows. An ``encode`` that
    returns a tuple of Tensors gives a tuple of arrays."""
    n = inputs.shape[0]
    stops = [*range(ENCODE_CHUNK, n - 1, ENCODE_CHUNK), n]
    outs = None
    with ad.no_grad():  # no 1-row chunk unless the input has 1 row
        for a, b in zip([0, *stops], stops):
            got = encode(inputs[a:b])
            parts = (got,) if isinstance(got, Tensor) else got
            if outs is None:
                outs = [np.empty((n, *t.shape[1:])) for t in parts]
            for out, t in zip(outs, parts):
                out[a:b] = t.values
    return outs[0] if isinstance(got, Tensor) else tuple(outs)


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
    return _trunk(weights, (0, "attn", ad.add(x, pos), None), seq - 1)  # SEP row
