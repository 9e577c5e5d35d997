"""Procedural paired image/caption samples driven by shared latent factors.

Each sample is generated from a (shape, color, position) triple: the image
draws the glyph at the given intensity in one quadrant, and the caption lists
one token per attribute plus a random distractor. The binary dataset file
round-trips bitwise.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .encoders import ImageSpec
from .errors import ConfigError, FormatError, ParameterError, TruncatedFileError

DATASET_MAGIC = b"TACD"
DATASET_VERSION = 1

NUM_SHAPES = 4
NUM_COLORS = 4
NUM_POSITIONS = 4
NUM_FACTORS = NUM_SHAPES * NUM_COLORS * NUM_POSITIONS

NOISE_AMPLITUDE = 0.05
CAPTION_LEN = 4  # three attribute tokens + one distractor

# Token id layout (vocab 32): control ids, then disjoint attribute ranges,
# then distractors.
CLS_ID = 0
SEP_ID = 1
SHAPE_TOKEN_BASE = 4
COLOR_TOKEN_BASE = 8
POSITION_TOKEN_BASE = 12
DISTRACTOR_BASE = 16
VOCAB_SIZE = 32


@dataclass(frozen=True)
class LatentFactor:
    shape_id: int
    color_level: int
    position_id: int

    def __post_init__(self):
        if not (0 <= self.shape_id < NUM_SHAPES
                and 0 <= self.color_level < NUM_COLORS
                and 0 <= self.position_id < NUM_POSITIONS):
            raise ParameterError(f"latent factor out of range: {self}")

    @property
    def index(self) -> int:
        return (self.shape_id * NUM_COLORS + self.color_level) * NUM_POSITIONS \
            + self.position_id

    @classmethod
    def from_index(cls, index: int) -> "LatentFactor":
        if not 0 <= index < NUM_FACTORS:
            raise ParameterError(f"factor index {index} out of range")
        position = index % NUM_POSITIONS
        color = (index // NUM_POSITIONS) % NUM_COLORS
        shape = index // (NUM_POSITIONS * NUM_COLORS)
        return cls(shape, color, position)


def _glyph_mask(shape_id: int, q: int) -> np.ndarray:
    """Glyph drawn on a q x q quadrant: square, cross, diagonal, or ring."""
    mask = np.zeros((q, q))
    lo, hi = q // 4, q - q // 4
    if shape_id == 0:    # filled square
        mask[lo:hi, lo:hi] = 1.0
    elif shape_id == 1:  # cross
        mid = q // 2
        mask[mid - 1:mid + 1, :] = 1.0
        mask[:, mid - 1:mid + 1] = 1.0
    elif shape_id == 2:  # main diagonal band
        for i in range(q):
            mask[i, max(0, i - 1):min(q, i + 2)] = 1.0
    else:                # ring (outline of the square)
        mask[lo:hi, lo:hi] = 1.0
        mask[lo + 1:hi - 1, lo + 1:hi - 1] = 0.0
    return mask


def render_image(z: LatentFactor, noise_seed: int,
                 spec: ImageSpec) -> np.ndarray:
    """Draw the latent's glyph in its quadrant plus uniform noise, clipped to [0, 1]."""
    if spec.height % 2 or spec.width % 2:
        raise ConfigError("render_image requires even image dimensions")
    qh, qw = spec.height // 2, spec.width // 2
    if qh != qw:
        raise ConfigError("render_image requires square quadrants")
    rng = np.random.default_rng(noise_seed)
    image = rng.uniform(0.0, NOISE_AMPLITUDE,
                        size=(spec.height, spec.width, spec.channels))
    intensity = (z.color_level + 1) / 4.0
    row = (z.position_id // 2) * qh
    col = (z.position_id % 2) * qw
    glyph = _glyph_mask(z.shape_id, qh) * intensity
    image[row:row + qh, col:col + qw, :] += glyph[:, :, None]
    return np.clip(image, 0.0, 1.0)


def attribute_tokens(z: LatentFactor) -> tuple[int, int, int]:
    return (SHAPE_TOKEN_BASE + z.shape_id,
            COLOR_TOKEN_BASE + z.color_level,
            POSITION_TOKEN_BASE + z.position_id)


def render_caption(z: LatentFactor, noise_seed: int) -> np.ndarray:
    """Token ids: the three attribute tokens with one distractor inserted."""
    rng = np.random.default_rng(noise_seed)
    tokens = list(attribute_tokens(z))
    distractor = int(rng.integers(DISTRACTOR_BASE, VOCAB_SIZE))
    slot = int(rng.integers(0, len(tokens) + 1))
    tokens.insert(slot, distractor)
    return np.asarray(tokens, dtype=np.uint32)


def latent_from_caption(caption) -> LatentFactor:
    """Recover the latent from a caption's attribute tokens (injective)."""
    shape = color = position = None
    for tok in np.asarray(caption).tolist():
        if SHAPE_TOKEN_BASE <= tok < COLOR_TOKEN_BASE:
            shape = tok - SHAPE_TOKEN_BASE
        elif COLOR_TOKEN_BASE <= tok < POSITION_TOKEN_BASE:
            color = tok - COLOR_TOKEN_BASE
        elif POSITION_TOKEN_BASE <= tok < DISTRACTOR_BASE:
            position = tok - POSITION_TOKEN_BASE
    if shape is None or color is None or position is None:
        raise ParameterError(f"caption {caption} lacks a full attribute set")
    return LatentFactor(shape, color, position)


@dataclass(eq=False)
class Dataset:
    """In-memory paired dataset with a bit-exact binary file format."""
    spec: ImageSpec
    images: np.ndarray      # (n, H, W, C) float64 in [0, 1]
    captions: np.ndarray    # (n, CAPTION_LEN) uint32
    latents: np.ndarray     # (n, 3) uint8
    seed: int
    config_digest: str = ""

    def __len__(self):
        return self.images.shape[0]

    def factor_indices(self) -> np.ndarray:
        s, c, p = (self.latents[:, 0].astype(np.int64),
                   self.latents[:, 1].astype(np.int64),
                   self.latents[:, 2].astype(np.int64))
        return (s * NUM_COLORS + c) * NUM_POSITIONS + p

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.spec == other.spec
                and self.seed == other.seed
                and self.config_digest == other.config_digest
                and np.array_equal(self.images, other.images)
                and np.array_equal(self.captions, other.captions)
                and np.array_equal(self.latents, other.latents))


def _record_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(seed, index))


def generate_dataset(n: int, seed: int, spec: ImageSpec,
                     config_digest: str = "") -> Dataset:
    """n samples with uniformly drawn latents; per-record noise seeds derive
    deterministically from (seed, index)."""
    if n < 1:
        raise ParameterError(f"dataset size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    factor_idx = rng.integers(0, NUM_FACTORS, size=n)
    images = np.empty((n, spec.height, spec.width, spec.channels))
    captions = np.empty((n, CAPTION_LEN), dtype=np.uint32)
    latents = np.empty((n, 3), dtype=np.uint8)
    for i in range(n):
        z = LatentFactor.from_index(int(factor_idx[i]))
        child = _record_seed(seed, i).generate_state(2)
        images[i] = render_image(z, int(child[0]), spec)
        captions[i] = render_caption(z, int(child[1]))
        latents[i] = (z.shape_id, z.color_level, z.position_id)
    return Dataset(spec, images, captions, latents, seed, config_digest)


def write_header(fh, magic: bytes, version: int):
    fh.write(magic + struct.pack("<I", version))


def write_text(fh, text: str):
    blob = text.encode("utf-8")
    fh.write(struct.pack("<I", len(blob)) + blob)


class Frame:
    """Reader of the framing both binary artifacts share: a magic, a u32
    version, sized payloads, length-prefixed UTF-8 and no trailing bytes. A
    size beyond the bytes left in the file raises before anything is read."""

    def __init__(self, fh, magic: bytes, version: int, kind: str):
        self.fh, self.kind = fh, kind
        self.size = os.fstat(fh.fileno()).st_size
        got = self.read(4)
        if got != magic:
            raise FormatError(f"bad {kind} magic {got!r}")
        (got,) = self.unpack("<I")
        if got != version:
            raise FormatError(f"unsupported {kind} version {got}")

    def read(self, count: int) -> bytes:
        left = self.size - self.fh.tell()
        if count > left:
            raise TruncatedFileError(
                f"truncated file: expected {count} bytes, {left} left")
        return self.fh.read(count)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def text(self) -> str:
        (count,) = self.unpack("<I")
        try:
            return self.read(count).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"undecodable text in file: {exc}") from exc

    def array(self, dtype: str, shape, what: str, limit=None) -> np.ndarray:
        """Floats must be finite; integers must lie below ``limit``, if given."""
        dtype = np.dtype(dtype)
        values = np.frombuffer(self.read(math.prod(shape) * dtype.itemsize),
                               dtype).reshape(shape)
        if dtype.kind == "f" and not np.isfinite(values).all():
            raise FormatError(f"non-finite values in {what}")
        if limit is not None and (values >= limit).any():
            raise FormatError(f"{what} out of range: each must be below {limit}")
        return values.copy()

    def end(self):
        if self.fh.read(1):
            raise FormatError(f"trailing bytes after {self.kind} payload")


def save_dataset(dataset: Dataset, path):
    spec = dataset.spec
    with open(path, "wb") as fh:
        write_header(fh, DATASET_MAGIC, DATASET_VERSION)
        fh.write(struct.pack("<IIIII", len(dataset), spec.height, spec.width,
                             spec.channels, spec.patch))
        fh.write(struct.pack("<IIq", VOCAB_SIZE, CAPTION_LEN, dataset.seed))
        write_text(fh, dataset.config_digest)
        fh.write(dataset.latents.astype("<u1").tobytes())
        fh.write(dataset.images.astype("<f8").tobytes())
        fh.write(dataset.captions.astype("<u4").tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        frame = Frame(fh, DATASET_MAGIC, DATASET_VERSION, "dataset")
        n, h, w, c, p = frame.unpack("<IIIII")
        vocab, cap_len, seed = frame.unpack("<IIq")
        if vocab != VOCAB_SIZE or cap_len != CAPTION_LEN:
            raise FormatError(
                f"vocab/caption layout mismatch: {vocab}/{cap_len}")
        digest = frame.text()
        try:
            spec = ImageSpec(h, w, c, p)
        except ConfigError as exc:
            raise FormatError(f"corrupt dataset header: {exc}") from exc
        latents = frame.array("<u1", (n, 3), "dataset latent ids",
                              limit=(NUM_SHAPES, NUM_COLORS, NUM_POSITIONS))
        images = frame.array("<f8", (n, h, w, c), "dataset images")
        captions = frame.array("<u4", (n, cap_len), "dataset caption token ids",
                               limit=VOCAB_SIZE)
        frame.end()
    return Dataset(spec, images, captions, latents, int(seed), digest)
