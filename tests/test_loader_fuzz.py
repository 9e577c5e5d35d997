"""Damaged artifacts: both binary loaders either load a file or raise
``FormatError``, never another exception, and so does rebuilding encoders and
attachments from checkpoint metadata.

The artifacts are a tiny ``.tacd`` and a tiny ``.tack``. Every truncation is
tried; single-byte XORs are drawn by hypothesis from a fixed seed. The
metadata of a tiny trained CLIP checkpoint and attachment checkpoint loses or
renames each of its keys in turn, nested keys included.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from hotplug.data import generate_dataset, load_dataset, save_dataset
from hotplug.encoders import ImageSpec, TextEncoderConfig, VisualEncoderConfig
from hotplug.errors import FormatError
from hotplug.peft import TacaConfig
from hotplug.training import (
    Checkpoint,
    TrainConfig,
    attachment_from_checkpoint,
    clip_encoders_from_checkpoint,
    load_checkpoint,
    pretrain_clip,
    save_checkpoint,
    train_taca,
)


def _tiny_dataset(path):
    save_dataset(generate_dataset(2, 0, ImageSpec(4, 4, 1, 2),
                                  config_digest="ab" * 4), path)
    return load_dataset


def _tiny_checkpoint(path):
    rng = np.random.default_rng(0)
    save_checkpoint(Checkpoint({"kind": "clip", "steps": 3},
                               {"visual/w": rng.normal(size=(2, 3)),
                                "text/b": rng.normal(size=2)}), path)
    return load_checkpoint


@pytest.mark.parametrize("make", [_tiny_dataset, _tiny_checkpoint])
def test_damaged_file_loads_or_raises_format_error(tmp_path, make):
    loader = make(tmp_path / "tiny")
    blob = (tmp_path / "tiny").read_bytes()
    damaged = tmp_path / "damaged"

    for length in range(len(blob)):
        damaged.write_bytes(blob[:length])
        with pytest.raises(FormatError):
            loader(damaged)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(offset=st.integers(0, len(blob) - 1), mask=st.integers(1, 255))
    def flip_one_byte(offset, mask):
        flipped = bytearray(blob)
        flipped[offset] ^= mask
        damaged.write_bytes(bytes(flipped))
        try:
            loader(damaged)
        except FormatError:
            pass

    # Hypothesis caches source constants even without a database; keep that
    # cache out of the working directory.
    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        flip_one_byte()
    finally:
        set_hypothesis_home_dir(None)


def _trained_checkpoints():
    """A CLIP pair and an attachment, each trained for one step."""
    spec = ImageSpec(4, 4, 1, 2)
    dataset = generate_dataset(4, 0, spec)
    text = TextEncoderConfig(vocab_size=32, max_len=6, layers=1, width=8,
                             heads=2, embed_dim=4, cls_id=0, sep_id=1)
    one_step = TrainConfig(steps=1, batch_size=2)
    old = pretrain_clip(VisualEncoderConfig(spec, 1, 8, 2, 4), text, dataset,
                        one_step)
    new = pretrain_clip(VisualEncoderConfig(spec, 2, 8, 2, 4), text, dataset,
                        one_step)
    taca, _ = train_taca(old, new, TacaConfig(bottleneck=2, projector_hidden=4,
                                              inserted_layers=[2]),
                         dataset, one_step)
    return old, taca


def _key_paths(meta, prefix=()):
    for key, value in meta.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def test_metadata_without_a_key_rebuilds_or_raises_format_error():
    old, taca = _trained_checkpoints()
    cases = 0
    for ckpt, rebuild in ((old, clip_encoders_from_checkpoint),
                          (taca, attachment_from_checkpoint)):
        rebuild(ckpt)
        for path in list(_key_paths(ckpt.meta)):
            for rename in (False, True):
                meta = copy.deepcopy(ckpt.meta)
                parent = meta
                for key in path[:-1]:
                    parent = parent[key]
                value = parent.pop(path[-1])
                if rename:
                    parent[path[-1] + "_renamed"] = value
                try:
                    rebuild(Checkpoint(meta, ckpt.tensors))
                except FormatError:
                    pass
                cases += 1
    assert cases > 80
