"""Damaged artifacts: both binary loaders either load a file or raise
``FormatError``, never another exception.

The artifacts are a tiny ``.tacd`` and a tiny ``.tack``. Every truncation is
tried; single-byte XORs are drawn by hypothesis from a fixed seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from hotplug.data import generate_dataset, load_dataset, save_dataset
from hotplug.encoders import ImageSpec
from hotplug.errors import FormatError
from hotplug.training import Checkpoint, load_checkpoint, save_checkpoint


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
