import numpy as np
import pytest

from hotplug.data import (
    CAPTION_LEN,
    COLOR_TOKEN_BASE,
    DISTRACTOR_BASE,
    NUM_FACTORS,
    POSITION_TOKEN_BASE,
    SHAPE_TOKEN_BASE,
    VOCAB_SIZE,
    Dataset,
    LatentFactor,
    attribute_tokens,
    generate_dataset,
    latent_from_caption,
    load_dataset,
    render_caption,
    render_image,
    save_dataset,
)
from hotplug.encoders import ImageSpec
from hotplug.errors import FormatError, ParameterError, TruncatedFileError

SPEC = ImageSpec(16, 16, 1, 4)


def same_dataset(a: Dataset, b: Dataset) -> bool:
    return (a.spec == b.spec and a.seed == b.seed and a.config_digest == b.config_digest
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("images", "captions", "latents")))


class TestLatentFactor:
    def test_index_round_trip(self):
        latents = [LatentFactor.from_index(i) for i in range(NUM_FACTORS)]
        ds = Dataset(SPEC, np.zeros((NUM_FACTORS, 16, 16, 1)),
                     np.zeros((NUM_FACTORS, CAPTION_LEN), dtype=np.uint32),
                     np.array([(z.shape_id, z.color_level, z.position_id) for z in latents],
                              dtype=np.uint8), seed=0)
        assert ds.factor_indices().tolist() == list(range(NUM_FACTORS))

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            LatentFactor(4, 0, 0)
        with pytest.raises(ParameterError):
            LatentFactor.from_index(NUM_FACTORS)


class TestRenderImage:
    def test_quadrant_mass(self):
        # The glyph's quadrant must carry clearly more mass than the others.
        for pos in range(4):
            z = LatentFactor(0, 3, pos)
            img = render_image(z, 0, SPEC)[:, :, 0]
            quads = [img[:8, :8], img[:8, 8:], img[8:, :8], img[8:, 8:]]
            masses = [q.sum() for q in quads]
            assert int(np.argmax(masses)) == pos
            others = [m for i, m in enumerate(masses) if i != pos]
            assert masses[pos] > 2 * max(others)

    def test_intensity_scales_with_color(self):
        sums = [render_image(LatentFactor(0, c, 0), 0, SPEC).sum()
                for c in range(4)]
        assert sums == sorted(sums)

    def test_range_and_shape(self):
        img = render_image(LatentFactor(2, 3, 1), 5, SPEC)
        assert img.shape == (16, 16, 1)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_deterministic_in_seed(self):
        a = render_image(LatentFactor(1, 2, 3), 42, SPEC)
        b = render_image(LatentFactor(1, 2, 3), 42, SPEC)
        assert np.array_equal(a, b)
        c = render_image(LatentFactor(1, 2, 3), 43, SPEC)
        assert not np.array_equal(a, c)

    def test_shapes_differ(self):
        imgs = [render_image(LatentFactor(s, 3, 0), 0, SPEC) for s in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(imgs[i], imgs[j])


class TestRenderCaption:
    def test_tokens_present_plus_distractor(self):
        z = LatentFactor(2, 1, 3)
        cap = render_caption(z, 7)
        assert cap.shape == (CAPTION_LEN,)
        expected = set(attribute_tokens(z))
        extras = [t for t in cap.tolist() if t not in expected]
        assert len(extras) == 1
        assert DISTRACTOR_BASE <= extras[0] < VOCAB_SIZE

    def test_latent_recovery_is_injective(self):
        for i in range(NUM_FACTORS):
            z = LatentFactor.from_index(i)
            assert latent_from_caption(render_caption(z, i)) == z

    def test_recovery_rejects_distractor_only(self):
        with pytest.raises(ParameterError):
            latent_from_caption(np.array([DISTRACTOR_BASE] * 4))

    def test_token_ranges_disjoint(self):
        assert SHAPE_TOKEN_BASE < COLOR_TOKEN_BASE < POSITION_TOKEN_BASE \
            < DISTRACTOR_BASE < VOCAB_SIZE


class TestGenerateDataset:
    def test_deterministic(self):
        a = generate_dataset(32, 7, SPEC)
        b = generate_dataset(32, 7, SPEC)
        assert same_dataset(a, b)

    def test_different_seed_differs(self):
        a = generate_dataset(32, 7, SPEC)
        b = generate_dataset(32, 8, SPEC)
        assert not np.array_equal(a.images, b.images)

    def test_prefix_stability(self):
        # Record i depends only on (seed, i), not on n.
        small = generate_dataset(8, 7, SPEC)
        large = generate_dataset(16, 7, SPEC)
        assert np.array_equal(small.images, large.images[:8])
        assert np.array_equal(small.captions, large.captions[:8])

    def test_latent_histogram_near_uniform(self):
        ds = generate_dataset(4096, 3, SPEC)
        counts = np.bincount(ds.factor_indices(), minlength=NUM_FACTORS)
        expected = 4096 / NUM_FACTORS
        assert counts.min() > expected * 0.5
        assert counts.max() < expected * 1.5

    def test_captions_match_latents(self):
        ds = generate_dataset(64, 11, SPEC)
        for i in range(len(ds)):
            z = latent_from_caption(ds.captions[i])
            assert LatentFactor.from_index(int(ds.factor_indices()[i])) == z

    def test_nearest_centroid_position_recovery(self):
        # Images carry their position so strongly that a nearest-centroid
        # classifier on raw pixels recovers it almost perfectly.
        train = generate_dataset(512, 5, SPEC)
        test = generate_dataset(256, 6, SPEC)
        pos_train = train.latents[:, 2]
        flat_train = train.images.reshape(len(train), -1)
        centroids = np.stack([flat_train[pos_train == p].mean(axis=0)
                              for p in range(4)])
        flat_test = test.images.reshape(len(test), -1)
        pred = np.argmax(flat_test @ centroids.T, axis=1)
        acc = (pred == test.latents[:, 2]).mean()
        assert acc > 0.9

    def test_single_sample(self):
        ds = generate_dataset(1, 0, SPEC)
        assert len(ds) == 1

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            generate_dataset(0, 0, SPEC)


class TestDatasetFile:
    def test_round_trip_bitwise(self, tmp_path):
        ds = generate_dataset(16, 9, SPEC, config_digest="abc123")
        path = tmp_path / "d.tacd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert same_dataset(loaded, ds)
        assert loaded.config_digest == "abc123"

    def test_save_is_deterministic(self, tmp_path):
        ds = generate_dataset(8, 1, SPEC)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_bad_version(self, tmp_path):
        ds = generate_dataset(4, 0, SPEC)
        path = tmp_path / "d"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated(self, tmp_path):
        ds = generate_dataset(4, 0, SPEC)
        path = tmp_path / "d"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        ds = generate_dataset(4, 0, SPEC)
        path = tmp_path / "d"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            load_dataset(path)
