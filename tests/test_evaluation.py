import json

import numpy as np
import pytest

from hotplug import autodiff as ad
from hotplug import evaluation
from hotplug.data import NUM_FACTORS, generate_dataset
from hotplug.encoders import (
    ImageSpec,
    TextEncoderConfig,
    VisualEncoderConfig,
    encode_image,
)
from hotplug.errors import ConfigError, ContractError, ParameterError
from hotplug.evaluation import (
    CompatReport,
    DownstreamHead,
    canonical_caption_gallery,
    eval_top1,
    hot_plug_report,
    raw_swap_baseline,
    recall_at_k,
    train_head,
)
from hotplug.training import (
    AdamW,
    TrainConfig,
    attachment_from_checkpoint,
    clip_encoders_from_checkpoint,
    pretrain_clip,
    train_taca,
)
from hotplug.peft import TacaConfig

SPEC = ImageSpec(16, 16, 1, 4)
OLD_VCFG = VisualEncoderConfig(SPEC, layers=1, width=16, heads=2, embed_dim=8)
NEW_VCFG = VisualEncoderConfig(SPEC, layers=2, width=24, heads=2, embed_dim=12)
TCFG = TextEncoderConfig(vocab_size=32, max_len=12, layers=1, width=16,
                         heads=2, embed_dim=8, cls_id=0, sep_id=1)
NEW_TCFG = TextEncoderConfig(vocab_size=32, max_len=12, layers=1, width=16,
                             heads=2, embed_dim=12, cls_id=0, sep_id=1)


@pytest.fixture(scope="module")
def tiny_pipeline():
    ds = generate_dataset(160, 5, SPEC)
    eva = generate_dataset(160, 6, SPEC)
    old = pretrain_clip(OLD_VCFG, TCFG, ds, TrainConfig(steps=30, batch_size=16, seed=0))
    new = pretrain_clip(NEW_VCFG, NEW_TCFG, ds,
                        TrainConfig(steps=30, batch_size=16, seed=1000))
    taca, _ = train_taca(old, new, TacaConfig(bottleneck=4), ds,
                         TrainConfig(steps=30, batch_size=16, seed=0))
    return ds, eva, old, new, taca


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestRecallAtK:
    GALLERY = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))

    def test_hand_case_ranks(self):
        # Query 0 ranks its truth first; query 1 ranks its truth last.
        queries = unit_rows(np.array([[1.0, 0.0], [1.0, -0.2]]))
        truth = np.array([0, 2])
        assert recall_at_k(queries, self.GALLERY, truth, 1) == 0.5
        assert recall_at_k(queries, self.GALLERY, truth, 3) == 1.0

    def test_k_equals_gallery_size(self):
        queries = unit_rows(np.random.default_rng(0).normal(size=(5, 2)))
        truth = np.zeros(5, dtype=int)
        assert recall_at_k(queries, self.GALLERY, truth, 3) == 1.0

    def test_self_retrieval(self):
        feats = unit_rows(np.random.default_rng(1).normal(size=(6, 4)))
        assert recall_at_k(feats, feats, np.arange(6), 1) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        queries = unit_rows(rng.normal(size=(20, 3)))
        gallery = unit_rows(rng.normal(size=(7, 3)))
        truth = rng.integers(0, 7, size=20)
        values = [recall_at_k(queries, gallery, truth, k) for k in range(1, 8)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_tie_breaks_toward_lower_index(self):
        gallery = np.array([[1.0, 0.0], [1.0, 0.0]])
        queries = np.array([[1.0, 0.0]])
        assert recall_at_k(queries, gallery, np.array([0]), 1) == 1.0
        assert recall_at_k(queries, gallery, np.array([1]), 1) == 0.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_per_query_loop_with_exact_ties(self, k):
        rng = np.random.default_rng(7)
        distinct = unit_rows(rng.normal(size=(4, 3)))
        gallery = distinct[[0, 1, 0, 2, 1, 3, 0, 2]]  # exact duplicate rows
        queries = np.concatenate([distinct, unit_rows(rng.normal(size=(26, 3)))])
        truth = rng.integers(0, len(gallery), size=len(queries))
        sims = queries @ gallery.T
        hits = 0
        for i in range(len(queries)):
            row, t = sims[i], truth[i]
            hits += int((row > row[t]).sum() + (row[:t] == row[t]).sum()) < k
        assert recall_at_k(queries, gallery, truth, k) == hits / len(queries)
        assert 0.0 < hits < len(queries)

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            recall_at_k(self.GALLERY, self.GALLERY, np.arange(3), 0)
        with pytest.raises(ParameterError):
            recall_at_k(self.GALLERY, self.GALLERY, np.arange(3), 4)

    @pytest.mark.parametrize("truth", [np.arange(2), np.arange(4), np.zeros((3, 1), int)],
                             ids=["short", "long", "column"])
    def test_truth_not_one_per_query_is_contract_error(self, truth):
        with pytest.raises(ContractError):
            recall_at_k(self.GALLERY, self.GALLERY, truth, 1)

    @pytest.mark.parametrize("truth", [[-3, -2, -1], [0, 1, 3], [0.0, 1.0, 2.0],
                                       [True, False, True]],
                             ids=["negative", "past-gallery", "float", "bool"])
    def test_truth_not_gallery_indices_is_parameter_error(self, truth):
        # Negative ids would otherwise wrap: [-3, -2, -1] names rows 0, 1, 2.
        with pytest.raises(ParameterError):
            recall_at_k(self.GALLERY, self.GALLERY, np.array(truth), 1)


def tape_train_head(features, labels, num_classes: int, seed: int,
                    steps: int = 300, lr: float = 0.05) -> DownstreamHead:
    """Softmax cross-entropy on frozen features with full-batch AdamW."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, d = features.shape
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigError("labels out of range")
    if np.unique(labels).size < 2:
        raise ConfigError("head training needs at least two classes present")
    if n < num_classes:
        raise ConfigError(f"need at least {num_classes} samples, got {n}")
    rng = np.random.default_rng(seed)
    w = ad.Tensor(rng.normal(0.0, 0.02, size=(d, num_classes)), trainable=True)
    b = ad.Tensor(np.zeros(num_classes), trainable=True)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    x = ad.Tensor(features)
    opt = AdamW([w, b], lr=lr, weight_decay=0.0)
    for _ in range(steps):
        with ad.new_tape():
            logits = ad.matmul(x, w, b)
            logp = ad.log_softmax_rows(logits)
            loss = ad.scale(ad.sum_all(ad.mul_const(logp, onehot)), -1.0 / n)
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
    return DownstreamHead(w.values.copy(), b.values.copy())


class TestTrainHead:
    def separable_blobs(self):
        rng = np.random.default_rng(3)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0]])
        labels = np.repeat([0, 1], 20)
        feats = centers[labels] + rng.normal(scale=0.2, size=(40, 2))
        return feats, labels

    def test_separable_two_class(self):
        feats, labels = self.separable_blobs()
        [head] = train_head(feats, labels, 2, seeds=(0,))
        assert eval_top1(head, feats, labels) == 1.0

    def test_deterministic(self):
        feats, labels = self.separable_blobs()
        [a] = train_head(feats, labels, 2, seeds=(4,))
        [b] = train_head(feats, labels, 2, seeds=(4,))
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("n, d, num_classes, seeds", [
        (512, 16, 64, (0, 1, 2)), (512, 24, 64, (0, 1, 2)),
        (128, 24, 64, (5, 0, 9, 2)), (40, 2, 2, (4,)), (257, 7, 13, (3, 3))])
    def test_stacked_heads_bitwise_equal_to_one_tape_head_per_seed(
            self, n, d, num_classes, seeds):
        rng = np.random.default_rng(n + d)
        feats = unit_rows(rng.normal(size=(n, d)))
        labels = rng.permutation(np.arange(n) % num_classes)
        heads = train_head(feats, labels, num_classes, seeds=seeds)
        assert len(heads) == len(seeds)
        for seed, head in zip(seeds, heads):
            want = tape_train_head(feats, labels, num_classes, seed=seed)
            assert head.weight.shape == (d, num_classes)
            assert head.bias.shape == (num_classes,)
            assert np.array_equal(head.weight, want.weight), seed
            assert np.array_equal(head.bias, want.bias), seed

    def test_records_nothing_on_the_tape(self, monkeypatch):
        def no_record(*args):
            raise AssertionError("train_head recorded a tape entry")

        monkeypatch.setattr(ad, "_record", no_record)
        feats, labels = self.separable_blobs()
        train_head(feats, labels, 2, seeds=(0, 1))

    def test_no_seeds_rejected(self):
        feats, labels = self.separable_blobs()
        with pytest.raises(ConfigError, match="at least one seed"):
            train_head(feats, labels, 2, seeds=())

    def test_length_mismatch_rejected(self):
        feats, labels = self.separable_blobs()
        with pytest.raises(ContractError, match="features/labels disagree: 39 vs 40"):
            train_head(feats[:-1], labels, 2, seeds=(0,))

    def test_single_class_rejected(self):
        feats = np.random.default_rng(0).normal(size=(8, 2))
        with pytest.raises(ConfigError):
            train_head(feats, np.zeros(8, dtype=int), 2, seeds=(0,))

    def test_too_few_samples(self):
        feats = np.random.default_rng(0).normal(size=(3, 2))
        with pytest.raises(ConfigError):
            train_head(feats, np.array([0, 1, 2]), 4, seeds=(0,))

    def test_inputs_not_mutated(self):
        feats, labels = self.separable_blobs()
        before = feats.copy()
        train_head(feats, labels, 2, seeds=(0,))
        assert np.array_equal(feats, before)


class TestEvalTop1:
    def test_perfect_predictor(self):
        head = DownstreamHead(np.eye(3), np.zeros(3))
        feats = np.eye(3) * 5
        assert eval_top1(head, feats, np.arange(3)) == 1.0

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(5)
        num_classes, n = 8, 4000
        head = DownstreamHead(rng.normal(size=(4, num_classes)),
                              np.zeros(num_classes))
        feats = rng.normal(size=(n, 4))
        labels = rng.integers(0, num_classes, size=n)
        acc = eval_top1(head, feats, labels)
        p = 1 / num_classes
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(acc - p) < 3 * sigma

    def test_empty_rejected(self):
        head = DownstreamHead(np.eye(2), np.zeros(2))
        with pytest.raises(ContractError):
            eval_top1(head, np.empty((0, 2)), np.empty(0, dtype=int))


class TestReportFlags:
    def test_flags_recomputed_from_values(self):
        r = CompatReport("retrieval", "recall@1", 0.4, 0.6, 0.8, [0], {}, {})
        assert r.left_ok and r.right_ok
        r = CompatReport("retrieval", "recall@1", 0.6, 0.4, None, [0], {}, {})
        assert not r.left_ok and r.right_ok is None

    def test_json_schema(self):
        r = CompatReport("retrieval", "recall@1", 0.4, 0.6, None, [0, 1], {}, {})
        doc = json.loads(r.to_json())
        for field in ("task", "metric", "m_old_old", "m_old_new", "m_new_new",
                      "left_ok", "right_ok", "seeds"):
            assert field in doc
        assert doc["m_new_new"] is None


class TestHotPlugReport:
    def test_identity_swap_is_exact(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        old_visual, _, _ = clip_encoders_from_checkpoint(old)
        extractor = lambda images: encode_image(old_visual, images)
        for task in ("retrieval", "classification"):
            r = hot_plug_report(old, taca, None, eva, task,
                                adapted_extractor=extractor)
            assert r.m_old_new == r.m_old_old
            assert not r.left_ok  # strict inequality fails on equality

    def test_report_values_in_range(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        for task in ("retrieval", "classification"):
            r = hot_plug_report(old, taca, new, eva, task)
            for v in (r.m_old_old, r.m_old_new, r.m_new_new):
                assert 0.0 <= v <= 1.0
            assert r.left_ok == (r.m_old_old < r.m_old_new)
            assert r.right_ok == (r.m_old_new < r.m_new_new)

    def test_retrieval_gallery_shape(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        _, old_text, _ = clip_encoders_from_checkpoint(old)
        gallery = canonical_caption_gallery(old_text)
        assert gallery.shape == (NUM_FACTORS, OLD_VCFG.embed_dim)
        np.testing.assert_allclose(np.linalg.norm(gallery, axis=-1), 1.0,
                                   atol=1e-9)

    def test_gallery_deterministic(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        _, old_text, _ = clip_encoders_from_checkpoint(old)
        assert np.array_equal(canonical_caption_gallery(old_text),
                              canonical_caption_gallery(old_text))

    def test_unknown_task(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        with pytest.raises(ConfigError):
            hot_plug_report(old, taca, new, eva, "segmentation")

    def test_classification_deterministic(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        a = hot_plug_report(old, taca, new, eva, "classification",
                            head_seeds=(0, 1))
        b = hot_plug_report(old, taca, new, eva, "classification",
                            head_seeds=(0, 1))
        assert a.to_json() == b.to_json()

    def test_each_encoder_encodes_split_once(self, tiny_pipeline, monkeypatch):
        ds, eva, old, new, taca = tiny_pipeline
        rows = {"old": 0, "adapted": 0, "new": 0}
        role = {OLD_VCFG.embed_dim: "old", NEW_VCFG.embed_dim: "new"}
        real_encode = evaluation.encode_image

        def counting_encode(weights, images, **kwargs):
            rows[role[weights.config.embed_dim]] += images.shape[0]
            return real_encode(weights, images, **kwargs)

        new_visual, _, _ = clip_encoders_from_checkpoint(new)
        _, adapted = attachment_from_checkpoint(taca, new_visual)

        def counting_adapted(images):
            rows["adapted"] += images.shape[0]
            return adapted.encode(images)

        monkeypatch.setattr(evaluation, "encode_image", counting_encode)
        for task in ("retrieval", "classification"):
            rows.update(dict.fromkeys(rows, 0))
            hot_plug_report(old, taca, new, eva, task, head_seeds=(0, 1),
                            adapted_extractor=counting_adapted)
            assert rows == dict.fromkeys(rows, len(eva)), task

    def test_classification_matches_separately_encoded_halves(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        split = generate_dataset(256, 8, SPEC)
        seeds = (0, 1)
        report = hot_plug_report(old, taca, new, split, "classification",
                                 head_seeds=seeds)

        old_visual, _, _ = clip_encoders_from_checkpoint(old)
        new_visual, _, _ = clip_encoders_from_checkpoint(new)
        _, adapted = attachment_from_checkpoint(taca, new_visual)

        def features(encode, images):
            with ad.no_grad():
                return np.concatenate([encode(images[s:s + 64]).values
                                       for s in range(0, len(images), 64)])

        half = len(split) // 2
        head_x, eval_x = split.images[:half], split.images[half:]
        labels = split.factor_indices()
        head_y, eval_y = labels[:half], labels[half:]
        old_enc = lambda x: encode_image(old_visual, x)
        new_enc = lambda x: encode_image(new_visual, x)
        expected = {"m_old_old": [], "m_old_new": [], "m_new_new": []}
        for seed in seeds:
            [head_old] = train_head(features(old_enc, head_x), head_y,
                                    NUM_FACTORS, seeds=(seed,))
            expected["m_old_old"].append(
                eval_top1(head_old, features(old_enc, eval_x), eval_y))
            expected["m_old_new"].append(
                eval_top1(head_old, features(adapted.encode, eval_x), eval_y))
            [head_new] = train_head(features(new_enc, head_x), head_y,
                                    NUM_FACTORS, seeds=(seed,))
            expected["m_new_new"].append(
                eval_top1(head_new, features(new_enc, eval_x), eval_y))
        assert report.per_seed == expected
        for key, values in expected.items():
            assert getattr(report, key) == float(np.median(values))

    def test_classification_needs_four_samples(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        with pytest.raises(ConfigError, match="too small to split"):
            hot_plug_report(old, taca, new, generate_dataset(3, 1, SPEC),
                            "classification")


class TestRawSwapBaseline:
    def test_deterministic(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        a = raw_swap_baseline(old, new, eva, seed=0)
        b = raw_swap_baseline(old, new, eva, seed=0)
        assert a == b

    def test_value_in_range(self, tiny_pipeline):
        ds, eva, old, new, taca = tiny_pipeline
        v = raw_swap_baseline(old, new, eva, seed=1)
        assert 0.0 <= v <= 1.0
