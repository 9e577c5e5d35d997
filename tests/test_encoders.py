import numpy as np
import pytest

from hotplug import autodiff as ad
from hotplug.autodiff import Tensor
from hotplug.encoders import (
    ENCODE_CHUNK,
    FFN_EXPANSION,
    SITES,
    EncoderWeights,
    ImageSpec,
    TextEncoderConfig,
    VisualEncoderConfig,
    encode_chunked,
    encode_image,
    encode_text,
    image_fork,
    init_encoder,
    _attention,
    _patchify_batch,
)
from hotplug.errors import ConfigError, DimensionError, ParameterError
from hotplug.losses import clip_symmetric_loss
from hotplug.peft import DimensionProjector, TacaConfig, attach_taca, projector_forward

SPEC = ImageSpec(16, 16, 1, 4)
VCFG = VisualEncoderConfig(SPEC, layers=2, width=32, heads=4, embed_dim=16)
TCFG = TextEncoderConfig(vocab_size=32, max_len=12, layers=2, width=32,
                         heads=4, embed_dim=16, cls_id=0, sep_id=1)


class TestImageSpec:
    def test_patch_count(self):
        assert SPEC.num_patches == 16

    def test_divisibility(self):
        with pytest.raises(ConfigError):
            ImageSpec(5, 4, 1, 2)

    def test_text_config_validation(self):
        with pytest.raises(ConfigError):
            TextEncoderConfig(32, 12, 2, 32, 4, 16, cls_id=1, sep_id=1)


class TestPatchify:
    def test_patch_count_and_size(self):
        spec = ImageSpec(4, 4, 1, 2)
        out = _patchify_batch(np.arange(16.0).reshape(4, 4, 1)[None], spec)[0]
        assert out.shape == (4, 4)

    def test_single_pixel_patches_ordering(self):
        spec = ImageSpec(2, 2, 1, 1)
        image = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        out = _patchify_batch(image[None], spec)[0]
        assert np.array_equal(out, [[1.0], [2.0], [3.0], [4.0]])

    def test_within_patch_layout(self):
        spec = ImageSpec(2, 2, 1, 2)
        image = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        out = _patchify_batch(image[None], spec)[0]
        # one patch, pixels row-major
        assert np.array_equal(out, [[1.0, 2.0, 3.0, 4.0]])


class TestEncodeImage:
    def setup_method(self):
        self.weights = init_encoder(VCFG, seed=0)
        self.rng = np.random.default_rng(0)
        self.image = self.rng.uniform(size=(16, 16, 1))

    def test_output_dim(self):
        out = encode_image(self.weights, self.image[None])
        assert out.shape == (1, 16)

    def test_unit_norm(self):
        batch = self.rng.uniform(size=(5, 16, 16, 1))
        out = encode_image(self.weights, batch)
        np.testing.assert_allclose(np.linalg.norm(out.values, axis=-1), 1.0,
                                   atol=1e-12)

    def test_deterministic(self):
        a = encode_image(self.weights, self.image[None]).values
        b = encode_image(self.weights, self.image[None]).values
        assert np.array_equal(a, b)

    def test_pixel_flip_changes_embedding(self):
        base = encode_image(self.weights, self.image[None]).values
        flipped = self.image.copy()
        flipped[3, 5, 0] = 1.0 - flipped[3, 5, 0]
        other = encode_image(self.weights, flipped[None]).values
        assert np.linalg.norm(base - other) > 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            encode_image(self.weights, np.zeros((1, 8, 8, 1)))


class TestEncodeText:
    def setup_method(self):
        self.weights = init_encoder(TCFG, seed=1)

    def test_output_dim(self):
        out = encode_text(self.weights, np.array([[4, 9, 13, 20]]))
        assert out.shape == (1, 16)

    def test_permuting_tokens_changes_embedding(self):
        a = encode_text(self.weights, np.array([[4, 9, 13, 20]])).values
        b = encode_text(self.weights, np.array([[4, 13, 9, 20]])).values
        assert np.linalg.norm(a - b) > 0

    def test_out_of_vocab(self):
        with pytest.raises(ParameterError):
            encode_text(self.weights, np.array([[4, 32]]))

    def test_overlong_sequence(self):
        with pytest.raises(DimensionError):
            encode_text(self.weights, (np.arange(11) % 32)[None])


def test_single_samples_are_rejected():
    """Encoders and the projector take batches only: one image, one token row
    or one feature vector is a shape error, not a batch of one."""
    with pytest.raises(DimensionError, match=r"\(B, 16, 16, 1\)"):
        encode_image(init_encoder(VCFG, seed=0), np.zeros((16, 16, 1)))
    with pytest.raises(DimensionError, match=r"\(B, T\)"):
        encode_text(init_encoder(TCFG, seed=1), np.array([4, 9, 13, 20]))
    projector = DimensionProjector(8, 5, 4, "relu", np.random.default_rng(0))
    with pytest.raises(DimensionError, match=r"\(B, 8\)"):
        projector_forward(projector, Tensor(np.ones(8)))


def _trunk_param_count(config) -> int:
    k, d = config.width, config.embed_dim
    f = FFN_EXPANSION * k
    block = 4 * k + 4 * k * k + 3 * k + (k * f + f) + (f * k + k)
    return config.layers * block + 2 * k + k * d


def visual_param_count(config: VisualEncoderConfig) -> int:
    """Closed-form parameter count: the oracle of the enumeration test."""
    spec, k = config.image_spec, config.width
    return (spec.patch_dim * k + k + k + (spec.num_patches + 1) * k
            + _trunk_param_count(config))


def text_param_count(config: TextEncoderConfig) -> int:
    k = config.width
    return config.vocab_size * k + config.max_len * k + _trunk_param_count(config)


class TestInitEncoder:
    def test_same_seed_identical(self):
        a = init_encoder(VCFG, seed=5)
        b = init_encoder(VCFG, seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name].values, b.params[name].values)

    def test_different_seeds_differ(self):
        a = init_encoder(VCFG, seed=5)
        b = init_encoder(VCFG, seed=6)
        assert any(not np.array_equal(a.params[n].values, b.params[n].values)
                   for n in a.params)

    @pytest.mark.parametrize("cfg,counter", [
        (VCFG, visual_param_count),
        (VisualEncoderConfig(SPEC, 4, 64, 4, 32), visual_param_count),
        (TCFG, text_param_count),
        (TextEncoderConfig(32, 12, 3, 16, 2, 8, 0, 1), text_param_count),
    ])
    def test_param_count_matches_enumeration(self, cfg, counter):
        weights = init_encoder(cfg, seed=0)
        enumerated = sum(t.values.size for t in weights.tensors())
        assert counter(cfg) == enumerated

    def test_first_difference_names_the_first_tensor_that_differs(self):
        a, b = init_encoder(VCFG, seed=0), init_encoder(VCFG, seed=0)
        assert a.first_difference(b) is None
        b.params["block1.ffn.b1"].values[3] += 1e-12
        b.params["proj"].values[0, 0] += 1.0
        assert a.first_difference(b) == "block1.ffn.b1"
        deeper = init_encoder(VisualEncoderConfig(SPEC, layers=3, width=32, heads=4,
                                                  embed_dim=16), seed=0)
        assert deeper.first_difference(a) == "block2.ln1.gain"  # only one has it
        assert a.first_difference(deeper) == "proj"  # drawn after block2


DEAD_GRAD_RATIO = 1e-8  # live tensors sit above 1e-5 of the largest, a key bias near 1e-18


class TestGradientFlow:
    def test_contrastive_loss_reaches_every_parameter(self):
        visual = init_encoder(VCFG, seed=2)
        text = init_encoder(TCFG, seed=3)
        visual.set_trainable(True)
        text.set_trainable(True)
        rng = np.random.default_rng(4)
        images = rng.uniform(size=(4, 16, 16, 1))
        tokens = rng.integers(2, 32, size=(4, 4))
        with ad.new_tape():
            loss = clip_symmetric_loss(encode_image(visual, images),
                                       encode_text(text, tokens), 0.07)
            ad.backward(loss)
        # A dead parameter's gradient is rounding noise, far below every live one.
        largest = {}
        for label, weights in (("visual", visual), ("text", text)):
            for name, t in weights.params.items():
                assert t.grad is not None, name
                largest[f"{label}/{name}"] = np.abs(t.grad).max()
        floor = DEAD_GRAD_RATIO * max(largest.values())
        assert {name for name, g in largest.items() if not g >= floor} == set()


# ---------------------------------------------------------------------------
# Readout pruning: the last block runs on the CLS / SEP row only
# ---------------------------------------------------------------------------

GRAD_RTOL = 1e-10  # the pruned last-block FFN sums its weight gradients in one GEMM


def _full_sequence_blocks(weights, x, heads, attachment=None):
    """Every row through every block, as before the pruning."""
    params = dict(weights.params)
    for (i, which), module in getattr(attachment, "loras", {}).items():  # W + (alpha/r) AB
        params[f"block{i}.attn.w{which}"] = module.effective_weight()
    for i in range(weights.config.layers):
        p = f"block{i}"
        a_in = ad.layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        a_out = _attention(params, p, a_in, heads)
        if attachment is not None:
            a_out = attachment.apply_adapter(i, "attn", a_out)
        x = ad.add(x, a_out)
        f_in = ad.layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        h = ad.matmul(f_in, params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"])
        h = ad.elementwise_activation(h, "gelu")
        h = ad.matmul(h, params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"])
        if attachment is not None:
            h = attachment.apply_adapter(i, "ffn", h)
        x = ad.add(x, h)
    return x


def _readout(weights, x, index):
    params = weights.params
    x = ad.layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])
    head = ad.index_select(x, 1, index)
    return ad.l2_normalize_rows(ad.matmul(head, params["proj"]))


def reference_encode_image(weights, images, attachment=None):
    cfg, params = weights.config, weights.params
    b, t, k = images.shape[0], cfg.image_spec.num_patches + 1, cfg.width
    patches = Tensor(_patchify_batch(images, cfg.image_spec))
    x = ad.matmul(patches, params["patch_embed"], params["patch_bias"])
    cls = ad.broadcast_to(ad.reshape(params["cls_token"], (1, 1, k)), (b, 1, k))
    x = ad.concat([cls, x], axis=1)
    x = ad.add(x, ad.broadcast_to(ad.reshape(params["pos_embed"], (1, t, k)), (b, t, k)))
    x = _full_sequence_blocks(weights, x, cfg.heads, attachment)
    return _readout(weights, x, 0)


def reference_encode_text(weights, tokens):
    cfg, params = weights.config, weights.params
    b, seq, k = tokens.shape[0], tokens.shape[1] + 2, cfg.width
    full = np.concatenate([np.full((b, 1), cfg.cls_id), tokens,
                           np.full((b, 1), cfg.sep_id)], axis=1)
    x = ad.embedding_lookup(params["tok_embed"], full)
    pos = ad.embedding_lookup(params["pos_embed"], np.arange(seq))
    x = ad.add(x, ad.broadcast_to(ad.reshape(pos, (1, seq, k)), (b, seq, k)))
    x = _full_sequence_blocks(weights, x, cfg.heads)
    return _readout(weights, x, seq - 1)


def _attached(variant):
    """Fresh encoders plus, for ``variant``, an attachment whose zero-initialized
    up-projections are randomized so that every attachment site changes the
    forward; every tensor is trainable."""
    visual, text = init_encoder(VCFG, seed=2), init_encoder(TCFG, seed=3)
    attachment = None
    if variant is not None:
        config = (TacaConfig(variant="adapter", bottleneck=8, adapters_per_block=2)
                  if variant == "adapter" else TacaConfig(variant="lora", rank=2))
        attachment, _ = attach_taca(visual, config, dim_old=16, seed=4)
        rng = np.random.default_rng(5)
        for t in attachment.trainable_tensors():
            t.values = rng.normal(0.0, 0.1, size=t.shape)
    visual.set_trainable(True)
    text.set_trainable(True)
    return visual, text, attachment


def _grads(tensors, encode_image_fn, encode_text_fn, images, tokens):
    for t in tensors:
        t.grad = None
    with ad.new_tape():
        ad.backward(clip_symmetric_loss(encode_image_fn(images),
                                        encode_text_fn(tokens), 0.07))
    return [t.grad.copy() for t in tensors]


class TestReadoutPruning:
    @pytest.mark.parametrize("variant", [None, "adapter", "lora"])
    @pytest.mark.parametrize("batch", [2, 32])
    def test_embeddings_bitwise_equal_to_full_sequence(self, variant, batch):
        visual, text, attachment = _attached(variant)
        rng = np.random.default_rng(batch)
        images = rng.uniform(size=(batch, 16, 16, 1))
        tokens = rng.integers(2, 32, size=(batch, 4))
        with ad.no_grad():
            assert np.array_equal(encode_image(visual, images, attachment).values,
                                  reference_encode_image(visual, images, attachment).values)
            assert np.array_equal(encode_text(text, tokens).values,
                                  reference_encode_text(text, tokens).values)

    @pytest.mark.parametrize("variant", [None, "adapter", "lora"])
    def test_gradients_match_full_sequence(self, variant):
        visual, text, attachment = _attached(variant)
        attached = attachment.named_tensors() if attachment else {}
        tensors = [*visual.tensors(), *text.tensors(),  # the projector is not run
                   *(t for n, t in attached.items() if not n.startswith("projector."))]
        rng = np.random.default_rng(6)
        images = rng.uniform(size=(8, 16, 16, 1))
        tokens = rng.integers(2, 32, size=(8, 4))
        pruned = _grads(tensors, lambda im: encode_image(visual, im, attachment),
                        lambda tok: encode_text(text, tok), images, tokens)
        full = _grads(tensors, lambda im: reference_encode_image(visual, im, attachment),
                      lambda tok: reference_encode_text(text, tok), images, tokens)
        for t, got, want in zip(tensors, pruned, full):
            np.testing.assert_allclose(got, want, rtol=GRAD_RTOL, atol=0, err_msg=repr(t))

    def test_last_gelu_runs_on_readout_rows_only(self, monkeypatch):
        shapes = []
        activation = ad.elementwise_activation

        def spy(a, kind):
            if kind == "gelu":
                shapes.append(a.shape)
            return activation(a, kind)

        monkeypatch.setattr(ad, "elementwise_activation", spy)
        batch = 3
        encode_image(init_encoder(VCFG, seed=0), np.zeros((batch, 16, 16, 1)))
        assert shapes == [(batch, 17, 4 * VCFG.width), (batch, 4 * VCFG.width)]
        shapes.clear()
        encode_text(init_encoder(TCFG, seed=1), np.zeros((batch, 4), dtype=int) + 2)
        assert shapes == [(batch, 6, 4 * TCFG.width), (batch, 4 * TCFG.width)]


class TestEncodeChunked:
    def test_a_one_row_tail_joins_the_chunk_before_it(self):
        c = ENCODE_CHUNK
        expected = {1: [1], 2: [2], c: [c], c + 1: [c + 1], 2 * c: [c, c],
                    2 * c + 1: [c, c + 1], 2 * c + 2: [c, c, 2]}
        for n, want in expected.items():
            sizes = []

            def record(x):
                sizes.append(x.shape[0])
                return Tensor(x)

            assert encode_chunked(record, np.zeros((n, 1))).shape == (n, 1)
            assert sizes == want, n

    def test_tail_row_bitwise_equal_to_larger_split(self):
        # 129 = 2 * ENCODE_CHUNK + 1 rows: the last row is encoded in a
        # 65-row chunk, not alone through the 1-row (GEMV) path.
        rng = np.random.default_rng(11)
        visual, text = init_encoder(VCFG, seed=0), init_encoder(TCFG, seed=1)
        images = rng.uniform(size=(192, 16, 16, 1))
        tokens = rng.integers(2, 32, size=(192, 4))
        for encode, inputs in ((lambda x: encode_image(visual, x), images),
                               (lambda t: encode_text(text, t), tokens)):
            whole = encode_chunked(encode, inputs)
            assert np.array_equal(encode_chunked(encode, inputs[:129]), whole[:129])

    def test_a_tuple_of_outputs_is_chunked_per_output(self):
        visual = init_encoder(VCFG, seed=0)
        images = np.random.default_rng(12).uniform(size=(129, 16, 16, 1))
        encode = lambda x: encode_image(visual, x)
        whole = encode_chunked(encode, images)
        pair = encode_chunked(lambda x: (encode(x), ad.scale(encode(x), 2.0)), images)
        assert np.array_equal(pair[0], whole)
        assert np.array_equal(pair[1], 2.0 * whole)


class TestImageFork:
    @pytest.mark.parametrize("block", range(VCFG.layers))
    @pytest.mark.parametrize("site", SITES)
    def test_whole_and_rebuilt_forks_resume_bitwise(self, block, site):
        weights = init_encoder(VCFG, seed=3)
        images = np.random.default_rng(4).uniform(size=(5, 16, 16, 1))
        want = encode_image(weights, images).values
        whole = image_fork(weights, images, (block, site))
        assert whole[:2] == (block, site)
        assert whole[3].shape == whole[2].shape  # the output the hook acts on
        rebuilt = image_fork(weights, images, (block, site), whole[3].values)  # from a cache
        assert np.array_equal(rebuilt[2].values, whole[2].values)
        for fork in (whole, rebuilt):
            assert np.array_equal(encode_image(weights, fork).values, want)

    # LoRA's former pseudo-site sits inside the attention, where no adapter hooks.
    @pytest.mark.parametrize("site", [(VCFG.layers, "ffn"), (0, "mlp"), (-1, "ffn"),
                                      (0, "qv"), None],
                             ids=["past-last-block", "unknown-site", "negative-block",
                                  "inside-attention", "none"])
    def test_a_site_outside_the_encoder_is_refused(self, site):
        weights = init_encoder(VCFG, seed=3)
        images = np.zeros((3, 16, 16, 1))
        with pytest.raises(ParameterError, match="is not a .block, site."):
            image_fork(weights, images, site)
        with pytest.raises(ParameterError):  # also with a cached output
            image_fork(weights, images, site, np.zeros((3, 17, VCFG.width)))

    def test_another_batchs_output_is_refused(self):
        weights = init_encoder(VCFG, seed=3)
        rng = np.random.default_rng(4)
        a, b = rng.uniform(size=(3, 16, 16, 1)), rng.uniform(size=(5, 16, 16, 1))
        y = image_fork(weights, b, (0, "ffn"))[3].values
        with pytest.raises(DimensionError, match=r"\(5, 17, 32\).*\(3, 17, 32\)"):
            image_fork(weights, a, (0, "ffn"), y)

    def test_a_tuple_of_images_is_not_a_fork(self):
        weights = init_encoder(VCFG, seed=3)
        images = np.random.default_rng(4).uniform(size=(4, 16, 16, 1))
        assert np.array_equal(encode_image(weights, tuple(images.tolist())).values,
                              encode_image(weights, images).values)

    def test_text_weights_refuse_an_image_fork(self):
        fork = image_fork(init_encoder(VCFG, seed=3), np.zeros((5, 16, 16, 1)), (0, "ffn"))
        with pytest.raises(ConfigError, match="visual weights"):
            encode_image(init_encoder(TCFG, seed=1), fork)
