import dataclasses

import numpy as np
import pytest

from hotplug import autodiff as ad
from hotplug.autodiff import Tensor
from hotplug.encoders import (
    ImageSpec,
    VisualEncoderConfig,
    encode_chunked,
    encode_image,
    init_encoder,
)
from hotplug.errors import ConfigError, DimensionError, ParameterError
from hotplug.peft import (
    Adapter,
    DimensionProjector,
    LoRAModule,
    TacaConfig,
    adapter_forward,
    attach_taca,
    count_trainable,
    lora_forward,
    projector_forward,
)
from hotplug.verify import random_taca_config

SPEC = ImageSpec(16, 16, 1, 4)
NEW_CFG = VisualEncoderConfig(SPEC, layers=4, width=64, heads=4, embed_dim=32)


def make_adapter(width=4, bottleneck=2, activation="relu", seed=0):
    return Adapter(width, bottleneck, activation, np.random.default_rng(seed))


class TestAdapter:
    def test_zero_up_projection_is_identity(self):
        adapter = make_adapter()
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        out = adapter_forward(adapter, x)
        assert np.array_equal(out.values, x.values)

    def test_scalar_hand_case(self):
        # k=1 would force d'=1 >= k, so build the weights directly.
        adapter = make_adapter(width=2, bottleneck=1)
        adapter.w_down.values = np.array([[2.0], [0.0]])
        adapter.w_up.values = np.array([[3.0, 0.0]])
        out = adapter_forward(adapter, Tensor([[1.0, 0.0]]))
        assert out.values[0, 0] == 7.0
        out = adapter_forward(adapter, Tensor([[-1.0, 0.0]]))
        assert out.values[0, 0] == -1.0

    def test_bottleneck_must_shrink(self):
        with pytest.raises(ConfigError):
            make_adapter(width=4, bottleneck=4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            adapter_forward(make_adapter(), Tensor(np.zeros((2, 5))))

    def test_gradient_check(self):
        adapter = make_adapter(width=6, bottleneck=3, activation="gelu", seed=2)
        rng = np.random.default_rng(3)
        adapter.w_up.values = rng.normal(size=adapter.w_up.shape)
        point = adapter.w_down.values.copy()

        def f(wd):
            saved = adapter.w_down
            adapter.w_down = wd
            try:
                x = Tensor(np.linspace(-1, 1, 12).reshape(2, 6))
                out = adapter_forward(adapter, x)
                return ad.mean_all(ad.mul(out, out))
            finally:
                adapter.w_down = saved

        assert ad.grad_check(f, point, 1e-6) < 1e-6


class TestProjector:
    def make(self, seed=0):
        return DimensionProjector(8, 5, 4, "relu", np.random.default_rng(seed))

    def test_output_dim(self):
        out = projector_forward(self.make(), Tensor(np.ones((1, 8))))
        assert out.shape == (1, 4)

    def test_zero_weights_give_normalized_bias(self):
        proj = self.make()
        bias = proj.b2.values.copy()
        out = projector_forward(proj, Tensor(np.full((1, 8), 0.7)))
        np.testing.assert_allclose(out.values[0], bias / np.linalg.norm(bias),
                                   atol=1e-12)

    def test_unit_norm_output(self):
        proj = self.make(seed=1)
        rng = np.random.default_rng(2)
        proj.w2.values = rng.normal(size=proj.w2.shape)
        out = projector_forward(proj, Tensor(rng.normal(size=(6, 8))))
        np.testing.assert_allclose(np.linalg.norm(out.values, axis=-1), 1.0,
                                   atol=1e-12)

    def test_gradient_check_both_layers(self):
        proj = self.make(seed=3)
        rng = np.random.default_rng(4)
        proj.w2.values = rng.normal(size=proj.w2.shape)
        x = rng.normal(size=(2, 8))
        target = rng.normal(size=(2, 4))
        for attr in ("w1", "w2"):
            point = getattr(proj, attr).values.copy()

            def f(w, attr=attr):
                saved = getattr(proj, attr)
                setattr(proj, attr, w)
                try:
                    out = projector_forward(proj, Tensor(x))
                    return ad.mean_all(ad.mul(out, Tensor(target)))
                finally:
                    setattr(proj, attr, saved)

            assert ad.grad_check(f, point, 1e-6) < 1e-6


class TestLoRA:
    def test_zero_b_matches_frozen_weight(self):
        rng = np.random.default_rng(0)
        base = Tensor(rng.normal(size=(4, 4)))
        module = LoRAModule(base, rank=2, alpha=2.0, rng=rng)
        x = rng.normal(size=(3, 4))
        out = lora_forward(module, Tensor(x))
        np.testing.assert_allclose(out.values, x @ base.values, atol=1e-15)

    def test_hand_case(self):
        base = Tensor(np.zeros((2, 2)))
        module = LoRAModule(base, rank=1, alpha=1.0,
                            rng=np.random.default_rng(0))
        module.a.values = np.array([[1.0], [0.0]])
        module.b.values = np.array([[0.0, 2.0]])
        out = lora_forward(module, Tensor([[1.0, 1.0]]))
        assert np.array_equal(out.values, [[0.0, 2.0]])

    def test_gradient_check(self):
        rng = np.random.default_rng(5)
        base = Tensor(rng.normal(size=(5, 5)))
        module = LoRAModule(base, rank=2, alpha=2.0, rng=rng)
        module.b.values = rng.normal(size=module.b.shape)
        x = rng.normal(size=(3, 5))
        for attr in ("a", "b"):
            point = getattr(module, attr).values.copy()

            def f(w, attr=attr):
                saved = getattr(module, attr)
                setattr(module, attr, w)
                try:
                    out = lora_forward(module, Tensor(x))
                    return ad.mean_all(ad.mul(out, out))
                finally:
                    setattr(module, attr, saved)

            assert ad.grad_check(f, point, 1e-6) < 1e-6


class TestAttachment:
    def test_zero_init_block_outputs_bitwise_identical(self):
        weights = init_encoder(NEW_CFG, seed=0)
        image = np.random.default_rng(1).uniform(size=(2, 16, 16, 1))
        _, plain_blocks = encode_image(weights, image, return_blocks=True)
        attachment, _ = attach_taca(weights, TacaConfig(bottleneck=8), 16, seed=2)
        _, adapted_blocks = encode_image(weights, image,
                                         attachment=attachment,
                                         return_blocks=True)
        for a, b in zip(plain_blocks, adapted_blocks):
            assert np.array_equal(a, b)

    def test_trainable_set_is_exactly_the_attachment(self):
        weights = init_encoder(NEW_CFG, seed=0)
        attachment, _ = attach_taca(weights, TacaConfig(bottleneck=8), 16, seed=2)
        assert all(not t.trainable for t in weights.tensors())
        assert all(t.trainable for t in attachment.trainable_tensors())

    def test_adapter_count_follows_config(self):
        weights = init_encoder(NEW_CFG, seed=0)
        cfg = TacaConfig(bottleneck=4, inserted_layers=(1, 2),
                         adapters_per_block=2)
        attachment, _ = attach_taca(weights, cfg, 16, seed=0)
        assert len(attachment.adapters) == 4

    def test_out_of_range_layer(self):
        weights = init_encoder(NEW_CFG, seed=0)
        with pytest.raises(ConfigError):
            attach_taca(weights, TacaConfig(inserted_layers=(5,)), 16, seed=0)

    def test_lora_variant_attaches_to_qv(self):
        weights = init_encoder(NEW_CFG, seed=0)
        cfg = TacaConfig(variant="lora", rank=4, inserted_layers=(1, 3))
        attachment, adapted = attach_taca(weights, cfg, 16, seed=0)
        assert set(attachment.loras) == {(0, "q"), (0, "v"), (2, "q"), (2, "v")}
        image = np.random.default_rng(2).uniform(size=(2, 16, 16, 1))
        out = adapted.encode(image)
        assert out.shape == (2, 16)


ARMS = {
    "adapter": (TacaConfig(bottleneck=8), (0, "ffn")),
    "adapters_per_block_2": (TacaConfig(bottleneck=8, adapters_per_block=2), (0, "attn")),
    "inserted_layers_2_3": (TacaConfig(bottleneck=8, inserted_layers=(2, 3)), (1, "ffn")),
    "lora": (TacaConfig(variant="lora", rank=4), None),
    "lora_layers_2_3": (TacaConfig(variant="lora", rank=4, inserted_layers=(2, 3)), None),
}


class TestSharedBackbonePass:
    @pytest.mark.parametrize("arm", ARMS)
    def test_first_site(self, arm):
        cfg, site = ARMS[arm]
        attachment, _ = attach_taca(init_encoder(NEW_CFG, seed=0), cfg, 16, seed=1)
        assert attachment.first_site() == site

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("arm", ARMS)
    def test_bitwise_equal_to_separate_passes(self, arm, n):
        weights = init_encoder(NEW_CFG, seed=0)
        attachment, adapted = attach_taca(weights, ARMS[arm][0], 16, seed=1)
        rng = np.random.default_rng(2)
        for t in attachment.trainable_tensors():  # hooks that change the forward
            t.values = rng.normal(0.0, 0.1, size=t.shape)
        images = rng.uniform(size=(n, 16, 16, 1))

        shared = attachment.first_site() is not None  # LoRA: no adapter, no fork

        def hot_and_cold(x):  # one backbone pass up to the first adapter
            batch = adapted.fork(x) if shared else x
            return adapted.encode(batch), encode_image(weights, batch)

        hot, cold = encode_chunked(hot_and_cold, images)
        assert np.array_equal(hot, encode_chunked(adapted.encode, images))
        assert np.array_equal(cold, encode_chunked(lambda x: encode_image(weights, x),
                                                   images))
        unhooked = projector_forward(attachment.projector, Tensor(cold)).values
        assert not np.allclose(hot, unhooked)  # the hooks act past the fork
        batch = rng.permutation(n)[:32]  # a training batch resumed from the cache
        if shared:
            hooked = encode_chunked(lambda x: adapted.fork(x)[3], images)
            fork = adapted.fork(images[batch], hooked[batch])
            assert np.array_equal(adapted.encode(fork).values, hot[batch])
        else:
            with pytest.raises(ParameterError, match="site None"):
                adapted.fork(images[batch])


class TestCountTrainable:
    def test_formula_hand_case(self):
        spec = ImageSpec(16, 16, 1, 4)
        enc = VisualEncoderConfig(spec, layers=2, width=8, heads=2, embed_dim=16)
        cfg = TacaConfig(bottleneck=4, projector_hidden=32)
        counts = count_trainable(cfg, enc, dim_old=8)
        assert counts["formula_count"] == 128 + 768
        assert counts["exact_count"] == 896 + 64

    def test_count_positive(self):
        spec = ImageSpec(16, 16, 1, 4)
        enc = VisualEncoderConfig(spec, layers=1, width=8, heads=2, embed_dim=4)
        counts = count_trainable(TacaConfig(bottleneck=2, projector_hidden=4),
                                 enc, dim_old=4)
        assert counts["exact_count"] > 0

    def test_lora_variant_flagged(self):
        spec = ImageSpec(16, 16, 1, 4)
        enc = VisualEncoderConfig(spec, layers=2, width=8, heads=2, embed_dim=16)
        counts = count_trainable(TacaConfig(variant="lora", rank=2), enc, 8)
        assert counts["rank_based"]

    @pytest.mark.parametrize("i", range(10))
    def test_exact_count_matches_enumeration(self, i):
        rng = np.random.default_rng(100 + i)
        cfg, enc, d_old = random_taca_config(rng)
        weights = init_encoder(enc, seed=i)
        attachment, _ = attach_taca(weights, cfg, d_old, seed=i)
        enumerated = sum(t.values.size for t in attachment.trainable_tensors())
        assert count_trainable(cfg, enc, d_old)["exact_count"] == enumerated

    def test_lora_formula_hand_case(self):
        spec = ImageSpec(16, 16, 1, 4)
        enc = VisualEncoderConfig(spec, layers=2, width=8, heads=2, embed_dim=16)
        cfg = TacaConfig(variant="lora", rank=2, projector_hidden=32)
        counts = count_trainable(cfg, enc, dim_old=8)
        assert counts["formula_count"] == 2 * 2 * 2 * (8 + 8) + 768  # q and v, A and B
        assert counts["exact_count"] == 896 + 40  # the projector's biases

    @pytest.mark.parametrize("i", range(10))
    def test_lora_exact_count_matches_enumeration(self, i):
        rng = np.random.default_rng(200 + i)
        cfg, enc, d_old = random_taca_config(rng)
        cfg = dataclasses.replace(cfg, variant="lora", rank=int(rng.integers(1, 9)))
        attachment, _ = attach_taca(init_encoder(enc, seed=i), cfg, d_old, seed=i)
        enumerated = sum(t.values.size for t in attachment.trainable_tensors())
        assert count_trainable(cfg, enc, d_old)["exact_count"] == enumerated
