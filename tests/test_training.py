import dataclasses
import json

import numpy as np
import pytest

from hotplug import autodiff as ad
from hotplug.autodiff import Tensor
from hotplug.data import generate_dataset
from hotplug.encoders import (
    ImageSpec,
    TextEncoderConfig,
    VisualEncoderConfig,
    encode_image,
    encode_text,
    init_encoder,
)
from hotplug.errors import ConfigError, ContractError, FormatError
from hotplug.losses import CompatLossConfig, ContrastiveConfig, compat_total
from hotplug.peft import TacaConfig, attach_taca
from hotplug.training import (
    AdamW,
    Checkpoint,
    TrainConfig,
    attachment_from_checkpoint,
    batch_indices,
    clip_encoders_from_checkpoint,
    load_checkpoint,
    pretrain_clip,
    save_checkpoint,
    train_taca,
)
from hotplug.verify import random_taca_config

SPEC = ImageSpec(16, 16, 1, 4)
OLD_VCFG = VisualEncoderConfig(SPEC, layers=1, width=16, heads=2, embed_dim=8)
NEW_VCFG = VisualEncoderConfig(SPEC, layers=2, width=24, heads=2, embed_dim=12)
TCFG = TextEncoderConfig(vocab_size=32, max_len=12, layers=1, width=16,
                         heads=2, embed_dim=8, cls_id=0, sep_id=1)
NEW_TCFG = TextEncoderConfig(vocab_size=32, max_len=12, layers=1, width=16,
                             heads=2, embed_dim=12, cls_id=0, sep_id=1)
FAST = TrainConfig(steps=3, batch_size=4, seed=0)


def small_clip_pair(seed=0, steps=3):
    ds = generate_dataset(16, 5, SPEC)
    cfg = TrainConfig(steps=steps, batch_size=4, seed=seed)
    old = pretrain_clip(OLD_VCFG, TCFG, ds, cfg)
    new = pretrain_clip(NEW_VCFG, NEW_TCFG, ds,
                        TrainConfig(steps=steps, batch_size=4, seed=seed + 1000))
    return ds, old, new


class TestTrainConfig:
    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    def test_steps_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)


class TestAdamW:
    def test_first_step_hand_case(self):
        # lr=0.1, wd=0, grad=1: bias-corrected m̂=v̂=1 so w ← 1 − 0.1·1/(1+eps).
        w = Tensor(np.array([1.0]), trainable=True)
        opt = AdamW([w], lr=0.1, weight_decay=0.0)
        w.grad = np.array([1.0])
        opt.step()
        assert abs(w.values[0] - 0.9) < 1e-9

    def test_pure_decay(self):
        w = Tensor(np.array([2.0]), trainable=True)
        opt = AdamW([w], lr=0.1, weight_decay=0.5)
        w.grad = np.array([0.0])
        opt.step()
        # zero gradient: only the decoupled decay term acts
        assert abs(w.values[0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-12

    def test_zero_grad_no_decay_is_identity(self):
        w = Tensor(np.array([3.0]), trainable=True)
        opt = AdamW([w], lr=0.1, weight_decay=0.0)
        w.grad = np.array([0.0])
        opt.step()
        assert w.values[0] == 3.0

    def test_missing_grad_rejected(self):
        w = Tensor(np.array([1.0]), trainable=True)
        opt = AdamW([w], lr=0.1)
        with pytest.raises(ContractError):
            opt.step()

    @staticmethod
    def _tensors(rng):
        return [Tensor(rng.normal(size=shape), trainable=True)
                for shape in ((3, 4), (5,), (2, 3, 2))]

    def test_flat_step_bitwise_equal_to_per_tensor_formula(self):
        rng = np.random.default_rng(7)
        params = self._tensors(rng)
        values = [p.values.copy() for p in params]
        m = [np.zeros_like(v) for v in values]
        v2 = [np.zeros_like(v) for v in values]
        lr, wd = 0.01, 0.05
        opt = AdamW(params, lr=lr, weight_decay=wd)
        for t in range(1, 6):
            grads = [rng.normal(size=v.shape) for v in values]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):  # the per-tensor AdamW formula
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v2[i] = 0.999 * v2[i] + (1.0 - 0.999) * g * g
                m_hat = m[i] / (1.0 - 0.9 ** t)
                v_hat = v2[i] / (1.0 - 0.999 ** t)
                values[i] = values[i] - lr * (m_hat / (np.sqrt(v_hat) + 1e-8)
                                              + wd * values[i])
            for p, want in zip(params, values):
                assert p.values.shape == want.shape
                assert np.array_equal(p.values, want), t

    def test_missing_grad_changes_no_tensor(self):
        params = self._tensors(np.random.default_rng(8))
        before = [p.values.copy() for p in params]
        opt = AdamW(params, lr=0.1)
        for p in params[:2]:
            p.grad = np.ones(p.shape)
        with pytest.raises(ContractError, match="no gradient"):
            opt.step()
        assert opt.step_count == 0
        for p, want in zip(params, before):
            assert np.array_equal(p.values, want)

    def test_overfits_linear_regression(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 3))
        target = x @ np.array([1.0, -2.0, 0.5])
        w = Tensor(np.zeros(3), trainable=True)
        opt = AdamW([w], lr=0.05, weight_decay=0.0)
        for _ in range(500):
            with ad.new_tape():
                pred = ad.matmul(Tensor(x), ad.reshape(w, (3, 1)))
                diff = ad.sub(pred, Tensor(target.reshape(-1, 1)))
                loss = ad.mean_all(ad.mul(diff, diff))
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
        assert loss.item() < 1e-4


class TestBatchIndices:
    def test_counts_and_coverage(self):
        batches = list(batch_indices(10, 3, 7, seed=0))
        assert len(batches) == 7
        assert all(len(b) == 3 for b in batches)
        # within one epoch (3 full batches of 10//3) indices never repeat
        first_epoch = np.concatenate(batches[:3])
        assert len(set(first_epoch.tolist())) == 9

    def test_deterministic(self):
        a = [b.tolist() for b in batch_indices(20, 4, 6, seed=3)]
        b = [b.tolist() for b in batch_indices(20, 4, 6, seed=3)]
        assert a == b

    def test_oversized_batch(self):
        with pytest.raises(ConfigError):
            list(batch_indices(4, 8, 1, seed=0))


class TestCheckpointFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        ckpt = Checkpoint({"kind": "demo", "note": "x"},
                          {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)})
        path = tmp_path / "c.tack"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.meta == ckpt.meta
        for name in ckpt.tensors:
            assert np.array_equal(loaded.tensors[name], ckpt.tensors[name])

    def test_save_deterministic(self, tmp_path):
        ckpt = Checkpoint({"kind": "demo"}, {"a": np.arange(6.0)})
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_dataset_file_is_not_a_checkpoint(self, tmp_path):
        from hotplug.data import save_dataset
        ds = generate_dataset(4, 0, SPEC)
        path = tmp_path / "d"
        save_dataset(ds, path)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_non_finite_tensor_refused(self, tmp_path):
        path = tmp_path / "c"
        with pytest.raises(ContractError, match="'w'"):
            save_checkpoint(Checkpoint({}, {"w": np.array([1.0, np.inf])}), path)
        assert not path.exists()

    def test_config_metadata_round_trips(self):
        taca = TacaConfig(variant="lora", inserted_layers=(2, 1))
        for cfg in (NEW_VCFG, NEW_TCFG, taca):
            meta = json.loads(json.dumps(dataclasses.asdict(cfg)))
            assert type(cfg)(**meta) == cfg
        assert json.loads(json.dumps(dataclasses.asdict(taca)))[
            "inserted_layers"] == [2, 1]
        assert TacaConfig(inserted_layers=None) == TacaConfig()

    def test_trailing_bytes(self, tmp_path):
        ckpt = Checkpoint({"kind": "demo"}, {"a": np.arange(4.0)})
        path = tmp_path / "c"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestPretrainClip:
    def test_deterministic_checkpoint(self):
        ds = generate_dataset(16, 5, SPEC)
        a = pretrain_clip(OLD_VCFG, TCFG, ds, FAST)
        b = pretrain_clip(OLD_VCFG, TCFG, ds, FAST)
        assert a.meta == b.meta
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_loss_decreases_over_training(self):
        ds = generate_dataset(64, 5, SPEC)
        short = pretrain_clip(OLD_VCFG, TCFG, ds,
                              TrainConfig(steps=2, batch_size=16, seed=0))
        longer = pretrain_clip(OLD_VCFG, TCFG, ds,
                               TrainConfig(steps=120, batch_size=16, seed=0))
        assert longer.meta["final_loss"] < short.meta["final_loss"]

    def test_dim_mismatch(self):
        ds = generate_dataset(8, 5, SPEC)
        with pytest.raises(ConfigError):
            pretrain_clip(OLD_VCFG, NEW_TCFG, ds, FAST)

    def test_encoders_round_trip(self, tmp_path):
        ds, old, _ = small_clip_pair()
        path = tmp_path / "old.tack"
        save_checkpoint(old, path)
        visual, text, tau = clip_encoders_from_checkpoint(load_checkpoint(path))
        assert tau == ContrastiveConfig().temperature
        assert visual.config == OLD_VCFG
        for name, t in visual.params.items():
            assert np.array_equal(t.values, old.tensors[f"visual/{name}"])


def with_key_biases(tensors: dict, prefix: str, layers: int, width: int) -> dict:
    """``tensors`` with a ``{prefix}/block{i}.attn.bk`` after each key weight, as
    checkpoints written before the key bias left the block layout carry."""
    rng = np.random.default_rng(7)
    out = {}
    for name, values in tensors.items():
        out[name] = values
        for i in range(layers):
            if name == f"{prefix}/block{i}.attn.wk":
                out[f"{prefix}/block{i}.attn.bk"] = rng.normal(0.0, 1e-11, size=width)
    return out


class TestLegacyCheckpoint:
    def test_key_bias_tensors_are_ignored(self, tmp_path):
        ds, old, new = small_clip_pair()
        taca, _ = train_taca(old, new, TacaConfig(bottleneck=4), ds, FAST)
        legacy_old = with_key_biases(old.tensors, "visual", OLD_VCFG.layers, OLD_VCFG.width)
        legacy_old = with_key_biases(legacy_old, "text", TCFG.layers, TCFG.width)
        legacy_taca = with_key_biases(taca.tensors, "backbone", NEW_VCFG.layers,
                                      NEW_VCFG.width)
        assert len(legacy_old) == len(old.tensors) + OLD_VCFG.layers + TCFG.layers
        for name, meta, tensors in (("old", old.meta, legacy_old),
                                    ("taca", taca.meta, legacy_taca)):
            save_checkpoint(Checkpoint(meta, tensors), tmp_path / f"{name}.tack")
        visual, text, tau = clip_encoders_from_checkpoint(load_checkpoint(tmp_path / "old.tack"))
        want_visual, want_text, want_tau = clip_encoders_from_checkpoint(old)
        _, adapted = attachment_from_checkpoint(load_checkpoint(tmp_path / "taca.tack"))
        _, want_adapted = attachment_from_checkpoint(taca)
        assert tau == want_tau
        for got, want in ((visual, want_visual), (text, want_text),
                          (adapted.weights, want_adapted.weights)):
            assert got.params.keys() == want.params.keys()
            assert not any(name.endswith("attn.bk") for name in got.params)
            for name, t in got.params.items():
                assert np.array_equal(t.values, want.params[name].values), name


class TestTapePruning:
    """A frozen backbone is neither recorded nor differentiated, and the
    gradients that reach the attachment do not change because of it."""

    @staticmethod
    def _step_grads(old, new, ds, taca_cfg, backbone_trainable):
        """One train-taca step's attachment gradients and tape length."""
        old_visual, old_text, tau = clip_encoders_from_checkpoint(old)
        new_visual, _, _ = clip_encoders_from_checkpoint(new)
        attachment, adapted = attach_taca(new_visual, taca_cfg,
                                          OLD_VCFG.embed_dim, seed=0)
        new_visual.set_trainable(backbone_trainable)
        batch = np.arange(FAST.batch_size)
        with ad.no_grad():
            old_img = encode_image(old_visual, ds.images[batch])
            old_txt = encode_text(old_text, ds.captions[batch])
        loss_cfg = CompatLossConfig(contrastive=ContrastiveConfig(tau))
        with ad.new_tape() as tape:
            total, _ = compat_total(adapted.encode(ds.images[batch]), old_txt,
                                    old_img, loss_cfg)
            ad.backward(total)
        grads = {name: t.grad for name, t in attachment.named_tensors().items()}
        return grads, len(tape)

    @pytest.mark.parametrize("taca_cfg", [
        TacaConfig(bottleneck=4, projector_hidden=8),
        TacaConfig(variant="lora", rank=2, inserted_layers=(2,), projector_hidden=8),
    ], ids=["adapter", "lora"])
    def test_attachment_grads_bitwise_equal_to_unpruned(self, taca_cfg):
        ds, old, new = small_clip_pair()
        pruned, pruned_len = self._step_grads(old, new, ds, taca_cfg, False)
        full, full_len = self._step_grads(old, new, ds, taca_cfg, True)
        assert pruned_len < full_len
        assert pruned.keys() == full.keys()
        for name, grad in pruned.items():
            assert grad is not None and np.array_equal(grad, full[name]), name


class TestTrainTaca:
    def test_backbones_bitwise_frozen(self):
        ds, old, new = small_clip_pair()
        before_old = {k: v.copy() for k, v in old.tensors.items()}
        before_new = {k: v.copy() for k, v in new.tensors.items()}
        ckpt, log = train_taca(old, new, TacaConfig(bottleneck=4), ds,
                               TrainConfig(steps=4, batch_size=4, seed=0))
        for k, v in old.tensors.items():
            assert np.array_equal(v, before_old[k])
        for k, v in new.tensors.items():
            assert np.array_equal(v, before_new[k])

    def test_log_recomposition_every_step(self):
        ds, old, new = small_clip_pair()
        lam = 2.0
        _, log = train_taca(old, new, TacaConfig(bottleneck=4), ds,
                            TrainConfig(steps=5, batch_size=4, seed=0),
                            CompatLossConfig(distill_weight=lam))
        assert len(log) == 5
        for step, total, contra, distill in log:
            assert abs(total - (contra + lam * distill)) < 1e-12

    def test_lambda_zero_logs_but_excludes_distill(self):
        ds, old, new = small_clip_pair()
        _, log = train_taca(old, new, TacaConfig(bottleneck=4), ds,
                            TrainConfig(steps=3, batch_size=4, seed=0),
                            CompatLossConfig(distill_weight=0.0))
        for step, total, contra, distill in log:
            assert total == contra
            assert distill > 0.0

    def test_deterministic(self):
        ds, old, new = small_clip_pair()
        cfg = TrainConfig(steps=3, batch_size=4, seed=0)
        a, la = train_taca(old, new, TacaConfig(bottleneck=4), ds, cfg)
        b, lb = train_taca(old, new, TacaConfig(bottleneck=4), ds, cfg)
        assert la == lb
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_attachment_round_trip(self, tmp_path):
        ds, old, new = small_clip_pair()
        ckpt, _ = train_taca(old, new, TacaConfig(bottleneck=4), ds,
                             TrainConfig(steps=3, batch_size=4, seed=0))
        path = tmp_path / "taca.tack"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        new_visual, _, _ = clip_encoders_from_checkpoint(new)
        attachment, adapted = attachment_from_checkpoint(loaded, new_visual)
        for name, t in attachment.named_tensors().items():
            assert np.array_equal(t.values, ckpt.tensors[name])
        rng = np.random.default_rng(0)
        out = adapted.encode(rng.uniform(size=(2, 16, 16, 1)))
        assert out.shape == (2, OLD_VCFG.embed_dim)

    def test_wrong_checkpoint_kind(self):
        ds, old, new = small_clip_pair()
        taca, _ = train_taca(old, new, TacaConfig(bottleneck=4), ds,
                             TrainConfig(steps=2, batch_size=4, seed=0))
        with pytest.raises(FormatError):
            clip_encoders_from_checkpoint(taca)
        new_visual, _, _ = clip_encoders_from_checkpoint(new)
        with pytest.raises(FormatError):
            attachment_from_checkpoint(old, new_visual)

    @pytest.mark.parametrize("i", range(3))
    def test_freezing_holds_for_random_configs(self, i):
        rng = np.random.default_rng(200 + i)
        ds, old, new = small_clip_pair(seed=i)
        variant = "adapter" if i % 2 == 0 else "lora"
        if variant == "adapter":
            cfg = TacaConfig(bottleneck=int(rng.integers(2, 8)))
        else:
            cfg = TacaConfig(variant="lora", rank=2)
        before = {k: v.copy() for k, v in new.tensors.items()}
        train_taca(old, new, cfg, ds, TrainConfig(steps=2, batch_size=4, seed=i))
        for k, v in new.tensors.items():
            assert np.array_equal(v, before[k])
