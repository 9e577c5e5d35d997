"""Self-check suites: finite-difference gradient oracles, parameter-count
enumeration, and closed-form loss values. Used by the CLI and the tests."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check, random_point
from .encoders import ImageSpec, VisualEncoderConfig, init_encoder
from .losses import (
    clip_symmetric_loss,
    compat_total,
    CompatLossConfig,
    ContrastiveConfig,
    cross_model_contrastive,
    distill_loss,
    nce,
)
from .peft import (
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

GRAD_TOL = 1e-6
# Central differences balance truncation (~step^2) against float64 round-off
# (~eps/step); 3e-5 keeps both comfortably under GRAD_TOL for these losses.
STEP = 3e-5


def _check(f, point, step=STEP):
    return grad_check(f, point, step)


def gradcheck_cases(seeds=range(20)):
    """Yield (name, max relative error) for every differentiable piece."""
    for seed in seeds:
        rng = np.random.default_rng(seed)

        w = Tensor(rng.normal(size=(4, 3)))
        yield ("matmul", _check(
            lambda x: ad.mean_all(ad.matmul(x, w)), rng.normal(size=(2, 4))))
        b = Tensor(rng.normal(size=(5,)))
        yield ("add_bias", _check(
            lambda x: ad.mean_all(ad.mul(ad.add(x, b), ad.add(x, b))),
            rng.normal(size=(3, 5))))
        other = Tensor(rng.normal(size=(3, 4)))
        yield ("mul", _check(
            lambda x: ad.sum_all(ad.mul(x, other)), rng.normal(size=(3, 4))))
        yield ("softmax_rows", _check(
            lambda x: ad.mean_all(ad.mul(ad.softmax_rows(x, 0.5),
                                         ad.softmax_rows(x, 0.5))),
            rng.normal(size=(3, 5))))
        yield ("log_softmax_rows", _check(
            lambda x: ad.mean_all(ad.mul(ad.log_softmax_rows(x),
                                         ad.log_softmax_rows(x))),
            rng.normal(size=(3, 5))))
        yield ("l2_normalize_rows", _check(
            lambda x: ad.mean_all(ad.mul(ad.l2_normalize_rows(x), other)),
            random_point(rng, (3, 4), min_abs=0.05)))
        gain = Tensor(rng.normal(size=(6,)))
        bias = Tensor(rng.normal(size=(6,)))
        yield ("layer_norm", _check(
            lambda x: ad.mean_all(ad.mul(ad.layer_norm(x, gain, bias),
                                         ad.layer_norm(x, gain, bias))),
            rng.normal(size=(4, 6))))
        yield ("relu", _check(
            lambda x: ad.sum_all(ad.mul(ad.relu(x), ad.relu(x))),
            random_point(rng, (3, 4), min_abs=10 * STEP)))
        yield ("gelu", _check(
            lambda x: ad.sum_all(ad.mul(ad.gelu(x), ad.gelu(x))),
            rng.normal(size=(3, 4))))

        adapter = Adapter(6, 3, "gelu", rng)
        adapter.w_up.values = rng.normal(size=adapter.w_up.shape)
        adapter.b_up.values = rng.normal(size=adapter.b_up.shape)
        target = rng.normal(size=(2, 6))
        yield ("adapter_forward", _check(
            lambda x: ad.mean_all(ad.mul(adapter_forward(adapter, x),
                                         ad.Tensor(target))),
            rng.normal(size=(2, 6))))
        yield ("adapter_forward_wdown", _check(
            lambda wd: _swapped_loss(adapter, "w_down", wd, adapter_forward,
                                     np.linspace(-1.0, 1.0, 12).reshape(2, 6)),
            adapter.w_down.values.copy()))

        proj = DimensionProjector(8, 5, 4, "gelu", rng)
        proj.w2.values = rng.normal(size=proj.w2.shape)
        ptarget = rng.normal(size=(2, 4))
        yield ("projector_forward", _check(
            lambda x: ad.mean_all(ad.mul(projector_forward(proj, x),
                                         ad.Tensor(ptarget))),
            random_point(rng, (2, 8), min_abs=0.05)))

        base = Tensor(rng.normal(size=(5, 5)))
        lora = LoRAModule(base, 2, 2.0, rng)
        lora.b.values = rng.normal(size=lora.b.shape)
        lx = rng.normal(size=(3, 5))
        yield ("lora_forward", _check(
            lambda a: _swapped_loss(lora, "a", a, lora_forward, lx), lora.a.values.copy()))

        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(4, 6))
        yield ("nce", _check(
            lambda x: nce(ad.l2_normalize_rows(x),
                          ad.l2_normalize_rows(ad.Tensor(k)), 0.2),
            random_point(rng, (4, 6), min_abs=0.05)))
        yield ("clip_symmetric_loss", _check(
            lambda x: clip_symmetric_loss(ad.l2_normalize_rows(x),
                                          ad.l2_normalize_rows(ad.Tensor(k)), 0.2),
            random_point(rng, (4, 6), min_abs=0.05)))
        yield ("distill_loss", _check(
            lambda x: distill_loss(x, ad.Tensor(k)), rng.normal(size=(4, 6))))
        yield ("cross_model_contrastive", _check(
            lambda x: cross_model_contrastive(
                ad.l2_normalize_rows(x), ad.l2_normalize_rows(ad.Tensor(q)), 0.3),
            random_point(rng, (4, 6), min_abs=0.05)))
        cfg = CompatLossConfig(distill_weight=1.5,
                               contrastive=ContrastiveConfig(temperature=0.3))
        yield ("compat_total", _check(
            lambda x: compat_total(ad.l2_normalize_rows(x),
                                   ad.l2_normalize_rows(ad.Tensor(q)),
                                   ad.l2_normalize_rows(ad.Tensor(k)), cfg)[0],
            random_point(rng, (4, 6), min_abs=0.05)))

        # Shape primitives, read out as sum(f(x) * w) for a fixed random w: x enters
        # concat twice, scaled apart, and id 1 repeats, so their gradients must add.
        ids = np.array([[1, 3], [1, 0]])
        for name, f, shape in (
                ("transpose", lambda x: ad.transpose(x, (2, 0, 1)), (2, 3, 4)),
                ("reshape", lambda x: ad.reshape(x, (6, 4)), (2, 3, 4)),
                ("index_select", lambda x: ad.index_select(x, 1, 2), (2, 3, 4)),
                ("concat", lambda x: ad.concat([x, ad.scale(x, 2.0)], axis=0), (2, 3)),
                ("broadcast_to", lambda x: ad.broadcast_to(x, (2, 3, 4)), (3, 1)),
                ("embedding_lookup", lambda t: ad.embedding_lookup(t, ids), (5, 4))):
            w = Tensor(rng.normal(size=f(Tensor(np.zeros(shape))).shape))
            yield (name, _check(lambda x: ad.sum_all(ad.mul(f(x), w)),
                                rng.normal(size=shape)))


def _swapped_loss(module, attr, value, forward, x):
    """mean(out * out) of ``forward(module, x)`` with ``module.attr`` = ``value``."""
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        out = forward(module, Tensor(x))
        return ad.mean_all(ad.mul(out, out))
    finally:
        setattr(module, attr, saved)


def run_gradcheck_suite(seeds=range(20)):
    worst = {}
    for name, err in gradcheck_cases(seeds):
        worst[name] = max(worst.get(name, 0.0), err)
    return [(name, err, err < GRAD_TOL) for name, err in sorted(worst.items())]


def random_taca_config(rng: np.random.Generator):
    layers = int(rng.integers(1, 6))
    width = int(rng.choice([8, 16, 32, 64]))
    heads = int(rng.choice([1, 2, 4]))
    d_new = int(rng.integers(4, 64))
    d_old = int(rng.integers(4, 48))
    spec = ImageSpec(16, 16, 1, 4)
    enc = VisualEncoderConfig(spec, layers, width, heads, d_new)
    subset = sorted(rng.choice(np.arange(1, layers + 1),
                               size=int(rng.integers(1, layers + 1)),
                               replace=False).tolist())
    cfg = TacaConfig(
        variant="adapter",
        bottleneck=int(rng.integers(1, width)),
        inserted_layers=tuple(int(i) for i in subset),
        adapters_per_block=int(rng.choice([1, 2])),
        projector_hidden=int(rng.integers(4, 128)))
    return cfg, enc, d_old


def run_params_suite(num_configs: int = 50, seed: int = 0):
    """Formula vs enumerated trainable element totals over random configs."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(num_configs):
        cfg, enc, d_old = random_taca_config(rng)
        counts = count_trainable(cfg, enc, d_old)
        weights = init_encoder(enc, seed=i)
        attachment, _ = attach_taca(weights, cfg, d_old, seed=i)
        enumerated = sum(t.values.size for t in attachment.trainable_tensors())
        layers = cfg.resolve_layers(enc.layers)
        formula_expected = (cfg.adapters_per_block * 2 * len(layers)
                            * enc.width * cfg.bottleneck
                            + enc.embed_dim * cfg.projector_hidden
                            + cfg.projector_hidden * d_old)
        ok = (counts["formula_count"] == formula_expected
              and counts["exact_count"] == enumerated)
        results.append((f"config{i:02d}", counts["exact_count"], ok))
    return results


def run_losses_suite():
    """Closed-form loss table."""
    results = []
    e = np.e

    feats = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    val = nce(feats, feats, 1.0).item()
    expected = -np.log(e / (e + 1.0))
    results.append(("nce_orthonormal_B2", val, abs(val - expected) < 1e-9))

    for b in (2, 3, 5):
        q = Tensor(np.eye(b)[:, :b])
        k = Tensor(np.tile(np.eye(b)[0], (b, 1)))
        val = nce(q, k, 1.0).item()
        results.append((f"nce_uniform_B{b}", val, abs(val - np.log(b)) < 1e-9))

    single = Tensor(np.array([[1.0, 0.0]]))
    results.append(("nce_B1_zero", nce(single, single, 0.5).item(),
                    abs(nce(single, single, 0.5).item()) < 1e-12))

    a = Tensor(np.array([[3.0, 4.0]]))
    zero = Tensor(np.zeros((1, 2)))
    val = distill_loss(a, zero).item()
    results.append(("distill_hand_case", val, val == 12.5))

    rng = np.random.default_rng(3)
    q = ad.l2_normalize_rows(Tensor(rng.normal(size=(4, 6))))
    k = ad.l2_normalize_rows(Tensor(rng.normal(size=(4, 6))))
    o = ad.l2_normalize_rows(Tensor(rng.normal(size=(4, 6))))
    cfg = CompatLossConfig(distill_weight=2.0,
                           contrastive=ContrastiveConfig(temperature=0.07))
    total, comps = compat_total(q, k, o, cfg)
    recomposed = comps["contrastive"] + 2.0 * comps["distillation"]
    results.append(("total_recomposition", total.item(),
                    abs(total.item() - recomposed) < 1e-12))
    return results


# suite name -> (runner, format of each result's value)
SUITES = {"gradcheck": (run_gradcheck_suite, "max_rel_err={:.3e}"),
          "params": (run_params_suite, "exact_count={}"),
          "losses": (run_losses_suite, "value={:.9f}")}
