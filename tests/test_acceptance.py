"""Acceptance gate: one test per criterion A1-A9, each printing one
PASS/FAIL line. The expensive default pipeline (seeds 0, 1, 2) runs once in a
session fixture and feeds A3, A4, A5, and A8."""

import json
import time

import numpy as np
import pytest

from hotplug import config as cm
from hotplug.cli import EXIT_OK, EXIT_ORDERING, EXIT_USAGE, EXIT_IO, main
from hotplug.data import NUM_FACTORS, generate_dataset, load_dataset
from hotplug.encoders import encode_image, init_encoder
from hotplug.evaluation import raw_swap_baseline
from hotplug.peft import attach_taca, count_trainable
from hotplug.training import attachment_from_checkpoint, load_checkpoint
from hotplug.verify import (
    random_taca_config,
    run_gradcheck_suite,
    run_losses_suite,
    run_params_suite,
)

PIPELINE_SEEDS = (0, 1, 2)


def _verdict(name: str, ok: bool, detail: str):
    print(f"\n{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _median(values):
    return float(np.median(values))


def _per_seed(values) -> str:
    """The figures behind a median, seed by seed, so a flip on one seed shows."""
    return "/".join(f"{v:.3f}" for v in values)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Default pipeline per seed, plus the two ablation arms for A8.

    Arms per seed: "default" (full objective), "lam0" (distillation weight 0),
    "dp2" (bottleneck 2). Pretrained encoders are shared across arms.
    """
    root = tmp_path_factory.mktemp("pipeline")
    data_path = str(root / "train.tacd")
    eval_path = str(root / "eval.tacd")
    t_start = time.monotonic()
    assert main(["gen-data", "--out", data_path, "--n", "2048",
                 "--config", _cfg(root, "data", {})]) == EXIT_OK
    assert main(["gen-data", "--out", eval_path, "--n", "1024", "--seed", "99",
                 "--config", _cfg(root, "evaldata", {})]) == EXIT_OK
    runs = {}
    t_ablation = 0.0
    for seed in PIPELINE_SEEDS:
        base = {"train": {"seed": seed}}
        old_path = str(root / f"old{seed}.tack")
        new_path = str(root / f"new{seed}.tack")
        cfg = _cfg(root, f"s{seed}", base)
        assert main(["pretrain", "--role", "old", "--data", data_path,
                     "--out", old_path, "--config", cfg]) == EXIT_OK
        assert main(["pretrain", "--role", "new", "--data", data_path,
                     "--out", new_path, "--config", cfg]) == EXIT_OK
        arms = {
            "default": base,
            "lam0": {**base, "loss": {"distill_weight": 0.0}},
            "dp2": {**base, "taca": {"bottleneck": 2}},
        }
        for arm, overrides in arms.items():
            t_arm = time.monotonic()
            acfg = _cfg(root, f"s{seed}_{arm}", overrides)
            taca_path = str(root / f"taca{seed}_{arm}.tack")
            assert main(["train-taca", "--old", old_path, "--new", new_path,
                         "--data", data_path, "--out", taca_path,
                         "--config", acfg]) == EXIT_OK
            reports = {}
            codes = {}
            tasks = ("retrieval", "classification") if arm == "default" else ("retrieval",)
            for task in tasks:
                report_path = root / f"report{seed}_{arm}_{task}.json"
                codes[task] = main(["eval-compat", "--old", old_path,
                                    "--taca", taca_path, "--new-cold", new_path,
                                    "--data", eval_path, "--task", task,
                                    "--out", str(report_path), "--config", acfg])
                reports[task] = json.loads(report_path.read_text())
            runs[(seed, arm)] = {"taca": taca_path, "reports": reports,
                                 "codes": codes}
            if arm != "default":
                t_ablation += time.monotonic() - t_arm
        runs[(seed, "old")] = old_path
        runs[(seed, "new")] = new_path
    t_total = time.monotonic() - t_start
    return {"root": root, "data": data_path, "eval": eval_path, "runs": runs,
            "t_core": t_total - t_ablation, "t_total": t_total}


def _cfg(root, tag, overrides) -> str:
    path = root / f"config_{tag}.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def test_a1_gradient_oracle():
    t0 = time.monotonic()
    results = run_gradcheck_suite(seeds=range(20))
    elapsed = time.monotonic() - t0
    names = {name for name, _, _ in results}
    required = {"matmul", "add_bias", "mul", "softmax_rows", "log_softmax_rows",
                "l2_normalize_rows", "layer_norm", "relu", "gelu",
                "adapter_forward", "projector_forward", "lora_forward",
                "nce", "clip_symmetric_loss", "distill_loss",
                "cross_model_contrastive", "transpose", "reshape", "index_select",
                "concat", "broadcast_to", "embedding_lookup"}
    missing = required - names
    worst = max(err for _, err, _ in results)
    ok = all(flag for _, _, flag in results) and not missing and elapsed < 60.0
    _verdict("A1", ok,
             f"{len(results)} checks over 20 seeds, max rel err {worst:.2e} "
             f"(< 1e-6), {elapsed:.1f}s (< 60s)"
             + (f", missing {sorted(missing)}" if missing else ""))


def test_a2_closed_form_losses():
    t0 = time.monotonic()
    results = run_losses_suite()
    elapsed = time.monotonic() - t0
    bad = [name for name, _, ok in results if not ok]
    ok = not bad and elapsed < 5.0
    _verdict("A2", ok,
             f"{len(results)} closed-form cases, {elapsed:.2f}s (< 5s)"
             + (f", failing {bad}" if bad else ""))


def test_a3_left_ordering(pipeline):
    margins, seeds = {}, {}
    for task in ("retrieval", "classification"):
        olds, news = ([pipeline["runs"][(s, "default")]["reports"][task][key]
                       for s in PIPELINE_SEEDS] for key in ("m_old_old", "m_old_new"))
        old, new = _median(olds), _median(news)
        margins[task] = (old, new, new - old)
        seeds[task] = f"{_per_seed(olds)} -> {_per_seed(news)}"
    elapsed = pipeline["t_core"]
    ok = all(m >= 0.02 for _, _, m in margins.values()) and elapsed < 600.0
    detail = "; ".join(
        f"{task} median {old:.4f} -> {new:.4f} (margin {m:+.4f}, need >= 0.02), "
        f"per seed {seeds[task]}"
        for task, (old, new, m) in margins.items())
    _verdict("A3", ok, f"{detail}; {elapsed:.0f}s (< 600s)")


def test_a4_raw_swap_is_weak(pipeline):
    dataset = load_dataset(pipeline["eval"])
    chance = 1.0 / NUM_FACTORS
    worst = 0.0
    ok = True
    for seed in PIPELINE_SEEDS:
        old = load_checkpoint(pipeline["runs"][(seed, "old")])
        new = load_checkpoint(pipeline["runs"][(seed, "new")])
        swap = raw_swap_baseline(old, new, dataset, seed=seed)
        trained = pipeline["runs"][(seed, "default")]["reports"]["retrieval"]["m_old_new"]
        worst = max(worst, swap)
        ok = ok and swap < 2.0 * chance and swap < trained
    _verdict("A4", ok,
             f"raw swap R@1 <= {worst:.4f} on all seeds "
             f"(< {2 * chance:.4f} = 2x chance, and < trained m_old_new)")


def test_a5_freezing(pipeline):
    problems = []
    for seed in PIPELINE_SEEDS:
        new = load_checkpoint(pipeline["runs"][(seed, "new")])
        taca = load_checkpoint(pipeline["runs"][(seed, "default")]["taca"])
        for name, tensor in new.tensors.items():
            if not name.startswith("visual/"):
                continue
            frozen = taca.tensors["backbone/" + name[len("visual/"):]]
            if not np.array_equal(tensor, frozen):
                problems.append(f"seed {seed}: {name} drifted")
        attachment, adapted = attachment_from_checkpoint(taca)
        trainable_names = set(attachment.named_tensors())
        stored = {n for n in taca.tensors if not n.startswith("backbone/")}
        if stored != trainable_names:
            problems.append(f"seed {seed}: trainable set mismatch")
        if any(not t.trainable for t in attachment.trainable_tensors()):
            problems.append(f"seed {seed}: attachment tensor not trainable")
        if any(t.trainable for t in adapted.weights.tensors()):
            problems.append(f"seed {seed}: backbone tensor trainable")
    # The training loop additionally audits all three backbones (old visual,
    # old text, new visual) bitwise after every run and raises if any moved;
    # the pipeline fixture completing is that audit passing.
    _verdict("A5", not problems,
             "backbones bitwise frozen, trainable set == attachment"
             + (f"; {problems}" if problems else ""))


def test_a6_zero_init_identity():
    t0 = time.monotonic()
    cfg = cm.resolve_config()
    vcfg = cm.visual_config_from(cfg, "new")
    rng = np.random.default_rng(5)
    spec = vcfg.image_spec
    images = rng.uniform(0.0, 1.0,
                         size=(4, spec.height, spec.width, spec.channels))
    drift = False
    for seed in range(3):
        weights = init_encoder(vcfg, seed=seed)
        _, plain = encode_image(weights, images, return_blocks=True)
        attachment, _ = attach_taca(weights, cm.taca_config_from(cfg),
                                    dim_old=8, seed=seed)
        _, adapted = encode_image(weights, images, attachment=attachment,
                                  return_blocks=True)
        drift = drift or not all(
            np.array_equal(a, b) for a, b in zip(plain, adapted))
    elapsed = time.monotonic() - t0
    _verdict("A6", not drift and elapsed < 5.0,
             f"fresh adapter stacks leave all block outputs bitwise unchanged, "
             f"{elapsed:.2f}s (< 5s)")


def test_a7_parameter_accounting():
    t0 = time.monotonic()
    results = run_params_suite(num_configs=50)
    bad = [name for name, _, ok in results if not ok]
    # Spot-check the closed-form expression independently of the suite.
    rng = np.random.default_rng(77)
    formula_ok = True
    for _ in range(10):
        tcfg, vcfg, dim_old = random_taca_config(rng)
        if tcfg.variant != "adapter":
            continue
        layers = tcfg.resolve_layers(vcfg.layers)
        expect = (tcfg.adapters_per_block * 2 * len(layers) * vcfg.width
                  * tcfg.bottleneck + vcfg.embed_dim * tcfg.projector_hidden
                  + tcfg.projector_hidden * dim_old)
        formula_ok = formula_ok and (
            count_trainable(tcfg, vcfg, dim_old)["formula_count"] == expect)
    elapsed = time.monotonic() - t0
    ok = len(results) == 50 and not bad and formula_ok and elapsed < 10.0
    _verdict("A7", ok,
             f"50 random configs: formula and enumeration agree exactly, "
             f"{elapsed:.2f}s (< 10s)" + (f"; failing {bad}" if bad else ""))


def test_a8_ablation_directions(pipeline):
    arms = {arm: [pipeline["runs"][(s, arm)]["reports"]["retrieval"]["m_old_new"]
                  for s in PIPELINE_SEEDS] for arm in ("default", "lam0", "dp2")}
    full, lam0, dp2 = (_median(arms[arm]) for arm in ("default", "lam0", "dp2"))
    elapsed = pipeline["t_total"]
    ok = full >= lam0 and full >= dp2 and elapsed < 1500.0
    _verdict("A8", ok,
             f"median m_old_new: full {full:.4f} >= contrastive-only {lam0:.4f}; "
             f"d'=16 {full:.4f} >= d'=2 {dp2:.4f}; per seed full "
             f"{_per_seed(arms['default'])}, contrastive-only {_per_seed(arms['lam0'])}, "
             f"d'=2 {_per_seed(arms['dp2'])}; {elapsed:.0f}s (< 1500s)")


def test_a9_determinism_and_formats(tmp_path):
    t0 = time.monotonic()
    fast = {
        "old_encoder": {"layers": 1, "width": 16, "heads": 2, "embed_dim": 8,
                        "pretrain_steps": 4},
        "new_encoder": {"layers": 1, "width": 16, "heads": 2, "embed_dim": 12,
                        "pretrain_steps": 4},
        "text_encoder": {"layers": 1, "width": 16, "heads": 2},
        "taca": {"bottleneck": 4, "projector_hidden": 8},
        "train": {"batch_size": 8, "steps": 4},
        "eval": {"head_seeds": [0]},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fast))
    problems = []

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        paths = {k: str(d / k) for k in ("data", "eval", "old", "new", "taca",
                                         "report")}
        assert main(["gen-data", "--out", paths["data"], "--n", "128",
                     "--config", str(cfg)]) == EXIT_OK
        assert main(["gen-data", "--out", paths["eval"], "--n", "160",
                     "--seed", "9", "--config", str(cfg)]) == EXIT_OK
        assert main(["pretrain", "--role", "old", "--data", paths["data"],
                     "--out", paths["old"], "--config", str(cfg)]) == EXIT_OK
        assert main(["pretrain", "--role", "new", "--data", paths["data"],
                     "--out", paths["new"], "--config", str(cfg)]) == EXIT_OK
        assert main(["train-taca", "--old", paths["old"], "--new", paths["new"],
                     "--data", paths["data"], "--out", paths["taca"],
                     "--config", str(cfg)]) == EXIT_OK
        assert main(["eval-compat", "--old", paths["old"], "--taca",
                     paths["taca"], "--new-cold", paths["new"],
                     "--data", paths["eval"], "--task", "retrieval",
                     "--out", paths["report"], "--config", str(cfg)]) in (
                         EXIT_OK, EXIT_ORDERING)
        return paths

    a, b = run("a"), run("b")
    for kind in ("data", "eval", "old", "new", "taca", "report"):
        if open(a[kind], "rb").read() != open(b[kind], "rb").read():
            problems.append(f"{kind} not bitwise reproducible")

    # Format corruption: documented exit codes.
    blob = open(a["old"], "rb").read()
    bad_magic = tmp_path / "bad_magic.tack"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    truncated = tmp_path / "truncated.tack"
    truncated.write_bytes(blob[:len(blob) // 2])
    trailing = tmp_path / "trailing.tack"
    trailing.write_bytes(blob + b"\x00")
    cases = [
        (["pretrain", "--role", "old", "--data", a["old"],
          "--out", str(tmp_path / "x"), "--config", str(cfg)], EXIT_IO,
         "checkpoint as dataset"),
        (["train-taca", "--old", str(bad_magic), "--new", a["new"],
          "--data", a["data"], "--out", str(tmp_path / "x"),
          "--config", str(cfg)], EXIT_IO, "bad magic"),
        (["train-taca", "--old", str(truncated), "--new", a["new"],
          "--data", a["data"], "--out", str(tmp_path / "x"),
          "--config", str(cfg)], EXIT_IO, "truncated checkpoint"),
        (["train-taca", "--old", str(trailing), "--new", a["new"],
          "--data", a["data"], "--out", str(tmp_path / "x"),
          "--config", str(cfg)], EXIT_IO, "trailing bytes"),
        (["gen-data", "--out", str(tmp_path / "x"), "--n", "0",
          "--config", str(cfg)], EXIT_USAGE, "n=0"),
        (["gen-data", "--out", str(tmp_path / "x"), "--data", "zzz"],
         EXIT_USAGE, "unknown flag"),
    ]
    for argv, expected, label in cases:
        got = main(argv)
        if got != expected:
            problems.append(f"{label}: exit {got}, expected {expected}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 120.0
    _verdict("A9", ok,
             f"bitwise reproducible artifacts and documented error codes, "
             f"{elapsed:.1f}s (< 120s)" + (f"; {problems}" if problems else ""))
