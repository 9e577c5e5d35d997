"""Show that every independent check in checks.py bites.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It builds a tiny genuine pipeline
with the CLI (a few training steps), then hands each check first a genuine
output, which must pass, and then deliberately corrupted copies, each of
which must fail. Checks that judge trained quality (loss decrease, chance
levels) get small hand-made reports instead of the tiny pipeline's. Exits 1
if any case behaves otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from hotplug import cli  # noqa: E402
from hotplug.data import load_dataset  # noqa: E402

N, N_EVAL, SEED = 128, 128, 3


def flip_bit(blob: bytes, at: int) -> bytes:
    out = bytearray(blob)
    out[at] ^= 1
    return bytes(out)


def build(d: Path):
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({
        "old_encoder": {"pretrain_steps": 3}, "new_encoder": {"pretrain_steps": 3},
        "train": {"steps": 3, "batch_size": 16, "seed": SEED}}))
    commands = [
        ["gen-data", "--out", "train.tacd", "--n", str(N), "--seed", str(SEED)],
        ["gen-data", "--out", "eval.tacd", "--n", str(N_EVAL), "--seed", str(SEED + 1)],
        ["pretrain", "--role", "old", "--data", "train.tacd", "--out", "old.tack"],
        ["pretrain", "--role", "new", "--data", "train.tacd", "--out", "new.tack"],
        ["train-taca", "--old", "old.tack", "--new", "new.tack", "--data", "train.tacd",
         "--out", "taca.tack", "--log", "loss.csv"],
        ["eval-compat", "--old", "old.tack", "--taca", "taca.tack", "--new-cold", "new.tack",
         "--data", "eval.tacd", "--task", "retrieval", "--out", "retrieval.json"],
    ]
    for argv in commands:
        argv = [a if not a.endswith((".tacd", ".tack", ".csv", ".json")) else str(d / a)
                for a in argv] + ["--config", str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 3):
            raise SystemExit(f"selftest: hotplug {argv[0]} exited {code}")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    build(WORK)
    results = []

    def case(name: str, expect_ok: bool, fn, *args):
        ok, detail = checks.run_check(fn, *args)
        results.append(ok == expect_ok)
        verdict = "ok  " if ok == expect_ok else "BAD "
        print(f"{verdict}{name}: check {'passed' if ok else 'failed'} ({detail})")

    train_blob = (WORK / "train.tacd").read_bytes()
    parsed = checks.parse_tacd(train_blob)
    case("tacd genuine", True, checks.check_tacd_roundtrip,
         train_blob, N, SEED, WORK / "rt.tacd")
    case("tacd with one image bit flipped", False, checks.check_tacd_roundtrip,
         flip_bit(train_blob, len(train_blob) - 4 * N * 4 - 8), N, SEED, WORK / "rt.tacd")
    case("tacd cut short", False, checks.check_tacd_roundtrip,
         train_blob[:-1], N, SEED, WORK / "rt.tacd")
    case("tacd checked against another seed", False, checks.check_tacd_roundtrip,
         train_blob, N, SEED + 1, WORK / "rt.tacd")

    case("captions genuine", True, checks.check_captions,
         parsed["captions"], parsed["latents"])
    latents = parsed["latents"].copy()
    latents[5, 1] = (latents[5, 1] + 1) % 4
    case("captions with one latent changed", False, checks.check_captions,
         parsed["captions"], latents)

    lam = 2.0
    made = [(i, 3.0 - 0.1 * i + lam * (0.5 - 0.01 * i), 3.0 - 0.1 * i, 0.5 - 0.01 * i)
            for i in range(20)]
    case("loss log genuine", True, checks.check_loss_log, made, lam, 32)
    wrong = list(made)
    wrong[7] = (7, made[7][1] + 1e-9, made[7][2], made[7][3])
    case("loss log with a wrong total", False, checks.check_loss_log, wrong, lam, 32)
    case("loss log that does not fall", False, checks.check_loss_log, made[::-1], lam, 32)
    case("loss log whose contrastive stays above ln(batch)", False,
         checks.check_loss_log, made, lam, 2)

    taca_blob = (WORK / "taca.tack").read_bytes()
    new_blob = (WORK / "new.tack").read_bytes()
    case("backbone genuine", True, checks.check_backbone, taca_blob, new_blob)
    _, tensors = checks.parse_tack(taca_blob)
    shape, raw = tensors["backbone/proj"]
    at = taca_blob.index(raw) + 17
    case("backbone with one bit flipped", False, checks.check_backbone,
         flip_bit(taca_blob, at), new_blob)

    grads = checks.attachment_gradients(WORK / "old.tack", WORK / "taca.tack",
                                        load_dataset(WORK / "train.tacd"), SEED, lam)
    case("gradients genuine", True, checks.check_gradients, grads)
    bent = copy.deepcopy(grads)
    k = int(np.argmax(np.abs(bent["analytic"])))
    bent["analytic"][k] *= 1 + 1e-5
    case("gradients with one coordinate perturbed by 1e-5", False,
         checks.check_gradients, bent)
    leaked = dict(grads, frozen_with_grad=1)
    case("gradients with a frozen tensor holding a gradient", False,
         checks.check_gradients, leaked)

    report = json.loads((WORK / "retrieval.json").read_text())
    feats = checks.retrieval_features(WORK / "old.tack", WORK / "taca.tack",
                                      WORK / "new.tack", load_dataset(WORK / "eval.tacd"))
    case("recall genuine", True, checks.check_recall, report, feats)
    for key in ("m_old_old", "m_old_new", "m_new_new"):
        changed = dict(report, **{key: report[key] + 1 / N_EVAL})
        case(f"recall with {key} changed by one query", False,
             checks.check_recall, changed, feats)

    case("bridge against a strong hot-plug", True, checks.check_bridge,
         {"m_old_new": 0.9}, feats, SEED)
    case("bridge against a hot-plug at chance", False, checks.check_bridge,
         {"m_old_new": checks.CHANCE}, feats, SEED)

    cls = {"m_old_old": 0.9, "m_old_new": 0.8, "m_new_new": 1.0, "left_ok": False,
           "per_seed": {"m_old_old": [0.9, 0.95, 0.85], "m_old_new": [0.8, 0.7, 0.82],
                        "m_new_new": [1.0, 1.0, 0.99]}}
    case("classification genuine", True, checks.check_classification, cls)
    case("classification with m_old_new not the median", False,
         checks.check_classification, dict(cls, m_old_new=0.82))
    case("classification with left_ok flipped", False,
         checks.check_classification, dict(cls, left_ok=True))
    low = copy.deepcopy(cls)
    low.update(m_old_old=0.1, left_ok=True)
    low["per_seed"]["m_old_old"] = [0.1, 0.1, 0.1]
    case("classification with old top-1 near chance", False,
         checks.check_classification, low)
    low = copy.deepcopy(cls)
    low.update(m_old_new=0.02)
    low["per_seed"]["m_old_new"] = [0.02, 0.01, 0.03]
    case("classification with hot-plug top-1 near chance", False,
         checks.check_classification, low)

    first = checks.digest_dir(WORK)
    case("same outputs genuine", True, checks.check_same_outputs, first, dict(first))
    case("same outputs with one file changed", False, checks.check_same_outputs,
         first, dict(first, **{"taca.tack": "0" * 64}))

    shutil.rmtree(WORK)
    bad = results.count(False)
    print(f"{len(results) - bad}/{len(results)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
