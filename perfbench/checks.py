"""Independent checks of the program's outputs.

Each check compares an output with a computation made apart from the program
(own file parsers, own ranking, finite differences) or with a property the
method must have. Every check returns ``(ok, detail)`` and takes the outputs
as arguments, so ``selftest.py`` can hand it deliberately corrupted ones.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import struct

import numpy as np

from hotplug import autodiff as ad
from hotplug import data as data_mod
from hotplug import verify
from hotplug.config import DEFAULT_CONFIG
from hotplug.encoders import encode_image, encode_text
from hotplug.losses import CompatLossConfig, ContrastiveConfig, compat_total
from hotplug.training import (attachment_from_checkpoint,
                              clip_encoders_from_checkpoint, load_checkpoint)

from tracer import patch_function, unpatch

K = 1
# The program encodes evaluation inputs in chunks of this many rows; features
# are recomputed with the same chunks so that they agree bit for bit.
CHUNK = 64
GALLERY_SEED = DEFAULT_CONFIG["eval"]["gallery_seed"]
CHANCE = 1.0 / data_mod.NUM_FACTORS
# "Far above chance": at least ten times the 1/64 of guessing for the old and
# cold-plug top-1, five times for the hot-plug. The hot-plug rides on the new
# encoder, whose pretraining stalls on some seeds: at seed 23 the LoRA
# hot-plug reaches 0.14-0.16, while a broken adapted path sits at chance.
FAR_ABOVE_CHANCE = {"m_old_old": 10 * CHANCE, "m_old_new": 5 * CHANCE,
                    "m_new_new": 10 * CHANCE}
# "Far below the hot-plug": an untrained bridge reaches at most a third of it.
BRIDGE_SHARE = 1.0 / 3.0
GRAD_SAMPLES = 24
GRAD_BATCH = 16
# Relative agreement of a sum written to the loss log with its recomputation.
LOG_RTOL = 1e-12
# A central difference carries a round-off error of a few ulps of the loss
# divided by the step; a gradient coordinate far smaller than that cannot be
# resolved to GRAD_TOL, so the check allows this much absolute disagreement.
FD_ULPS = 64
FD_STEPS = (verify.STEP, verify.STEP / 10, verify.STEP / 100)


# -- file formats, parsed without the program's readers ---------------------

def parse_tacd(blob: bytes) -> dict:
    n, h, w, c, p = struct.unpack_from("<IIIII", blob, 8)
    vocab, cap_len, seed = struct.unpack_from("<IIq", blob, 28)
    (digest_len,) = struct.unpack_from("<I", blob, 44)
    at = 48 + digest_len
    latents = np.frombuffer(blob, "<u1", n * 3, at).reshape(n, 3)
    at += n * 3
    images = np.frombuffer(blob, "<f8", n * h * w * c, at).reshape(n, h, w, c)
    at += images.nbytes
    captions = np.frombuffer(blob, "<u4", n * cap_len, at).reshape(n, cap_len)
    return {"magic": blob[:4], "n": n, "spec": (h, w, c, p), "seed": seed,
            "latents": latents, "images": images, "captions": captions,
            "size": at + captions.nbytes}


def parse_tack(blob: bytes) -> tuple[dict, dict]:
    """(metadata, {name: (shape, raw little-endian float64 bytes)})."""
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + meta_len])
    at = 12 + meta_len
    (count,) = struct.unpack_from("<I", blob, at)
    at += 4
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, at)
        name = blob[at + 4:at + 4 + name_len].decode()
        at += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, at)
        shape = struct.unpack_from(f"<{rank}I", blob, at + 4)
        at += 4 + 4 * rank
        size = 8 * math.prod(shape)
        tensors[name] = (shape, blob[at:at + size])
        at += size
    return meta, tensors


def run_check(fn, *args) -> tuple:
    """Run one check; an exception raised on a malformed output is a failure."""
    try:
        return fn(*args)
    except Exception as exc:
        return False, f"raised {exc!r}"


def digest_dir(d) -> dict:
    """sha256 of every file in a directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


def check_same_outputs(first: dict, again: dict) -> tuple:
    """A repeated round at the same seed must write the same bytes."""
    differ = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
    if differ:
        return False, f"outputs differ from the first round: {', '.join(differ)}"
    return True, f"{len(first)} outputs bitwise equal to the first round"


# -- data --------------------------------------------------------------------

def check_tacd_roundtrip(blob: bytes, n: int, seed: int, save_path) -> tuple:
    """The file holds exactly the dataset ``generate_dataset(n, seed)``, the
    program's reader returns it bit for bit, and saving what was loaded
    reproduces the file byte for byte."""
    own = parse_tacd(blob)
    if own["magic"] != b"TACD" or own["size"] != len(blob):
        return False, "dataset file is not one whole .tacd container"
    if (own["n"], own["seed"]) != (n, seed):
        return False, f"header says n={own['n']} seed={own['seed']}, gen-data was given {n} and {seed}"
    ref = data_mod.generate_dataset(n, seed, data_mod.ImageSpec(*own["spec"]))
    for field in ("images", "captions", "latents"):
        if not np.array_equal(own[field], getattr(ref, field)):
            return False, f"{field} in the file differ from generate_dataset(n={n}, seed={seed})"
    path = save_path.with_suffix(".in.tacd")
    path.write_bytes(blob)
    loaded = data_mod.load_dataset(path)
    for field in ("images", "captions", "latents"):
        if not np.array_equal(getattr(loaded, field), own[field]):
            return False, f"load_dataset returned different {field} than the file holds"
    data_mod.save_dataset(loaded, save_path)
    if save_path.read_bytes() != blob:
        return False, "saving the loaded dataset does not reproduce the file"
    return True, f"{n} samples round-trip bitwise"


def check_captions(captions, latents) -> tuple:
    for i, (caption, latent) in enumerate(zip(captions, latents)):
        z = data_mod.latent_from_caption(caption)
        if (z.shape_id, z.color_level, z.position_id) != tuple(int(v) for v in latent):
            return False, f"caption {i} decodes to {z}, stored latent is {tuple(latent)}"
    return True, f"{len(captions)} captions decode to their latents"


# -- training ------------------------------------------------------------------

def read_loss_log(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows]


def check_loss_log(rows, distill_weight: float, batch: int) -> tuple:
    if not rows:
        return False, "empty loss log"
    for step, total, contra, distill in rows:
        expect = contra + distill_weight * distill
        if abs(total - expect) > LOG_RTOL * max(1.0, abs(expect)):
            return False, f"step {step}: total {total!r} != {contra!r} + {distill_weight} * {distill!r}"
    if not rows[-1][1] < rows[0][1]:
        return False, f"total loss did not fall: {rows[0][1]:.4f} -> {rows[-1][1]:.4f}"
    if not rows[-1][2] < math.log(batch):
        return False, f"last contrastive term {rows[-1][2]:.4f} is not below ln({batch})"
    return True, f"{len(rows)} rows; total {rows[0][1]:.4f} -> {rows[-1][1]:.4f}"


def check_backbone(taca_blob: bytes, new_blob: bytes) -> tuple:
    """The attachment checkpoint carries the new visual encoder unchanged."""
    _, taca = parse_tack(taca_blob)
    _, new = parse_tack(new_blob)
    visual = {k.split("/", 1)[1]: v for k, v in new.items() if k.startswith("visual/")}
    backbone = {k.split("/", 1)[1]: v for k, v in taca.items() if k.startswith("backbone/")}
    if not visual or visual.keys() != backbone.keys():
        return False, "backbone/* and visual/* tensor names differ"
    for name, (shape, raw) in visual.items():
        if backbone[name] != (shape, raw):
            return False, f"backbone/{name} differs from visual/{name}"
    return True, f"{len(visual)} backbone tensors bitwise equal"


@contextlib.contextmanager
def relu_inputs(record: list):
    """Record the sign pattern of every relu input computed in the block."""
    def spy_of(original):
        def spy(a, kind):
            if kind == "relu":
                record.append(a.values > 0)
            return original(a, kind)
        return spy

    patches = patch_function(ad, "elementwise_activation", spy_of)
    try:
        yield
    finally:
        unpatch(patches)


def central_difference(loss, values, i: int):
    """(derivative, step) of ``loss`` along ``values[i]``. A step whose two
    ends put some relu input on different sides of its kink does not measure
    a derivative; it is shrunk, and None is returned if no step avoids it."""
    saved = values[i]
    for step in FD_STEPS:
        signs = []
        with relu_inputs(signs):
            values[i] = saved + step
            hi = loss().item()
            half = len(signs)
            values[i] = saved - step
            lo = loss().item()
        values[i] = saved
        if all(np.array_equal(a, b) for a, b in zip(signs[:half], signs[half:])):
            return (hi - lo) / (2 * step), step
    return None, None


def attachment_gradients(old_path, taca_path, dataset, seed: int,
                         distill_weight: float) -> dict:
    """Analytic and central-difference gradients of ``compat_total`` with
    respect to a seeded sample of attachment coordinates, on one seeded batch."""
    old_visual, old_text, tau = clip_encoders_from_checkpoint(load_checkpoint(old_path))
    attachment, adapted = attachment_from_checkpoint(load_checkpoint(taca_path))
    rng = np.random.default_rng(seed)
    batch = np.sort(rng.choice(len(dataset), GRAD_BATCH, replace=False))
    with ad.no_grad():
        old_img = encode_image(old_visual, dataset.images[batch]).values
        old_txt = encode_text(old_text, dataset.captions[batch]).values
    cfg = CompatLossConfig(distill_weight=distill_weight,
                           contrastive=ContrastiveConfig(temperature=tau))

    def loss():
        new = adapted.encode(dataset.images[batch])
        return compat_total(new, ad.Tensor(old_txt), ad.Tensor(old_img), cfg)[0]

    params = attachment.trainable_tensors()
    frozen = list(adapted.weights.tensors()) + list(old_visual.tensors()) \
        + list(old_text.tensors())
    with ad.new_tape():
        base = loss()
        ad.backward(base)
    ulp = FD_ULPS * np.finfo(float).eps * max(1.0, abs(base.item()))
    sizes = np.array([p.values.size for p in params])
    bounds = np.cumsum(sizes)
    analytic, numeric, noise = [], [], []
    with ad.no_grad():
        # A seeded stream of coordinates; one that sits on a kink is passed over.
        for flat in rng.permutation(int(sizes.sum())):
            t = int(np.searchsorted(bounds, flat, side="right"))
            p, i = params[t], int(flat - (bounds[t] - sizes[t]))
            derivative, step = central_difference(loss, p.values.reshape(-1), i)
            if derivative is not None:
                analytic.append(float(p.grad.reshape(-1)[i]))
                numeric.append(derivative)
                noise.append(ulp / step)
            if len(analytic) == GRAD_SAMPLES:
                break
    return {"analytic": analytic, "numeric": numeric, "noise": noise,
            "frozen_with_grad": sum(t.grad is not None for t in frozen),
            "frozen": len(frozen)}


def check_gradients(result: dict) -> tuple:
    if result["frozen_with_grad"]:
        return False, f"{result['frozen_with_grad']} frozen tensors received a gradient"
    a = np.asarray(result["analytic"])
    n = np.asarray(result["numeric"])
    # |a - n| <= GRAD_TOL * (|a| + |n|) + noise, as a ratio that must be <= 1.
    ratio = np.abs(a - n) / (verify.GRAD_TOL * (np.abs(a) + np.abs(n))
                             + np.asarray(result["noise"]))
    worst = int(ratio.argmax())
    if ratio[worst] > 1:
        return False, (f"coordinate {worst}: analytic {a[worst]:.9e} vs central difference "
                       f"{n[worst]:.9e} outside GRAD_TOL {verify.GRAD_TOL:.0e}")
    return True, (f"{len(a)} coordinates within GRAD_TOL {verify.GRAD_TOL:.0e} "
                  f"(worst at {ratio[worst]:.2f} of it); "
                  f"no gradient on {result['frozen']} frozen tensors")


# -- evaluation ----------------------------------------------------------------

def _features(encode, inputs) -> np.ndarray:
    with ad.no_grad():
        return np.concatenate([encode(inputs[s:s + CHUNK]).values
                               for s in range(0, len(inputs), CHUNK)])


def _gallery(text_weights) -> np.ndarray:
    captions = np.stack([
        data_mod.render_caption(data_mod.LatentFactor.from_index(i), GALLERY_SEED + i)
        for i in range(data_mod.NUM_FACTORS)])
    return _features(lambda c: encode_text(text_weights, c), captions)


def recall(query, gallery, truth, k: int = K) -> float:
    """Own ranking: a stable argsort of negated cosine scores, so equal scores
    keep the lower gallery index first."""
    order = np.argsort(-(query @ gallery.T), axis=1, kind="stable")
    rank = np.argmax(order == np.asarray(truth)[:, None], axis=1)
    return float(np.mean(rank < k))


def retrieval_features(old_path, taca_path, new_path, dataset) -> dict:
    old_visual, old_text, _ = clip_encoders_from_checkpoint(load_checkpoint(old_path))
    new_visual, new_text, _ = clip_encoders_from_checkpoint(load_checkpoint(new_path))
    _, adapted = attachment_from_checkpoint(load_checkpoint(taca_path), new_visual)
    images = dataset.images
    return {
        "truth": dataset.factor_indices(),
        "old": _features(lambda x: encode_image(old_visual, x), images),
        "adapted": _features(adapted.encode, images),
        "new": _features(lambda x: encode_image(new_visual, x), images),
        "gallery_old": _gallery(old_text),
        "gallery_new": _gallery(new_text),
    }


def check_recall(report: dict, feats: dict) -> tuple:
    truth = feats["truth"]
    mine = {"m_old_old": recall(feats["old"], feats["gallery_old"], truth),
            "m_old_new": recall(feats["adapted"], feats["gallery_old"], truth),
            "m_new_new": recall(feats["new"], feats["gallery_new"], truth)}
    for key, value in mine.items():
        if report[key] != value:
            return False, f"report {key}={report[key]!r}, recomputed {value!r}"
    return True, "recall@1 old={m_old_old:.4f} hot-plug={m_old_new:.4f} cold-plug={m_new_new:.4f}".format(**mine)


def check_bridge(report: dict, feats: dict, seed: int) -> tuple:
    """A random, untrained bridge from the new to the old space must score far
    below the hot-plug. (Whether the hot-plug beats the old system is the
    retrieval verdict of eval-compat, recorded with the run, not a check: at
    the benchmark's step budgets a slow-starting new encoder can lose it.)"""
    rng = np.random.default_rng(seed)
    bridge = rng.normal(size=(feats["new"].shape[1], feats["gallery_old"].shape[1]))
    proj = feats["new"] @ bridge
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    control = recall(proj, feats["gallery_old"], feats["truth"])
    hot = report["m_old_new"]
    if not control <= BRIDGE_SHARE * hot:
        return False, f"random bridge recall {control:.4f} is not far below hot-plug {hot:.4f}"
    return True, f"random bridge {control:.4f} <= {BRIDGE_SHARE:.2f} x hot-plug {hot:.4f}"


def check_classification(report: dict) -> tuple:
    for key in ("m_old_old", "m_old_new", "m_new_new"):
        values = report["per_seed"][key]
        if not values or report[key] != float(np.median(values)):
            return False, f"{key}={report[key]!r} is not the median of {values}"
    if report["left_ok"] != (report["m_old_old"] < report["m_old_new"]):
        return False, f"left_ok={report['left_ok']} contradicts m_old_old < m_old_new"
    for key, least in FAR_ABOVE_CHANCE.items():
        if not report[key] >= least:
            return False, (f"{key}={report[key]:.4f} is below {least:.4f}, "
                           f"not far above chance {CHANCE:.4f}")
    return True, ("top-1 old={m_old_old:.4f} hot-plug={m_old_new:.4f} "
                  "cold-plug={m_new_new:.4f} left_ok={left_ok}").format(**report)
