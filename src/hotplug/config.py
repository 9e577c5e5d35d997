"""Hierarchical JSON run configuration with strict key checking.

Every experiment knob (encoder sizes, adapter variant and bottleneck,
inserted layers, loss weight, temperature, step budgets, seeds) lives here so
runs are reproducible from one file. A content digest of the resolved config
is embedded in every artifact a run produces.
"""

from __future__ import annotations

import copy
import hashlib
import json

from . import data as data_mod
from .encoders import ImageSpec, TextEncoderConfig, VisualEncoderConfig
from .errors import ConfigError, checked
from .losses import CompatLossConfig, ContrastiveConfig
from .peft import TacaConfig
from .training import TrainConfig

DEFAULT_CONFIG = {
    "image_spec": {"height": 16, "width": 16, "channels": 1, "patch": 4},
    "old_encoder": {"layers": 2, "width": 32, "heads": 4, "embed_dim": 16,
                    "patch": 8, "pretrain_steps": 400},
    "new_encoder": {"layers": 3, "width": 48, "heads": 4, "embed_dim": 24,
                    "patch": 4, "pretrain_steps": 600},
    "text_encoder": {"layers": 2, "width": 32, "heads": 4, "max_len": 12},
    "taca": {"variant": "adapter", "bottleneck": 16, "rank": 4,
             "lora_alpha": 4.0, "inserted_layers": None,
             "adapters_per_block": 1, "projector_hidden": 64,
             "activation": "relu"},
    "loss": {"distill_weight": 2.0, "temperature": 0.07,
             "symmetric_contrastive": False},
    "train": {"learning_rate": 1e-3, "taca_learning_rate": None,
              "batch_size": 32, "steps": 1500, "seed": 0},
    "data": {"n": 2048, "seed": 7},
    "eval": {"k": 1, "head_seeds": [0, 1, 2], "gallery_seed": 1234},
}

# The new role pretrains at train.seed + this, so the two latent spaces differ.
NEW_ROLE_SEED_OFFSET = 1000


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {where} must be an object")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def resolve_config(overrides: dict | None = None) -> dict:
    """Defaults merged with overrides; unknown keys are rejected."""
    return _merge(DEFAULT_CONFIG, overrides or {})


def load_config(path=None) -> dict:
    """The config file at ``path`` over the defaults; the defaults if no path."""
    if not path:
        return resolve_config()
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must contain a JSON object")
    return resolve_config(overrides)


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Section -> typed config builders
# ---------------------------------------------------------------------------

def image_spec_from(config: dict) -> ImageSpec:
    return ImageSpec(**config["image_spec"])


def visual_config_from(config: dict, role: str) -> VisualEncoderConfig:
    if role not in ("old", "new"):
        raise ConfigError(f"role must be 'old' or 'new', got {role!r}")
    section = dict(config[f"{role}_encoder"])
    section.pop("pretrain_steps")
    spec = image_spec_from(config)
    patch = section.pop("patch", None)
    if patch is not None:
        spec = ImageSpec(spec.height, spec.width, spec.channels, patch)
    return VisualEncoderConfig(image_spec=spec, **section)


def text_config_from(config: dict, role: str) -> TextEncoderConfig:
    return TextEncoderConfig(
        vocab_size=data_mod.VOCAB_SIZE, cls_id=data_mod.CLS_ID,
        sep_id=data_mod.SEP_ID, embed_dim=config[f"{role}_encoder"]["embed_dim"],
        **config["text_encoder"])


def taca_config_from(config: dict) -> TacaConfig:
    return TacaConfig(**config["taca"])


def loss_config_from(config: dict) -> CompatLossConfig:
    section = config["loss"]
    return CompatLossConfig(
        distill_weight=section["distill_weight"],
        contrastive=ContrastiveConfig(temperature=section["temperature"]),
        symmetric=section["symmetric_contrastive"])


def data_settings_from(config: dict) -> tuple[int, int]:
    """(sample count, seed) from the ``data`` section."""
    section = config["data"]
    return (checked(section["n"], int, "data.n"),
            checked(section["seed"], int, "data.seed", 0))


def eval_settings_from(config: dict) -> dict:
    """``hot_plug_report``'s ``k``, ``head_seeds`` and ``gallery_seed`` from
    the ``eval`` section."""
    section = config["eval"]
    seeds = section["head_seeds"]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError(
            f"eval.head_seeds must be a non-empty list of integers, got {seeds!r}")
    return {"k": checked(section["k"], int, "eval.k"),
            "head_seeds": tuple(checked(s, int, "eval.head_seeds", 0) for s in seeds),
            "gallery_seed": checked(section["gallery_seed"], int, "eval.gallery_seed", 0)}


def train_config_from(config: dict, role: str) -> TrainConfig:
    """The TrainConfig of pretraining role ``"old"`` or ``"new"``, for
    ``<role>_encoder.pretrain_steps`` steps, or of the ``"taca"`` attachment,
    for ``train.steps`` at ``train.taca_learning_rate`` when that is set. The
    new role trains at ``train.seed`` + NEW_ROLE_SEED_OFFSET."""
    section = config["train"]
    seed = checked(section["seed"], int, "train.seed", 0)
    lr, steps = section["learning_rate"], section["steps"]
    if role in ("old", "new"):
        steps = checked(config[f"{role}_encoder"]["pretrain_steps"], int,
                        f"{role}_encoder.pretrain_steps")
        seed += NEW_ROLE_SEED_OFFSET if role == "new" else 0
    elif role != "taca":
        raise ConfigError(f"role must be 'old', 'new' or 'taca', got {role!r}")
    elif section["taca_learning_rate"] is not None:
        lr = section["taca_learning_rate"]
    return TrainConfig(learning_rate=lr, batch_size=section["batch_size"],
                       steps=steps, seed=seed)
