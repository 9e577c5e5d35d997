"""Contrastive, distillation, and combined compatibility objectives.

Every loss consumes unit-normalized feature rows, so dot products are cosine
similarities. In-batch negatives only: row i's positive is key row i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ParameterError, check_fields

UNIT_ROW_TOL = 1e-6


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.07

    def __post_init__(self):
        check_fields(self)
        if not self.temperature > 0:
            raise ParameterError(f"temperature must be > 0, got {self.temperature}")


@dataclass(frozen=True)
class CompatLossConfig:
    distill_weight: float = 2.0
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    symmetric: bool = False               # both InfoNCE directions

    def __post_init__(self):
        check_fields(self)
        if self.distill_weight < 0:
            raise ParameterError(
                f"distill_weight must be finite and >= 0, got {self.distill_weight}")


def _check_unit_rows(t: Tensor, name: str):
    norms = np.linalg.norm(t.values, axis=-1)
    dev = np.abs(norms - 1.0).max() if norms.size else 0.0
    if dev > UNIT_ROW_TOL:
        raise ContractError(
            f"{name} rows must be unit-normalized (max deviation {dev:.3g})")


def nce(query_feats: Tensor, key_feats: Tensor, temperature: float) -> Tensor:
    """Batch-mean InfoNCE with in-batch negatives.

    Row i of the keys is the positive for query row i; every other key row is
    a negative.
    """
    if not temperature > 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if query_feats.shape != key_feats.shape or len(query_feats.shape) != 2:
        raise ContractError(
            f"nce expects matching B x d features, got {query_feats.shape} "
            f"and {key_feats.shape}")
    _check_unit_rows(query_feats, "query")
    _check_unit_rows(key_feats, "key")
    b = query_feats.shape[0]
    sims = ad.matmul(query_feats, ad.transpose(key_feats, (1, 0)))
    logp = ad.log_softmax_rows(ad.scale(sims, 1.0 / temperature))
    diag = ad.mul_const(logp, np.eye(b))
    return ad.scale(ad.sum_all(diag), -1.0 / b)


def clip_symmetric_loss(img_feats: Tensor, txt_feats: Tensor,
                        temperature: float) -> Tensor:
    """Mean of image-to-text and text-to-image InfoNCE."""
    a = nce(img_feats, txt_feats, temperature)
    b = nce(txt_feats, img_feats, temperature)
    return ad.scale(ad.add(a, b), 0.5)


def distill_loss(new_feats: Tensor, old_feats: Tensor) -> Tensor:
    """Mean squared difference over batch and feature dimensions."""
    if new_feats.shape != old_feats.shape:
        raise ContractError(
            f"distill_loss shapes differ: {new_feats.shape} vs {old_feats.shape}")
    diff = ad.sub(new_feats, old_feats)
    return ad.mean_all(ad.mul(diff, diff))


def cross_model_contrastive(new_img_feats: Tensor, old_txt_feats: Tensor,
                            temperature: float, symmetric: bool = False) -> Tensor:
    """InfoNCE with projected new visual features as queries and old text
    features as keys; single direction by default."""
    if symmetric:
        return clip_symmetric_loss(new_img_feats, old_txt_feats, temperature)
    return nce(new_img_feats, old_txt_feats, temperature)


def compat_total(new_img_feats: Tensor, old_txt_feats: Tensor,
                 old_img_feats: Tensor, config: CompatLossConfig):
    """Combined objective: contrastive + weight * distillation.

    Returns (total, components) where components holds the float values of
    both terms (the distillation term is logged even at weight zero).
    """
    contra = cross_model_contrastive(new_img_feats, old_txt_feats,
                                     config.contrastive.temperature,
                                     symmetric=config.symmetric)
    distill = distill_loss(new_img_feats, old_img_feats)
    total = ad.add(contra, ad.scale(distill, config.distill_weight))
    components = {"contrastive": contra.item(), "distillation": distill.item()}
    return total, components
