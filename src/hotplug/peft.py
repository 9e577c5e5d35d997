"""Compatibility adapters for a frozen visual encoder.

A residual bottleneck adapter per selected transformer block, a two-layer MLP
projector that maps the new embedding dimension onto the old one, and a LoRA
alternative on the attention query/value projections. Only these modules are
trainable during compatibility training; the backbone stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import SITES, EncoderWeights, VisualEncoderConfig, encode_image, image_fork
from .errors import ConfigError, DimensionError, checked, check_fields

PROJECTOR_INIT_STD = 0.02
# The attention weights that LoRA adapts in each inserted block, and the
# backbone's name for target t's weight in block b: LORA_WEIGHT.format(b, t).
LORA_TARGETS = ("q", "v")
LORA_WEIGHT = "block{}.attn.w{}"


class Adapter:
    """Residual bottleneck: x + up(act(down(x))), with biases on both layers.

    With the up-projection and its bias at zero the module is exactly the
    identity map, which is how fresh attachments start.
    """

    def __init__(self, width: int, bottleneck: int, activation: str,
                 rng: np.random.Generator):
        if bottleneck >= width:
            raise ConfigError(
                f"bottleneck {bottleneck} must be smaller than width {width}")
        self.width = width
        self.bottleneck = bottleneck
        self.activation = activation
        self.w_down = Tensor(rng.normal(0.0, PROJECTOR_INIT_STD,
                                        size=(width, bottleneck)), trainable=True)
        self.b_down = Tensor(np.zeros(bottleneck), trainable=True)
        self.w_up = Tensor(np.zeros((bottleneck, width)), trainable=True)
        self.b_up = Tensor(np.zeros(width), trainable=True)


def adapter_forward(adapter: Adapter, x: Tensor) -> Tensor:
    if not x.shape or x.shape[-1] != adapter.width:
        raise DimensionError(
            f"adapter expects last dim {adapter.width}, got {x.shape}")
    h = ad.matmul(x, adapter.w_down, adapter.b_down)
    h = ad.elementwise_activation(h, adapter.activation)
    h = ad.matmul(h, adapter.w_up, adapter.b_up)
    return ad.add(x, h)


class DimensionProjector:
    """Two-layer MLP from the new embedding dim to the old one.

    The second layer is zero-initialized; the output is unit-normalized so the
    losses stay in cosine space.
    """

    def __init__(self, dim_new: int, dim_hidden: int, dim_old: int,
                 activation: str, rng: np.random.Generator):
        self.dim_new = dim_new
        self.dim_hidden = dim_hidden
        self.dim_old = dim_old
        self.activation = activation
        self.w1 = Tensor(rng.normal(0.0, PROJECTOR_INIT_STD,
                                    size=(dim_new, dim_hidden)), trainable=True)
        self.b1 = Tensor(np.zeros(dim_hidden), trainable=True)
        self.w2 = Tensor(np.zeros((dim_hidden, dim_old)), trainable=True)
        # Zero weights with an all-zero bias would make the unit-normalized
        # output undefined, so the bias starts at a small random direction.
        self.b2 = Tensor(rng.normal(0.0, PROJECTOR_INIT_STD, size=dim_old),
                         trainable=True)


def projector_forward(projector: DimensionProjector, v: Tensor) -> Tensor:
    """Map a (B, d_new) batch to (B, d_old) unit vectors."""
    if len(v.shape) != 2 or v.shape[-1] != projector.dim_new:
        raise DimensionError(
            f"projector expects (B, {projector.dim_new}), got {v.shape}")
    h = ad.matmul(v, projector.w1, projector.b1)
    h = ad.elementwise_activation(h, projector.activation)
    h = ad.matmul(h, projector.w2, projector.b2)
    return ad.l2_normalize_rows(h)


class LoRAModule:
    """Low-rank delta on a frozen weight: W + (alpha/r) * A @ B."""

    def __init__(self, base: Tensor, rank: int, alpha: float,
                 rng: np.random.Generator):
        m, n = base.shape
        if rank >= min(m, n):
            raise ConfigError(f"rank {rank} must be < min{(m, n)}")
        self.base = base
        self.rank = rank
        self.alpha = float(alpha)
        self.a = Tensor(rng.normal(0.0, PROJECTOR_INIT_STD, size=(m, rank)),
                        trainable=True)
        self.b = Tensor(np.zeros((rank, n)), trainable=True)

    def effective_weight(self) -> Tensor:
        delta = ad.scale(ad.matmul(self.a, self.b), self.alpha / self.rank)
        return ad.add(self.base, delta)


def lora_forward(module: LoRAModule, x: Tensor) -> Tensor:
    """Apply the effective weight to a row batch: x @ (W + (alpha/r) A B)."""
    return ad.matmul(x, module.effective_weight())


@dataclass(frozen=True)
class TacaConfig:
    variant: str = "adapter"              # "adapter" | "lora"
    bottleneck: int = 16                  # d' (adapter) ...
    rank: int = 4                         # ... or r (lora)
    lora_alpha: float = 4.0
    inserted_layers: tuple = ()           # 1-based block indices; empty = all
    adapters_per_block: int = 1           # 1 = post-FFN, 2 = also post-attention
    projector_hidden: int = 64            # d_p
    activation: str = "relu"

    def __post_init__(self):
        # Config files and checkpoint metadata give a JSON list or null.
        layers = self.inserted_layers or ()
        if not isinstance(layers, (list, tuple)):
            raise ConfigError(f"TacaConfig.inserted_layers must be a list, got {layers!r}")
        object.__setattr__(self, "inserted_layers", tuple(
            checked(layer, int, "TacaConfig.inserted_layers") for layer in layers))
        check_fields(self)
        if self.variant not in ("adapter", "lora"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.adapters_per_block not in (1, 2):
            raise ConfigError("adapters_per_block must be 1 or 2")
        if self.activation not in ("relu", "gelu"):
            raise ConfigError(f"unknown activation {self.activation!r}")

    def resolve_layers(self, num_layers: int) -> tuple:
        layers = self.inserted_layers or tuple(range(1, num_layers + 1))
        for layer in layers:
            if not 1 <= layer <= num_layers:
                raise ConfigError(
                    f"inserted layer {layer} out of range 1..{num_layers}")
        return tuple(sorted(set(layers)))


class TacaAttachment:
    """Trainable modules hooked onto a frozen visual encoder."""

    def __init__(self, config: TacaConfig, adapters, loras, projector):
        self.config = config
        self.adapters = adapters    # {(layer_0based, site): Adapter}
        self.loras = loras          # {(layer_0based, which): LoRAModule}
        self.projector = projector

    def trainable_tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for (layer, site), adapter in sorted(self.adapters.items()):
            prefix = f"adapter{layer}.{site}"
            out[f"{prefix}.w_down"] = adapter.w_down
            out[f"{prefix}.b_down"] = adapter.b_down
            out[f"{prefix}.w_up"] = adapter.w_up
            out[f"{prefix}.b_up"] = adapter.b_up
        for (layer, which), module in sorted(self.loras.items()):
            out[f"lora{layer}.{which}.a"] = module.a
            out[f"lora{layer}.{which}.b"] = module.b
        out["projector.w1"] = self.projector.w1
        out["projector.b1"] = self.projector.b1
        out["projector.w2"] = self.projector.w2
        out["projector.b2"] = self.projector.b2
        return out

    def first_site(self) -> tuple | None:
        """The (block, site) of the first adapter in forward order; None with none,
        as for LoRA, whose update acts inside the attention weights."""
        return min(self.adapters, key=lambda h: (h[0], SITES.index(h[1])), default=None)

    # The encoder trunk's two hooks: weights once per pass, activations per site.
    def weights_on(self, backbone: EncoderWeights) -> EncoderWeights:
        """``backbone`` with each LoRA-adapted weight W replaced by its effective
        weight W + (alpha/r) A B; ``backbone`` itself when there is no LoRA."""
        if not self.loras:
            return backbone
        params = dict(backbone.params)
        for (layer, which), module in self.loras.items():
            params[LORA_WEIGHT.format(layer, which)] = module.effective_weight()
        return EncoderWeights(backbone.config, params)

    def apply_adapter(self, layer: int, site: str, x: Tensor) -> Tensor:
        adapter = self.adapters.get((layer, site))
        return x if adapter is None else adapter_forward(adapter, x)


class AdaptedVisualEncoder:
    """The composed encoder: frozen backbone + attachment + projector."""

    def __init__(self, weights: EncoderWeights, attachment: TacaAttachment):
        self.weights = weights
        self.attachment = attachment

    def encode(self, batch) -> Tensor:
        """The composed features of a batch: images, or their ``self.fork``,
        from which the pass goes on bitwise equal to the whole pass."""
        feats = encode_image(self.weights, batch, attachment=self.attachment)
        return projector_forward(self.attachment.projector, feats)

    def fork(self, images, hooked: np.ndarray | None = None) -> tuple:
        """The frozen backbone's ``image_fork`` at the first adapter, a constant of
        each image; ``hooked`` is the batch's output there from an earlier fork."""
        return image_fork(self.weights, images, self.attachment.first_site(), hooked)


def attach_taca(new_encoder: EncoderWeights, config: TacaConfig, dim_old: int,
                seed: int) -> tuple[TacaAttachment, AdaptedVisualEncoder]:
    """Freeze the backbone and hook fresh adapters / LoRA modules onto it.

    Up-projections start at zero, so apart from the projector the composed
    encoder initially reproduces the unadapted forward bitwise.
    """
    if not isinstance(new_encoder.config, VisualEncoderConfig):
        raise ConfigError("attach_taca requires a visual encoder")
    cfg: VisualEncoderConfig = new_encoder.config
    layers = config.resolve_layers(cfg.layers)
    rng = np.random.default_rng(seed)
    new_encoder.set_trainable(False)
    adapters, loras = {}, {}
    if config.variant == "adapter":
        for layer in layers:
            for site in SITES[-config.adapters_per_block:]:
                adapters[(layer - 1, site)] = Adapter(
                    cfg.width, config.bottleneck, config.activation, rng)
    else:
        for layer in layers:
            for which in LORA_TARGETS:
                loras[(layer - 1, which)] = LoRAModule(
                    new_encoder.params[LORA_WEIGHT.format(layer - 1, which)],
                    config.rank, config.lora_alpha, rng)
    projector = DimensionProjector(cfg.embed_dim, config.projector_hidden,
                                   dim_old, config.activation, rng)
    attachment = TacaAttachment(config, adapters, loras, projector)
    return attachment, AdaptedVisualEncoder(new_encoder, attachment)


def count_trainable(config: TacaConfig, encoder_config: VisualEncoderConfig,
                    dim_old: int) -> dict:
    """Trainable-parameter accounting.

    ``formula_count`` is the bias-free weight count
    adapters_per_block * 2 * |layers| * k * d' + d_n * d_p + d_p * d_o;
    ``exact_count`` additionally includes every bias term and must equal the
    enumerated element total of a real attachment.
    """
    layers = config.resolve_layers(encoder_config.layers)
    k = encoder_config.width
    d_n = encoder_config.embed_dim
    d_p = config.projector_hidden
    if config.variant == "lora":
        weight_count = (len(layers) * len(LORA_TARGETS) * config.rank
                        * (k + k)) + d_n * d_p + d_p * dim_old
        exact = weight_count + d_p + dim_old
        return {"variant": "lora", "formula_count": weight_count,
                "exact_count": exact, "rank_based": True}
    d_b = config.bottleneck
    per_block = config.adapters_per_block
    formula = per_block * 2 * len(layers) * k * d_b + d_n * d_p + d_p * dim_old
    bias = per_block * len(layers) * (d_b + k) + d_p + dim_old
    return {"variant": "adapter", "formula_count": formula,
            "exact_count": formula + bias, "rank_based": False}
