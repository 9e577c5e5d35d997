"""Hot-pluggable dual-encoder upgrades via task-agnostic compatible adapters.

A desk-scale laboratory: a float64 autodiff engine, toy CLIP-style dual
encoders, bottleneck-adapter and LoRA compatibility modules, the contrastive
plus distillation training stack, synthetic paired data, and the
compatibility-ordering evaluation that decides whether a new encoder can be
swapped in under frozen downstream modules.
"""

from .autodiff import Tensor, backward, grad_check, new_tape, no_grad
from .encoders import (
    ImageSpec,
    TextEncoderConfig,
    VisualEncoderConfig,
    encode_image,
    encode_text,
    init_encoder,
)
from .losses import (
    CompatLossConfig,
    ContrastiveConfig,
    clip_symmetric_loss,
    compat_total,
    cross_model_contrastive,
    distill_loss,
    nce,
)
from .peft import (
    Adapter,
    AdaptedVisualEncoder,
    DimensionProjector,
    LoRAModule,
    TacaAttachment,
    TacaConfig,
    adapter_forward,
    attach_taca,
    count_trainable,
    lora_forward,
    projector_forward,
)
from .data import Dataset, LatentFactor, generate_dataset, load_dataset, save_dataset
from .training import (
    AdamW,
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    pretrain_clip,
    save_checkpoint,
    train_taca,
)
from .evaluation import (
    CompatReport,
    DownstreamHead,
    eval_top1,
    hot_plug_report,
    raw_swap_baseline,
    recall_at_k,
    train_head,
)

__version__ = "0.1.0"
