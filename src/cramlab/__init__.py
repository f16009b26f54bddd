"""Desk-scale laboratory for compute-budgeted masked-language-model
pretraining: a small autodiff tensor core, WordPiece tokenization,
corpus curation, a modified transformer encoder, a budget-tied
training recipe, and scaling-law analysis tools.
"""

from .budget import (
    Budget, DeviceSpec, load_devices, model_flops_estimate, total_exaflops,
    utilization,
)
from .config import PRESETS, RunConfig, load_run_config, parse_run_config, render_run_config
from .corpus import (
    PackedDataset, PipelineConfig, RawEntry, TokenizedEntry,
    compression_filter, corpus_stats, curate, dedup_exact, load_dataset,
    pack, save_dataset, sort_by_prevalence,
)
from .errors import AnalysisError, ConfigurationError, ContractError
from .harness import emit_report, prepare, run_ablation, run_pretrain, write_svg
from .model import (
    Model, ModelConfig, attention, build, ffn, param_count, sinusoidal_table,
)
from .scaling import PowerLawFit, ShiftEstimate, estimate_shift, fit_power_law
from .tensor import Tape, Tensor, set_finite_checks
from .tokenizer import (
    SPECIAL_TOKENS, Vocab, WordPieceModel, normalize, pre_tokenize,
    train_wordpiece,
)
from .trainer import (
    AdamState, BatchRampConfig, FinetuneProtocol, LossCurve, MaskingConfig,
    OptimizerConfig, PretrainResult, ScheduleConfig, accumulation_at,
    adam_step, clip_gradients, finetune, lr_at, mask_batch,
    matthews_correlation, planned_samples, pretrain,
)

__version__ = "0.1.0"
