"""resolab: a desk-scale diffusion lab for studying resolution adapters.

Everything runs on a small tape-based autodiff core over numpy float64
arrays -- no framework, so any quantity in the pipeline can be audited by
finite differences or recomputed by hand.
"""

from .adapters import (
    DEFAULT_RANK,
    AdapterBundle,
    attach_resadapter,
    attach_style_lora,
    effective_param_map,
    merge,
    trainable_param_count,
)
from .data import GENERATORS, SyntheticDataset
from .diffusion import (
    DESK_BETA_END,
    DESK_BETA_START,
    DESK_TIMESTEPS,
    DiffusionSchedule,
    SamplerConfig,
    cfg_predict,
    ddim_denoise,
    ddim_sample,
    ddim_timesteps,
    ddpm_step,
    forward_marginal,
    simple_loss,
)
from .errors import (
    ConfigError,
    ContainerError,
    NumericError,
    ResolabError,
    ResolutionError,
    ShapeError,
)
from .evalbench import (
    EvalConfig,
    EvalReport,
    EvalRow,
    ablation_grid,
    bench_latency,
    make_style_probes,
    multires_eval,
    style_shift,
    tile_layout,
    tiled_generate,
)
from .gradcheck import DEFAULT_TOLERANCE, grad_check, run_suite
from .runconfig import (
    RunConfig,
    TrainConfig,
    default_runconfig,
    load_runconfig,
    parse_runconfig,
)
from .store import inspect, load_bundle, load_model, save_bundle, save_model
from .tensor import Tape, Tensor
from .trainer import (
    AdamW,
    TraceRecord,
    TrainPlan,
    TrainTrace,
    make_batch,
    resolution_probs,
    sample_resolution,
    train_adapter,
    train_base,
)
from .unet import (
    UNetConfig,
    UNetModel,
    build_unet,
    site_shapes,
    unet_forward,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Tensor", "Tape", "grad_check", "run_suite", "DEFAULT_TOLERANCE",
    # errors
    "ResolabError", "ShapeError", "ResolutionError", "ConfigError",
    "NumericError", "ContainerError",
    # model
    "UNetConfig", "UNetModel", "build_unet", "unet_forward", "site_shapes",
    # diffusion
    "DiffusionSchedule", "forward_marginal", "simple_loss",
    "ddpm_step", "cfg_predict", "ddim_timesteps", "ddim_denoise", "ddim_sample",
    "SamplerConfig", "DESK_TIMESTEPS", "DESK_BETA_START", "DESK_BETA_END",
    # adapters
    "AdapterBundle",
    "attach_resadapter", "attach_style_lora", "effective_param_map",
    "merge", "trainable_param_count", "DEFAULT_RANK",
    # data / training
    "SyntheticDataset", "GENERATORS", "TrainPlan", "TrainTrace", "TraceRecord",
    "AdamW", "train_base", "train_adapter", "make_batch", "resolution_probs",
    "sample_resolution",
    # evaluation
    "EvalRow", "EvalReport", "multires_eval", "ablation_grid", "tile_layout",
    "tiled_generate", "bench_latency", "style_shift", "make_style_probes",
    # persistence
    "save_model", "load_model", "save_bundle", "load_bundle", "inspect",
    # configuration
    "RunConfig", "TrainConfig", "EvalConfig",
    "load_runconfig", "parse_runconfig", "default_runconfig",
]
