"""One training loop for single-resolution base runs and mixed-resolution adapter runs.

Bucket choice follows p(x) = |x - s|^2 / sum_i |x_i - s|^2 over the bucket
edge lengths x (max of H, W for non-square buckets) around the standard
resolution s. Adapter runs update the low-rank conv pairs every step but the
norm deltas only on extrapolation batches (max(H, W) > s); skipped steps
leave their optimizer moments untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adapters import effective_param_map
from .data import SyntheticDataset
from .diffusion import DiffusionSchedule, simple_loss
from .errors import ConfigError, NumericError, check_fields, check_int, check_seed
from .tensor import Tape, Tensor
from .unet import UNetConfig, UNetModel

__all__ = [
    "resolution_probs", "sample_resolution", "make_batch",
    "TrainPlan", "TrainTrace", "TraceRecord", "AdamW",
    "train_base", "train_adapter",
]


def resolution_probs(resolutions, standard: int) -> np.ndarray:
    """Sampling weights proportional to squared distance from the standard size."""
    xs = np.asarray(list(resolutions), dtype=np.int64)
    if xs.ndim != 1 or xs.size == 0:
        raise ConfigError("resolutions must be a non-empty 1-d list of edge lengths")
    weights = (xs - int(standard)).astype(np.float64) ** 2
    total = weights.sum()
    if total == 0.0:
        raise ConfigError(f"all resolutions equal the standard size {standard}; weights degenerate")
    return weights / total


def sample_resolution(probs, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative probability exceeds u."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0.0 <= u < 1.0:
        raise ConfigError(f"u must be in [0, 1), got {u}")
    cum = 0.0
    for i, pi in enumerate(p):
        cum += pi
        if cum > u:
            return i
    return int(p.size - 1)  # guards rounding at the tail


def check_buckets(name: str, buckets) -> None:
    """ConfigError if the (H, W) pairs ``buckets`` are none or a side is < 1."""
    if not buckets:
        raise ConfigError(f"{name} must be non-empty")
    for hw in buckets:
        if not 1 <= min(hw):
            raise ConfigError(f"{name}: bucket sides must be >= 1, got {hw}")


def check_fit(config: UNetConfig, dataset: SyntheticDataset, buckets=(), p_uncond=0.0) -> None:
    """The rules between a run's parts: ConfigError unless data, buckets and p_uncond fit."""
    if dataset.channels != config.in_channels:
        raise ConfigError(f"data.channels ({dataset.channels}) "
                          f"must equal model.in_channels ({config.in_channels})")
    # class id model.num_classes is the null token; an unconditional model (0) ignores labels
    if config.num_classes and dataset.num_classes > config.num_classes:
        raise ConfigError(f"data.num_classes ({dataset.num_classes}) "
                          f"must not exceed model.num_classes ({config.num_classes})")
    if p_uncond > 0.0 and config.null_class is None:
        raise ConfigError(f"p_uncond {p_uncond} > 0 needs a model that reserves a null class")
    div = config.spatial_divisor
    for h, w in buckets:
        if h % div or w % div:
            raise ConfigError(f"bucket {h}x{w} not divisible by the model's spatial divisor {div}")


def make_batch(dataset: SyntheticDataset, bucket: tuple[int, int], batch_size: int,
               rng: np.random.Generator, p_uncond: float = 0.0,
               null_class: int | None = None) -> tuple[Tensor, np.ndarray]:
    """Render a batch at the bucket size; optionally drop labels to the null id."""
    h, w = bucket
    if check_int("batch_size", batch_size) < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    classes = rng.integers(0, dataset.num_classes, size=batch_size)
    imgs = np.stack([dataset.render(int(k), h, w, rng) for k in classes])
    labels = classes.astype(np.intp)
    if p_uncond > 0.0:
        if null_class is None:
            raise ConfigError("p_uncond > 0 requires a null class id")
        drop = rng.random(batch_size) < p_uncond
        labels = labels.copy()
        labels[drop] = null_class
    return Tensor(imgs), labels


@dataclass(frozen=True)
class TrainPlan:
    resolutions: tuple[tuple[int, int], ...]
    standard_resolution: int
    steps: int
    phase: str  # "base" | "adapter"
    batch_size: int = 8
    lr: float = 1e-4
    adam_beta1: float = 0.95
    adam_beta2: float = 0.99
    weight_decay: float = 0.0
    seed: int = 0
    p_uncond: float = 0.1
    probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, "")
        # each range is written as not (lo <= x < hi) so that NaN fails it too
        if self.phase not in ("base", "adapter"):
            raise ConfigError(f"phase must be 'base' or 'adapter', got {self.phase!r}")
        if not 0 <= self.steps:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 1 <= self.standard_resolution:
            raise ConfigError(f"standard_resolution must be >= 1, got {self.standard_resolution}")
        if not 1 <= self.batch_size:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        for name, beta in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {beta}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 <= self.p_uncond < 1.0:
            raise ConfigError(f"p_uncond must lie in [0, 1), got {self.p_uncond}")
        check_seed("plan seed", self.seed)
        check_buckets("resolutions", self.resolutions)
        edges = [max(hw) for hw in self.resolutions]
        object.__setattr__(self, "probs", np.array([1.0]) if len(edges) == 1 else
                           resolution_probs(edges, self.standard_resolution))

    def extrapolation_buckets(self) -> list[tuple[int, int]]:
        return [hw for hw in self.resolutions if max(hw) > self.standard_resolution]


@dataclass
class TraceRecord:
    step: int
    bucket: tuple[int, int]
    phase: str
    loss: float

    def line(self) -> str:
        return f"{self.step} {self.bucket[0]}x{self.bucket[1]} {self.phase} {self.loss:.9g}"


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, step: int, bucket: tuple[int, int], phase: str, loss: float) -> None:
        self.records.append(TraceRecord(step, bucket, phase, loss))

    def lines(self) -> list[str]:
        return [f"# {n}" for n in self.notes] + [r.line() for r in self.records]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines()) + "\n")


class AdamW:
    """Decoupled-weight-decay Adam with per-parameter step counts.

    Per-parameter counts let gated parameters skip steps without decaying
    their moments or advancing their bias correction.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.95,
                 beta2: float = 0.99, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.counts = {k: 0 for k in self.params}

    def step(self, names=None) -> None:
        selected = self.params.keys() if names is None else names
        for name in selected:
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            self.counts[name] += 1
            t = self.counts[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            mhat = self.m[name] / (1.0 - self.beta1 ** t)
            vhat = self.v[name] / (1.0 - self.beta2 ** t)
            p.data = p.data - self.lr * (mhat / (np.sqrt(vhat) + self.eps)
                                         + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def draw_batch(dataset: SyntheticDataset, bucket: tuple[int, int], batch_size: int, timesteps: int,
               rng: np.random.Generator, p_uncond: float = 0.0, null_class: int | None = None):
    """(x0, labels, t, eps) at ``bucket``: ``make_batch``, then t, then eps, from one rng."""
    x0, labels = make_batch(dataset, bucket, batch_size, rng, p_uncond, null_class)
    t = rng.integers(1, timesteps + 1, size=batch_size)
    eps = rng.standard_normal(x0.shape)
    return x0, labels, t, Tensor(eps)


def _train(model: UNetModel, plan: TrainPlan, dataset: SyntheticDataset,
           schedule: DiffusionSchedule, opt: AdamW, bundle=None, names=None) -> TrainTrace:
    """The step loop of both phases: draw a batch, take the loss under a tape, step ``opt``.

    ``bundle`` (None for base runs) is applied through ``effective_param_map``
    inside the tape; ``names`` maps each bucket to the names ``opt`` steps
    (None steps them all).
    """
    rng = np.random.default_rng(plan.seed)
    trace = TrainTrace()
    for step in range(1, plan.steps + 1):
        # a single-bucket plan draws no bucket from the rng
        index = sample_resolution(plan.probs, rng.random()) if len(plan.resolutions) > 1 else 0
        bucket = plan.resolutions[index]
        x0, labels, t, eps = draw_batch(dataset, bucket, plan.batch_size, schedule.timesteps,
                                        rng, plan.p_uncond, model.config.null_class)
        with Tape() as tape:
            params = None if bundle is None else effective_param_map(model, bundle)
            loss = simple_loss(model, x0, t, eps, labels, schedule, params=params)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"train_{plan.phase}: loss diverged at step {step}")
            tape.backward(loss)
        opt.step(None if names is None else names[bucket])
        opt.zero_grad()
        trace.add(step, bucket, plan.phase, value)
    return trace


def train_base(model: UNetModel, plan: TrainPlan, dataset: SyntheticDataset,
               schedule: DiffusionSchedule) -> TrainTrace:
    """Train every base parameter in place; returns the loss trace."""
    if plan.phase != "base":
        raise ConfigError(f"train_base requires a 'base' plan, got phase {plan.phase!r}")
    check_fit(model.config, dataset, plan.resolutions, plan.p_uncond)
    trainable = {k: t for k, t in model.params.items() if t.requires_grad}
    if not trainable:
        raise ConfigError("train_base: no trainable parameters (model is frozen)")
    opt = AdamW(trainable, plan.lr, plan.adam_beta1, plan.adam_beta2,
                weight_decay=plan.weight_decay)
    return _train(model, plan, dataset, schedule, opt)


def train_adapter(model: UNetModel, bundle, plan: TrainPlan, dataset: SyntheticDataset,
                  schedule: DiffusionSchedule) -> TrainTrace:
    """Train bundle tensors in place against a frozen base; returns the trace.

    Norm deltas (when the bundle has any) step only on extrapolation batches;
    low-rank pairs step every time.
    """
    if plan.phase != "adapter":
        raise ConfigError(f"train_adapter requires an 'adapter' plan, got phase {plan.phase!r}")
    check_fit(model.config, dataset, plan.resolutions, plan.p_uncond)
    lora_names, delta_names = bundle.names("conv_lora"), bundle.names("norm_delta")
    opt = AdamW(bundle.tensors, plan.lr, plan.adam_beta1, plan.adam_beta2,
                weight_decay=plan.weight_decay)
    extrapolation = plan.extrapolation_buckets()
    names = {hw: lora_names + delta_names if hw in extrapolation else lora_names
             for hw in plan.resolutions}
    trace = _train(model, plan, dataset, schedule, opt, bundle, names)
    if delta_names and not extrapolation:
        trace.notes.append(
            "plan has no extrapolation bucket; norm deltas will never update and stay zero"
        )
    trace.meta["lora_update_steps"] = {n: opt.counts[n] for n in lora_names}
    trace.meta["norm_delta_update_steps"] = {n: opt.counts[n] for n in delta_names}
    return trace
