"""Training loops: single-resolution base runs and mixed-resolution adapter runs.

Bucket choice follows p(x) = |x - s|^2 / sum_i |x_i - s|^2 over the bucket
edge lengths x (max of H, W for non-square buckets) around the standard
resolution s. Adapter runs update the low-rank conv pairs every step but the
norm deltas only on extrapolation batches (max(H, W) > s); skipped steps
leave their optimizer moments untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import (
    DELTA_BETA_SUFFIX, DELTA_GAMMA_SUFFIX, LORA_A_SUFFIX, LORA_B_SUFFIX, effective_param_map,
)
from .data import SyntheticDataset
from .diffusion import DiffusionSchedule, simple_loss
from .errors import ConfigError, NumericError, check_seed
from .tensor import Tape, Tensor
from .unet import UNetModel, unet_forward

__all__ = [
    "resolution_probs", "sample_resolution", "make_batch",
    "TrainPlan", "TrainTrace", "TraceRecord", "AdamW",
    "train_base", "train_adapter", "STANDARD_RESOLUTION_BUCKETS",
]

# Full-scale bucket lists used by production latent models, keyed by their
# standard resolution. Kept as reference configs; desk runs use small buckets.
STANDARD_RESOLUTION_BUCKETS = {
    512: (128, 256, 384, 768, 1024),
    1024: (256, 384, 512, 768, 1280, 1408, 1536),
}


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


def make_batch(dataset: SyntheticDataset, bucket: tuple[int, int], batch_size: int,
               rng: np.random.Generator, p_uncond: float = 0.0,
               null_class: int | None = None) -> tuple[Tensor, np.ndarray]:
    """Render a batch at the bucket size; optionally drop labels to the null id."""
    h, w = bucket
    if batch_size < 1:
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


@dataclass
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
    probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.phase not in ("base", "adapter"):
            raise ConfigError(f"phase must be 'base' or 'adapter', got {self.phase!r}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.p_uncond < 1.0:
            raise ConfigError(f"p_uncond must be in [0, 1), got {self.p_uncond}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        check_seed("plan seed", self.seed)
        self.resolutions = tuple((int(h), int(w)) for h, w in self.resolutions)
        if not self.resolutions:
            raise ConfigError("plan needs at least one resolution bucket")
        if len(self.resolutions) == 1:
            self.probs = np.array([1.0])
        else:
            edges = [max(h, w) for h, w in self.resolutions]
            self.probs = resolution_probs(edges, self.standard_resolution)

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

    def losses(self, bucket: tuple[int, int] | None = None) -> np.ndarray:
        return np.array([r.loss for r in self.records if bucket is None or r.bucket == bucket])

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


def _check_buckets(model: UNetModel, plan: TrainPlan) -> None:
    div = model.config.spatial_divisor
    for h, w in plan.resolutions:
        if h % div or w % div:
            raise ConfigError(f"bucket {h}x{w} not divisible by the model's spatial divisor {div}")


def _draw_step(plan: TrainPlan, dataset: SyntheticDataset, model: UNetModel,
               schedule: DiffusionSchedule, rng: np.random.Generator):
    if len(plan.resolutions) == 1:
        bucket = plan.resolutions[0]
    else:
        bucket = plan.resolutions[sample_resolution(plan.probs, rng.random())]
    x0, labels = make_batch(dataset, bucket, plan.batch_size, rng,
                            plan.p_uncond, model.config.null_class)
    t = rng.integers(1, schedule.timesteps + 1, size=plan.batch_size)
    eps = rng.standard_normal(x0.shape)
    return bucket, x0, labels, t, Tensor(eps)


def train_base(model: UNetModel, plan: TrainPlan, dataset: SyntheticDataset,
               schedule: DiffusionSchedule) -> TrainTrace:
    """Train every base parameter in place; returns the loss trace."""
    if plan.phase != "base":
        raise ConfigError(f"train_base requires a 'base' plan, got phase {plan.phase!r}")
    dataset.validate()
    _check_buckets(model, plan)
    trainable = {k: t for k, t in model.params.items() if t.requires_grad}
    if not trainable:
        raise ConfigError("train_base: no trainable parameters (model is frozen)")
    opt = AdamW(trainable, plan.lr, plan.adam_beta1, plan.adam_beta2,
                weight_decay=plan.weight_decay)
    rng = np.random.default_rng(plan.seed)
    trace = TrainTrace()
    for step in range(1, plan.steps + 1):
        bucket, x0, labels, t, eps = _draw_step(plan, dataset, model, schedule, rng)
        with Tape() as tape:
            loss = simple_loss(model, x0, t, eps, labels, schedule)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"train_base: loss diverged at step {step}")
            tape.backward(loss)
        opt.step()
        opt.zero_grad()
        trace.add(step, bucket, "base", value)
    return trace


def train_adapter(model: UNetModel, bundle, plan: TrainPlan, dataset: SyntheticDataset,
                  schedule: DiffusionSchedule) -> TrainTrace:
    """Train bundle tensors in place against a frozen base; returns the trace.

    Norm deltas (when the bundle has any) step only on extrapolation batches;
    low-rank pairs step every time.
    """
    if plan.phase != "adapter":
        raise ConfigError(f"train_adapter requires an 'adapter' plan, got phase {plan.phase!r}")
    dataset.validate()
    _check_buckets(model, plan)
    tensors = bundle.named_tensors()
    lora_names = [n for n in tensors if n.endswith((LORA_A_SUFFIX, LORA_B_SUFFIX))]
    delta_names = [n for n in tensors if n.endswith((DELTA_GAMMA_SUFFIX, DELTA_BETA_SUFFIX))]
    trace = TrainTrace()
    if delta_names and not plan.extrapolation_buckets():
        trace.notes.append(
            "plan has no extrapolation bucket; norm deltas will never update and stay zero"
        )
    opt = AdamW(tensors, plan.lr, plan.adam_beta1, plan.adam_beta2,
                weight_decay=plan.weight_decay)
    rng = np.random.default_rng(plan.seed)
    for step in range(1, plan.steps + 1):
        bucket, x0, labels, t, eps = _draw_step(plan, dataset, model, schedule, rng)
        with Tape() as tape:
            params = effective_param_map(model, bundle)
            loss = simple_loss(model, x0, t, eps, labels, schedule, params=params)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"train_adapter: loss diverged at step {step}")
            tape.backward(loss)
        names = list(lora_names)
        if max(bucket) > plan.standard_resolution:
            names += delta_names
        opt.step(names)
        opt.zero_grad()
        trace.add(step, bucket, "adapter", value)
    trace.meta["lora_update_steps"] = {n: opt.counts[n] for n in lora_names}
    trace.meta["norm_delta_update_steps"] = {n: opt.counts[n] for n in delta_names}
    return trace
