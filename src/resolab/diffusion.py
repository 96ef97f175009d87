"""Forward/reverse diffusion: schedule, losses, ancestral and DDIM sampling.

Timesteps are 1-based: t in [1, T]. The schedule holds float64 arrays with
beta linearly spaced over [beta_start, beta_end] (endpoints inclusive),
alpha = 1 - beta, alpha_bar the exact running product, and sigma = sqrt(beta)
as the reverse-step noise scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, NumericError, ShapeError, check_fields, check_int, check_seed
from .tensor import Tensor
from .unet import unet_forward

__all__ = [
    "DiffusionSchedule", "forward_marginal", "simple_loss",
    "ddpm_step", "cfg_predict", "SamplerConfig", "ddim_sample",
    "ddim_timesteps", "ddim_denoise",
]

DESK_TIMESTEPS = 50
DESK_BETA_START = 1e-3
DESK_BETA_END = 5e-2
# DDPM uses 1,000; the bound keeps a typo from allocating gigabytes of schedule
MAX_TIMESTEPS = 100_000


@dataclass(frozen=True)
class DiffusionSchedule:
    """The schedule is its three scalars; beta, alpha, alpha_bar and sigma follow from them.

    The four arrays are set once here and are not dataclass fields, so
    equality, hashing, ``asdict`` and the run-config loader see only the scalars.
    """

    timesteps: int = DESK_TIMESTEPS
    beta_start: float = DESK_BETA_START
    beta_end: float = DESK_BETA_END

    def __post_init__(self):
        check_fields(self, "schedule.")
        if not 1 <= self.timesteps <= MAX_TIMESTEPS:
            raise ConfigError(f"timesteps must be in [1, {MAX_TIMESTEPS}], got {self.timesteps}")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ConfigError(
                f"need 0 < beta_start <= beta_end < 1, got [{self.beta_start}, {self.beta_end}]")
        beta = np.linspace(self.beta_start, self.beta_end, self.timesteps)
        alpha = 1.0 - beta
        # alpha_bar holds exact sequential products; __dict__ sidesteps the frozen __setattr__
        self.__dict__.update(beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha),
                             sigma=np.sqrt(beta))

    def build(self) -> DiffusionSchedule:
        """Return self: the benchmark harness (perfbench/workloads.py) calls ``build()``."""
        return self

    def _check_t(self, t: int) -> int:
        t = int(ops._as_index_vector(t, 1, "t")[0])  # an integer, never truncated
        if not 1 <= t <= self.timesteps:
            raise ConfigError(f"timestep {t} outside schedule range [1, {self.timesteps}]")
        return t

    def beta_at(self, t: int) -> float:
        return float(self.beta[self._check_t(t) - 1])

    def alpha_at(self, t: int) -> float:
        return float(self.alpha[self._check_t(t) - 1])

    def alpha_bar_at(self, t: int) -> float:
        return float(self.alpha_bar[self._check_t(t) - 1])

    def sigma_at(self, t: int) -> float:
        return float(self.sigma[self._check_t(t) - 1])


def _per_sample_coeffs(schedule: DiffusionSchedule, t, n: int) -> tuple[np.ndarray, np.ndarray]:
    idx = ops._as_index_vector(t, n, "t")
    if idx.min() < 1 or idx.max() > schedule.timesteps:
        raise ConfigError(f"timestep outside schedule range [1, {schedule.timesteps}]")
    ab = schedule.alpha_bar[idx - 1]
    return np.sqrt(ab), np.sqrt(1.0 - ab)


def forward_marginal(x0: Tensor, t, eps: Tensor, schedule: DiffusionSchedule) -> Tensor:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps (differentiable in x0, eps)."""
    if x0.shape != eps.shape:
        raise ShapeError(f"forward_marginal: x0 {x0.shape} and eps {eps.shape} differ")
    c_sig, c_noise = _per_sample_coeffs(schedule, t, x0.shape[0] if x0.ndim else 1)
    shape = (-1,) + (1,) * (x0.ndim - 1)
    a = ops.mul(x0, Tensor(c_sig.reshape(shape)))
    b = ops.mul(eps, Tensor(c_noise.reshape(shape)))
    return ops.add(a, b)


def simple_loss(model, x0: Tensor, t, eps: Tensor, c, schedule: DiffusionSchedule,
                params=None, forward=unet_forward) -> Tensor:
    """Mean squared error between true and predicted noise at timestep(s) t."""
    x_t = forward_marginal(x0, t, eps, schedule)
    eps_hat = forward(model, x_t, t, c, params)
    if eps_hat.shape != eps.shape:
        raise ShapeError(f"simple_loss: prediction {eps_hat.shape} != noise {eps.shape}")
    diff = ops.sub(eps, eps_hat)
    return ops.mean_all(ops.mul(diff, diff))


def ddpm_step(x_t: Tensor, t: int, eps_hat: Tensor, schedule: DiffusionSchedule,
              noise: Tensor | None = None) -> Tensor:
    """One ancestral reverse step; the noise term is omitted at t = 1."""
    t = schedule._check_t(t)
    if eps_hat.shape != x_t.shape:
        raise ShapeError(f"ddpm_step: eps_hat {eps_hat.shape} != x_t {x_t.shape}")
    a = schedule.alpha_at(t)
    b = schedule.beta_at(t)
    ab = schedule.alpha_bar_at(t)
    mean = (x_t.data - (b / np.sqrt(1.0 - ab)) * eps_hat.data) / np.sqrt(a)
    if t == 1:
        return Tensor(mean)
    if noise is None:
        raise ConfigError("ddpm_step: noise required for t > 1")
    if noise.shape != x_t.shape:
        raise ShapeError(f"ddpm_step: noise {noise.shape} != x_t {x_t.shape}")
    return Tensor(mean + schedule.sigma_at(t) * noise.data)


def cfg_predict(model, x: Tensor, t, c, w: float, params=None, forward=unet_forward) -> Tensor:
    """Classifier-free guided prediction eps_u + w (eps_c - eps_u).

    w = 1 returns the conditional pass unchanged (and needs no null class);
    w = 0 returns the unconditional (null-token) pass unchanged. Both make one
    forward on the batch as given. Any other w makes one forward on a 2N
    batch: ``x`` twice, null-token ids for the first N rows and ``c`` for the
    last N, ``t`` repeated per half. So a guided step is one UNet call, and
    it holds twice the activations of a single pass.
    The doubled batch is built from array values, so the result carries no
    tape history; guidance is a sampling-time operation. Ids in ``c`` must be classes.
    """
    w = float(w)
    n, k = x.shape[0], model.config.num_classes
    c_ids = ops._as_index_vector(c, n, "c") if k and c is not None else None
    bad = () if c_ids is None else c_ids[(c_ids < 0) | (c_ids >= k)]
    if len(bad):
        raise ConfigError(f"cfg_predict: class id {bad[0]} outside the model's classes [0, {k})")
    if w == 1.0:
        return forward(model, x, t, c, params)
    null_id = model.config.null_class
    if null_id is None:
        raise ConfigError("cfg_predict: model reserves no null class for unconditional passes")
    null_ids = np.full(n, null_id)
    if w == 0.0:
        return forward(model, x, t, null_ids, params)
    if c is None:
        raise ConfigError("cfg_predict: class ids required for a guided pass")
    t_ids = ops._as_index_vector(t, n, "t")
    eps = forward(model, Tensor(np.concatenate([x.data, x.data])), np.concatenate([t_ids, t_ids]),
                  np.concatenate([null_ids, c_ids]), params).data
    eps_u, eps_c = Tensor(eps[:n]), Tensor(eps[n:])
    return ops.add(eps_u, ops.scale(ops.sub(eps_c, eps_u), w))


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 25
    guidance_scale: float = 7.5
    eta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "sampler ")
        if self.steps < 1:
            raise ConfigError(f"sampler steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must be in [0, 1], got {self.eta}")
        if not (math.isfinite(self.guidance_scale) and self.guidance_scale >= 0.0):
            raise ConfigError(f"guidance_scale must be finite and >= 0, got {self.guidance_scale}")
        check_seed("sampler seed", self.seed)


def ddim_timesteps(timesteps: int, steps: int) -> list[int]:
    """Uniformly spaced decreasing timesteps from T down to 1, length ``steps``."""
    if not 1 <= check_int("steps", steps) <= check_int("timesteps", timesteps):
        raise ConfigError(f"steps must be in [1, {timesteps}], got {steps}")
    ts = np.round(np.linspace(timesteps, 1, steps)).astype(int)
    return [int(t) for t in ts]


def _ddim_update(x: np.ndarray, t: int, t_prev: int, eps_hat: np.ndarray,
                 schedule: DiffusionSchedule, eta: float, z: np.ndarray | None) -> np.ndarray:
    ab_t = schedule.alpha_bar_at(t)
    ab_prev = schedule.alpha_bar_at(t_prev) if t_prev >= 1 else 1.0
    x0_hat = (x - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    np.clip(x0_hat, -1.0, 1.0, out=x0_hat)
    sigma = eta * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t)) * np.sqrt(1.0 - ab_t / ab_prev)
    resid = max(1.0 - ab_prev - sigma * sigma, 0.0)
    out = np.sqrt(ab_prev) * x0_hat + np.sqrt(resid) * eps_hat
    if z is not None:
        out = out + sigma * z
    return out


def ddim_denoise(x: np.ndarray, predict, schedule: DiffusionSchedule, steps: int,
                 eta: float, rng: np.random.Generator) -> np.ndarray:
    """Run the DDIM update loop on a noise field given a prediction callback."""
    ts = ddim_timesteps(schedule.timesteps, steps)
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        eps_hat = predict(x, t)
        if not np.all(np.isfinite(eps_hat)):
            raise NumericError(f"ddim: non-finite prediction at t={t}")
        z = rng.standard_normal(x.shape) if (eta > 0.0 and t_prev >= 1) else None
        x = _ddim_update(x, t, t_prev, eps_hat, schedule, eta, z)
    return x


def ddim_sample(model, shape: tuple[int, int, int, int], cfg: SamplerConfig, c,
                schedule: DiffusionSchedule, params=None, forward=unet_forward) -> Tensor:
    """Deterministically sample from seeded standard-normal noise."""
    if len(shape) != 4:
        raise ShapeError(f"ddim_sample: shape must be [N, C, H, W], got {shape}")
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal([check_int("ddim_sample: shape", d) for d in shape])

    def predict(arr: np.ndarray, t: int) -> np.ndarray:
        return cfg_predict(model, Tensor(arr), t, c, cfg.guidance_scale, params, forward).data

    return Tensor(ddim_denoise(x, predict, schedule, cfg.steps, cfg.eta, rng))
