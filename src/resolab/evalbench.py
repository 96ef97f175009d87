"""Held-out evaluation, tiled generation, latency benchmarks, ablations.

All evaluation draws derive from explicit seeds so reports reproduce
bit-for-bit (wall-clock metadata aside). Variants evaluated on the same
bucket share the same held-out batches, which makes base-vs-adapted
comparisons paired rather than merely statistical.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterBundle, effective_param_map
from .data import SyntheticDataset
from .diffusion import (DiffusionSchedule, SamplerConfig, cfg_predict, ddim_denoise, ddim_sample,
                        forward_marginal, simple_loss)
from .errors import (AT_LEAST_1, NON_NEGATIVE, ConfigError, Count, Natural, NumericError, Range,
                     ShapeError, Unit, check_fields, check_int, prefixed)
from .ops import _as_index_vector
from .tensor import Tensor
from .trainer import check_fit, draw_batch
from .unet import UNetModel, unet_forward

__all__ = [
    "EvalConfig", "EvalRow", "EvalReport", "multires_eval", "ablation_grid",
    "tile_layout", "tiled_generate", "bench_latency",
    "style_shift", "make_style_probes",
]

HELDOUT_METRIC = "heldout_simple_loss"


@dataclass(frozen=True)
class EvalConfig:
    """The ``eval`` run-config section, and the inputs every evaluation entry point checks."""

    buckets: tuple[tuple[Count, Count], ...] = ((8, 8), (16, 16), (24, 24), (32, 32))
    n_batches: Count = 4
    batch_size: Count = 4
    seed: Natural = 0
    alphas: tuple[Unit, ...] = (0.0, 0.5, 1.0)  # blend strengths of the ablation grid

    def __post_init__(self):
        check_fields(self, "eval.")
        for name in ("buckets", "alphas"):
            if not getattr(self, name):
                raise ConfigError(f"eval.{name} must be non-empty")


@dataclass(frozen=True)
class EvalRow:
    bucket: tuple[int, int]
    variant: str
    metric: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericError(f"{self.variant} at {self.bucket[0]}x{self.bucket[1]}: "
                               f"{self.metric} is {self.value}")

    def to_json(self) -> str:
        return json.dumps({
            "bucket": f"{self.bucket[0]}x{self.bucket[1]}",
            "variant": self.variant,
            "metric": self.metric,
            "value": self.value,
        }, sort_keys=True)


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, row: EvalRow) -> None:
        key = (row.bucket, row.variant, row.metric)
        if any((r.bucket, r.variant, r.metric) == key for r in self.rows):
            raise ConfigError(f"duplicate report row {key}")
        self.rows.append(row)

    def value(self, bucket: tuple[int, int], variant: str, metric: str = HELDOUT_METRIC) -> float:
        for r in self.rows:
            if (r.bucket, r.variant, r.metric) == (bucket, variant, metric):
                return r.value
        raise KeyError((bucket, variant, metric))

    def jsonl(self) -> str:
        head = json.dumps({"metadata": self.metadata}, sort_keys=True)
        return "\n".join([head] + [r.to_json() for r in self.rows])

    def table(self) -> str:
        headers = ("bucket", "variant", "metric", "value")
        cells = [(f"{r.bucket[0]}x{r.bucket[1]}", r.variant, r.metric, f"{r.value:.6g}")
                 for r in self.rows]
        widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
                  for i, h in enumerate(headers)]
        def fmt(row):
            return "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
        return "\n".join([fmt(headers), fmt(["-" * w for w in widths])] + [fmt(c) for c in cells])


def _evaluate(who: str, model: UNetModel, adapted, schedule: DiffusionSchedule,
              dataset: SyntheticDataset, metadata: dict, **inputs) -> EvalReport:
    """Check the ``EvalConfig`` fields ``inputs``, then report the base and each variant
    per bucket: ``adapted(config)`` yields (name, params) pairs inside the timed region."""
    with prefixed(f"{who}: "):
        cfg = EvalConfig(**inputs)
        check_fit(model.config, dataset, cfg.buckets)
    started = time.perf_counter()
    variants = [("base", None), *adapted(cfg)]
    report = EvalReport(metadata={"seed": cfg.seed, "fingerprint": model.fingerprint,
                                  **metadata})
    for bucket in cfg.buckets:
        rng = np.random.default_rng([cfg.seed, *bucket])  # held-out draws, shared by the variants
        batches = [draw_batch(dataset, bucket, cfg.batch_size, schedule.timesteps, rng)
                   for _ in range(cfg.n_batches)]
        for name, params in variants:
            losses = [
                simple_loss(model, x0, t, eps, c, schedule, params=params).item()
                for x0, c, t, eps in batches
            ]
            report.add(EvalRow(bucket, name, HELDOUT_METRIC, float(np.mean(losses))))
    report.metadata["wall_clock_s"] = time.perf_counter() - started
    return report


def multires_eval(model: UNetModel, bundle, schedule: DiffusionSchedule,
                  dataset: SyntheticDataset, buckets, n_batches: int = 4, seed: int = 0,
                  batch_size: int = 4) -> EvalReport:
    """Mean held-out noise-prediction loss per bucket, base and adapted variants."""
    def adapted(cfg):
        if bundle is not None:
            yield f"base+{bundle.kind}", effective_param_map(model, bundle)

    return _evaluate("multires_eval", model, adapted, schedule, dataset,
                     {"n_batches": n_batches, "batch_size": batch_size}, buckets=buckets,
                     n_batches=n_batches, seed=seed, batch_size=batch_size)


def ablation_grid(model: UNetModel, bundle: AdapterBundle, modes, alphas,
                  schedule: DiffusionSchedule, dataset: SyntheticDataset, buckets,
                  n_batches: int = 4, seed: int = 0, batch_size: int = 4) -> EvalReport:
    """Held-out loss for every (adapter subset, alpha) cell plus one base row."""
    modes = [frozenset(m) for m in modes]
    if not modes:
        raise ConfigError("ablation_grid: modes must be non-empty")

    def cells(cfg):
        for mode in modes:
            restricted = bundle.restricted(mode)
            label = "+".join(sorted(mode)) if mode else "none"
            for alpha in cfg.alphas:
                yield (f"base+{bundle.kind}[{label}]@alpha={alpha:g}",
                       effective_param_map(model, restricted.with_alpha(alpha)))

    return _evaluate("ablation_grid", model, cells, schedule, dataset, {}, buckets=buckets,
                     n_batches=n_batches, seed=seed, batch_size=batch_size, alphas=alphas)


# ---------------------------------------------------------------------------
# tiled generation


def tile_layout(target: tuple[int, int], tile: tuple[int, int], overlap: int):
    """Tile origins covering the target and the per-pixel coverage counts."""
    th, tw = (check_int("target", side, AT_LEAST_1) for side in target)
    h, w = (check_int("tile", side, AT_LEAST_1) for side in tile)
    if h > th or w > tw:
        raise ShapeError(f"tile {h}x{w} larger than target {th}x{tw}")
    check_int("overlap", overlap, Range(0, min(h, w), open_hi=True))

    def axis_positions(full: int, span: int) -> list[int]:
        stride = span - overlap
        positions = list(range(0, full - span + 1, stride))
        if positions[-1] != full - span:
            positions.append(full - span)
        return positions

    origins = [(y, x) for y in axis_positions(th, h) for x in axis_positions(tw, w)]
    counts = np.zeros((th, tw))
    for y, x in origins:
        counts[y : y + h, x : x + w] += 1.0
    return origins, counts


def tiled_generate(model: UNetModel, schedule: DiffusionSchedule, target: tuple[int, int],
                   tile: tuple[int, int], overlap: int, cfg: SamplerConfig, c,
                   params=None, forward=unet_forward) -> Tensor:
    """Sample at ``target`` by blending per-tile predictions each DDIM step.

    Each step stacks every tile along the batch axis and makes one
    ``cfg_predict`` call, so a guided step is one UNet forward over
    2 x n_tiles rows. The stacked batch holds all tile pixels at once: for
    16x16 tiles with overlap 8 that is about 2.25x the activations of direct
    sampling at the same target. Predictions from overlapping tiles are
    averaged uniformly (sum divided by coverage count), so blend weights sum
    to one at every pixel by construction. With target == tile and overlap 0
    this reduces bitwise to ddim_sample.
    """
    origins, counts = tile_layout(target, tile, overlap)
    th, tw = target
    h, w = tile
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((1, model.config.in_channels, th, tw))
    c_tiles = None if c is None else np.tile(_as_index_vector(c, 1, "c"), len(origins))

    def predict(arr: np.ndarray, t: int) -> np.ndarray:
        patches = np.concatenate([arr[:, :, y : y + h, xo : xo + w] for y, xo in origins])
        eps = cfg_predict(model, Tensor(patches), t, c_tiles, cfg.guidance_scale, params,
                          forward).data
        acc = np.zeros_like(arr)
        for i, (y, xo) in enumerate(origins):
            acc[:, :, y : y + h, xo : xo + w] += eps[i]
        return acc / counts

    return Tensor(ddim_denoise(x, predict, schedule, cfg.steps, cfg.eta, rng))


def bench_latency(model: UNetModel, bundle, target: tuple[int, int], tile: tuple[int, int],
                  overlap: int, cfg: SamplerConfig, c, schedule: DiffusionSchedule,
                  repeats: int = 3, forward=unet_forward) -> dict:
    """Median wall-clock of direct generation at target vs tile-and-blend."""
    check_int("repeats", repeats, AT_LEAST_1)
    tile_layout(target, tile, overlap)  # a bad layout fails before any timed run
    params = effective_param_map(model, bundle) if bundle is not None else None
    shape = (1, model.config.in_channels, target[0], target[1])

    def run_direct():
        ddim_sample(model, shape, cfg, c, schedule, params=params, forward=forward)

    def run_tiled():
        tiled_generate(model, schedule, target, tile, overlap, cfg, c, params=params,
                       forward=forward)

    def timed(fn):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) * 1e3)
        return samples

    direct = timed(run_direct)
    tiled = timed(run_tiled)
    return {
        "direct_ms": float(np.median(direct)),
        "tiled_ms": float(np.median(tiled)),
        "ratio": float(np.median(tiled) / np.median(direct)),
        "direct_runs_ms": direct,
        "tiled_runs_ms": tiled,
        "repeats": repeats,
    }


# ---------------------------------------------------------------------------
# style-shift comparison


def make_style_probes(dataset: SyntheticDataset, schedule: DiffusionSchedule,
                      resolution: int, n: int, seed: int):
    """Noised in-style images at the standard resolution, for shift probes."""
    rng = np.random.default_rng(check_int("seed", seed, NON_NEGATIVE))
    probes = []
    for _ in range(check_int("n", n, AT_LEAST_1)):
        k = int(rng.integers(0, dataset.num_classes))
        x0 = dataset.render(k, resolution, resolution, rng)[None]
        t = int(rng.integers(1, schedule.timesteps + 1))
        eps = rng.standard_normal(x0.shape)
        probes.append((forward_marginal(Tensor(x0), t, Tensor(eps), schedule), t, np.array([k])))
    return probes


def style_shift(model: UNetModel, bundle_a, bundle_b, probe_inputs) -> tuple[float, float]:
    """Mean relative L2 output shift caused by each bundle on the probes.

    Both passes are ``cfg_predict`` at w = 1, so a probe's ids must be classes.
    """
    if not probe_inputs:
        raise ConfigError("style_shift: need at least one probe input")
    bases = [cfg_predict(model, x, t, c, 1.0).data for x, t, c in probe_inputs]

    def shift(bundle) -> float:
        params = effective_param_map(model, bundle)
        rel = []
        for (x, t, c), base in zip(probe_inputs, bases):
            adapted = cfg_predict(model, x, t, c, 1.0, params).data
            denom = max(float(np.linalg.norm(base)), 1e-12)
            rel.append(float(np.linalg.norm(adapted - base)) / denom)
        return float(np.mean(rel))

    return shift(bundle_a), shift(bundle_b)
