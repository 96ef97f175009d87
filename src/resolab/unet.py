"""Miniature UNet noise predictor eps(x_t, t, c) with stable parameter paths.

Every parameter lives in a flat dict keyed by a dotted site path; the path
grammar is a public contract shared with serialization and the adapters:

    time.mlp{0|1}.{weight|bias}
    embed.class.weight                       (when any class rows exist)
    {down.L|mid|up.L}.res.B.{norm1|norm2}.{gamma|beta}
    {down.L|mid|up.L}.res.B.{conv1|conv2}.{weight|bias}
    {down.L|mid|up.L}.res.B.skip.weight      (when the block changes channels)
    {down|up}.L.sampler.conv.{weight|bias}
    mid.attn.{q|k|v|o}.weight                (when attention is enabled)
    out.norm.{gamma|beta}, out.conv.{weight|bias}

Architecture: res blocks are GN -> SiLU -> conv3x3 -> (+ conditioning) ->
GN -> SiLU -> conv3x3 with a residual add (1x1 skip when channels change).
Down levels end in a stride-2 conv; up levels start with nearest-2x + conv
and an additive skip from the matching down level. The bottleneck holds two
res blocks around an optional single-head self-attention. Conditioning is
the time MLP output plus a class-embedding row; each block adds its first
C components, so time_embed_dim must cover the widest level.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, ResolutionError, ShapeError, check_seed
from .tensor import Tensor

__all__ = [
    "UNetConfig", "UNetModel", "build_unet", "unet_forward",
    "site_shapes", "list_sites", "time_embedding", "model_fingerprint",
    "SITE_SELECTORS",
]


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 1
    base_channels: int = 8
    channel_mults: tuple[int, ...] = (1, 2)
    num_res_blocks_per_level: int = 2
    groups: int = 8
    attn_at_bottleneck: bool = True
    time_embed_dim: int = 32
    num_classes: int = 4
    null_class_reserved: bool = True

    @property
    def levels(self) -> int:
        return len(self.channel_mults)

    @property
    def level_channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * m for m in self.channel_mults)

    @property
    def spatial_divisor(self) -> int:
        return 2 ** (self.levels - 1)

    @property
    def embedding_rows(self) -> int:
        if self.num_classes <= 0:
            return 0
        return self.num_classes + (1 if self.null_class_reserved else 0)

    @property
    def null_class(self) -> int | None:
        return self.num_classes if (self.num_classes > 0 and self.null_class_reserved) else None

    def validate(self) -> "UNetConfig":
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be >= 1, got {self.base_channels}")
        if len(self.channel_mults) < 2:
            raise ConfigError("channel_mults needs at least 2 levels")
        if any(int(m) != m or m < 1 for m in self.channel_mults):
            raise ConfigError(f"channel_mults must be positive ints, got {self.channel_mults}")
        if self.num_res_blocks_per_level < 1:
            raise ConfigError("num_res_blocks_per_level must be >= 1")
        if self.groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.groups}")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            raise ConfigError(f"time_embed_dim must be even and >= 2, got {self.time_embed_dim}")
        if self.num_classes < 0:
            raise ConfigError(f"num_classes must be >= 0, got {self.num_classes}")
        widest = max(self.level_channels)
        if self.time_embed_dim < widest:
            raise ConfigError(
                f"time_embed_dim {self.time_embed_dim} must cover the widest level ({widest} channels)"
            )
        for c in (self.in_channels, *self.level_channels):
            g = min(self.groups, c)
            if c % g:
                raise ConfigError(f"channel count {c} not divisible by effective groups {g}")
        return self


def _norm_groups(config: UNetConfig, channels: int) -> int:
    return min(config.groups, channels)


def site_shapes(config: UNetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter site implied by the config."""
    config.validate()
    d = config.time_embed_dim
    ch = config.level_channels
    shapes: dict[str, tuple[int, ...]] = {
        "time.mlp0.weight": (d, d), "time.mlp0.bias": (d,),
        "time.mlp1.weight": (d, d), "time.mlp1.bias": (d,),
    }
    if config.embedding_rows:
        shapes["embed.class.weight"] = (config.embedding_rows, d)

    def res_block(prefix: str, cin: int, cout: int) -> None:
        shapes[f"{prefix}.norm1.gamma"] = (cin,)
        shapes[f"{prefix}.norm1.beta"] = (cin,)
        shapes[f"{prefix}.conv1.weight"] = (cout, cin, 3, 3)
        shapes[f"{prefix}.conv1.bias"] = (cout,)
        shapes[f"{prefix}.norm2.gamma"] = (cout,)
        shapes[f"{prefix}.norm2.beta"] = (cout,)
        shapes[f"{prefix}.conv2.weight"] = (cout, cout, 3, 3)
        shapes[f"{prefix}.conv2.bias"] = (cout,)
        if cin != cout:
            shapes[f"{prefix}.skip.weight"] = (cout, cin, 1, 1)

    prev = config.in_channels
    for level, c in enumerate(ch):
        for b in range(config.num_res_blocks_per_level):
            res_block(f"down.{level}.res.{b}", prev if b == 0 else c, c)
        prev = c
        if level < config.levels - 1:
            shapes[f"down.{level}.sampler.conv.weight"] = (c, c, 3, 3)
            shapes[f"down.{level}.sampler.conv.bias"] = (c,)

    cm = ch[-1]
    res_block("mid.res.0", cm, cm)
    if config.attn_at_bottleneck:
        for p in "qkvo":
            shapes[f"mid.attn.{p}.weight"] = (cm, cm)
    res_block("mid.res.1", cm, cm)

    for level in range(config.levels - 2, -1, -1):
        shapes[f"up.{level}.sampler.conv.weight"] = (ch[level], ch[level + 1], 3, 3)
        shapes[f"up.{level}.sampler.conv.bias"] = (ch[level],)
        for b in range(config.num_res_blocks_per_level):
            res_block(f"up.{level}.res.{b}", ch[level], ch[level])

    shapes["out.norm.gamma"] = (ch[0],)
    shapes["out.norm.beta"] = (ch[0],)
    shapes["out.conv.weight"] = (config.in_channels, ch[0], 3, 3)
    shapes["out.conv.bias"] = (config.in_channels,)
    return shapes


@dataclass
class UNetModel:
    config: UNetConfig
    params: dict[str, Tensor]
    frozen: set[str] = field(default_factory=set)

    def clone(self) -> "UNetModel":
        return UNetModel(
            config=self.config,
            params={k: Tensor(v.data.copy(), requires_grad=v.requires_grad) for k, v in self.params.items()},
            frozen=set(self.frozen),
        )


def build_unet(config: UNetConfig, seed: int = 0) -> UNetModel:
    """Deterministically initialize a model for the given config and seed.

    Conv/linear weights draw from a fan-in-scaled normal, biases and norm
    betas start at zero, norm gammas at one, and the output conv is zeroed so
    a fresh model predicts exactly zero noise.
    """
    check_seed("model seed", seed)
    shapes = site_shapes(config)
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name in sorted(shapes):
        shape = shapes[name]
        if name in ("out.conv.weight", "out.conv.bias"):
            arr = np.zeros(shape)
        elif name.endswith(".bias") or name.endswith(".beta"):
            arr = np.zeros(shape)
        elif name.endswith(".gamma"):
            arr = np.ones(shape)
        elif name == "embed.class.weight":
            arr = rng.normal(0.0, 1.0 / np.sqrt(shape[1]), shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            arr = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        params[name] = Tensor(arr, requires_grad=True)
    return UNetModel(config=config, params=params, frozen=set())


_SELECTOR_PATTERNS = {
    "sampler_convs": re.compile(r"^(down|up)\.\d+\.sampler\.conv\.weight$"),
    "resnet_norms": re.compile(r"^(down\.\d+|mid|up\.\d+)\.res\.\d+\.norm[12]\.(gamma|beta)$"),
    "attention_projections": re.compile(r"^mid\.attn\.[qkvo]\.weight$"),
}
SITE_SELECTORS = ("sampler_convs", "resnet_norms", "attention_projections", "all")


def list_sites(model: UNetModel, selector: str = "all") -> list[str]:
    """Site paths matching a selector, sorted lexicographically."""
    if selector == "all":
        return sorted(model.params)
    pattern = _SELECTOR_PATTERNS.get(selector)
    if pattern is None:
        raise ConfigError(f"unknown site selector {selector!r} (choose from {SITE_SELECTORS})")
    return sorted(name for name in model.params if pattern.match(name))


def model_fingerprint(model: UNetModel) -> str:
    """FNV-1a 64-bit hash of the sorted site list and shapes, as 16 hex chars."""
    return _fnv1a_hex("\n".join(f"{name}:{','.join(str(d) for d in model.params[name].shape)}"
                                for name in sorted(model.params)))


# The byte loop is pure Python (~0.3 ms for the desk model) and every adapter
# step's effective_param_map checks its host's fingerprint, while a process
# sees few model shapes.
@functools.lru_cache(maxsize=8)
def _fnv1a_hex(text: str) -> str:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def time_embedding(t: int, dim: int) -> Tensor:
    """Sinusoidal embedding [sin(t*w_i)..., cos(t*w_i)...], w_i = 10000^(-2i/dim)."""
    if dim < 2 or dim % 2:
        raise ConfigError(f"time_embedding: dim must be even and >= 2, got {dim}")
    return Tensor(_time_embedding_rows(np.asarray([t], dtype=np.float64), dim)[0])


def _time_embedding_rows(t: np.ndarray, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / dim)
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def _as_index_vector(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.full(n, int(arr))
    if arr.shape != (n,):
        raise ShapeError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    return arr.astype(np.intp)


def _res_block(p, prefix: str, h: Tensor, cond: Tensor, config: UNetConfig) -> Tensor:
    cin = h.shape[1]
    cout = p[f"{prefix}.conv1.weight"].shape[0]
    y = ops.group_norm_silu(h, _norm_groups(config, cin), p[f"{prefix}.norm1.gamma"], p[f"{prefix}.norm1.beta"])
    y = ops.conv2d(y, p[f"{prefix}.conv1.weight"], p[f"{prefix}.conv1.bias"], stride=1, padding=1)
    bias = ops.reshape(ops.crop_cols(cond, cout), (h.shape[0], cout, 1, 1))
    y = ops.add(y, bias)
    y = ops.group_norm_silu(y, _norm_groups(config, cout), p[f"{prefix}.norm2.gamma"], p[f"{prefix}.norm2.beta"])
    y = ops.conv2d(y, p[f"{prefix}.conv2.weight"], p[f"{prefix}.conv2.bias"], stride=1, padding=1)
    skip = h
    if cin != cout:
        skip = ops.conv2d(h, p[f"{prefix}.skip.weight"], None, stride=1, padding=0)
    return ops.add(y, skip)


def unet_forward(model: UNetModel, x: Tensor, t, c=None, params: dict[str, Tensor] | None = None) -> Tensor:
    """Predict noise for x at timestep(s) t with class id(s) c.

    ``params`` overrides the parameter map (same site keys); adapters use
    this to substitute effective weights without touching the base model.
    """
    config = model.config
    p = model.params if params is None else params
    if x.ndim != 4:
        raise ShapeError(f"unet_forward: input must be [N, C, H, W], got {x.shape}")
    n, cin, h, w = x.shape
    if cin != config.in_channels:
        raise ShapeError(f"unet_forward: input has {cin} channels, config expects {config.in_channels}")
    div = config.spatial_divisor
    if h % div or w % div:
        raise ResolutionError(
            f"spatial dims must be divisible by {div} for {config.levels} levels; got {h}x{w}"
        )

    t_ids = _as_index_vector(t, n, "t")
    emb = Tensor(_time_embedding_rows(t_ids.astype(np.float64), config.time_embed_dim))
    cond = ops.linear(emb, p["time.mlp0.weight"], p["time.mlp0.bias"])
    cond = ops.silu(cond)
    cond = ops.linear(cond, p["time.mlp1.weight"], p["time.mlp1.bias"])
    rows = config.embedding_rows
    if rows:
        if c is None:
            raise ConfigError("unet_forward: class ids required for a class-conditional model")
        c_ids = _as_index_vector(c, n, "c")
        if c_ids.min() < 0 or c_ids.max() >= rows:
            raise ConfigError(
                f"unet_forward: class id out of range [0, {rows}) (null token = {config.num_classes})"
            )
        cond = ops.add(cond, ops.embed_rows(p["embed.class.weight"], c_ids))

    ch = config.level_channels
    hidden = x
    skips: list[Tensor] = []
    for level in range(config.levels):
        for b in range(config.num_res_blocks_per_level):
            hidden = _res_block(p, f"down.{level}.res.{b}", hidden, cond, config)
        skips.append(hidden)
        if level < config.levels - 1:
            hidden = ops.conv2d(
                hidden, p[f"down.{level}.sampler.conv.weight"], p[f"down.{level}.sampler.conv.bias"],
                stride=2, padding=1,
            )

    hidden = _res_block(p, "mid.res.0", hidden, cond, config)
    if config.attn_at_bottleneck:
        nb, cb, hb, wb = hidden.shape
        tokens = ops.reshape(ops.permute(hidden, (0, 2, 3, 1)), (nb, hb * wb, cb))
        tokens = ops.self_attention(
            tokens, p["mid.attn.q.weight"], p["mid.attn.k.weight"],
            p["mid.attn.v.weight"], p["mid.attn.o.weight"],
        )
        attn_out = ops.permute(ops.reshape(tokens, (nb, hb, wb, cb)), (0, 3, 1, 2))
        hidden = ops.add(hidden, attn_out)
    hidden = _res_block(p, "mid.res.1", hidden, cond, config)

    for level in range(config.levels - 2, -1, -1):
        hidden = ops.upsample_nearest2x(hidden)
        hidden = ops.conv2d(
            hidden, p[f"up.{level}.sampler.conv.weight"], p[f"up.{level}.sampler.conv.bias"],
            stride=1, padding=1,
        )
        hidden = ops.add(hidden, skips[level])
        for b in range(config.num_res_blocks_per_level):
            hidden = _res_block(p, f"up.{level}.res.{b}", hidden, cond, config)

    hidden = ops.group_norm_silu(hidden, _norm_groups(config, ch[0]), p["out.norm.gamma"], p["out.norm.beta"])
    return ops.conv2d(hidden, p["out.conv.weight"], p["out.conv.bias"], stride=1, padding=1)
