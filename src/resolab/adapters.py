"""Low-rank adapters over frozen base models.

A bundle is its tensor table, keyed by saved name. A LoRA pair is ``<site>.lora.A``
[m, r] and ``<site>.lora.B`` [n, r] for a host weight flattened to [m, n] =
[C_out, C_in*k*k]; the applied delta is alpha * reshape(A @ B^T). B starts at zero
so attaching is an exact identity. A norm delta is ``<norm>.delta.gamma``/``beta``:
zero-initialized per-channel offsets added to a resnet norm's gamma/beta.

One bundle type serves every kind; BUNDLE_KINDS holds the site patterns of
each, and ``_layout`` the name and shape of every tensor a kind of bundle holds
on a model config: attach builds it, and the rank and host checks read it.
The resolution adapter ("resadapter") wraps the down/up sampler conv weights
plus all resnet norms; the style LoRA ("style-lora") wraps the bottleneck
attention projections and serves as a contrast baseline in evaluations.

A bundle is valid once it exists: building one checks its kind, alpha,
fingerprint, sites and pairs, and its table is read-only, so a bundle changes
only through ``dataclasses.replace``, which checks again.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from . import ops
from .errors import NON_NEGATIVE, UNIT, ConfigError, Range, check_int, check_number
from .tensor import Tensor
from .unet import UNetConfig, UNetModel, site_shapes

__all__ = [
    "AdapterBundle", "BUNDLE_KINDS",
    "attach_resadapter", "attach_style_lora", "merge",
    "effective_param_map", "trainable_param_count",
]

DEFAULT_RANK = 4

LORA_A_SUFFIX = ".lora.A"
LORA_B_SUFFIX = ".lora.B"
DELTA_GAMMA_SUFFIX = ".delta.gamma"
DELTA_BETA_SUFFIX = ".delta.beta"
_PARTS = {"conv_lora": (LORA_A_SUFFIX, LORA_B_SUFFIX),  # a bundle's two name groups
          "norm_delta": (DELTA_GAMMA_SUFFIX, DELTA_BETA_SUFFIX)}


# Site rules per bundle kind: (LoRA host weights, resnet norm prefixes or None).
BUNDLE_KINDS = {
    "resadapter": (re.compile(r"^(down|up)\.\d+\.sampler\.conv\.weight$"),
                   re.compile(r"^(down\.\d+|mid|up\.\d+)\.res\.\d+\.norm[12]$")),
    "style-lora": (re.compile(r"^mid\.attn\.[qkvo]\.weight$"), None),
}


@dataclass(frozen=True)
class AdapterBundle:
    """Adapter tensors for one base model, checked when built; change with ``replace``."""

    kind: str  # a key of BUNDLE_KINDS
    tensors: Mapping[str, Tensor]  # LoRA A/B and norm-delta gamma/beta leaves by saved name
    alpha: float  # blend strength in [0, 1]
    base_fingerprint: str
    rank: int = field(init=False)  # columns of every .lora.A; 0 without LoRA pairs
    _lora: tuple = field(init=False, repr=False, compare=False)  # (site, A, B) per pair
    _norms: tuple = field(init=False, repr=False, compare=False)  # (norm, dgamma, dbeta)

    def __post_init__(self):
        kind, alpha, fingerprint = self.kind, self.alpha, self.base_fingerprint
        if not isinstance(kind, str) or kind not in BUNDLE_KINDS:
            raise ConfigError(f"unknown bundle kind {kind!r} (choose from {sorted(BUNDLE_KINDS)})")
        alpha = check_number("alpha_r", alpha, UNIT)
        if not isinstance(fingerprint, str):
            raise ConfigError(f"base_fingerprint must be a string, got {fingerprint!r}")
        tensors = MappingProxyType(dict(self.tensors))
        rank, lora, norms = _paired_sites(kind, tensors)
        for name, value in (("tensors", tensors), ("alpha", alpha), ("rank", rank),
                            ("_lora", lora), ("_norms", norms)):
            object.__setattr__(self, name, value)

    def names(self, part: str) -> list[str]:
        """Saved names of one part, "conv_lora" or "norm_delta", in table order."""
        return [name for name in self.tensors if name.endswith(_PARTS[part])]

    def with_alpha(self, alpha: float) -> "AdapterBundle":
        return replace(self, alpha=alpha)

    def restricted(self, modes) -> "AdapterBundle":
        """Keep only the named parts: subset of {'conv_lora', 'norm_delta'}."""
        modes = set(modes)
        unknown = modes - set(_PARTS)
        if unknown:
            raise ConfigError(f"unknown ablation mode(s) {sorted(unknown)}")
        keep = {name for part in modes for name in self.names(part)}
        return replace(self, tensors={n: t for n, t in self.tensors.items() if n in keep})


def _paired_sites(kind: str, tensors: Mapping[str, Tensor]) -> tuple[int, tuple, tuple]:
    """The rank, (site, A, B) per LoRA pair and (norm prefix, dgamma, dbeta) per delta.

    The one rule of a bundle's names: every name ends in a known suffix at a
    site the kind's patterns admit and holds a Tensor (checked first, in one
    pass over the table), and has its partner; each LoRA pair is 2-D with
    ``rank`` columns, those of the first 2-D ``.lora.A`` (0 without one), and
    each delta pair is 1-D of one shape. Pairs come in table order. Raises
    ConfigError naming the site at the first breach.
    """
    lora_sites, norm_sites = BUNDLE_KINDS[kind]
    entries = []  # (site, suffix, tensor) per name
    for name, x in tensors.items():
        suffix = next((s for p in _PARTS.values() for s in p if name.endswith(s)), "")
        site = name[: len(name) - len(suffix)]
        pattern = lora_sites if suffix in _PARTS["conv_lora"] else norm_sites
        if not suffix or pattern is None or not pattern.match(site):
            raise ConfigError(f"unknown site-path {name!r} for a {kind!r} bundle")
        if not isinstance(x, Tensor):
            raise ConfigError(f"{name}: expected a Tensor, got {type(x).__name__}")
        entries.append((site, suffix, x))
    rank = next((x.shape[1] for _, suffix, x in entries
                 if suffix == LORA_A_SUFFIX and x.ndim == 2), 0)
    lora, norms = [], []
    for site, suffix, x in entries:
        if suffix == LORA_A_SUFFIX:
            y = tensors.get(site + LORA_B_SUFFIX)
            if y is None:
                raise ConfigError(f"{site}: lora A present without B")
            xs, ys = x.shape, y.shape
            if len(xs) != 2 or len(ys) != 2 or xs[1] != rank or ys[1] != rank:
                raise ConfigError(f"{site}: lora shapes {xs}/{ys} contradict rank {rank}")
            lora.append((site, x, y))
        elif suffix == DELTA_GAMMA_SUFFIX:
            y = tensors.get(site + DELTA_BETA_SUFFIX)
            if y is None:
                raise ConfigError(f"{site}: delta gamma present without beta")
            xs = x.shape
            if xs != y.shape or len(xs) != 1:
                raise ConfigError(f"{site}: delta shapes {xs}/{y.shape} inconsistent")
            norms.append((site, x, y))
        elif suffix == LORA_B_SUFFIX and site + LORA_A_SUFFIX not in tensors:
            raise ConfigError(f"{site}: lora B present without A")
        elif suffix == DELTA_BETA_SUFFIX and site + DELTA_GAMMA_SUFFIX not in tensors:
            raise ConfigError(f"{site}: delta beta present without gamma")
    return rank, tuple(lora), tuple(norms)


@functools.lru_cache(maxsize=16)
def _layout(config: UNetConfig, kind: str, rank: int) -> Mapping[str, tuple[int, ...]]:
    """Shape of every tensor a ``kind`` bundle of ``rank`` holds on ``config``, in attach order.

    For each LoRA host in site order, ``.lora.A`` [m, rank] then ``.lora.B``
    [n, rank], where [m, n] = [C_out, C_in*k*k] (a 2-D weight as is); then for
    each resnet norm in site order, ``.delta.gamma`` and ``.delta.beta`` [C].
    """
    lora_sites, norm_sites = BUNDLE_KINDS[kind]
    shapes = sorted(site_shapes(config).items())
    layout = {}
    for site, shape in shapes:
        if lora_sites.match(site):
            layout[site + LORA_A_SUFFIX] = (shape[0], rank)
            layout[site + LORA_B_SUFFIX] = (math.prod(shape[1:]), rank)
    for site, shape in shapes:
        norm = site.removesuffix(".gamma")
        if norm_sites is not None and norm != site and norm_sites.match(norm):
            layout[norm + DELTA_GAMMA_SUFFIX] = layout[norm + DELTA_BETA_SUFFIX] = shape
    return MappingProxyType(layout)


def check_rank(config: UNetConfig, kind: str, rank: int) -> None:
    """ConfigError unless ``rank`` is in [1, min(m, n)] at every LoRA host of a ``kind`` bundle."""
    layout = _layout(config, kind, check_int("rank", rank))
    for name, shape in layout.items():
        if name.endswith(LORA_A_SUFFIX):
            site = name.removesuffix(LORA_A_SUFFIX)
            top = min(shape[0], layout[site + LORA_B_SUFFIX][0])
            check_int(f"rank at {site}", rank, Range(1, top))


def _attach(model: UNetModel, kind: str, rank: int, seed: int) -> AdapterBundle:
    check_int("adapter seed", seed, NON_NEGATIVE)
    check_rank(model.config, kind, rank)
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _layout(model.config, kind, rank).items():  # B and deltas start at zero
        data = (rng.normal(0.0, np.sqrt(1.0 / shape[0]), shape) if name.endswith(LORA_A_SUFFIX)
                else np.zeros(shape))
        tensors[name] = Tensor(data, requires_grad=True)
    for tensor in model.params.values():
        tensor.requires_grad = False
    return AdapterBundle(kind=kind, tensors=tensors, alpha=1.0,
                         base_fingerprint=model.fingerprint)


def attach_resadapter(model: UNetModel, rank: int = DEFAULT_RANK, seed: int = 0) -> AdapterBundle:
    """Wrap sampler convs with LoRA pairs and resnet norms with zero deltas.

    Freezes every base parameter; attaching changes no output (B and the
    norm deltas start at zero).
    """
    return _attach(model, "resadapter", rank, seed)


def attach_style_lora(model: UNetModel, rank: int = DEFAULT_RANK, seed: int = 0) -> AdapterBundle:
    """Wrap the bottleneck attention projections (q/k/v/o) with LoRA pairs."""
    if not model.config.attn_at_bottleneck:
        raise ConfigError("model has no bottleneck attention to wrap")
    return _attach(model, "style-lora", rank, seed)


def _check_host(model: UNetModel, bundle: AdapterBundle) -> None:
    """ConfigError unless ``bundle`` was built for ``model`` and every tensor fits its host."""
    fp = model.fingerprint
    if fp != bundle.base_fingerprint:
        raise ConfigError(
            f"adapter was built for base fingerprint {bundle.base_fingerprint}, model has {fp}"
        )
    # a restricted bundle is a sub-table; tensor data stays assignable, so every shape is compared
    layout = _layout(model.config, bundle.kind, bundle.rank)
    for name, x in bundle.tensors.items():
        expected = layout.get(name)
        if x.shape != expected:
            fit = "no such site in the model" if expected is None else f"the host needs {expected}"
            raise ConfigError(
                f"adapter site {name.rsplit('.', 2)[0]}: {name} has shape {x.shape}; {fit}"
            )


def effective_param_map(model: UNetModel, bundle: AdapterBundle) -> dict[str, Tensor]:
    """Parameter map with adapter deltas applied as taped expressions.

    Gradients flow into the bundle tensors only; base parameters are frozen
    leaves and never receive grads through this map.
    """
    _check_host(model, bundle)
    alpha = bundle.alpha
    p = dict(model.params)
    for site, a, b in bundle._lora:
        host = model.params[site]
        delta = ops.reshape(ops.matmul(a, ops.permute(b, (1, 0))), host.shape)
        p[site] = ops.add(host, ops.scale(delta, alpha))
    for prefix, dgamma, dbeta in bundle._norms:
        for field, leaf in (("gamma", dgamma), ("beta", dbeta)):
            site = f"{prefix}.{field}"
            p[site] = ops.add(model.params[site], ops.scale(leaf, alpha))
    return p


def merge(model: UNetModel, bundle: AdapterBundle) -> UNetModel:
    """New model with deltas folded into the weights; the original is untouched."""
    params = effective_param_map(model, bundle)
    return replace(model, params={
        name: Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()
    })


def trainable_param_count(bundle: AdapterBundle) -> int:
    return sum(t.size for t in bundle.tensors.values())
