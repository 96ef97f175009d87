"""Low-rank adapters over frozen base models.

A bundle is its tensor table, keyed by saved name. A LoRA pair is ``<site>.lora.A``
[m, r] and ``<site>.lora.B`` [n, r] for a host weight flattened to [m, n] =
[C_out, C_in*k*k]; the applied delta is alpha * reshape(A @ B^T). B starts at zero
so attaching is an exact identity. A norm delta is ``<norm>.delta.gamma``/``beta``:
zero-initialized per-channel offsets added to a resnet norm's gamma/beta.
``paired_sites`` is the one rule for how the names pair up.

One bundle type serves every kind; BUNDLE_KINDS names the sites each wraps.
The resolution adapter ("resadapter") wraps the down/up sampler conv weights
plus all resnet norms; the style LoRA ("style-lora") wraps the bottleneck
attention projections and serves as a contrast baseline in evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .errors import ConfigError, check_seed
from .tensor import Tensor
from .unet import UNetModel, list_sites, model_fingerprint, unet_forward

__all__ = [
    "AdapterBundle", "BUNDLE_KINDS",
    "attach_resadapter", "attach_style_lora", "adapted_forward", "merge",
    "effective_param_map", "trainable_param_count", "frozen_param_count",
    "total_param_count",
]

DEFAULT_RANK = 4

LORA_A_SUFFIX = ".lora.A"
LORA_B_SUFFIX = ".lora.B"
DELTA_GAMMA_SUFFIX = ".delta.gamma"
DELTA_BETA_SUFFIX = ".delta.beta"


# Site rules per bundle kind: (LoRA selector, norm-delta selector or None),
# both keys of unet._SELECTOR_PATTERNS. Attach and the bundle loader share it.
BUNDLE_KINDS = {
    "resadapter": ("sampler_convs", "resnet_norms"),
    "style-lora": ("attention_projections", None),
}


@dataclass
class AdapterBundle:
    kind: str  # a key of BUNDLE_KINDS
    tensors: dict[str, Tensor]  # LoRA A/B and norm-delta gamma/beta leaves by saved name
    alpha: float
    base_fingerprint: str

    @property
    def rank(self) -> int:
        """Columns of a 2-D ``.lora.A``; 0 for a bundle without LoRA pairs."""
        return next((t.shape[1] for name, t in self.tensors.items()
                     if name.endswith(LORA_A_SUFFIX) and t.ndim == 2), 0)

    def with_alpha(self, alpha: float) -> "AdapterBundle":
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        return replace(self, alpha=float(alpha))

    def restricted(self, modes) -> "AdapterBundle":
        """Keep only the named parts: subset of {'conv_lora', 'norm_delta'}."""
        modes = set(modes)
        unknown = modes - {"conv_lora", "norm_delta"}
        if unknown:
            raise ConfigError(f"unknown ablation mode(s) {sorted(unknown)}")
        return replace(self, tensors={
            name: t for name, t in self.tensors.items()
            if ("conv_lora" if name.endswith((LORA_A_SUFFIX, LORA_B_SUFFIX)) else "norm_delta") in modes
        })


def paired_sites(tensors: dict[str, Tensor], rank: int) -> tuple[list[tuple], list[tuple]]:
    """(site, A, B) per LoRA pair and (norm prefix, dgamma, dbeta) per delta, in table order.

    The one pairing rule of a bundle: every name ends in a known suffix and has
    its partner, each LoRA pair is 2-D with ``rank`` columns and each delta pair
    is 1-D of one shape. Raises ConfigError "<site>: ..." at the first breach.
    """
    lora, norms = [], []
    for name, x in tensors.items():
        if name.endswith(LORA_A_SUFFIX):
            site = name.removesuffix(LORA_A_SUFFIX)
            y = tensors.get(site + LORA_B_SUFFIX)
            if y is None:
                raise ConfigError(f"{site}: lora A present without B")
            xs, ys = x.shape, y.shape
            if len(xs) != 2 or len(ys) != 2 or xs[1] != rank or ys[1] != rank:
                raise ConfigError(f"{site}: lora shapes {xs}/{ys} contradict rank {rank}")
            lora.append((site, x, y))
        elif name.endswith(DELTA_GAMMA_SUFFIX):
            site = name.removesuffix(DELTA_GAMMA_SUFFIX)
            y = tensors.get(site + DELTA_BETA_SUFFIX)
            if y is None:
                raise ConfigError(f"{site}: delta gamma present without beta")
            xs = x.shape
            if xs != y.shape or len(xs) != 1:
                raise ConfigError(f"{site}: delta shapes {xs}/{y.shape} inconsistent")
            norms.append((site, x, y))
    if 2 * (len(lora) + len(norms)) != len(tensors):  # some name is in no pair
        paired = {site + s for site, _, _ in lora for s in (LORA_A_SUFFIX, LORA_B_SUFFIX)}
        paired |= {site + s for site, _, _ in norms for s in (DELTA_GAMMA_SUFFIX, DELTA_BETA_SUFFIX)}
        stray = next(name for name in tensors if name not in paired)
        for suffix, breach in ((LORA_B_SUFFIX, "lora B present without A"),
                               (DELTA_BETA_SUFFIX, "delta beta present without gamma")):
            if stray.endswith(suffix):
                raise ConfigError(f"{stray.removesuffix(suffix)}: {breach}")
        raise ConfigError(f"{stray}: not a lora A/B or delta gamma/beta name")
    return lora, norms


def _host_dims(site: str, host: Tensor) -> tuple[int, int]:
    """[m, n] of a host weight flattened to [C_out, C_in*k*k] (a linear weight as is)."""
    if host.ndim == 4:
        return host.shape[0], math.prod(host.shape[1:])
    if host.ndim == 2:
        return host.shape
    raise ConfigError(f"cannot wrap site {site} with shape {host.shape}")


def _attach(model: UNetModel, kind: str, rank: int, seed: int) -> AdapterBundle:
    check_seed("adapter seed", seed)
    lora_selector, delta_selector = BUNDLE_KINDS[kind]
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for site in list_sites(model, lora_selector):
        m, n = _host_dims(site, model.params[site])
        if rank < 1 or rank > min(m, n):
            raise ConfigError(f"rank {rank} invalid for site {site} (must be in [1, {min(m, n)}])")
        tensors[site + LORA_A_SUFFIX] = Tensor(rng.normal(0.0, np.sqrt(1.0 / m), (m, rank)),
                                               requires_grad=True)
        tensors[site + LORA_B_SUFFIX] = Tensor(np.zeros((n, rank)), requires_grad=True)
    if delta_selector is not None:
        for prefix in sorted({site.rsplit(".", 1)[0] for site in list_sites(model, delta_selector)}):
            c = model.params[prefix + ".gamma"].shape[0]
            tensors[prefix + DELTA_GAMMA_SUFFIX] = Tensor(np.zeros(c), requires_grad=True)
            tensors[prefix + DELTA_BETA_SUFFIX] = Tensor(np.zeros(c), requires_grad=True)
    if not tensors:
        raise ConfigError(f"model has no {lora_selector!r} sites to wrap")
    for tensor in model.params.values():
        tensor.requires_grad = False
    return AdapterBundle(kind=kind, tensors=tensors, alpha=1.0,
                         base_fingerprint=model_fingerprint(model))


def attach_resadapter(model: UNetModel, rank: int = DEFAULT_RANK, seed: int = 0) -> AdapterBundle:
    """Wrap sampler convs with LoRA pairs and resnet norms with zero deltas.

    Freezes every base parameter; attaching changes no output (B and the
    norm deltas start at zero).
    """
    return _attach(model, "resadapter", rank, seed)


def attach_style_lora(model: UNetModel, rank: int = DEFAULT_RANK, seed: int = 0) -> AdapterBundle:
    """Wrap the bottleneck attention projections (q/k/v/o) with LoRA pairs."""
    return _attach(model, "style-lora", rank, seed)


def _check_host(model: UNetModel, bundle: AdapterBundle) -> tuple[list[tuple], list[tuple]]:
    """The bundle's ``paired_sites``; ConfigError unless it was built for ``model`` and fits it."""
    fp = model_fingerprint(model)
    if fp != bundle.base_fingerprint:
        raise ConfigError(
            f"adapter was built for base fingerprint {bundle.base_fingerprint}, model has {fp}"
        )
    try:
        lora, norms = paired_sites(bundle.tensors, bundle.rank)
    except ConfigError as exc:
        raise ConfigError(f"adapter site {exc}") from None
    for site, a, b in lora:  # both are [*, rank] by now
        host = model.params.get(site)
        if host is None:
            raise ConfigError(f"adapter site {site}: no such parameter in the model")
        m, n = _host_dims(site, host)
        if a.shape[0] != m or b.shape[0] != n:
            r = a.shape[1]
            raise ConfigError(
                f"adapter site {site}: lora A/B shapes {a.shape}/{b.shape} "
                f"do not fit host {host.shape} at rank {r}; expected {(m, r)}/{(n, r)}"
            )
    for site, dgamma, dbeta in norms:  # one 1-D shape by now
        host = model.params.get(site + ".gamma")
        if host is None:
            raise ConfigError(f"adapter site {site}: no such norm in the model")
        if dgamma.shape != host.shape:
            raise ConfigError(
                f"adapter site {site}: delta shapes {dgamma.shape}/{dbeta.shape} "
                f"do not fit host {host.shape}"
            )
    return lora, norms


def effective_param_map(model: UNetModel, bundle: AdapterBundle) -> dict[str, Tensor]:
    """Parameter map with adapter deltas applied as taped expressions.

    Gradients flow into the bundle tensors only; base parameters are frozen
    leaves and never receive grads through this map.
    """
    lora, norms = _check_host(model, bundle)
    alpha = bundle.alpha
    p = dict(model.params)
    for site, a, b in lora:
        host = model.params[site]
        delta = ops.reshape(ops.matmul(a, ops.permute(b, (1, 0))), host.shape)
        p[site] = ops.add(host, ops.scale(delta, alpha))
    for prefix, dgamma, dbeta in norms:
        for field, leaf in (("gamma", dgamma), ("beta", dbeta)):
            site = f"{prefix}.{field}"
            p[site] = ops.add(model.params[site], ops.scale(leaf, alpha))
    return p


def adapted_forward(model: UNetModel, bundle: AdapterBundle, x: Tensor, t, c=None) -> Tensor:
    return unet_forward(model, x, t, c, effective_param_map(model, bundle))


def merge(model: UNetModel, bundle: AdapterBundle) -> UNetModel:
    """New model with deltas folded into the weights; the original is untouched."""
    params = effective_param_map(model, bundle)
    return UNetModel(config=model.config, params={
        name: Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()
    })


def trainable_param_count(bundle: AdapterBundle) -> int:
    return sum(t.size for t in bundle.tensors.values())


def frozen_param_count(model: UNetModel) -> int:
    return sum(t.size for t in model.params.values() if not t.requires_grad)


def total_param_count(model: UNetModel) -> int:
    return sum(t.size for t in model.params.values())
