"""Low-rank adapters over frozen base models.

A LoRA pair holds A [m, r] and B [n, r] for a host weight flattened to
[m, n] = [C_out, C_in*k*k]; the applied delta is alpha * reshape(A @ B^T).
B starts at zero so attaching is an exact identity. Norm deltas are
zero-initialized per-channel offsets added to resnet gamma/beta.

One bundle type serves every kind; BUNDLE_KINDS names the sites each wraps.
The resolution adapter ("resadapter") wraps the down/up sampler conv weights
plus all resnet norms; the style LoRA ("style-lora") wraps the bottleneck
attention projections and serves as a contrast baseline in evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .errors import ConfigError, check_seed
from .tensor import Tensor
from .unet import UNetModel, list_sites, model_fingerprint, unet_forward

__all__ = [
    "LoRAPair", "NormDelta", "AdapterBundle", "BUNDLE_KINDS",
    "attach_resadapter", "attach_style_lora", "adapted_forward", "merge",
    "effective_param_map", "trainable_param_count", "frozen_param_count",
    "total_param_count",
]

DEFAULT_RANK = 4

LORA_A_SUFFIX = ".lora.A"
LORA_B_SUFFIX = ".lora.B"
DELTA_GAMMA_SUFFIX = ".delta.gamma"
DELTA_BETA_SUFFIX = ".delta.beta"


@dataclass
class LoRAPair:
    site: str
    a: Tensor  # [m, r]
    b: Tensor  # [n, r]
    rank: int

    def param_count(self) -> int:
        return self.a.size + self.b.size


@dataclass
class NormDelta:
    site: str  # norm prefix, e.g. "down.0.res.1.norm2"
    dgamma: Tensor
    dbeta: Tensor

    def param_count(self) -> int:
        return self.dgamma.size + self.dbeta.size


# Site rules per bundle kind: (LoRA selector, norm-delta selector or None),
# both keys of unet._SELECTOR_PATTERNS. Attach and the bundle loader share it.
BUNDLE_KINDS = {
    "resadapter": ("sampler_convs", "resnet_norms"),
    "style-lora": ("attention_projections", None),
}


@dataclass
class AdapterBundle:
    kind: str  # a key of BUNDLE_KINDS
    loras: list[LoRAPair]
    norm_deltas: list[NormDelta]
    alpha: float
    base_fingerprint: str

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
        return replace(
            self,
            loras=self.loras if "conv_lora" in modes else [],
            norm_deltas=self.norm_deltas if "norm_delta" in modes else [],
        )

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for pair in self.loras:
            out[pair.site + LORA_A_SUFFIX] = pair.a
            out[pair.site + LORA_B_SUFFIX] = pair.b
        for nd in self.norm_deltas:
            out[nd.site + DELTA_GAMMA_SUFFIX] = nd.dgamma
            out[nd.site + DELTA_BETA_SUFFIX] = nd.dbeta
        return out


def _host_dims(site: str, host: Tensor) -> tuple[int, int]:
    """[m, n] of a host weight flattened to [C_out, C_in*k*k] (a linear weight as is)."""
    if host.ndim == 4:
        return host.shape[0], int(np.prod(host.shape[1:]))
    if host.ndim == 2:
        return host.shape
    raise ConfigError(f"cannot wrap site {site} with shape {host.shape}")


def _new_pair(model: UNetModel, site: str, rank: int, rng: np.random.Generator) -> LoRAPair:
    m, n = _host_dims(site, model.params[site])
    if rank < 1 or rank > min(m, n):
        raise ConfigError(f"rank {rank} invalid for site {site} (must be in [1, {min(m, n)}])")
    a = Tensor(rng.normal(0.0, np.sqrt(1.0 / m), (m, rank)), requires_grad=True)
    b = Tensor(np.zeros((n, rank)), requires_grad=True)
    return LoRAPair(site=site, a=a, b=b, rank=rank)


def _attach(model: UNetModel, kind: str, rank: int, seed: int) -> AdapterBundle:
    check_seed("adapter seed", seed)
    lora_selector, delta_selector = BUNDLE_KINDS[kind]
    rng = np.random.default_rng(seed)
    pairs = [_new_pair(model, site, rank, rng) for site in list_sites(model, lora_selector)]
    deltas = []
    if delta_selector is not None:
        prefixes = sorted({site.rsplit(".", 1)[0] for site in list_sites(model, delta_selector)})
        for prefix in prefixes:
            c = model.params[prefix + ".gamma"].shape[0]
            deltas.append(NormDelta(
                site=prefix,
                dgamma=Tensor(np.zeros(c), requires_grad=True),
                dbeta=Tensor(np.zeros(c), requires_grad=True),
            ))
    if not pairs and not deltas:
        raise ConfigError(f"model has no {lora_selector!r} sites to wrap")
    for tensor in model.params.values():
        tensor.requires_grad = False
    return AdapterBundle(kind=kind, loras=pairs, norm_deltas=deltas, alpha=1.0,
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


def _check_host(model: UNetModel, bundle: AdapterBundle) -> None:
    """Raise ConfigError unless the bundle was built for ``model`` and every tensor fits its site."""
    fp = model_fingerprint(model)
    if fp != bundle.base_fingerprint:
        raise ConfigError(
            f"adapter was built for base fingerprint {bundle.base_fingerprint}, model has {fp}"
        )
    for pair in bundle.loras:
        host = model.params.get(pair.site)
        if host is None:
            raise ConfigError(f"adapter site {pair.site}: no such parameter in the model")
        m, n = _host_dims(pair.site, host)
        r = pair.rank
        if pair.a.shape != (m, r) or pair.b.shape != (n, r):
            raise ConfigError(
                f"adapter site {pair.site}: lora A/B shapes {pair.a.shape}/{pair.b.shape} "
                f"do not fit host {host.shape} at rank {r}; expected {(m, r)}/{(n, r)}"
            )
    for nd in bundle.norm_deltas:
        host = model.params.get(nd.site + ".gamma")
        if host is None:
            raise ConfigError(f"adapter site {nd.site}: no such norm in the model")
        if nd.dgamma.shape != host.shape or nd.dbeta.shape != host.shape:
            raise ConfigError(
                f"adapter site {nd.site}: delta shapes {nd.dgamma.shape}/{nd.dbeta.shape} "
                f"do not fit host {host.shape}"
            )


def effective_param_map(model: UNetModel, bundle: AdapterBundle) -> dict[str, Tensor]:
    """Parameter map with adapter deltas applied as taped expressions.

    Gradients flow into the bundle tensors only; base parameters are frozen
    leaves and never receive grads through this map.
    """
    _check_host(model, bundle)
    alpha = bundle.alpha
    p = dict(model.params)
    for pair in bundle.loras:
        host = model.params[pair.site]
        delta = ops.reshape(ops.matmul(pair.a, ops.permute(pair.b, (1, 0))), host.shape)
        p[pair.site] = ops.add(host, ops.scale(delta, alpha))
    for nd in bundle.norm_deltas:
        for field, leaf in (("gamma", nd.dgamma), ("beta", nd.dbeta)):
            site = f"{nd.site}.{field}"
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
    return sum(t.size for t in bundle.named_tensors().values())


def frozen_param_count(model: UNetModel) -> int:
    return sum(t.size for t in model.params.values() if not t.requires_grad)


def total_param_count(model: UNetModel) -> int:
    return sum(t.size for t in model.params.values())
