"""Finite-difference verification of reverse-mode gradients.

Central differences, (f(x+h) - f(x-h)) / 2h per element, compared against the
tape gradient with the relative error |a - b| / max(|a|, |b|, 1e-8). Elements
where that first estimate disagrees with the tape by more than a tenth of the
suite tolerance are re-estimated at h/2 and Richardson-extrapolated to fourth
order, so h^2 truncation error on a high-curvature coordinate cannot
masquerade as a gradient bug -- a genuinely wrong tape gradient only disagrees
harder with the refined estimate. The default step 1e-4 with float64 puts
honest implementations well below the 1e-4 tolerance used by the op suite.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import diffusion, ops, unet
from .errors import ConfigError, NumericError, ShapeError, check_seed
from .tensor import Tape, Tensor

__all__ = ["grad_check", "run_suite", "DEFAULT_TOLERANCE"]

DEFAULT_TOLERANCE = 1e-4


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, step: float = 1e-4) -> float:
    """Max relative error between tape and finite-difference gradients of f.

    f must map one Tensor to a scalar Tensor and be free of side effects;
    close over any other arguments it needs.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ConfigError(f"grad_check: step must be finite and > 0, got {step}")
    x = Tensor(point.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(x)
        if y.data.size != 1:
            raise ShapeError(f"grad_check: f must return a scalar, got shape {y.shape}")
        y.check_finite("grad_check: f(x)")
        tape.backward(y)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)

    def central(i: int, h: float) -> float:
        probe = flat.copy()
        probe[i] = flat[i] + h
        fp = f(Tensor(probe.reshape(x.shape))).data
        probe[i] = flat[i] - h
        fm = f(Tensor(probe.reshape(x.shape))).data
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"grad_check: non-finite probe value at element {i}")
        return (fp.item() - fm.item()) / (2.0 * h)

    numeric = np.empty_like(x.data)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        num_flat[i] = central(i, step)

    def rel_errors() -> np.ndarray:
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        return np.abs(analytic - numeric) / denom

    for i in np.flatnonzero(rel_errors().reshape(-1) > DEFAULT_TOLERANCE / 10.0):
        num_flat[i] = (4.0 * central(int(i), step / 2.0) - num_flat[i]) / 3.0

    return float(np.max(rel_errors()))


def _check_args(op_name: str, build, n_points: int, seed: int, step: float):
    """Worst grad_check error per ``op.arg`` over ``n_points`` random points.

    Each argument is checked with the others held fixed at their drawn values.
    """
    worst: dict[str, float] = {}
    for k in range(n_points):
        named, loss = build(np.random.default_rng([seed, k]))
        for arg, point in named.items():
            err = grad_check(lambda x: loss({**named, arg: x}), point, step=step)
            key = f"{op_name}.{arg}"
            worst[key] = max(worst.get(key, 0.0), err)
    return sorted(worst.items())


def _normal(rng, shape, scale: float = 1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale)


def _normals(shapes: dict, loss):
    """Builder of a case whose arguments are N(0, 1) draws of ``shapes``, in key order."""
    return lambda rng: ({name: _normal(rng, shape) for name, shape in shapes.items()}, loss)


def _mean_silu(y: Tensor) -> Tensor:
    return ops.mean_all(ops.silu(y))


def _mean_square(y: Tensor) -> Tensor:
    return ops.mean_all(ops.mul(y, y))


def _elementwise(rng):
    named = {"a": _normal(rng, (3, 4)), "b": _normal(rng, (3, 4))}

    def loss(ts):
        y = ops.silu(ops.mul(ops.add(ts["a"], ts["b"]), ts["a"]))
        return ops.mean_all(ops.scale(y, 1.7))

    return named, loss


def _conv2d(rng):
    named = {"x": _normal(rng, (2, 3, 5, 5)), "w": _normal(rng, (4, 3, 3, 3), 0.5)}
    named["b"] = _normal(rng, 4)
    return named, lambda ts: _mean_silu(ops.conv2d(ts["x"], ts["w"], ts["b"], stride=1, padding=1))


def _conv2d_strided(rng):
    named = {"x": _normal(rng, (2, 2, 6, 6)), "w": _normal(rng, (3, 2, 3, 3), 0.5)}
    return named, lambda ts: ops.mean_all(ops.conv2d(ts["x"], ts["w"], None, stride=2, padding=1))


def _norm_args(rng) -> dict:
    """x, gamma and beta of a two-group GroupNorm over four channels."""
    named = {"x": _normal(rng, (2, 4, 3, 3)), "gamma": Tensor(1.0 + 0.2 * rng.standard_normal(4))}
    named["beta"] = _normal(rng, 4, 0.2)
    return named


def _group_norm(rng):
    return _norm_args(rng), lambda ts: ops.mean_all(
        ops.silu(ops.group_norm(ts["x"], 2, ts["gamma"], ts["beta"])))


def _group_norm_silu_conv2d(rng):
    named = _norm_args(rng)
    named["w"] = _normal(rng, (3, 4, 3, 3), 0.5)
    named["b"] = _normal(rng, 3)
    return named, lambda ts: _mean_silu(ops.group_norm_silu_conv2d(
        ts["x"], 2, ts["gamma"], ts["beta"], ts["w"], ts["b"], padding=1))


def _self_attention(rng):
    named = {"x": _normal(rng, (2, 5, 4)), **{f"w{n}": _normal(rng, (4, 4), 0.5) for n in "qkvo"}}
    return named, lambda ts: ops.mean_all(
        ops.self_attention(ts["x"], ts["wq"], ts["wk"], ts["wv"], ts["wo"]))


def _embed_rows(rng):
    named = {"weight": _normal(rng, (5, 3))}
    ids = rng.integers(0, 5, size=4)
    return named, lambda ts: _mean_silu(ops.embed_rows(ts["weight"], ids))


def _convnet2(rng):
    """Two-layer conv net: a padded conv, SiLU, then a strided conv."""
    named = {"x": _normal(rng, (2, 1, 6, 6)), "w1": _normal(rng, (4, 1, 3, 3), 0.5)}
    named["w2"] = _normal(rng, (2, 4, 3, 3), 0.5)

    def loss(ts):
        h = ops.silu(ops.conv2d(ts["x"], ts["w1"], None, stride=1, padding=1))
        return _mean_square(ops.conv2d(h, ts["w2"], None, stride=2, padding=1))

    return named, loss


_SOFTMAX_PROBE = Tensor(np.arange(6, dtype=float).reshape(1, 6))
_LOSS_CONFIG = unet.UNetConfig(
    in_channels=1, base_channels=4, channel_mults=(1, 2), num_res_blocks_per_level=1,
    groups=4, attn_at_bottleneck=True, time_embed_dim=8, num_classes=2,
)
_LOSS_SITES = ("down.0.sampler.conv.weight", "mid.attn.q.weight", "up.0.res.0.norm2.gamma",
               "time.mlp1.weight", "out.conv.bias")


def _simple_loss(rng):
    """The full denoiser loss in x0 and in five parameter sites of a tiny UNet."""
    sched = diffusion.DiffusionSchedule(10, 1e-3, 5e-2)
    model = unet.build_unet(_LOSS_CONFIG, seed=int(rng.integers(0, 2**31)))
    # move off the zero-init output so the loss actually depends on the net
    out_w = model.params["out.conv.weight"]
    out_w.data[:] = 0.3 * rng.standard_normal(out_w.shape)
    named = {"x0": Tensor(rng.uniform(-1, 1, size=(2, 1, 4, 4)))}
    named.update({s: model.params[s] for s in _LOSS_SITES})
    eps = _normal(rng, (2, 1, 4, 4))
    t = rng.integers(1, sched.timesteps + 1, size=2)
    c = rng.integers(0, 2, size=2)

    def loss(ts):
        params = {**model.params, **{s: ts[s] for s in _LOSS_SITES}}
        return diffusion.simple_loss(model, ts["x0"], t, eps, c, sched, params=params)

    return named, loss


# One (name, build) entry per differentiable primitive or composite; build(rng)
# returns the named argument Tensors and a scalar loss of a name -> Tensor map.
_CASES = (
    ("elementwise(add,mul,scale,silu)", _elementwise),
    ("linear", _normals({"x": (4, 5), "w": (3, 5), "b": 3},
                        lambda ts: _mean_silu(ops.linear(ts["x"], ts["w"], ts["b"])))),
    ("matmul", _normals({"a": (2, 3, 4), "b": (4, 5)},
                        lambda ts: ops.mean_all(ops.matmul(ts["a"], ts["b"])))),
    ("softmax", _normals({"x": (3, 6)},
                         lambda ts: ops.mean_all(ops.mul(ops.softmax(ts["x"]), _SOFTMAX_PROBE)))),
    ("conv2d", _conv2d),
    ("conv2d(stride=2)", _conv2d_strided),
    ("group_norm", _group_norm),
    ("group_norm_silu_conv2d", _group_norm_silu_conv2d),
    ("self_attention", _self_attention),
    ("upsample_nearest2x", _normals({"x": (2, 3, 4, 4)},
                                    lambda ts: _mean_silu(ops.upsample_nearest2x(ts["x"])))),
    ("upsample_nearest2x_conv2d", _normals(
        {"x": (2, 3, 3, 2), "w": (2, 3, 3, 3), "b": 2},
        lambda ts: _mean_silu(ops.upsample_nearest2x_conv2d(ts["x"], ts["w"], ts["b"], padding=1)))),
    ("embed_rows", _embed_rows),
    ("crop_cols", _normals({"x": (3, 6)}, lambda ts: _mean_silu(ops.crop_cols(ts["x"], 4)))),
    ("reshape+permute", _normals({"x": (2, 3, 4)}, lambda ts: _mean_square(
        ops.permute(ops.reshape(ts["x"], (2, 4, 3)), (1, 0, 2))))),
    ("convnet2", _convnet2),
)


def run_suite(seed: int = 0, step: float = 1e-4, n_points: int = 5) -> list[tuple[str, float]]:
    """Gradient-check every differentiable primitive plus an end-to-end loss.

    Returns (name, max relative error) pairs, one per op/argument, taking the
    worst case over ``n_points`` random points each.
    """
    check_seed("gradcheck seed", seed)
    out = [row for name, build in _CASES for row in _check_args(name, build, n_points, seed, step)]
    # every simple_loss probe runs a whole UNet forward: at most three points
    out += _check_args("simple_loss", _simple_loss, min(n_points, 3), seed, step)
    return out
