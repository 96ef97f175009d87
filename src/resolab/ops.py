"""Differentiable primitives over resolab.tensor.Tensor.

Every op computes its forward pass with plain numpy (float64) and, when an
input requires a gradient and a tape is active, records a vector-Jacobian
closure. Backward formulas follow the standard derivations; they are noted
inline where non-obvious.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, active_tape

__all__ = [
    "add", "sub", "mul", "scale", "silu",
    "linear", "matmul", "softmax", "self_attention",
    "conv2d", "group_norm", "upsample_nearest2x",
    "reshape", "permute", "embed_rows", "crop_cols",
    "sum_all", "mean_all",
]


def _result(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, inputs, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def vjp(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return _result(data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None

    def vjp(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)]

    return _result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None

    def vjp(g):
        return [_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)]

    return _result(data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        return [s * g]

    return _result(s * a.data, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def vjp(g):
        # d/dx [x*s(x)] = s + x*s*(1-s)
        return [g * (s + x.data * s * (1.0 - s))]

    return _result(x.data * s, (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y[..., m] = x[..., n] @ w[m, n]^T (+ b[m])."""
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {w.shape}")
    m, n = w.shape
    if x.ndim < 1 or x.shape[-1] != n:
        raise ShapeError(
            f"linear: trailing input dim {x.shape[-1] if x.ndim else '()'} != weight in-features {n}"
        )
    if b is not None and b.shape != (m,):
        raise ShapeError(f"linear: bias shape {b.shape} != ({m},)")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, n)
    y2 = x2 @ w.data.T
    if b is not None:
        y2 = y2 + b.data
    inputs = (x, w) if b is None else (x, w, b)

    def vjp(g):
        g2 = g.reshape(-1, m)
        gx = (g2 @ w.data).reshape(x.shape)
        gw = g2.T @ x2
        if b is None:
            return [gx, gw]
        return [gx, gw, g2.sum(axis=0)]

    return _result(y2.reshape(*lead, m), inputs, vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: cannot broadcast batch dims of {a.shape} and {b.shape}") from None

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return [ga, gb]

    return _result(data, (a, b), vjp)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; rejects non-finite inputs."""
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax: non-finite input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        # dx = y * (g - sum(g*y, last))
        return [y * (g - (g * y).sum(axis=-1, keepdims=True))]

    return _result(y, (x,), vjp)


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Single-head attention: softmax(QK^T/sqrt(d)) V, then output projection.

    x is [N, T, d]; the four projection weights are [d, d] with no bias.
    Built from taped primitives so gradients flow to x and all weights.
    """
    if x.ndim != 3:
        raise ShapeError(f"self_attention: input must be [N, T, d], got {x.shape}")
    d = x.shape[-1]
    for name, w in (("q", wq), ("k", wk), ("v", wv), ("o", wo)):
        if w.shape != (d, d):
            raise ShapeError(f"self_attention: {name} weight shape {w.shape} != ({d}, {d})")
    q = linear(x, wq)
    k = linear(x, wk)
    v = linear(x, wv)
    scores = scale(matmul(q, permute(k, (0, 2, 1))), 1.0 / math.sqrt(d))
    attn = softmax(scores)
    return linear(matmul(attn, v), wo)


# ---------------------------------------------------------------------------
# convolution / normalization / resampling


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, k, k, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(n, c * k * k, ho * wo)  # copies into C order


def _col2im(gcols: np.ndarray, xp_shape, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c, hp, wp = xp_shape
    g6 = gcols.reshape(n, c, k, k, ho, wo)
    gxp = np.zeros(xp_shape)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += g6[:, :, i, j]
    return gxp


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation, NCHW layout, square kernel, zero padding."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be [N, C, H, W], got {x.shape}")
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d: weight must be [C_out, C_in, k, k], got {w.shape}")
    n, c, h, wd = x.shape
    co, ci, k, _ = w.shape
    if c != ci:
        raise ShapeError(f"conv2d: input channel axis 1 has {c} channels, weight expects {ci}")
    if b is not None and b.shape != (co,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({co},)")
    if stride < 1:
        raise ConfigError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigError(f"conv2d: padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < k or wp < k:
        raise ShapeError(f"conv2d: padded spatial dims ({hp}, {wp}) smaller than kernel {k}")
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    cols = _im2col(xp, k, stride, ho, wo)  # [N, C*k*k, L]
    wmat = w.data.reshape(co, ci * k * k)
    out = (wmat @ cols).reshape(n, co, ho, wo)
    if b is not None:
        out = out + b.data.reshape(1, co, 1, 1)
    inputs = (x, w) if b is None else (x, w, b)

    def vjp(g):
        gmat = g.reshape(n, co, ho * wo)
        gx = None
        if x.requires_grad:
            gcols = wmat.T @ gmat  # [N, C*k*k, L]
            gxp = _col2im(gcols, xp.shape, k, stride, ho, wo)
            gx = gxp[:, :, padding : padding + h, padding : padding + wd] if padding else gxp
        gw = np.einsum("ncl,nkl->ck", gmat, cols).reshape(w.shape) if w.requires_grad else None
        if b is None:
            return [gx, gw]
        return [gx, gw, g.sum(axis=(0, 2, 3))]

    return _result(out, inputs, vjp)


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over channel groups (population variance), then affine."""
    if x.ndim != 4:
        raise ShapeError(f"group_norm: input must be [N, C, H, W], got {x.shape}")
    n, c, h, w = x.shape
    if groups < 1 or c % groups != 0:
        raise ConfigError(f"group_norm: channels {c} not divisible by groups {groups}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"group_norm: gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}")
    xg = x.data.reshape(n, groups, -1)
    mu = xg.mean(axis=-1, keepdims=True)
    var = xg.var(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat_g = (xg - mu) * istd
    xhat = xhat_g.reshape(x.shape)
    g4 = gamma.data.reshape(1, c, 1, 1)
    out = xhat * g4 + beta.data.reshape(1, c, 1, 1)

    def vjp(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        gbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            gxhat = (g * g4).reshape(n, groups, -1)
            # dx = istd * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
            m1 = gxhat.mean(axis=-1, keepdims=True)
            m2 = (gxhat * xhat_g).mean(axis=-1, keepdims=True)
            gx = (istd * (gxhat - m1 - xhat_g * m2)).reshape(x.shape)
        return [gx, ggamma, gbeta]

    return _result(out, (x, gamma, beta), vjp)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling on both spatial axes."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest2x: input must be [N, C, H, W], got {x.shape}")
    n, c, h, w = x.shape
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def vjp(g):
        return [g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))]

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# shape / indexing / reductions


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None

    def vjp(g):
        return [g.reshape(x.shape)]

    return _result(data, (x,), vjp)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for ndim {x.ndim}")
    inverse = tuple(np.argsort(axes))
    data = x.data.transpose(axes).copy()  # keep outputs contiguous

    def vjp(g):
        return [g.transpose(inverse)]

    return _result(data, (x,), vjp)


def embed_rows(weight: Tensor, ids) -> Tensor:
    """Gather rows of a [num_rows, dim] table; differentiable w.r.t. the table."""
    if weight.ndim != 2:
        raise ShapeError(f"embed_rows: table must be 2-d, got {weight.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"embed_rows: ids must be 1-d, got shape {idx.shape}")
    rows = weight.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ConfigError(f"embed_rows: id out of range [0, {rows})")
    data = weight.data[idx]

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, idx, g)
        return [gw]

    return _result(data, (weight,), vjp)


def crop_cols(x: Tensor, n: int) -> Tensor:
    """Keep the first n columns of a [N, D] tensor (zero-padded gradient)."""
    if x.ndim != 2:
        raise ShapeError(f"crop_cols: input must be 2-d, got {x.shape}")
    if not 1 <= n <= x.shape[1]:
        raise ShapeError(f"crop_cols: n={n} out of range for width {x.shape[1]}")
    data = x.data[:, :n].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, :n] = g
        return [gx]

    return _result(data, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    def vjp(g):
        return [np.full(x.shape, g.item())]

    return _result(np.asarray(x.data.sum()), (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.size

    def vjp(g):
        return [np.full(x.shape, g.item() * inv)]

    return _result(np.asarray(x.data.mean()), (x,), vjp)
