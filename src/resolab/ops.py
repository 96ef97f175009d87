"""Differentiable primitives over resolab.tensor.Tensor.

Every op computes its forward pass with plain numpy (float64) and, when an
input requires a gradient and a tape is active, records a vector-Jacobian
closure. A closure holds only the arrays its backward reads, plus shapes and
flags taken at forward time, never an input or output Tensor (parameters such
as conv weights excepted), so the tape keeps no activation alive that backward
does not need. Backward formulas follow the standard derivations; they are
noted inline where non-obvious.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, active_tape

__all__ = [
    "add", "sub", "mul", "scale", "silu",
    "linear", "matmul", "softmax", "self_attention",
    "conv2d", "group_norm", "group_norm_silu", "upsample_nearest2x",
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
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return [_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)]

    return _result(data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return [_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)]

    return _result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    ad, bd = a.data, b.data

    def vjp(g):
        return [_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)]

    return _result(data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        return [s * g]

    return _result(s * a.data, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: one pass, no overflow in either tail;
    # absolute error <= 2.2e-16 (so sigma(-40) rounds to 0, not 4e-18)
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def silu(x: Tensor) -> Tensor:
    xd = x.data
    s = _sigmoid(xd)

    def vjp(g):
        # d/dx [x*s(x)] = s + x*s*(1-s)
        return [g * (s + xd * s * (1.0 - s))]

    return _result(xd * s, (x,), vjp)


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
    x_shape = x.shape

    def vjp(g):
        g2 = g.reshape(-1, m)
        gx = (g2 @ w.data).reshape(x_shape)
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
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return [ga, gb]

    return _result(data, (a, b), vjp)


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``a``, in place; rejects non-finite input."""
    if not np.all(np.isfinite(a)):
        raise NumericError("softmax: non-finite input")
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; rejects non-finite inputs."""
    y = _softmax_rows(x.data.copy())

    def vjp(g):
        # dx = y * (g - sum(g*y, last))
        return [y * (g - (g * y).sum(axis=-1, keepdims=True))]

    return _result(y, (x,), vjp)


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Single-head attention: softmax(QK^T/sqrt(d)) V, then output projection.

    x is [N, T, d]; the four projection weights are [d, d] with no bias.
    One tape record; its vjp keeps q, k^T, v and the probabilities, plus
    attn@v when wo needs a gradient and x when wq, wk or wv does, and forms
    only the gradients of inputs that require one.
    """
    if x.ndim != 3:
        raise ShapeError(f"self_attention: input must be [N, T, d], got {x.shape}")
    d = x.shape[-1]
    for name, w in (("q", wq), ("k", wk), ("v", wv), ("o", wo)):
        if w.shape != (d, d):
            raise ShapeError(f"self_attention: {name} weight shape {w.shape} != ({d}, {d})")
    if not np.all(np.isfinite(x.data)):
        # the scores would be non-finite; fail before the projection GEMMs
        # meet inf * 0 and warn
        raise NumericError("softmax: non-finite input")
    s = 1.0 / math.sqrt(d)
    x_shape, need_x = x.shape, x.requires_grad
    x2 = x.data.reshape(-1, d)
    q = (x2 @ wq.data.T).reshape(x_shape)
    kt = (x2 @ wk.data.T).reshape(x_shape).transpose(0, 2, 1).copy()
    v = (x2 @ wv.data.T).reshape(x_shape)
    probs = q @ kt
    probs *= s
    _softmax_rows(probs)
    av2 = (probs @ v).reshape(-1, d)
    out = (av2 @ wo.data.T).reshape(x_shape)
    need_q = need_x or wq.requires_grad
    need_k = need_x or wk.requires_grad
    need_v = need_x or wv.requires_grad
    if not (wq.requires_grad or wk.requires_grad or wv.requires_grad):
        x2 = None  # only the projection weight gradients read the input
    if not wo.requires_grad:
        av2 = None

    def vjp(g):
        # the reverse of x->q,k,v (2-d GEMMs) -> q@k^T -> *s -> softmax -> @v -> @wo^T
        g2 = g.reshape(-1, d)
        gwo = g2.T @ av2 if wo.requires_grad else None
        grads = {}
        if need_q or need_k or need_v:
            gav = (g2 @ wo.data).reshape(x_shape)
            if need_v:
                grads["v"] = (probs.swapaxes(-1, -2) @ gav).reshape(-1, d)
            if need_q or need_k:
                gs = gav @ v.swapaxes(-1, -2)
                gs -= (gs * probs).sum(axis=-1, keepdims=True)
                gs *= probs
                gs *= s
                if need_q:
                    grads["q"] = (gs @ kt.swapaxes(-1, -2)).reshape(-1, d)
                if need_k:
                    grads["k"] = (q.swapaxes(-1, -2) @ gs).transpose(0, 2, 1).reshape(-1, d)
        gx = None
        if need_x:
            gx = grads["v"] @ wv.data
            gx += grads["k"] @ wk.data
            gx += grads["q"] @ wq.data
            gx = gx.reshape(x_shape)
        gw = [grads[p].T @ x2 if w.requires_grad else None
              for p, w in (("q", wq), ("k", wk), ("v", wv))]
        return [gx, *gw, gwo]

    return _result(out, (x, wq, wk, wv, wo), vjp)


# ---------------------------------------------------------------------------
# convolution / normalization / resampling


def _windows(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Read-only [N, C, k, k, ho, wo] view of xp's k x k windows; copies nothing."""
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, k, k, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c, _, _ = xp.shape
    return _windows(xp, k, stride, ho, wo).reshape(n, c * k * k, ho * wo)  # copies into C order


def _pad2d(x: np.ndarray, lo: int, size: tuple[int, int], stride: int = 1) -> np.ndarray:
    """Zeros of [N, C, *size] with x's row/col i placed at lo + stride*i.

    With stride 1 and size = (h + 2*lo, w + 2*lo) this is zero padding (bit
    equal to np.pad, at a fraction of its call cost); stride > 1 also
    zero-dilates. Rows/cols that land outside ``size`` are dropped, so a
    negative ``lo`` crops.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, c, *size))
    src, dst = [], []
    for length, extent in zip((h, w), size):
        first = -(lo // stride) if lo < 0 else 0  # ceil(-lo / stride)
        last = min(length, -((lo - extent) // stride))  # ceil((extent - lo) / stride)
        if last <= first:
            return out
        start = lo + first * stride
        src.append(slice(first, last))
        dst.append(slice(start, start + (last - first - 1) * stride + 1, stride))
    out[:, :, dst[0], dst[1]] = x[:, :, src[0], src[1]]
    return out


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
    xp = _pad2d(x.data, padding, (hp, wp)) if padding else x.data
    wmat = w.data.reshape(co, ci * k * k)
    out = (wmat @ _im2col(xp, k, stride, ho, wo)).reshape(n, co, ho, wo)
    if b is not None:
        out += b.data.reshape(1, co, 1, 1)
    inputs = (x, w) if b is None else (x, w, b)
    # The im2col matrix is k*k times the input, so it is never kept: the weight
    # gradient rebuilds one sample's columns at a time from the padded input.
    x_shape, need_x = x.shape, x.requires_grad
    if not w.requires_grad:
        xp = None

    def vjp(g):
        gx = None
        if need_x:
            # gx is the stride-1 correlation of the cotangent, zero-dilated by
            # stride and padded by k-1-padding (plus the rows/cols the forward
            # never read at the bottom/right), with the flipped, transposed
            # kernel: the same im2col + GEMM as the forward, no scatter.
            gp = _pad2d(g, k - 1 - padding, (h + k - 1, wd + k - 1), stride)
            wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * k * k)
            gx = (wflip @ _im2col(gp, k, 1, h, wd)).reshape(x_shape)
        gw = None
        if xp is not None:
            # sum over samples of gmat[i] @ cols_i^T, added in sample order
            # from sample 0: the same GEMMs and the same sequential sum as the
            # batched matmul(...).sum(axis=0), so the bits match, while only
            # one sample's columns exist at a time
            gmat = g.reshape(n, co, ho * wo)
            win = _windows(xp, k, stride, ho, wo)
            gw = np.zeros((co, ci * k * k))  # an empty batch's sum
            for i in range(n):
                gi = gmat[i] @ win[i].reshape(ci * k * k, ho * wo).T
                if i:
                    gw += gi
                else:
                    gw = gi
            gw = gw.reshape(w.shape)
        if b is None:
            return [gx, gw]
        return [gx, gw, g.sum(axis=(0, 2, 3)) if b.requires_grad else None]

    return _result(out, inputs, vjp)


def _group_norm_forward(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float):
    """Checks, then (xhat_g [N, G, C/G*H*W], istd [N, G, 1], y = xhat*gamma + beta)."""
    if x.ndim != 4:
        raise ShapeError(f"group_norm: input must be [N, C, H, W], got {x.shape}")
    n, c, h, w = x.shape
    if groups < 1 or c % groups != 0:
        raise ConfigError(f"group_norm: channels {c} not divisible by groups {groups}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"group_norm: gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}")
    xg = x.data.reshape(n, groups, -1)
    d = xg - xg.mean(axis=-1, keepdims=True)
    var = (d * d).mean(axis=-1, keepdims=True)  # bit equal to xg.var(axis=-1)
    istd = 1.0 / np.sqrt(var + eps)
    d *= istd  # now xhat, per group
    return d, istd, _group_norm_affine(d, gamma, beta, x.shape)


def _group_norm_affine(xhat_g: np.ndarray, gamma: Tensor, beta: Tensor, shape) -> np.ndarray:
    c = shape[1]
    y = xhat_g.reshape(shape) * gamma.data.reshape(1, c, 1, 1)
    y += beta.data.reshape(1, c, 1, 1)
    return y


def _group_norm_backward(g: np.ndarray, x_shape: tuple[int, ...], need_x: bool, gamma: Tensor,
                         beta: Tensor, xhat_g: np.ndarray, istd: np.ndarray) -> list:
    """[gx, ggamma, gbeta] of group_norm for the output cotangent ``g``."""
    n, c = x_shape[:2]
    xhat = xhat_g.reshape(x_shape)
    ggamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
    gbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
    gx = None
    if need_x:
        gxhat = (g * gamma.data.reshape(1, c, 1, 1)).reshape(n, xhat_g.shape[1], -1)
        # dx = istd * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat_g).mean(axis=-1, keepdims=True)
        gxhat -= m1
        gxhat -= xhat_g * m2
        gxhat *= istd
        gx = gxhat.reshape(x_shape)
    return [gx, ggamma, gbeta]


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over channel groups (population variance), then affine."""
    xhat_g, istd, out = _group_norm_forward(x, groups, gamma, beta, eps)
    x_shape, need_x = x.shape, x.requires_grad

    def vjp(g):
        return _group_norm_backward(g, x_shape, need_x, gamma, beta, xhat_g, istd)

    return _result(out, (x, gamma, beta), vjp)


def group_norm_silu(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """silu(group_norm(x, ...)) as one record, bit-equal to the two ops.

    Keeps xhat and the sigmoid; the pre-activation y = xhat*gamma + beta is
    recomputed in the backward pass (same arithmetic, same bits).
    """
    xhat_g, istd, y = _group_norm_forward(x, groups, gamma, beta, eps)
    s = _sigmoid(y)
    y *= s  # the output: y is not kept
    x_shape, need_x = x.shape, x.requires_grad

    def vjp(g):
        # silu's d/dy [y*s(y)] = s + y*s*(1-s), evaluated in the same order
        gy = _group_norm_affine(xhat_g, gamma, beta, x_shape)
        gy *= s
        gy *= 1.0 - s
        gy += s
        gy *= g
        return _group_norm_backward(gy, x_shape, need_x, gamma, beta, xhat_g, istd)

    return _result(y, (x, gamma, beta), vjp)


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
    x_shape = x.shape

    def vjp(g):
        return [g.reshape(x_shape)]

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
    w_shape = weight.shape

    def vjp(g):
        gw = np.zeros(w_shape)
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
    x_shape = x.shape

    def vjp(g):
        gx = np.zeros(x_shape)
        gx[:, :n] = g
        return [gx]

    return _result(data, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    x_shape = x.shape

    def vjp(g):
        return [np.full(x_shape, g.item())]

    return _result(np.asarray(x.data.sum()), (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.size
    x_shape = x.shape

    def vjp(g):
        return [np.full(x_shape, g.item() * inv)]

    return _result(np.asarray(x.data.mean()), (x,), vjp)
