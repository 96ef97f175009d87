"""Differentiable primitives over resolab.tensor.Tensor.

Every op computes its forward pass with plain numpy (float64) and, when an
input requires a gradient and a tape is active, records a vector-Jacobian
closure. A closure holds only the arrays its backward reads, plus shapes and
flags taken at forward time, never an input or output Tensor (parameters such
as conv weights excepted), so the tape keeps no activation alive that backward
does not need. What is cheap to recompute is recomputed instead of kept:
``conv2d`` keeps its input (not the padded input),
``group_norm_silu_conv2d``, the pre-activation unit GroupNorm -> SiLU ->
conv, keeps only xhat and the inverse deviations (not the conv's padded
input), ``upsample_nearest2x_conv2d`` keeps only the upsample's input (not
the conv's padded, upsampled input), and ``self_attention`` keeps only x (not
q, k^T, v or its [N, T, T] probabilities). conv2d and the up-sampler conv are
one record body that differs only in how the padded conv input is built and
how its gradient is folded back; the GroupNorm-SiLU conv shares its forward,
its weight and input gradients and its bias gradient.

Scratch follows one rule, ``_batches``: an op forms its per-sample
temporaries for as many samples at a time as fit ``_BATCH_BYTES``, sized by
the largest of them -- the attention probabilities and their cotangent, or a
conv's im2col columns against its padded input (with, for the GroupNorm-SiLU
conv, the pre-activation y and sigmoid(y)). So a conv forward is one loop of
padded batch -> im2col -> GEMM, and its traced scratch is at most one batch's
columns and padded input: 1.12 MiB at [8, 8, 16, 16] and 0.63 MiB at
[8, 8, 32, 32] for the GroupNorm-SiLU conv. Every GEMM is per sample and every
reduction per row, so the bits do not depend on the bound.
Backward formulas follow the standard derivations; they are noted inline
where non-obvious.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, check_int, check_number
from .tensor import Tensor, active_tape

__all__ = [
    "add", "sub", "mul", "scale", "silu",
    "linear", "matmul", "softmax", "self_attention",
    "conv2d", "group_norm", "group_norm_silu_conv2d", "upsample_nearest2x",
    "upsample_nearest2x_conv2d",
    "reshape", "permute", "embed_rows", "crop_cols",
    "sum_all", "mean_all",
]


# The most bytes that one batch of an op's per-sample scratch may take: the
# im2col columns, self_attention's [T, T] arrays, and the convs' padded inputs
# with the fused convs' pre-activation temporaries. The bits do not depend on
# it: every GEMM is per sample and every reduction per row either way.
_BATCH_BYTES = 1 << 20


# Rows of [T, T] products that self_attention's vjp forms at a time for its row sums.
_ROW_BLOCK = 16


def _batches(n: int, sample_bytes: int) -> list[slice]:
    """Slices that cover samples 0..n in order, each of at most max(1, _BATCH_BYTES // sample_bytes).

    An empty batch gets one empty slice, so an op's batch loop runs once for it too.
    """
    step = max(1, _BATCH_BYTES // max(1, sample_bytes))
    return [slice(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


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
    s = check_number("scale: factor", s)
    if not math.isfinite(s):
        raise NumericError(f"scale: factor must be finite, got {s}")

    def vjp(g):
        return [s * g]

    return _result(s * a.data, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: one pass, no overflow in either tail;
    # absolute error <= 2.2e-16 (so sigma(-40) rounds to 0, not 4e-18)
    out = 0.5 * x
    np.tanh(out, out=out)
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
    # fail before the GEMM meets inf * 0 and warns
    x.check_finite("linear: input")
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


def _attention_probs(q: np.ndarray, kt: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """softmax(q @ k^T * s) over the last axis into ``out``, for [B, T, d] q and [B, d, T] k^T."""
    np.matmul(q, kt, out=out)
    out *= s
    return _softmax_rows(out)


def _row_dots(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(a * b).sum(axis=-1, keepdims=True) of [..., T] arrays into ``out``, bit for bit.

    The products are formed for ``len(scratch)`` rows at a time, so no third
    array of a's size exists; each row is summed alone either way.
    """
    t = a.shape[-1]
    a2, b2, out1 = a.reshape(-1, t), b.reshape(-1, t), out.reshape(-1)
    for lo in range(0, len(a2), len(scratch)):
        hi = min(lo + len(scratch), len(a2))
        block = scratch[:hi - lo]
        np.multiply(a2[lo:hi], b2[lo:hi], out=block)
        np.add.reduce(block, axis=-1, out=out1[lo:hi])
    return out


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Single-head attention: softmax(QK^T/sqrt(d)) V, then output projection.

    x is [N, T, d]; the four projection weights are [d, d] with no bias.
    One tape record that keeps only x and forms only the gradients of inputs
    that require one. The forward and the vjp run a bounded batch of samples
    at a time: each batch's q, k^T and v come from the same row-slice GEMMs,
    and its probabilities are formed into one [B, T, T] buffer per call with
    the same arithmetic, so the vjp's recomputation matches the forward bit
    for bit. A batch short of all N samples has at least 182 rows, and
    OpenBLAS gives such a row slice of a 2-d GEMM the whole GEMM's bits, so
    the output and gradients also match the unbatched chain of linear,
    matmul and softmax (the tests pin both).
    """
    if x.ndim != 3:
        raise ShapeError(f"self_attention: input must be [N, T, d], got {x.shape}")
    n, t, d = x.shape
    if not t or not d:  # no token to attend to, or no width to scale the scores by
        raise ShapeError(f"self_attention: T and d must be positive, got {x.shape}")
    for name, w in (("q", wq), ("k", wk), ("v", wv), ("o", wo)):
        if w.shape != (d, d):
            raise ShapeError(f"self_attention: {name} weight shape {w.shape} != ({d}, {d})")
    if not np.all(np.isfinite(x.data)):
        # the scores would be non-finite; fail before the projection GEMMs
        # meet inf * 0 and warn
        raise NumericError("softmax: non-finite input")
    s = 1.0 / math.sqrt(d)
    x_shape = x.shape
    x2 = x.data.reshape(-1, d)
    # the vjp holds two [T, T] arrays per sample: probabilities and their cotangent
    slices = _batches(n, 2 * x.data.itemsize * t * t)
    size = slices[0].stop  # samples in the largest batch

    def batches():
        """(sample slice, its rows of x2, q, k^T, v) for each batch of samples."""
        for sl in slices:
            m = sl.stop - sl.start
            rows = slice(sl.start * t, sl.stop * t)
            xb = x2[rows]
            q = (xb @ wq.data.T).reshape(m, t, d)
            kt = (xb @ wk.data.T).reshape(m, t, d).transpose(0, 2, 1).copy()
            v = (xb @ wv.data.T).reshape(m, t, d)
            yield sl, rows, q, kt, v

    probs = np.empty((size, t, t))
    av = np.empty(x_shape)
    for sl, _, q, kt, v in batches():
        np.matmul(_attention_probs(q, kt, s, probs[:len(q)]), v, out=av[sl])
    out = (av.reshape(-1, d) @ wo.data.T).reshape(x_shape)
    need_x = x.requires_grad
    need = {p: need_x or w.requires_grad for p, w in (("q", wq), ("k", wk), ("v", wv))}
    need_s = need["q"] or need["k"]

    def vjp(g):
        # the reverse of x->q,k,v (2-d GEMMs) -> q@k^T -> *s -> softmax -> @v -> @wo^T
        g2 = g.reshape(-1, d)
        # whole-batch arrays only for the weight gradients, which sum over every sample
        av = np.empty(x_shape) if wo.requires_grad else None
        kept = {p: np.empty(x_shape) for p, w in (("q", wq), ("k", wk), ("v", wv)) if w.requires_grad}
        gx = np.empty(x_shape) if need_x else None
        # per-call scratch, reused by every batch
        probs = np.empty((size, t, t))
        if need_s:
            gs, dots = np.empty_like(probs), np.empty((size, t, 1))
            products = np.empty((_ROW_BLOCK, t))
        for sl, rows, q, kt, v in batches():
            m = len(q)
            pb = _attention_probs(q, kt, s, probs[:m])
            if av is not None:
                np.matmul(pb, v, out=av[sl])
            grads = {name: kept[name][sl] if name in kept else np.empty((m, t, d))
                     for name in "qkv" if need[name]}
            if not grads:
                continue
            gav = (g2[rows] @ wo.data).reshape(m, t, d)
            if need["v"]:
                np.matmul(pb.swapaxes(-1, -2), gav, out=grads["v"])
            if need_s:
                gsb = np.matmul(gav, v.swapaxes(-1, -2), out=gs[:m])
                gsb -= _row_dots(gsb, pb, dots[:m], products)
                gsb *= pb
                gsb *= s
                if need["q"]:
                    np.matmul(gsb, kt.swapaxes(-1, -2), out=grads["q"])
                if need["k"]:
                    grads["k"][...] = (q.swapaxes(-1, -2) @ gsb).transpose(0, 2, 1)
            if need_x:
                gxb = gx[sl].reshape(-1, d)
                np.matmul(grads["v"].reshape(-1, d), wv.data, out=gxb)
                gxb += grads["k"].reshape(-1, d) @ wk.data
                gxb += grads["q"].reshape(-1, d) @ wq.data
        gwo = None if av is None else g2.T @ av.reshape(-1, d)
        gw = [kept[p].reshape(-1, d).T @ x2 if p in kept else None for p in "qkv"]
        return [gx, *gw, gwo]

    return _result(out, (x, wq, wk, wv, wo), vjp)


# ---------------------------------------------------------------------------
# convolution / normalization / resampling


def _windows(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Read-only [N, C, k, k, ho, wo] view of xp's k x k windows; copies nothing."""
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    # np.ndarray over xp's buffer costs a quarter of as_strided; it rejects an
    # xp that is not C-contiguous, and every caller's is
    view = np.ndarray((n, c, k, k, ho, wo), xp.dtype, xp, 0, (sn, sc, sh, sw, sh * stride, sw * stride))
    view.flags.writeable = False
    return view


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


def _conv_shape(x_shape: tuple[int, ...], w: Tensor, b: Tensor | None, stride: int,
                padding: int) -> tuple[int, int]:
    """conv2d's checks of its input shape, weight, bias, stride and padding; the output's (ho, wo)."""
    if len(x_shape) != 4:
        raise ShapeError(f"conv2d: input must be [N, C, H, W], got {x_shape}")
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d: weight must be [C_out, C_in, k, k], got {w.shape}")
    _, c, h, wd = x_shape
    co, ci, k, _ = w.shape
    if c != ci:
        raise ShapeError(f"conv2d: input channel axis 1 has {c} channels, weight expects {ci}")
    if b is not None and b.shape != (co,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({co},)")
    if check_int("conv2d: stride", stride) < 1:
        raise ConfigError(f"conv2d: stride must be >= 1, got {stride}")
    if check_int("conv2d: padding", padding) < 0:
        raise ConfigError(f"conv2d: padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < k or wp < k:
        raise ShapeError(f"conv2d: padded spatial dims ({hp}, {wp}) smaller than kernel {k}")
    return (hp - k) // stride + 1, (wp - k) // stride + 1


def _conv_forward(padded, batches: list[slice], w: Tensor, b: Tensor | None, stride: int, ho: int,
                  wo: int) -> np.ndarray:
    """The conv of a padded input that ``padded(sl)`` builds for each slice of ``batches``.

    Returns [N, C_out, ho, wo], N being where the last slice stops. Each
    batch's im2col columns are written by one GEMM into its slice of the output.
    """
    n = batches[-1].stop
    co, ci, k, _ = w.shape
    wmat = w.data.reshape(co, ci * k * k)
    out = None
    for sl in batches:
        xp = padded(sl)
        if out is None:
            # allocated after the first padded input, in the room that its
            # freed temporaries leave; allocating it first grew the heap past
            # them, which glibc then trimmed and faulted back in every step
            out = np.empty((n, co, ho * wo))
        np.matmul(wmat, _im2col(xp, k, stride, ho, wo), out=out[sl])
    out = out.reshape(n, co, ho, wo)
    if b is not None:
        out += b.data.reshape(1, co, 1, 1)
    return out


def _conv_input_grad(g: np.ndarray, w: np.ndarray, x_shape: tuple[int, ...], stride: int,
                     padding: int) -> np.ndarray:
    """The conv's input gradient for the output cotangent ``g``.

    It is the stride-1 correlation of the cotangent, zero-dilated by stride
    and padded by k-1-padding (plus the rows/cols the forward never read at
    the bottom/right), with the flipped, transposed kernel: the same batched
    im2col + GEMM as the forward, no scatter.
    """
    n, ci, h, wd = x_shape
    co, _, k, _ = w.shape
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * k * k)
    # allocated before the first batch's scratch; allocated after it, as
    # _conv_forward does its output, it raised adapter training's peak RSS
    gx = np.empty((n, ci, h * wd))
    for sl in _batches(n, g.itemsize * co * k * k * h * wd):
        gp = _pad2d(g[sl], k - 1 - padding, (h + k - 1, wd + k - 1), stride)
        np.matmul(wflip, _im2col(gp, k, 1, h, wd), out=gx[sl])
    return gx.reshape(x_shape)


def _conv_weight_grad(g: np.ndarray, xp: np.ndarray, w_shape: tuple[int, ...], stride: int,
                      gw: np.ndarray | None = None) -> np.ndarray:
    """The conv's weight gradient for the cotangent ``g`` and padded input ``xp`` of the same samples.

    The sum over samples of gmat[i] @ cols_i^T, added in sample order to
    ``gw``, the gradient of the samples before them, or from this call's
    first sample: the same GEMMs and the same sequential sum as the batched
    matmul(...).sum(axis=0), so the bits match however the samples are split
    into calls, while only one sample's columns exist at a time.
    """
    n, co, ho, wo = g.shape
    _, ci, k, _ = w_shape
    gmat = g.reshape(n, co, ho * wo)
    win = _windows(xp, k, stride, ho, wo)
    if gw is not None:
        gw = gw.reshape(co, ci * k * k)
    for i in range(n):
        gi = gmat[i] @ win[i].reshape(ci * k * k, ho * wo).T
        if gw is None:
            gw = gi
        else:
            gw += gi
    if gw is None:
        gw = np.zeros((co, ci * k * k))  # an empty batch's sum
    return gw.reshape(w_shape)


def _with_bias_grad(grads: list, g: np.ndarray, b: Tensor | None) -> list:
    """A conv's ``grads``, then, if it has a bias, the bias gradient for the output cotangent ``g``."""
    if b is None:
        return grads
    return [*grads, g.sum(axis=(0, 2, 3)) if b.requires_grad else None]


def _conv_record(x: Tensor, in_shape: tuple[int, ...], w: Tensor, b: Tensor | None, stride: int,
                 padding: int, pad, fold) -> Tensor:
    """The record of a conv whose input, of shape ``in_shape``, is formed from x.

    ``pad(a)`` builds the padded conv input of a batch ``a`` of x's samples,
    and ``fold`` maps the conv input gradient onto x. Each batch holds as
    many samples as fit _BATCH_BYTES with their padded input or their im2col
    columns, whichever is larger. The record keeps x, and only for a
    trainable weight. The vjp forms the weight gradient first, rebuilding the
    padded input for the same batches as the forward and the im2col matrix
    (k*k times the input) one sample's columns at a time, so they are gone
    before the input gradient's scratch exists; the other order held that
    gradient beside them.
    """
    ho, wo = _conv_shape(in_shape, w, b, stride, padding)
    n, c, h, wd = in_shape
    k = w.shape[2]
    batches = _batches(n, 8 * c * max((h + 2 * padding) * (wd + 2 * padding), k * k * ho * wo))
    out = _conv_forward(lambda sl: pad(x.data[sl]), batches, w, b, stride, ho, wo)
    need_x, xd = x.requires_grad, x.data if w.requires_grad else None

    def vjp(g):
        gw = None
        if xd is not None:
            for sl in batches:
                gw = _conv_weight_grad(g[sl], pad(xd[sl]), w.shape, stride, gw)
        gx = fold(_conv_input_grad(g, w.data, in_shape, stride, padding)) if need_x else None
        return _with_bias_grad([gx, gw], g, b)

    return _result(out, (x, w) if b is None else (x, w, b), vjp)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation, NCHW layout, square kernel, zero padding."""

    def pad(a):
        return _pad2d(a, padding, (a.shape[2] + 2 * padding, a.shape[3] + 2 * padding)) if padding else a

    return _conv_record(x, x.shape, w, b, stride, padding, pad, lambda gx: gx)


def _group_norm_check(x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> None:
    if x.ndim != 4:
        raise ShapeError(f"group_norm: input must be [N, C, H, W], got {x.shape}")
    if 0 in x.shape[1:]:  # a group of no values has no mean; an empty batch (N = 0) is fine
        raise ShapeError(f"group_norm: C, H and W must be positive, got {x.shape}")
    c = x.shape[1]
    if check_int("group_norm: groups", groups) < 1 or c % groups != 0:
        raise ConfigError(f"group_norm: channels {c} not divisible by groups {groups}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"group_norm: gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}")


def _group_norm_forward(x: Tensor, groups: int, eps: float, batches: list[slice]):
    """(xhat_g [N, G, C/G*H*W], istd [N, G, 1]), squaring deviations a slice of ``batches`` at a time."""
    n, c, h, w = x.shape
    count = c // groups * h * w  # given, not -1: an empty batch has no size to infer it from
    xg = x.data.reshape(n, groups, count)
    # the sums over count as ndarray.mean forms them, at less call cost
    d = xg - np.add.reduce(xg, axis=-1, keepdims=True) / count
    var = np.empty((n, groups, 1))
    for sl in batches:
        np.add.reduce(d[sl] * d[sl], axis=-1, keepdims=True, out=var[sl])
    var /= count  # bit equal to xg.var(axis=-1)
    istd = 1.0 / np.sqrt(var + eps)
    d *= istd  # now xhat, per group
    return d, istd


def _group_norm_affine(xhat_g: np.ndarray, gamma: Tensor, beta: Tensor,
                       chw: tuple[int, ...]) -> np.ndarray:
    """y = xhat*gamma + beta, [len(xhat_g), *chw], for the samples whose xhat per group is xhat_g."""
    c = chw[0]
    y = xhat_g.reshape(len(xhat_g), *chw) * gamma.data.reshape(1, c, 1, 1)
    y += beta.data.reshape(1, c, 1, 1)
    return y


def _group_norm_backward(g: np.ndarray, x_shape: tuple[int, ...], need_x: bool, gamma: Tensor,
                         beta: Tensor, xhat_g: np.ndarray, istd: np.ndarray) -> list:
    """[gx, ggamma, gbeta] of group_norm for the output cotangent ``g``.

    ``g`` is a C-ordered buffer of the caller's, which this overwrites: once
    gxhat exists, g's bytes hold the g*xhat and gxhat*xhat products.
    """
    c = x_shape[1]
    gbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
    gxhat = (g * gamma.data.reshape(1, c, 1, 1)).reshape(xhat_g.shape) if need_x else None
    ggamma = None
    if gamma.requires_grad:
        ggamma = np.multiply(g, xhat_g.reshape(x_shape), out=g).sum(axis=(0, 2, 3))
    gx = None
    if need_x:
        scratch = g.reshape(gxhat.shape)
        # dx = istd * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = np.multiply(gxhat, xhat_g, out=scratch).mean(axis=-1, keepdims=True)
        gxhat -= m1
        gxhat -= np.multiply(xhat_g, m2, out=scratch)
        gxhat *= istd
        gx = gxhat.reshape(x_shape)
    return [gx, ggamma, gbeta]


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over channel groups (population variance), then affine."""
    _group_norm_check(x, groups, gamma, beta)
    if not 0.0 < check_number("group_norm: eps", eps) < math.inf:
        raise ConfigError(f"group_norm: eps must be finite and > 0, got {eps}")
    xhat_g, istd = _group_norm_forward(x, groups, eps, [slice(None)])
    x_shape, need_x = x.shape, x.requires_grad

    def vjp(g):
        # the cotangent may be another record's too; the backward overwrites a copy
        return _group_norm_backward(g.copy(), x_shape, need_x, gamma, beta, xhat_g, istd)

    return _result(_group_norm_affine(xhat_g, gamma, beta, x_shape[1:]), (x, gamma, beta), vjp)


def _silu_padded(y: np.ndarray, s: np.ndarray, padding: int) -> np.ndarray:
    """SiLU(y) = y * s for s = sigmoid(y), written straight into zeros padded by ``padding``."""
    n, c, h, w = y.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    np.multiply(y, s, out=xp[:, :, padding:padding + h, padding:padding + w])
    return xp


def group_norm_silu_conv2d(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, w: Tensor,
                           b: Tensor | None = None, padding: int = 0) -> Tensor:
    """conv2d(silu(group_norm(x, groups, gamma, beta)), w, b, padding=padding) as one record.

    The pre-activation unit, bit-equal to the three ops in its output and in
    every gradient. The record keeps only xhat and the per-group inverse
    deviations (about one input's worth): the conv input, SiLU(y) for the
    pre-activation y = xhat*gamma + beta, is written straight into the padded
    im2col buffer and dropped after the forward GEMMs. y, sigmoid(y), the
    padded input and its columns are formed one batch of samples at a time,
    as many as fit _BATCH_BYTES with these temporaries or with their
    columns, whichever is larger. The vjp forms the conv input gradient
    first, then recomputes y and its sigmoid per batch with the forward's
    arithmetic, for the weight gradient's padded input and for SiLU'(y),
    which it multiplies into the conv input gradient in place; that buffer
    then serves as GroupNorm's backward scratch.
    """
    _group_norm_check(x, groups, gamma, beta)
    ho, wo = _conv_shape(x.shape, w, b, 1, padding)
    n, c, h, wd = x.shape
    chw = x.shape[1:]
    k, hp, wp = w.shape[2], h + 2 * padding, wd + 2 * padding
    batches = _batches(n, 8 * c * max(2 * h * wd + hp * wp, k * k * ho * wo))
    xhat_g, istd = _group_norm_forward(x, groups, 1e-5, batches)

    def preact(sl):
        """y = xhat*gamma + beta and sigmoid(y) for the samples in slice sl."""
        y = _group_norm_affine(xhat_g[sl], gamma, beta, chw)
        return y, _sigmoid(y)

    out = _conv_forward(lambda sl: _silu_padded(*preact(sl), padding), batches, w, b, 1, ho, wo)
    inputs = (x, gamma, beta, w) if b is None else (x, gamma, beta, w, b)
    x_shape, need_x = x.shape, x.requires_grad
    need_h = need_x or gamma.requires_grad or beta.requires_grad

    def vjp(g):
        gh = _conv_input_grad(g, w.data, x_shape, 1, padding) if need_h else None
        grads, gw = [None, None, None], None
        if need_h or w.requires_grad:
            for sl in batches:
                y, s = preact(sl)
                if w.requires_grad:
                    gw = _conv_weight_grad(g[sl], _silu_padded(y, s, padding), w.shape, 1, gw)
                if need_h:
                    # silu's d/dy [y*s(y)] = s + y*s*(1-s), evaluated in the same order
                    y *= s
                    y *= 1.0 - s
                    y += s
                    gh[sl] *= y
            del y, s  # before GroupNorm's backward allocates gxhat
            if need_h:
                grads = _group_norm_backward(gh, x_shape, need_x, gamma, beta, xhat_g, istd)
        return _with_bias_grad([*grads, gw], g, b)

    return _result(out, inputs, vjp)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling on both spatial axes."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest2x: input must be [N, C, H, W], got {x.shape}")
    n, c, h, w = x.shape
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def vjp(g):
        return [g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))]

    return _result(data, (x,), vjp)


def _upsample_padded(x: np.ndarray, padding: int) -> np.ndarray:
    """The nearest-2x upsample of x, written straight into zeros padded by ``padding``."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, 2 * h + 2 * padding, 2 * w + 2 * padding))
    cols = slice(padding, padding + 2 * w)
    even = xp[:, :, padding:padding + 2 * h:2]  # the upsampled image's even rows
    even[..., padding:padding + 2 * w:2] = x
    even[..., padding + 1:padding + 2 * w:2] = x
    xp[:, :, padding + 1:padding + 2 * h:2, cols] = even[..., cols]
    return xp


def upsample_nearest2x_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: int = 0) -> Tensor:
    """conv2d(upsample_nearest2x(x), w, b, padding=padding) as one record.

    Bit-equal to the two ops in its output and in every gradient. It is
    conv2d's record with the upsample written straight into the padded conv
    input, which is 4x the input and more, so the record keeps x instead
    (and nothing when the weight is frozen); the input gradient is folded
    back with the upsample's reshape-sum.
    """
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest2x_conv2d: input must be [N, C, H, W], got {x.shape}")
    n, c, h, wd = x.shape

    def fold(gup):
        return gup.reshape(n, c, h, 2, wd, 2).sum(axis=(3, 5))

    return _conv_record(x, (n, c, 2 * h, 2 * wd), w, b, 1, padding,
                        lambda a: _upsample_padded(a, padding), fold)


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


def _as_index_vector(value, n: int, name: str) -> np.ndarray:
    """``value`` (a scalar or one id per sample) as a length-n index vector.

    Every model entry point (unet_forward, cfg_predict, forward_marginal), the
    schedule's per-timestep lookups and ``embed_rows`` read their ids here: the
    one place that refuses an empty batch (first) and an id without an integer
    dtype (a float even when integral, a bool, a string), never truncated.
    """
    if n < 1:
        raise ShapeError(f"{name}: the batch is empty; a model call needs at least one sample")
    arr = np.asarray(value)
    if arr.shape not in ((), (n,)):
        raise ShapeError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ConfigError(f"{name} must hold integers, got {arr.dtype} values")
    return np.full(n, arr, dtype=np.intp) if arr.ndim == 0 else arr.astype(np.intp)


def embed_rows(weight: Tensor, ids) -> Tensor:
    """Gather rows of a [num_rows, dim] table; differentiable w.r.t. the table."""
    if weight.ndim != 2:
        raise ShapeError(f"embed_rows: table must be 2-d, got {weight.shape}")
    idx = np.asarray(ids)
    if idx.ndim != 1:
        raise ShapeError(f"embed_rows: ids must be 1-d, got shape {idx.shape}")
    # no ids (float64 to numpy) gather no rows; any other ids need an integer dtype
    idx = _as_index_vector(idx, len(idx), "embed_rows: ids") if len(idx) else idx.astype(np.intp)
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
    if not 1 <= check_int("crop_cols: n", n) <= x.shape[1]:
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
