"""The conv, sigmoid, padding, GroupNorm and attention kernels against plain references.

The references are the straightforward forms the kernels replaced: the conv
input gradient as a k*k scatter of the column gradient (col2im), the weight
gradient as one einsum or as one batched GEMM over the whole im2col matrix,
the two-branch masked sigmoid, np.pad and np.var.
The fused GroupNorm-SiLU-conv, up-sampler conv and attention records are
compared bitwise with the chains of taped primitives they replace, conv2d, the
fused convs and attention also on inputs that span several of their bounded
sample batches, and the tape's retained memory and a training step's forward
and backward peaks are measured with tracemalloc.
"""

import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from resolab import ops
from resolab.adapters import attach_resadapter
from resolab.errors import NumericError, ShapeError
from resolab.runconfig import default_runconfig
from resolab.tensor import Tape, Tensor
from resolab.trainer import TrainPlan, train_adapter, train_base
from resolab.unet import build_unet


def _col2im_reference(gcols, xp_shape, k, stride, ho, wo):
    n, c, _, _ = xp_shape
    g6 = gcols.reshape(n, c, k, k, ho, wo)
    gxp = np.zeros(xp_shape)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += g6[:, :, i, j]
    return gxp


def _conv_backward_reference(x, w, g, stride, padding):
    """(gx, gw, gb) of sum(conv2d(x, w, b) * g) via col2im and einsum."""
    n, _, h, wd = x.shape
    co, ci, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = g.shape[2:]
    cols = ops._im2col(xp, k, stride, ho, wo)
    gmat = g.reshape(n, co, ho * wo)
    gcols = w.reshape(co, ci * k * k).T @ gmat
    gxp = _col2im_reference(gcols, xp.shape, k, stride, ho, wo)
    gx = gxp[:, :, padding : padding + h, padding : padding + wd]
    gw = np.einsum("ncl,nkl->ck", gmat, cols).reshape(w.shape)
    return gx, gw, g.sum(axis=(0, 2, 3))


def _sigmoid_reference(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# padding runs up to k, so p > k - 1 (where the backward crops) is covered
GRID = [(k, s, p) for k in (1, 3, 4) for s in (1, 2, 3) for p in range(k + 1)]


@pytest.mark.parametrize("k,stride,padding", GRID)
def test_conv2d_backward_matches_col2im_reference(k, stride, padding):
    rng = np.random.default_rng(100 * k + 10 * stride + padding)
    # odd, unequal sizes so the forward leaves (h + 2p - k) % stride rows unread
    for h, wd in ((7, 6), (8, 5)):
        x = Tensor(rng.standard_normal((2, 3, h, wd)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, w, b, stride=stride, padding=padding)
            g = rng.standard_normal(out.shape)
            tape.backward(ops.sum_all(ops.mul(out, Tensor(g))))
        gx, gw, gb = _conv_backward_reference(x.data, w.data, g, stride, padding)
        np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)


def _conv_batch_reference(x, w, b, g, stride, padding):
    """conv2d's output and (gx, gw, gb) with the whole batch's im2col matrix kept:
    one batched weight-gradient GEMM summed over axis 0, the bias added out of place."""
    n, _, h, wd = x.shape
    co, ci, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = g.shape[2:]
    cols = ops._im2col(xp, k, stride, ho, wo)
    out = (w.reshape(co, ci * k * k) @ cols).reshape(n, co, ho, wo) + b.reshape(1, co, 1, 1)
    gp = ops._pad2d(g, k - 1 - padding, (h + k - 1, wd + k - 1), stride)
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * k * k)
    gx = (wflip @ ops._im2col(gp, k, 1, h, wd)).reshape(x.shape)
    gmat = g.reshape(n, co, ho * wo)
    gw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    return out, [gx, gw, g.sum(axis=(0, 2, 3))]


@pytest.mark.parametrize("k,stride,padding", GRID)
def test_conv2d_trainable_weight_is_bit_equal_to_the_batch_formulation(k, stride, padding):
    # the weight gradient rebuilds one sample's columns at a time from the
    # padded input; summed in sample order it must match the batched GEMM
    rng = np.random.default_rng(1000 + 100 * k + 10 * stride + padding)
    # batch 0 covers the empty sum, which must stay a zero gradient
    for n, (h, wd) in itertools.product((0, 1, 3, 8), ((7, 6), (8, 5))):
        arrays = [rng.standard_normal((n, 3, h, wd)), rng.standard_normal((4, 3, k, k)),
                  rng.standard_normal(4)]
        ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
        g = rng.standard_normal((n, 4, ho, wo))
        got = _value_and_grads(lambda x, w, b: ops.conv2d(x, w, b, stride=stride, padding=padding),
                               arrays, (True, True, True), g)
        _assert_bit_equal(got, _conv_batch_reference(*arrays, g, stride, padding))


# (size, stride): at 8 channels and 3x3 the 32x32 columns take one sample per
# batch and the 24x24 ones three, so five samples leave the first batch with
# and without a remainder; stride 2 shrinks the forward's columns to one batch
# while the input gradient's stay batched
CROSS_BATCH_CONVS = [(32, 1), (32, 2), (24, 1), (24, 2)]


@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
@pytest.mark.parametrize("size,stride", CROSS_BATCH_CONVS)
def test_conv2d_across_sample_batches_is_bit_equal_to_the_batch_formulation(size, stride, trainable):
    n, c = 5, 8
    # the input gradient's columns (8 bytes x c x 3 x 3 per pixel) span several batches
    assert len(ops._batches(n, 8 * c * 9 * size * size)) > 1
    rng = np.random.default_rng(2000 + 10 * size + stride)
    arrays = [rng.standard_normal((n, c, size, size)), rng.standard_normal((c, c, 3, 3)),
              rng.standard_normal(c)]
    ho = (size + 2 - 3) // stride + 1
    g = rng.standard_normal((n, c, ho, ho))
    needs = (True, trainable, trainable)
    got = _value_and_grads(lambda x, w, b: ops.conv2d(x, w, b, stride=stride, padding=1),
                           arrays, needs, g)
    out, grads = _conv_batch_reference(*arrays, g, stride, 1)
    _assert_bit_equal(got, (out, [gr if need else None for gr, need in zip(grads, needs)]))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 18])
@pytest.mark.parametrize("sample_bytes", [1, 3 * 2**18, 2**20, 2**20 + 1, 2**22])
def test_batches_cover_the_samples_in_order_within_the_bound(n, sample_bytes):
    slices = ops._batches(n, sample_bytes)
    if n == 0:
        assert slices == [slice(0, 0)]  # one empty batch, so an op's loop still runs once
        return
    assert [sl.start for sl in slices] == [0] + [sl.stop for sl in slices[:-1]]
    assert slices[-1].stop == n
    assert all(0 < sl.stop - sl.start <= max(1, ops._BATCH_BYTES // sample_bytes) for sl in slices)
    # only the last batch falls short of the bound
    assert all(sl.stop - sl.start == min(n, max(1, ops._BATCH_BYTES // sample_bytes)) for sl in slices[:-1])


def test_windows_view_is_read_only_and_copies_nothing():
    xp = np.arange(2.0 * 3 * 6 * 5).reshape(2, 3, 6, 5)
    win = ops._windows(xp, 3, 2, 2, 2)
    assert not win.flags.writeable and np.shares_memory(win, xp)
    ref = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    assert np.array_equal(win, ref.transpose(0, 1, 4, 5, 2, 3))
    # a batch slice of the padded input gives the same windows as the whole
    assert np.array_equal(ops._windows(xp[1:], 3, 2, 2, 2), win[1:])


def test_sigmoid_matches_two_branch_form():
    rng = np.random.default_rng(0)
    for x in (np.linspace(-800.0, 800.0, 20001), 6.0 * rng.standard_normal((8, 16, 32, 32))):
        with np.errstate(all="raise"):
            got = ops._sigmoid(x)
        with np.errstate(under="ignore"):  # exp(-800) underflows in the reference
            ref = _sigmoid_reference(x)
        assert np.max(np.abs(got - ref)) <= 2.3e-16
        assert np.all((got >= 0.0) & (got <= 1.0))


def test_pad2d_equals_np_pad():
    x = np.random.default_rng(1).standard_normal((2, 3, 7, 5))
    for p in (1, 2, 3):
        ref = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        assert np.array_equal(ops._pad2d(x, p, (7 + 2 * p, 5 + 2 * p)), ref)


def test_pad2d_dilates_and_crops():
    x = np.arange(1.0, 7.0).reshape(1, 1, 2, 3)
    out = ops._pad2d(x, 1, (5, 7), stride=2)
    ref = np.zeros((1, 1, 5, 7))
    ref[0, 0, 1:4:2, 1:6:2] = x[0, 0]
    assert np.array_equal(out, ref)
    # a negative offset crops: row/col i lands at -2 + 2i, so only x[1, 1] fits
    assert np.array_equal(ops._pad2d(x, -2, (1, 2), stride=2), [[[[5.0, 0.0]]]])
    assert not ops._pad2d(x, -5, (2, 2), stride=2).any()


@pytest.mark.parametrize("fused", [False, True], ids=["group_norm", "group_norm_silu_conv2d"])
def test_group_norm_ops_take_an_empty_batch(fused):
    # the group reshape used to infer its size from an empty array and raise numpy's ValueError
    rng = np.random.default_rng(14)
    arrays, g = _gn_silu_conv_arrays(rng, 0, (5, 4))
    if fused:
        op = _gn_silu_conv(1)
    else:
        op, arrays = (lambda x, ga, be: ops.group_norm(x, 4, ga, be)), arrays[:3]
    y, grads = _value_and_grads(op, arrays, (True,) * len(arrays), g)
    assert y.shape == (0, 8, 5, 4) and grads[0].shape == (0, 8, 5, 4)
    assert all(gr.shape == a.shape and not gr.any() for gr, a in zip(grads[1:], arrays[1:]))


def _refused_without_warnings(op, *arrays, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError, match=match):
            op(*(Tensor(a) for a in arrays))


def test_group_norm_refuses_a_zero_area_input():
    # a group of no values used to divide by its count of 0 and return NaN
    _refused_without_warnings(lambda x, ga, be: ops.group_norm(x, 2, ga, be),
                              np.ones((2, 4, 0, 3)), np.ones(4), np.zeros(4),
                              match=r"group_norm: C, H and W must be positive, got \(2, 4, 0, 3\)")


def test_group_norm_silu_conv2d_refuses_a_zero_area_input():
    # a 1x1 kernel at padding 1 fits the padded (2, 5) input, so only the norm can refuse it
    _refused_without_warnings(
        lambda x, ga, be, w: ops.group_norm_silu_conv2d(x, 2, ga, be, w, padding=1),
        np.ones((2, 4, 0, 3)), np.ones(4), np.zeros(4), np.ones((3, 4, 1, 1)),
        match=r"group_norm: C, H and W must be positive")


def test_self_attention_refuses_no_tokens():
    # used to reach _softmax_rows and raise numpy's ValueError on an empty reduction
    _refused_without_warnings(ops.self_attention, np.ones((2, 0, 4)), *[np.eye(4)] * 4,
                              match=r"self_attention: T and d must be positive, got \(2, 0, 4\)")


def test_self_attention_refuses_a_zero_width():
    # used to raise ZeroDivisionError scaling the scores by 1/sqrt(d)
    _refused_without_warnings(ops.self_attention, np.ones((2, 3, 0)), *[np.ones((0, 0))] * 4,
                              match=r"self_attention: T and d must be positive, got \(2, 3, 0\)")


def test_group_norm_forward_equals_np_var_form():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 8, 6, 5))
    gamma, beta = rng.standard_normal(8), rng.standard_normal(8)
    got = ops.group_norm(Tensor(x), 4, Tensor(gamma), Tensor(beta)).data
    xg = x.reshape(4, 4, -1)
    istd = 1.0 / np.sqrt(xg.var(axis=-1, keepdims=True) + 1e-5)
    xhat = ((xg - xg.mean(axis=-1, keepdims=True)) * istd).reshape(x.shape)
    ref = xhat * gamma.reshape(1, 8, 1, 1) + beta.reshape(1, 8, 1, 1)
    assert np.array_equal(got, ref)


def _value_and_grads(fn, arrays, needs, g):
    """fn's output and the gradient of sum(fn(...) * g) in each input (None if frozen)."""
    ts = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
    with Tape() as tape:
        out = fn(*ts)
        if out.requires_grad:
            tape.backward(ops.sum_all(ops.mul(out, Tensor(g))))
    return out.data, [t.grad for t in ts]


def _assert_bit_equal(got, ref):
    (y, grads), (y_ref, grads_ref) = got, ref
    assert np.array_equal(y, y_ref)
    for gr, gr_ref in zip(grads, grads_ref):
        assert (gr is None) == (gr_ref is None)
        if gr is not None:
            assert np.array_equal(gr, gr_ref)


def _gn_silu_conv_chain(padding):
    """group_norm_silu_conv2d as the three taped primitives it replaces."""
    return lambda x, ga, be, w, b=None: ops.conv2d(
        ops.silu(ops.group_norm(x, 4, ga, be)), w, b, stride=1, padding=padding)


def _gn_silu_conv(padding):
    return lambda x, ga, be, w, b=None: ops.group_norm_silu_conv2d(x, 4, ga, be, w, b, padding)


def _gn_silu_conv_arrays(rng, n, size):
    """x, gamma, beta, w, b of an 8 -> 8-channel 3x3 unit, and a cotangent at padding 1."""
    return ([rng.standard_normal((n, 8, *size)), 1.0 + 0.3 * rng.standard_normal(8),
             0.3 * rng.standard_normal(8), 0.3 * rng.standard_normal((8, 8, 3, 3)),
             rng.standard_normal(8)],
            rng.standard_normal((n, 8, *size)))


# (x, gamma, beta, w) needs, and the bias absent, frozen or trainable: all 32
# combinations of the five inputs plus the 16 of the bias-free unit
@pytest.mark.parametrize("padding", [1, 0])
@pytest.mark.parametrize("bias", [None, False, True], ids=["no-bias", "frozen-bias", "bias"])
@pytest.mark.parametrize("needs", list(itertools.product((True, False), repeat=4)))
def test_group_norm_silu_conv2d_is_bit_equal_to_the_unfused_ops(needs, bias, padding):
    rng = np.random.default_rng(3)
    arrays, g = _gn_silu_conv_arrays(rng, 3, (5, 4))
    if bias is None:
        arrays = arrays[:4]
    else:
        needs = (*needs, bias)
    if not padding:
        g = g[:, :, 1:-1, 1:-1]
    _assert_bit_equal(_value_and_grads(_gn_silu_conv(padding), arrays, needs, g),
                      _value_and_grads(_gn_silu_conv_chain(padding), arrays, needs, g))


# (batch, size, whole): at 8 channels and 32x32 each sample's columns take a
# batch of their own, so eight samples' y, sigmoid(y), padded input and columns
# are formed a sample at a time; at 16x16 three samples' columns (0.42 MiB)
# and temporaries fit _BATCH_BYTES and are formed in one pass
PREACT_BATCHES = [(8, 32, False), (3, 16, True)]


@pytest.mark.parametrize("bias", [None, False, True], ids=["no-bias", "frozen-bias", "bias"])
@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
@pytest.mark.parametrize("n,size,whole", PREACT_BATCHES, ids=["split", "whole"])
def test_group_norm_silu_conv2d_across_sample_batches_is_bit_equal_to_the_chain(n, size, whole,
                                                                                 trainable, bias):
    # 8 bytes x 8 channels x the larger of y, sigmoid(y) and the padded input,
    # and the 3x3 columns, per sample
    per_sample = 8 * 8 * max(2 * size * size + (size + 2) ** 2, 9 * size * size)
    assert ops._batches(n, per_sample) == ([slice(0, n)] if whole else [slice(i, i + 1) for i in range(n)])
    arrays, g = _gn_silu_conv_arrays(np.random.default_rng(12), n, (size, size))
    needs = (True, True, True, trainable)
    if bias is None:
        arrays = arrays[:4]
    else:
        needs = (*needs, bias)
    _assert_bit_equal(_value_and_grads(_gn_silu_conv(1), arrays, needs, g),
                      _value_and_grads(_gn_silu_conv_chain(1), arrays, needs, g))


def _attention_chain(x, wq, wk, wv, wo):
    """self_attention as the taped primitive chain the fused record replaced."""
    q, k, v = ops.linear(x, wq), ops.linear(x, wk), ops.linear(x, wv)
    scores = ops.scale(ops.matmul(q, ops.permute(k, (0, 2, 1))), 1.0 / np.sqrt(x.shape[-1]))
    return ops.linear(ops.matmul(ops.softmax(scores), v), wo)


# (x, wq, wk, wv, wo): all trainable, frozen projections (the resadapter case),
# frozen input, and single trainable weights
ATTENTION_NEEDS = [
    (True,) * 5, (True,) + (False,) * 4, (False,) + (True,) * 4,
    (False, True, False, False, False), (False, False, True, False, False),
    (False, False, False, True, False), (False, False, False, False, True),
]


@pytest.mark.parametrize("needs", ATTENTION_NEEDS)
def test_self_attention_is_bit_equal_to_the_primitive_chain(needs):
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal((2, 9, 6))] + [0.5 * rng.standard_normal((6, 6)) for _ in range(4)]
    g = rng.standard_normal((2, 9, 6))
    _assert_bit_equal(_value_and_grads(ops.self_attention, arrays, needs, g),
                      _value_and_grads(_attention_chain, arrays, needs, g))


@pytest.mark.parametrize("t", [128, 256])
@pytest.mark.parametrize("needs", ATTENTION_NEEDS)
def test_self_attention_across_sample_batches_is_bit_equal_to_the_chain(needs, t):
    # five samples: four per batch at T=128 (a remainder of one), one at T=256
    n = 5
    assert [sl.stop - sl.start for sl in ops._batches(n, 2 * 8 * 128 * 128)] == [4, 1]
    rng = np.random.default_rng(40 + t)
    arrays = [rng.standard_normal((n, t, 6))] + [0.5 * rng.standard_normal((6, 6)) for _ in range(4)]
    g = rng.standard_normal((n, t, 6))
    _assert_bit_equal(_value_and_grads(ops.self_attention, arrays, needs, g),
                      _value_and_grads(_attention_chain, arrays, needs, g))


@pytest.mark.parametrize("t", [1, 4, 16, 144, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("needs", ATTENTION_NEEDS)
def test_self_attention_recomputed_projections_are_bit_equal_to_the_chain(needs, n, t):
    # the record keeps only x: the forward and the vjp form q, k^T and v per
    # batch of samples (three per batch at T=144, one at T=256) from row
    # slices of the GEMMs that the chain runs over the whole batch
    rng = np.random.default_rng(50 + 10 * n + t)
    arrays = [rng.standard_normal((n, t, 16))] + [0.25 * rng.standard_normal((16, 16)) for _ in range(4)]
    g = rng.standard_normal((n, t, 16))
    _assert_bit_equal(_value_and_grads(ops.self_attention, arrays, needs, g),
                      _value_and_grads(_attention_chain, arrays, needs, g))


@pytest.mark.parametrize("d", [2, 6, 32, 64, 128])
def test_self_attention_batches_are_bit_equal_to_the_chain_at_any_width(d):
    # one sample per batch at T=182, the fewest rows a batch short of N can have
    n, t = 3, 182
    assert len(ops._batches(2, 2 * 8 * t * t)) == 2 and len(ops._batches(2, 2 * 8 * (t - 1) ** 2)) == 1
    rng = np.random.default_rng(70 + d)
    arrays = [rng.standard_normal((n, t, d))] + [rng.standard_normal((d, d)) / d for _ in range(4)]
    g = rng.standard_normal((n, t, d))
    _assert_bit_equal(_value_and_grads(ops.self_attention, arrays, (True,) * 5, g),
                      _value_and_grads(_attention_chain, arrays, (True,) * 5, g))


def test_self_attention_row_dots_match_the_whole_product_sum():
    rng = np.random.default_rng(51)
    a, b = rng.standard_normal((3, 200, 200)), rng.standard_normal((3, 200, 200))
    out = ops._row_dots(a, b, np.empty((3, 200, 1)), np.empty((64, 200)))
    assert np.array_equal(out, (a * b).sum(axis=-1, keepdims=True))


def test_softmax_leaves_its_input_alone():
    x = np.random.default_rng(5).standard_normal((3, 7))
    before = x.copy()
    ops.softmax(Tensor(x))
    assert np.array_equal(x, before)


def test_self_attention_rejects_non_finite_input_without_warnings():
    # an inf in x used to reach the projection GEMMs (inf * 0) and warn first
    args = [np.ones((1, 4, 3))] + [np.eye(3)] * 4
    args[0][0, 1, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="softmax: non-finite input"):
            ops.self_attention(*(Tensor(a) for a in args))


@pytest.mark.parametrize("poisoned", ["x", "wk"])
def test_self_attention_rejects_non_finite_scores(poisoned):
    rng = np.random.default_rng(6)
    args = {"x": rng.standard_normal((1, 4, 3)), **{w: np.eye(3) for w in ("wq", "wk", "wv", "wo")}}
    args[poisoned].flat[-1] = np.nan
    with pytest.raises(NumericError, match="softmax: non-finite input"):
        ops.self_attention(*(Tensor(a) for a in args.values()))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_linear_rejects_non_finite_input_without_warnings(bad):
    # the input used to reach the GEMM, where inf * 0 warns and gives NaN
    x = np.ones((2, 3))
    x[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="linear: input: non-finite values detected"):
            ops.linear(Tensor(x), Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))


def _upsample_conv_chain(padding):
    """upsample_nearest2x_conv2d as the two taped primitives it replaces."""
    return lambda x, w, b=None: ops.conv2d(ops.upsample_nearest2x(x), w, b, stride=1, padding=padding)


def _upsample_conv(padding):
    return lambda x, w, b=None: ops.upsample_nearest2x_conv2d(x, w, b, padding)


# (x, w) needs and the bias absent, frozen or trainable: every combination,
# over batches 0 to 8, odd and even sizes, and paddings 0 to 2
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("bias", [None, False, True], ids=["no-bias", "frozen-bias", "bias"])
@pytest.mark.parametrize("needs", list(itertools.product((True, False), repeat=2)))
def test_upsample_nearest2x_conv2d_is_bit_equal_to_the_unfused_ops(needs, bias, padding):
    rng = np.random.default_rng(60 + padding)
    for n, (h, wd) in itertools.product((0, 1, 3, 8), ((3, 5), (4, 4), (2, 3))):
        arrays = [rng.standard_normal((n, 3, h, wd)), rng.standard_normal((4, 3, 3, 3)),
                  rng.standard_normal(4)]
        cases = (arrays[:2], needs) if bias is None else (arrays, (*needs, bias))
        g = rng.standard_normal((n, 4, 2 * h + 2 * padding - 2, 2 * wd + 2 * padding - 2))
        _assert_bit_equal(_value_and_grads(_upsample_conv(padding), *cases, g),
                          _value_and_grads(_upsample_conv_chain(padding), *cases, g))


# (x shape, whole): the 32x32 upsampled columns take a batch per sample at 16
# channels, so eight samples' padded upsample and columns are built a sample at
# a time; three 16x16 upsamples at 8 channels and their columns (0.42 MiB) fit
# _BATCH_BYTES and are built in one pass
UPSAMPLE_BATCHES = [((8, 16, 16, 16), False), ((3, 8, 8, 8), True)]


@pytest.mark.parametrize("bias", [None, False, True], ids=["no-bias", "frozen-bias", "bias"])
@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
@pytest.mark.parametrize("shape,whole", UPSAMPLE_BATCHES, ids=["split", "whole"])
def test_upsample_nearest2x_conv2d_across_sample_batches_is_bit_equal_to_the_chain(
        shape, whole, trainable, bias):
    n, c, h, wd = shape
    # 8 bytes x c channels x the larger of the padded upsample and the 3x3 columns, per sample
    per_sample = 8 * c * max((2 * h + 2) * (2 * wd + 2), 9 * 4 * h * wd)
    assert ops._batches(n, per_sample) == ([slice(0, n)] if whole else [slice(i, i + 1) for i in range(n)])
    rng = np.random.default_rng(61)
    arrays = [rng.standard_normal(shape), 0.3 * rng.standard_normal((8, c, 3, 3)),
              rng.standard_normal(8)]
    g = rng.standard_normal((n, 8, 2 * h, 2 * wd))
    cases = (arrays[:2], (True, trainable)) if bias is None else (arrays, (True, trainable, bias))
    _assert_bit_equal(_value_and_grads(_upsample_conv(1), *cases, g),
                      _value_and_grads(_upsample_conv_chain(1), *cases, g))


def _small_batch_case(op, rng, n):
    """(op, its chain, input arrays, cotangent) of ``op`` on n samples; conv2d's chain is
    its whole-batch formulation, _conv_batch_reference, which is not taped."""
    if op == "group_norm_silu_conv2d":
        return (_gn_silu_conv(1), _gn_silu_conv_chain(1), *_gn_silu_conv_arrays(rng, n, (5, 4)))
    if op == "self_attention":
        arrays = [rng.standard_normal((n, 9, 6))] + [0.5 * rng.standard_normal((6, 6)) for _ in range(4)]
        return ops.self_attention, _attention_chain, arrays, rng.standard_normal((n, 9, 6))
    # a 3 -> 4-channel 3x3 conv at padding 1 of a 7x6 input, or of a 3x5 one upsampled
    h, wd = (7, 6) if op == "conv2d" else (6, 10)
    x = rng.standard_normal((n, 3, h, wd) if op == "conv2d" else (n, 3, h // 2, wd // 2))
    arrays = [x, rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)]
    g = rng.standard_normal((n, 4, h, wd))
    if op == "conv2d":
        return lambda x, w, b: ops.conv2d(x, w, b, padding=1), None, arrays, g
    return _upsample_conv(1), _upsample_conv_chain(1), arrays, g


@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("op", ["conv2d", "group_norm_silu_conv2d", "upsample_nearest2x_conv2d",
                                "self_attention"])
def test_ops_on_zero_and_one_samples_are_bit_equal_to_their_chains(op, n, trainable):
    # an empty input runs each op's batch loop once, over one empty slice; a
    # buffer sized by the first batch is then empty too
    fused, chain, arrays, g = _small_batch_case(op, np.random.default_rng(90 + n), n)
    needs = (True,) * (len(arrays) - 2) + (trainable,) * 2  # the last two: weight and bias, or wv and wo
    got = _value_and_grads(fused, arrays, needs, g)
    if chain is None:
        out, grads = _conv_batch_reference(*arrays, g, 1, 1)
        _assert_bit_equal(got, (out, [gr if need else None for gr, need in zip(grads, needs)]))
    else:
        _assert_bit_equal(got, _value_and_grads(chain, arrays, needs, g))
    assert got[0].shape[0] == n


@pytest.mark.parametrize("ids", [[], np.array([], dtype=np.int64)], ids=["list", "int64"])
def test_embed_rows_of_no_ids_gathers_no_rows(ids):
    # the ops take N = 0; only a non-empty id list must hold integers
    assert ops.embed_rows(Tensor(np.ones((3, 2))), ids).shape == (0, 2)


def test_upsample_nearest2x_conv2d_checks_its_input():
    w = Tensor(np.zeros((2, 3, 3, 3)))
    with pytest.raises(ShapeError, match=r"upsample_nearest2x_conv2d: input must be \[N, C, H, W\]"):
        ops.upsample_nearest2x_conv2d(Tensor(np.zeros((3, 4, 4))), w, padding=1)
    with pytest.raises(ShapeError, match="input channel axis 1 has 2 channels, weight expects 3"):
        ops.upsample_nearest2x_conv2d(Tensor(np.zeros((1, 2, 4, 4))), w, padding=1)


def _retained_bytes(op, *args):
    """Traced bytes still held after ``op(*args)`` under a tape, its output included."""
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            out = op(*args)
            return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _traced(run):
    """Traced bytes of ``run()``, split where its one tape backward begins:
    (held, forward scratch, backward scratch). held is what is allocated when
    the backward begins, and each scratch the phase's peak beyond it."""
    marks = []
    run_backward = Tape.backward

    def split_backward(tape, output):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        run_backward(tape, output)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(Tape, "backward", split_backward):
            run()
        [(held, forward_peak)] = marks
        return held - start, forward_peak - held, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _fresh(op):
    """``op`` applied to a copy of its first argument made under the tape, so a
    record that keeps that argument counts it in the retained bytes."""
    return lambda x, *rest: op(ops.scale(x, 1.0), *rest)


def test_frozen_weight_conv_retains_about_its_output():
    # the im2col matrix is 9x the input; a frozen weight never reads it back
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w, b = Tensor(rng.standard_normal((8, 8, 3, 3))), Tensor(rng.standard_normal(8))
    out, retained = _retained_bytes(ops.conv2d, x, w, b, 1, 1)
    assert retained <= 1.1 * out.data.nbytes


def test_trainable_weight_conv_retains_its_input_not_im2col():
    # the weight gradient rebuilds the padded input (1.13x the input at
    # 32x32, padding 1) and one sample's columns at a time from the input
    # itself; keeping the padded input made it output plus 1.13 inputs, and
    # keeping the 9x im2col matrix output plus 9
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(8), requires_grad=True)
    out, retained = _retained_bytes(_fresh(ops.conv2d), x, w, b, 1, 1)
    assert retained <= out.data.nbytes + 1.05 * x.data.nbytes


def test_group_norm_silu_conv2d_record_keeps_about_one_input():
    # xhat (one input's worth) and the per-group inverse deviations, even
    # with a trainable weight: the vjp rebuilds the padded conv input, which
    # the unfused chain kept beside xhat and so made it two
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    gamma, beta = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
    w = Tensor(0.1 * rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(8), requires_grad=True)
    out, retained = _retained_bytes(ops.group_norm_silu_conv2d, x, 4, gamma, beta, w, b, 1)
    assert retained <= out.data.nbytes + 1.1 * x.data.nbytes


def _gn_silu_conv_scratch(shape, trainable):
    """x and the forward and backward scratch of group_norm_silu_conv2d on a random x of ``shape``.

    The forward's is beyond its record and its output, the backward's beyond
    what was held when it began."""
    rng = np.random.default_rng(13)
    c = shape[1]
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    gamma, beta = Tensor(np.ones(c), requires_grad=True), Tensor(np.zeros(c), requires_grad=True)
    w = Tensor(0.1 * rng.standard_normal((c, c, 3, 3)), requires_grad=trainable)
    b = Tensor(np.zeros(c), requires_grad=trainable)

    def run():
        with Tape() as tape:
            out = ops.group_norm_silu_conv2d(x, 4, gamma, beta, w, b, 1)
            tape.backward(ops.mean_all(out))

    _, forward, backward = _traced(run)
    return x, forward, backward


@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
def test_group_norm_silu_conv2d_scratch_is_one_output_and_one_bounded_batch(trainable):
    # at [8, 8, 32, 32] the whole batch's y, sigmoid(y) and padded conv input
    # (1.56 MiB) exceed _BATCH_BYTES: the forward forms them a batch of samples
    # at a time beside that batch's columns, and the vjp forms y, sigmoid(y)
    # and SiLU'(y) per batch too, writes SiLU'(y) * g into the conv input
    # gradient in place and reuses that buffer as GroupNorm's backward
    # scratch. Beyond the record (and, backward, the cotangent) each holds at
    # most one output-sized array and one bounded batch: 0.63 MiB of forward
    # scratch and 1.64 MiB of backward (1.77 with a trainable weight), where
    # whole-batch temporaries took 1.13 and 2.50 (3.14) MiB.
    x, forward, backward = _gn_silu_conv_scratch((8, 8, 32, 32), trainable)
    assert forward <= ops._BATCH_BYTES
    # the cotangent, then one output-sized array and one bounded batch
    assert backward <= 2 * x.data.nbytes + ops._BATCH_BYTES


# Bytes of the forward's per-group statistics and the Python objects of its
# batch loop, beyond the columns and the padded input: at most 0.3 KiB measured.
GN_SILU_CONV_STATS_BYTES = 4096


@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
@pytest.mark.parametrize("shape", [(8, 8, 16, 16), (8, 16, 16, 16), (8, 8, 24, 24), (18, 8, 16, 16),
                                   (8, 8, 32, 32)])
def test_group_norm_silu_conv2d_forward_scratch_is_one_batch_of_columns_and_padded_input(shape,
                                                                                      trainable):
    # each batch holds as many samples as fit _BATCH_BYTES with their columns
    # (the larger of those and y, sigmoid(y) and the padded input), and the
    # batch's padded input lives while its columns are copied out of it.
    # Forming y, sigmoid(y) and the padded input for the whole batch when they
    # fit, before columns batched on their own, read 1.14, 1.16, 1.28, 1.34
    # and 0.63 MiB for these shapes; this reads 1.12, 0.96, 1.07, 1.12 and 0.63.
    n, c, h, wd = shape
    per_batch = min(n, max(1, ops._BATCH_BYTES // (8 * c * 9 * h * wd)))
    padded_batch = 8 * per_batch * c * (h + 2) * (wd + 2)
    forward = _gn_silu_conv_scratch(shape, trainable)[1]
    assert forward <= ops._BATCH_BYTES + padded_batch + GN_SILU_CONV_STATS_BYTES


def test_self_attention_record_keeps_no_probabilities():
    # q, k^T, v and attn@v are one input's worth each; the [N, T, T]
    # probabilities would be 16x the input (4 MiB) at [8, 256, 16]
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((8, 256, 16)), requires_grad=True)
    ws = [Tensor(0.25 * rng.standard_normal((16, 16)), requires_grad=True) for _ in range(4)]
    out, retained = _retained_bytes(ops.self_attention, x, *ws)
    assert retained <= out.data.nbytes + 4.2 * x.data.nbytes


@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
def test_upsample_nearest2x_conv2d_record_keeps_at_most_its_input(trainable):
    # the chain's conv kept its padded upsampled input, 4.5x the input here;
    # the fused record keeps the input itself, and nothing for a frozen weight
    rng = np.random.default_rng(62)
    x = Tensor(rng.standard_normal((8, 16, 16, 16)), requires_grad=True)
    w = Tensor(0.1 * rng.standard_normal((8, 16, 3, 3)), requires_grad=trainable)
    b = Tensor(np.zeros(8), requires_grad=trainable)
    out, retained = _retained_bytes(_fresh(ops.upsample_nearest2x_conv2d), x, w, b, 1)
    assert retained <= out.data.nbytes + (1.05 if trainable else 0.05) * x.data.nbytes


def test_frozen_weight_self_attention_record_keeps_only_its_input():
    # q, k^T and v are recomputed per batch of samples by the vjp
    rng = np.random.default_rng(63)
    x = Tensor(rng.standard_normal((8, 256, 16)), requires_grad=True)
    ws = [Tensor(0.25 * rng.standard_normal((16, 16))) for _ in range(4)]
    out, retained = _retained_bytes(_fresh(ops.self_attention), x, *ws)
    assert retained <= out.data.nbytes + 1.05 * x.data.nbytes


def test_self_attention_vjp_scratch_is_two_score_arrays_and_four_inputs():
    # frozen weights, as in an adapter step, at the desk model's 32x32
    # bottleneck: the backward's traced peak above what was held before it
    # covers the cotangent, gx, one [T, T] buffer each for the probabilities
    # and their cotangent, reused by every sample, and the per-sample
    # projections; the product in the row sums never takes a [T, T] array.
    # (Trainable weights also need whole-batch cotangents of q, k and v.)
    rng = np.random.default_rng(64)
    n, t, d = 8, 256, 16
    x = Tensor(rng.standard_normal((n, t, d)), requires_grad=True)
    ws = [Tensor(0.25 * rng.standard_normal((d, d))) for _ in range(4)]

    def run():
        with Tape() as tape:
            tape.backward(ops.mean_all(ops.self_attention(x, *ws)))

    scratch = _traced(run)[2]
    assert scratch <= 2 * x.data.itemsize * t * t + 4 * x.data.nbytes


def test_tape_retains_only_what_backward_reads():
    # frozen conv -> GN-SiLU-conv (frozen weight) -> residual add, every
    # intermediate dropped by the caller: only the GN-SiLU-conv's xhat (one
    # activation) stays for backward. Keeping its sigmoid too made it two,
    # and records that held their outputs kept about six.
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w1, w2 = (Tensor(0.1 * rng.standard_normal((8, 8, 3, 3))) for _ in range(2))
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            h = ops.conv2d(x, w1, padding=1)
            h = ops.group_norm_silu_conv2d(h, 4, gamma, beta, w2, padding=1)
            loss = ops.mean_all(ops.add(h, x))
            del h
            retained = tracemalloc.get_traced_memory()[0] - before
            tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert len(tape) == 4
    assert retained <= 1.2 * x.data.nbytes
    assert x.grad is not None and x.grad.shape == x.shape


def _step_peak_mib(phase: str, size: int) -> tuple[float, float]:
    """tracemalloc peaks of one batch-8 training step of the desk model at size x size:
    up to the tape's backward (the forward), and from it on (backward and optimizer step)."""
    rc = default_runconfig()
    model = build_unet(rc.model, seed=0)
    plan = TrainPlan(((size, size),), rc.train.standard_resolution, 1, phase, batch_size=8)
    data, sched = rc.data, rc.schedule
    bundle = attach_resadapter(model, rank=rc.train.rank, seed=0) if phase == "adapter" else None

    def run():
        if bundle is None:
            train_base(model, plan, data, sched)
        else:
            train_adapter(model, bundle, plan, data, sched)

    held, forward, backward = _traced(run)
    return (held + forward) / 2**20, (held + backward) / 2**20


def _assert_step_peak(phase: str, size: int, bound: float) -> None:
    forward, backward = _step_peak_mib(phase, size)
    assert forward <= bound, f"{phase} {size}x{size} forward peak {forward:.2f} MiB > {bound} MiB"
    assert backward <= bound, f"{phase} {size}x{size} backward peak {backward:.2f} MiB > {bound} MiB"


# One 32x32 batch-8 adapter step on the desk model peaked at 58.9 MiB traced
# (126.1 MiB when every conv kept its im2col matrix and attention kept three
# score-sized arrays); the bound leaves 19% headroom.
ADAPTER_STEP_PEAK_MIB = 70.0

# With records holding keys and each vjp only the arrays it reads, the same
# adapter step peaks at 36.6 MiB and a 16x16 batch-8 base step at 21.9 MiB
# (58.9 and 27.3 MiB when records held their tensors). The bounds leave 15%
# and 10% headroom.
KEYED_ADAPTER_STEP_PEAK_MIB = 42.0
BASE_STEP_PEAK_MIB = 24.0

# With trainable convs keeping their padded input instead of the im2col
# matrix, the base step peaks at 8.5 MiB and the adapter step at 28.2 MiB
# (21.9 and 36.6 MiB when the matrix was kept). The bounds leave 18% and 15%
# headroom.
INPUT_KEPT_BASE_STEP_PEAK_MIB = 10.0
INPUT_KEPT_ADAPTER_STEP_PEAK_MIB = 32.5

# With GN-SiLU recomputing its sigmoid, attention recomputing its
# probabilities, and im2col and the probabilities built for a bounded batch of
# samples at a time, the adapter step peaks at 12.3 MiB and the base step at
# 6.6 MiB (28.2 and 8.5 MiB before). The bounds leave 18% and 14% headroom.
RECOMPUTED_ADAPTER_STEP_PEAK_MIB = 14.5
RECOMPUTED_BASE_STEP_PEAK_MIB = 7.5

# With each GroupNorm-SiLU and the conv after it one record that keeps only
# xhat, not the conv's padded input, the base step peaks at 4.6 MiB (6.6
# before) and the adapter step, whose res-block convs are frozen, at 12.3
# MiB. The bound leaves 16% headroom.
FUSED_BASE_STEP_PEAK_MIB = 5.3

# With attention's record keeping only x and its vjp reusing one pair of
# [T, T] buffers, the nearest-2x upsample and the up-sampler conv one record
# that keeps only the upsample's input, and each skip dropped after the add
# that reads it, the adapter step peaks at 10.35 MiB (forward 9.95) and the
# base step at 4.07 MiB (forward 3.87), from 12.28 and 4.57 MiB. The bounds
# leave 2% and 6% headroom.
LEAN_ADAPTER_STEP_PEAK_MIB = 10.6
LEAN_BASE_STEP_PEAK_MIB = 4.3

# With the fused convs forming their pre-activation temporaries and padded
# inputs a batch of samples at a time when the whole batch's exceed
# _BATCH_BYTES, GroupNorm's backward reusing the vjp's buffer, conv2d keeping
# its input instead of the padded input, and attention's row sums 16 rows at a
# time, the adapter step peaks at 9.89 MiB (forward 9.40), from 10.35 (9.95).
# The bound leaves 2% headroom.
BOUNDED_ADAPTER_STEP_PEAK_MIB = 10.1


def test_adapter_step_peak_memory_is_bounded():
    _assert_step_peak("adapter", 32, ADAPTER_STEP_PEAK_MIB)


@pytest.mark.parametrize("phase,size,bound", [
    ("adapter", 32, KEYED_ADAPTER_STEP_PEAK_MIB), ("base", 16, BASE_STEP_PEAK_MIB),
    ("adapter", 32, INPUT_KEPT_ADAPTER_STEP_PEAK_MIB), ("base", 16, INPUT_KEPT_BASE_STEP_PEAK_MIB),
    ("adapter", 32, RECOMPUTED_ADAPTER_STEP_PEAK_MIB), ("base", 16, RECOMPUTED_BASE_STEP_PEAK_MIB),
    ("base", 16, FUSED_BASE_STEP_PEAK_MIB),
    ("adapter", 32, LEAN_ADAPTER_STEP_PEAK_MIB), ("base", 16, LEAN_BASE_STEP_PEAK_MIB),
    ("adapter", 32, BOUNDED_ADAPTER_STEP_PEAK_MIB)])
def test_step_peak_memory_holds_only_live_activations(phase, size, bound):
    _assert_step_peak(phase, size, bound)
