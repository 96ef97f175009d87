"""The conv, sigmoid, padding and GroupNorm kernels against plain references.

The references are the straightforward forms the kernels replaced: the conv
input gradient as a k*k scatter of the column gradient (col2im), the weight
gradient as one einsum, the two-branch masked sigmoid, np.pad and np.var.
"""

import numpy as np
import pytest

from resolab import ops
from resolab.tensor import Tape, Tensor


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
