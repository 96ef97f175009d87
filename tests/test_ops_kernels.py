"""The conv, sigmoid, padding, GroupNorm and attention kernels against plain references.

The references are the straightforward forms the kernels replaced: the conv
input gradient as a k*k scatter of the column gradient (col2im), the weight
gradient as one einsum or as one batched GEMM over the whole im2col matrix,
the two-branch masked sigmoid, np.pad and np.var.
The fused GroupNorm-SiLU and attention records are compared bitwise with the
chains of taped primitives they replace, and the tape's retained memory and
a training step's peak are measured with tracemalloc.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from resolab import ops
from resolab.adapters import attach_resadapter
from resolab.errors import NumericError
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


@pytest.mark.parametrize("needs", list(itertools.product((True, False), repeat=3)))
def test_group_norm_silu_is_bit_equal_to_the_unfused_ops(needs):
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal((3, 8, 5, 4)), 1.0 + 0.3 * rng.standard_normal(8),
              0.3 * rng.standard_normal(8)]
    g = rng.standard_normal((3, 8, 5, 4))
    fused = _value_and_grads(lambda x, ga, be: ops.group_norm_silu(x, 4, ga, be), arrays, needs, g)
    chain = _value_and_grads(lambda x, ga, be: ops.silu(ops.group_norm(x, 4, ga, be)),
                             arrays, needs, g)
    _assert_bit_equal(fused, chain)


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


def test_frozen_weight_conv_retains_about_its_output():
    # the im2col matrix is 9x the input; a frozen weight never reads it back
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w, b = Tensor(rng.standard_normal((8, 8, 3, 3))), Tensor(rng.standard_normal(8))
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x, w, b, stride=1, padding=1)
            retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * out.data.nbytes


def test_trainable_weight_conv_retains_its_padded_input_not_im2col():
    # the weight gradient reads the padded input (1.13x the input at 32x32,
    # padding 1), never the 9x im2col matrix; output plus padded input is
    # 2.13x the input here, and keeping the matrix made it 10x
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(8), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x, w, b, stride=1, padding=1)
            retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= out.data.nbytes + 1.2 * x.data.nbytes


def test_tape_retains_only_what_backward_reads():
    # frozen conv -> GN-SiLU -> frozen conv -> residual add, every
    # intermediate dropped by the caller: only the GN-SiLU's xhat and sigmoid
    # (two activations) stay for backward. Records that held their outputs
    # kept about six.
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w1, w2 = (Tensor(0.1 * rng.standard_normal((8, 8, 3, 3))) for _ in range(2))
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            h = ops.conv2d(x, w1, padding=1)
            h = ops.group_norm_silu(h, 4, gamma, beta)
            h = ops.conv2d(h, w2, padding=1)
            loss = ops.mean_all(ops.add(h, x))
            del h
            retained = tracemalloc.get_traced_memory()[0] - before
            tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert len(tape) == 5
    assert retained <= 2.2 * x.data.nbytes
    assert x.grad is not None and x.grad.shape == x.shape


def _step_peak_mib(phase: str, size: int) -> float:
    """tracemalloc peak of one batch-8 training step of the desk model at size x size."""
    rc = default_runconfig()
    model = build_unet(rc.model, seed=0)
    plan = TrainPlan(((size, size),), rc.train.standard_resolution, 1, phase, batch_size=8)
    data, sched = rc.data.build(), rc.schedule.build()
    bundle = attach_resadapter(model, rank=rc.train.rank, seed=0) if phase == "adapter" else None
    tracemalloc.start()
    try:
        if bundle is None:
            train_base(model, plan, data, sched)
        else:
            train_adapter(model, bundle, plan, data, sched)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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


def test_adapter_step_peak_memory_is_bounded():
    assert _step_peak_mib("adapter", 32) <= ADAPTER_STEP_PEAK_MIB


@pytest.mark.parametrize("phase,size,bound", [
    ("adapter", 32, KEYED_ADAPTER_STEP_PEAK_MIB), ("base", 16, BASE_STEP_PEAK_MIB),
    ("adapter", 32, INPUT_KEPT_ADAPTER_STEP_PEAK_MIB), ("base", 16, INPUT_KEPT_BASE_STEP_PEAK_MIB)])
def test_step_peak_memory_holds_only_live_activations(phase, size, bound):
    assert _step_peak_mib(phase, size) <= bound
