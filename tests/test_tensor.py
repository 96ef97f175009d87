"""Tape and Tensor semantics: accumulation, reuse, isolation."""

import threading

import numpy as np
import pytest

from resolab import ops
from resolab.errors import NumericError, ShapeError
from resolab.tensor import Tape, Tensor, active_tape


def test_tensor_coerces_to_contiguous_float64():
    t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 3)
    assert not t.requires_grad
    assert t.grad is None


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_check_finite():
    Tensor([1.0, 2.0]).check_finite()
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan]).check_finite("probe")
    with pytest.raises(NumericError):
        Tensor([np.inf]).check_finite()


def test_ops_without_tape_produce_values_but_no_records():
    assert active_tape() is None
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ops.mul(x, x)
    np.testing.assert_allclose(y.data, [1.0, 4.0])
    assert x.grad is None


def test_backward_simple_product():
    # d/dx sum(x*x) = 2x  [TRIVIAL]
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0])


def test_backward_requires_scalar_output():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ops.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_repeated_backward_accumulates_additively():
    # Running backward twice without zero_grad doubles every leaf grad.
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(x, x))
        tape.backward(loss)
        g1 = x.grad.copy()
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * g1)


def test_fanout_reuse_sums_contributions():
    # y = x*x + x*x reuses x twice through two separate records
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.add(ops.mul(x, x), ops.mul(x, x)))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [12.0])


def test_leaf_without_requires_grad_gets_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([4.0, 5.0])  # constant
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(x, w))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 5.0])
    assert w.grad is None


def test_gradients_flow_through_long_chain():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(7), requires_grad=True)
    with Tape() as tape:
        h = x
        for _ in range(25):
            h = ops.silu(h)
        loss = ops.mean_all(h)
        tape.backward(loss)
    assert x.grad is not None and np.all(np.isfinite(x.grad))


def test_nested_tapes_record_to_innermost():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as outer:
        _ = ops.mul(x, x)
        with Tape() as inner:
            loss = ops.sum_all(ops.mul(x, x))
            inner.backward(loss)
        inner_len = len(inner)
    # outer saw only its own op; inner op count excludes the outer one
    assert inner_len == 2  # mul + sum_all
    assert len(outer) == 1
    np.testing.assert_allclose(x.grad, [4.0])
    assert active_tape() is None


def test_backward_targets_only_requested_output():
    # two scalars on one tape; backward(loss1) must ignore loss2's subgraph
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss1 = ops.sum_all(ops.mul(x, x))
        loss2 = ops.sum_all(ops.scale(x, 100.0))
        tape.backward(loss1)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
    assert loss2 is not None


def test_leaf_created_mid_tape_gets_its_gradient():
    # the tape keeps no outputs, so a leaf made after an interior tensor was
    # freed may take its address: interior tensors are known by key, not id
    w = Tensor([2.0], requires_grad=True)
    leaves = []
    with Tape() as tape:
        total = ops.mul(w, w)
        for i in range(30):
            ops.scale(w, 3.0)  # an interior temporary, dropped at once
            leaf = Tensor([float(i)], requires_grad=True)
            leaves.append(leaf)
            total = ops.add(total, ops.mul(leaf, w))
        tape.backward(ops.sum_all(total))
    for leaf in leaves:
        np.testing.assert_array_equal(leaf.grad, [2.0])
    np.testing.assert_array_equal(w.grad, [4.0 + sum(range(30))])


def test_outer_tape_output_is_a_leaf_of_an_inner_tape():
    x = Tensor([3.0], requires_grad=True)
    with Tape():
        y = ops.mul(x, x)  # produced by a record of the outer tape
        with Tape() as inner:
            inner.backward(ops.sum_all(ops.scale(y, 2.0)))
    np.testing.assert_array_equal(y.grad, [2.0])
    assert x.grad is None


def test_grad_accumulates_across_separate_tapes():
    x = Tensor([1.0], requires_grad=True)
    for _ in range(3):
        with Tape() as tape:
            tape.backward(ops.sum_all(ops.mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def _threaded_chain(seed, sync=lambda: None):
    """conv -> group_norm -> silu -> mean on its own tape; sync() between ops."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    with Tape() as tape:
        sync()
        h = ops.conv2d(x, w, padding=1)
        sync()
        h = ops.group_norm(h, 2, gamma, beta)
        sync()
        loss = ops.mean_all(ops.silu(h))
        sync()
        tape.backward(loss)
        sync()
    return [t.grad for t in (x, w, gamma, beta)]


def test_tapes_are_confined_to_their_thread():
    # each thread's ops interleave with the other's while both tapes are open
    expected = [_threaded_chain(seed) for seed in (1, 2)]
    barrier = threading.Barrier(2, timeout=30)
    results, errors = {}, []

    def worker(seed):
        try:
            results[seed] = _threaded_chain(seed, barrier.wait)
        except BaseException as exc:  # surfaced below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert active_tape() is None
    for seed, want in zip((1, 2), expected):
        for got, ref in zip(results[seed], want):
            assert np.array_equal(got, ref)
