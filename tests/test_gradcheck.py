"""The finite-difference checker itself: correct ops pass, broken ops fail."""

import numpy as np
import pytest

from resolab import ops
from resolab.errors import ConfigError, NumericError, ShapeError
from resolab.gradcheck import DEFAULT_TOLERANCE, grad_check, run_suite
from resolab.tensor import Tensor, active_tape


def test_quadratic_passes():
    point = Tensor(np.random.default_rng(0).standard_normal(6))
    err = grad_check(lambda x: ops.sum_all(ops.mul(x, x)), point)
    assert err <= 1e-8  # quadratic: central differences are exact up to roundoff


def test_grad_check_does_not_mutate_point():
    point = Tensor(np.array([1.0, 2.0]))
    before = point.data.copy()
    grad_check(lambda x: ops.mean_all(ops.silu(x)), point)
    np.testing.assert_array_equal(point.data, before)
    assert point.grad is None


def test_wrong_vjp_is_detected():
    # record a deliberately wrong gradient (3x instead of 2x) and make sure
    # the checker flags it with a large relative error
    def bad_square(x):
        out = Tensor(x.data * x.data)
        tape = active_tape()
        if tape is not None:
            tape.record(out, (x,), lambda g: [3.0 * g * x.data])
        return out

    point = Tensor(np.array([1.0, -2.0, 0.5]))
    err = grad_check(lambda x: ops.sum_all(bad_square(x)), point)
    assert err > 0.2


def test_scale_bias_in_value_is_detected():
    # wrong value but right gradient shape: numeric side sees d/dx of 1.1*x^2
    def off_square(x):
        out = Tensor(1.1 * x.data * x.data)
        tape = active_tape()
        if tape is not None:
            tape.record(out, (x,), lambda g: [2.0 * g * x.data])
        return out

    err = grad_check(lambda x: ops.sum_all(off_square(x)), Tensor(np.array([1.0, 2.0])))
    assert err > 0.05


def test_nonscalar_f_rejected():
    with pytest.raises(ShapeError):
        grad_check(lambda x: ops.mul(x, x), Tensor(np.array([1.0, 2.0])))


def test_nonfinite_probe_raises():
    def touchy(x):
        if np.any(x.data > 1.00005):
            return Tensor(np.asarray(np.nan))
        return ops.sum_all(x)

    with pytest.raises(NumericError):
        grad_check(touchy, Tensor(np.array([1.0])))


def test_zero_gradient_function():
    # f ignores x entirely: analytic grad is zero (no record), numeric too
    const = Tensor(np.asarray(4.0))
    err = grad_check(lambda x: ops.mul(const, const), Tensor(np.array([1.0, 2.0])))
    assert err <= 1e-10


def test_suite_covers_all_primitives_and_passes():
    results = run_suite(seed=0, n_points=2)
    names = {name.split(".")[0] for name, _ in results}
    # one entry per differentiable op family, plus composite checks
    for expected in [
        "elementwise(add,mul,scale,silu)", "linear", "matmul", "softmax",
        "conv2d", "conv2d(stride=2)", "group_norm", "group_norm_silu_conv2d", "self_attention",
        "upsample_nearest2x", "upsample_nearest2x_conv2d", "embed_rows", "crop_cols", "reshape+permute",
        "convnet2", "simple_loss",
    ]:
        assert expected in names, f"suite missing {expected}"
    worst = max(err for _, err in results)
    assert worst <= DEFAULT_TOLERANCE, f"worst suite error {worst}"


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
def test_step_must_be_finite_and_positive(step):
    with pytest.raises(ConfigError, match=rf"grad_check: step must be in \(0, inf\), got {step}"):
        grad_check(lambda x: ops.sum_all(ops.mul(x, x)), Tensor(np.array([1.0])), step=step)


def test_suite_rejects_negative_seed():
    with pytest.raises(ConfigError, match=r"gradcheck seed must be in \[0, inf\), got -1"):
        run_suite(seed=-1)


def test_suite_seeds_vary_points():
    r0 = dict(run_suite(seed=0, n_points=1))
    r1 = dict(run_suite(seed=1, n_points=1))
    assert r0.keys() == r1.keys()
    assert any(abs(r0[k] - r1[k]) > 0 for k in r0)  # different points, different errors
