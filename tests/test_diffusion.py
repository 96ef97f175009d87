"""Schedule math, forward noising, losses, ancestral and DDIM samplers."""

import dataclasses

import numpy as np
import pytest

from resolab.diffusion import (
    DESK_BETA_END,
    DESK_BETA_START,
    DESK_TIMESTEPS,
    DiffusionSchedule,
    SamplerConfig,
    _ddim_update,
    cfg_predict,
    ddim_denoise,
    ddim_sample,
    ddim_timesteps,
    ddpm_step,
    forward_marginal,
    simple_loss,
)
from resolab import ops
from resolab.errors import ConfigError, NumericError, ShapeError
from resolab.tensor import Tape, Tensor
from resolab.unet import UNetConfig, build_unet, unet_forward


# beta [0.1, 0.2] -> alpha [0.9, 0.8], abar [0.9, 0.72]; easy hand math
TINY = DiffusionSchedule(2, 0.1, 0.2)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_defaults_and_endpoints():
    s = DiffusionSchedule()
    assert s.timesteps == DESK_TIMESTEPS == 50
    assert s.beta[0] == DESK_BETA_START == 1e-3
    assert s.beta[-1] == DESK_BETA_END == 5e-2
    assert np.all(np.diff(s.beta) > 0)
    np.testing.assert_array_equal(s.alpha, 1.0 - s.beta)
    np.testing.assert_array_equal(s.sigma, np.sqrt(s.beta))


def test_alpha_bar_recurrence_is_exact():
    # abar_t == abar_{t-1} * alpha_t with zero tolerance (sequential product)
    s = DiffusionSchedule(50, 1e-3, 5e-2)
    for t in range(2, s.timesteps + 1):
        assert s.alpha_bar_at(t) == s.alpha_bar_at(t - 1) * s.alpha_at(t)
    assert s.alpha_bar_at(1) == s.alpha_at(1)


def test_one_based_accessors_and_bounds():
    s = TINY
    assert s.beta_at(1) == 0.1 and s.beta_at(2) == 0.2
    assert s.alpha_bar_at(2) == pytest.approx(0.72, abs=1e-15)
    for bad in (0, 3, -1):
        with pytest.raises(ConfigError):
            s.beta_at(bad)


def test_schedule_is_its_three_scalars():
    assert DiffusionSchedule() == DiffusionSchedule()
    assert hash(DiffusionSchedule()) == hash(DiffusionSchedule())
    assert DiffusionSchedule(10) != DiffusionSchedule(11)
    assert dataclasses.asdict(TINY) == {"timesteps": 2, "beta_start": 0.1, "beta_end": 0.2}
    np.testing.assert_array_equal(TINY.beta, [0.1, 0.2])


def test_schedule_validation():
    with pytest.raises(ConfigError):
        DiffusionSchedule(0)
    with pytest.raises(ConfigError):
        DiffusionSchedule(10, 0.0, 0.1)
    with pytest.raises(ConfigError):
        DiffusionSchedule(10, 0.2, 0.1)
    with pytest.raises(ConfigError):
        DiffusionSchedule(10, 0.5, 1.0)
    one = DiffusionSchedule(1, 0.01, 0.01)
    assert one.beta.shape == (1,)


# ---------------------------------------------------------------------------
# forward marginal and loss


def test_forward_marginal_hand_value():
    # abar=0.72, x0=1, eps=0.5: sqrt(.72) + sqrt(.28)*0.5 = 1.1131033 [DERIVED]
    s = TINY
    x0 = Tensor(np.ones((1, 1, 1, 1)))
    eps = Tensor(np.full((1, 1, 1, 1), 0.5))
    x_t = forward_marginal(x0, 2, eps, s)
    assert x_t.item() == pytest.approx(1.1131033, abs=1e-6)
    # independent recomputation at full precision
    assert x_t.item() == pytest.approx(np.sqrt(0.72) + np.sqrt(0.28) * 0.5, abs=1e-15)


def test_forward_marginal_refuses_an_empty_batch():
    # the timestep range check used to meet numpy's min() of an empty array
    x0 = Tensor(np.zeros((0, 1, 2, 2)))
    with pytest.raises(ShapeError, match="t: the batch is empty"):
        forward_marginal(x0, 1, x0, TINY)


@pytest.mark.parametrize("t", [1.7, 2.0, "2", True, None],
                         ids=["float", "integral_float", "string", "bool", "none"])
def test_schedule_lookups_refuse_a_non_integer_timestep(t):
    # alpha_bar_at(1.7) used to read alpha_bar_at(1): the rule of unet_forward's t
    with pytest.raises(ConfigError, match="^t must hold integers"):
        TINY.alpha_bar_at(t)
    assert TINY.alpha_bar_at(np.int64(2)) == TINY.alpha_bar_at(2)


def test_forward_marginal_per_sample_t_and_grads():
    s = DiffusionSchedule(10, 1e-3, 5e-2)
    rng = np.random.default_rng(0)
    x0 = Tensor(rng.standard_normal((3, 1, 2, 2)), requires_grad=True)
    eps = Tensor(rng.standard_normal((3, 1, 2, 2)), requires_grad=True)
    t = np.array([1, 5, 10])
    with Tape() as tape:
        out = forward_marginal(x0, t, eps, s)
        tape.backward(ops.sum_all(out))
    for i, ti in enumerate(t):
        ab = s.alpha_bar_at(int(ti))
        np.testing.assert_allclose(x0.grad[i], np.sqrt(ab), rtol=0, atol=1e-15)
        np.testing.assert_allclose(eps.grad[i], np.sqrt(1 - ab), rtol=0, atol=1e-15)
    with pytest.raises(ConfigError):
        forward_marginal(x0, [1, 5, 11], eps, s)
    with pytest.raises(ShapeError):
        forward_marginal(x0, [1, 5], eps, s)


def test_simple_loss_zero_predictor():
    # zero predictor, eps = [1, -1] -> loss = mean of squares = 1.0 [DERIVED]
    s = TINY

    def zero_forward(model, x, t, c, params=None):
        return Tensor(np.zeros(x.shape))

    x0 = Tensor(np.zeros((2, 1, 1, 1)))
    eps = Tensor(np.array([1.0, -1.0]).reshape(2, 1, 1, 1))
    loss = simple_loss(None, x0, [1, 2], eps, None, s, forward=zero_forward)
    assert loss.item() == 1.0


def test_simple_loss_perfect_predictor_is_zero():
    s = TINY
    rng = np.random.default_rng(1)
    eps_true = rng.standard_normal((4, 1, 3, 3))

    def oracle_forward(model, x, t, c, params=None):
        return Tensor(eps_true)

    loss = simple_loss(None, Tensor(rng.standard_normal((4, 1, 3, 3))), 2,
                       Tensor(eps_true), None, s, forward=oracle_forward)
    assert loss.item() == 0.0


# ---------------------------------------------------------------------------
# ancestral step


def test_ddpm_step_hand_value():
    # alpha=0.8, beta=0.2, abar=0.72, x=1, eps_hat=0.5 -> mu = 0.9067 [DERIVED]
    s = TINY
    x = Tensor(np.ones((1, 1, 1, 1)))
    eps_hat = Tensor(np.full((1, 1, 1, 1), 0.5))
    z = Tensor(np.zeros((1, 1, 1, 1)))
    out = ddpm_step(x, 2, eps_hat, s, noise=z)
    assert out.item() == pytest.approx(0.9067, abs=1e-4)
    mu = (1.0 - (0.2 / np.sqrt(0.28)) * 0.5) / np.sqrt(0.8)
    assert out.item() == pytest.approx(mu, abs=1e-15)


def test_ddpm_step_noise_handling():
    s = TINY
    x = Tensor(np.ones((1, 1, 1, 1)))
    eh = Tensor(np.zeros((1, 1, 1, 1)))
    # t=1: no noise term, argument ignored-by-omission
    out1 = ddpm_step(x, 1, eh, s)
    assert out1.item() == pytest.approx(1.0 / np.sqrt(0.9), abs=1e-15)
    with pytest.raises(ConfigError):
        ddpm_step(x, 2, eh, s)  # t>1 must supply noise
    z = Tensor(np.full((1, 1, 1, 1), 2.0))
    out2 = ddpm_step(x, 2, eh, s, noise=z)
    assert out2.item() == pytest.approx(1.0 / np.sqrt(0.8) + np.sqrt(0.2) * 2.0, abs=1e-15)
    with pytest.raises(ShapeError):
        ddpm_step(x, 2, Tensor(np.zeros((2, 1, 1, 1))), s, noise=z)


# ---------------------------------------------------------------------------
# guidance


class _RecordingForward:
    """Injectable forward that returns class-keyed constants and logs calls."""

    def __init__(self, null_id):
        self.null_id = null_id
        self.calls = []
        self.ts = []
        self.batches = []

    def __call__(self, model, x, t, c, params=None):
        ids = np.asarray(c)
        self.calls.append(ids.copy())
        self.ts.append(np.asarray(t).copy())
        self.batches.append(x.shape[0])
        vals = np.where(ids == self.null_id, 10.0, 2.0)
        return Tensor(np.broadcast_to(vals.reshape(-1, 1, 1, 1), x.shape).copy())


def _cond_model():
    return build_unet(UNetConfig(base_channels=4, groups=4, time_embed_dim=8,
                                 num_classes=2, num_res_blocks_per_level=1), seed=0)


def test_cfg_predict_w1_is_single_conditional_pass():
    model = _cond_model()
    fwd = _RecordingForward(null_id=2)
    x = Tensor(np.zeros((2, 1, 4, 4)))
    out = cfg_predict(model, x, 1, [0, 1], 1.0, forward=fwd)
    assert len(fwd.calls) == 1  # no unconditional pass
    assert (out.data == 2.0).all()


def test_cfg_predict_w0_is_unconditional_pass():
    model = _cond_model()
    fwd = _RecordingForward(null_id=2)
    out = cfg_predict(model, Tensor(np.zeros((1, 1, 4, 4))), 1, [0], 0.0, forward=fwd)
    assert len(fwd.calls) == 1
    np.testing.assert_array_equal(fwd.calls[0], [2])  # null token pass
    assert (out.data == 10.0).all()


def test_cfg_predict_linear_combination():
    # eps_u + w (eps_c - eps_u) = 10 + 7.5 (2 - 10) = -50 [DERIVED]
    model = _cond_model()
    fwd = _RecordingForward(null_id=2)
    out = cfg_predict(model, Tensor(np.zeros((1, 1, 4, 4))), 1, [1], 7.5, forward=fwd)
    assert len(fwd.calls) == 1  # one 2N forward: null rows first, then the class rows
    np.testing.assert_array_equal(fwd.calls[0], [2, 1])
    np.testing.assert_allclose(out.data, -50.0, rtol=0, atol=1e-12)


def test_cfg_predict_doubles_t_vector_and_broadcasts_scalar_class():
    model = _cond_model()
    fwd = _RecordingForward(null_id=2)
    out = cfg_predict(model, Tensor(np.zeros((2, 1, 4, 4))), np.array([3, 5]), 1, 7.5,
                      forward=fwd)
    assert len(fwd.calls) == 1 and fwd.batches == [4]
    np.testing.assert_array_equal(fwd.calls[0], [2, 2, 1, 1])
    np.testing.assert_array_equal(fwd.ts[0], [3, 5, 3, 5])
    assert out.shape == (2, 1, 4, 4)
    np.testing.assert_allclose(out.data, -50.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("w", [0.0, 1.0])
def test_cfg_predict_unguided_scales_make_one_undoubled_pass(w):
    model = _cond_model()
    fwd = _RecordingForward(null_id=2)
    cfg_predict(model, Tensor(np.zeros((3, 1, 4, 4))), np.array([1, 2, 3]), [0, 1, 0], w,
                forward=fwd)
    assert fwd.batches == [3]
    np.testing.assert_array_equal(fwd.ts[0], [1, 2, 3])


def test_cfg_predict_guided_pass_rejects_bad_class_ids():
    model = _cond_model()
    x = Tensor(np.zeros((2, 1, 4, 4)))
    with pytest.raises(ConfigError, match="class ids required"):
        cfg_predict(model, x, 1, None, 7.5)
    with pytest.raises(ShapeError, match="length-2 vector"):
        cfg_predict(model, x, 1, [0, 1, 0], 7.5)


@pytest.mark.parametrize("w", [0.0, 1.0, 7.5])
@pytest.mark.parametrize("c", [2, [0, 2], [-1, 0]])
def test_cfg_predict_rejects_ids_outside_the_model_classes(c, w):
    # id 2 is _cond_model's null token: as a condition it used to give an unconditional sample
    fwd = _RecordingForward(null_id=2)
    with pytest.raises(ConfigError, match=r"class id (2|-1) outside the model's classes \[0, 2\)"):
        cfg_predict(_cond_model(), Tensor(np.zeros((2, 1, 4, 4))), 1, c, w, forward=fwd)
    assert fwd.calls == []


@pytest.mark.parametrize("w", [0.0, 1.0, 7.5])
def test_cfg_predict_refuses_an_empty_batch(w):
    with pytest.raises(ShapeError, match="c: the batch is empty"):
        cfg_predict(_cond_model(), Tensor(np.zeros((0, 1, 4, 4))), 1, [], w)


def test_batched_cfg_predict_matches_two_pass_reference():
    model = _cond_model()
    rng = np.random.default_rng(21)
    model.params["out.conv.weight"].data += 0.3 * rng.standard_normal(
        model.params["out.conv.weight"].shape)
    x = Tensor(rng.standard_normal((2, 1, 8, 8)))
    t, c, w = np.array([4, 9]), np.array([0, 1]), 7.5
    # the two-pass formula: separate unconditional and conditional forwards
    eps_u = unet_forward(model, x, t, np.full(2, model.config.null_class))
    eps_c = unet_forward(model, x, t, c)
    reference = eps_u.data + w * (eps_c.data - eps_u.data)
    out = cfg_predict(model, x, t, c, w)
    assert np.abs(reference).max() > 0.1
    np.testing.assert_allclose(out.data, reference, rtol=0, atol=1e-12)


def test_cfg_predict_needs_null_class_only_when_guiding():
    cfg = UNetConfig(base_channels=4, groups=4, time_embed_dim=8, num_classes=2,
                     num_res_blocks_per_level=1, null_class_reserved=False)
    model = build_unet(cfg, seed=0)
    x = Tensor(np.zeros((1, 1, 4, 4)))
    out = cfg_predict(model, x, 1, [0], 1.0)  # fine: pure conditional
    assert out.shape == x.shape
    with pytest.raises(ConfigError, match="null"):
        cfg_predict(model, x, 1, [0], 7.5)


# ---------------------------------------------------------------------------
# DDIM


def test_ddim_timesteps_spacing():
    ts = ddim_timesteps(50, 25)
    assert len(ts) == 25 and ts[0] == 50 and ts[-1] == 1
    assert all(a > b for a, b in zip(ts, ts[1:]))  # strictly decreasing
    assert ddim_timesteps(50, 50) == list(range(50, 0, -1))
    assert ddim_timesteps(50, 1) == [50]
    with pytest.raises(ConfigError):
        ddim_timesteps(50, 51)
    with pytest.raises(ConfigError):
        ddim_timesteps(50, 0)


def test_single_step_ddim_is_clipped_x0_estimate():
    # steps=1: out = clip(x0_hat, -1, 1) with abar_prev = 1 [DERIVED]
    s = DiffusionSchedule(10, 1e-3, 5e-2)
    x = np.array([[[[3.0]]], [[[0.1]]], [[[-4.0]]]])
    out = ddim_denoise(x.copy(), lambda arr, t: np.zeros_like(arr), s, 1, 0.0,
                       np.random.default_rng(0))
    ab = s.alpha_bar_at(10)
    expect = np.clip(x / np.sqrt(ab), -1.0, 1.0)
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-15)
    assert out[0, 0, 0, 0] == 1.0 and out[2, 0, 0, 0] == -1.0  # clamp engaged


def test_ddim_rejects_nonfinite_prediction():
    s = DiffusionSchedule(10, 1e-3, 5e-2)
    with pytest.raises(NumericError):
        ddim_denoise(np.zeros((1, 1, 1, 1)), lambda a, t: np.full_like(a, np.nan),
                     s, 2, 0.0, np.random.default_rng(0))


def test_ddim_sample_deterministic_and_seed_sensitive():
    model = _cond_model()
    model.params["out.conv.weight"].data[:] = 0.1
    s = DiffusionSchedule(10, 1e-3, 5e-2)
    cfg = SamplerConfig(steps=5, guidance_scale=1.0, eta=0.0, seed=4)
    a = ddim_sample(model, (1, 1, 8, 8), cfg, [0], s)
    b = ddim_sample(model, (1, 1, 8, 8), cfg, [0], s)
    assert (a.data == b.data).all()
    c = ddim_sample(model, (1, 1, 8, 8), SamplerConfig(steps=5, guidance_scale=1.0,
                                                       eta=0.0, seed=5), [0], s)
    assert (a.data != c.data).any()


def test_sampler_config_validation():
    SamplerConfig()
    with pytest.raises(ConfigError):
        SamplerConfig(steps=0)
    with pytest.raises(ConfigError):
        SamplerConfig(eta=1.5)
    with pytest.raises(ConfigError):
        SamplerConfig(guidance_scale=-1.0)


# ---------------------------------------------------------------------------
# eta=1 full-sequence DDIM vs the ancestral chain
#
# For any prediction, the eta=1 update from t to t-1 has exactly the
# ancestral posterior mean, and its noise scale is the posterior std
# sqrt(beta_t (1-abar_{t-1})/(1-abar_t)) -- smaller than this codebase's
# ancestral sigma_t = sqrt(beta_t). So the two samplers share every mean map
# (verified exactly below) and coincide in distribution with the
# posterior-variance ancestral convention (verified statistically), while a
# sqrt(beta)-noise chain is wider at every step.


def test_ddim_eta1_mean_map_equals_ancestral_mean_exactly():
    s = DiffusionSchedule(20, 1e-3, 5e-2)
    x = np.linspace(-0.2, 0.2, 4).reshape(4, 1, 1, 1)
    eps_hat = np.linspace(0.15, -0.1, 4).reshape(4, 1, 1, 1)
    for t in range(2, 21):
        ab_t = s.alpha_bar_at(t)
        x0_hat = (x - np.sqrt(1 - ab_t) * eps_hat) / np.sqrt(ab_t)
        assert np.abs(x0_hat).max() < 1.0  # clamp inactive, identity is clean
        ddim_mean = _ddim_update(x, t, t - 1, eps_hat, s, eta=1.0, z=None)
        anc_mean = ddpm_step(Tensor(x), t, Tensor(eps_hat), s,
                             noise=Tensor(np.zeros_like(x))).data
        np.testing.assert_allclose(ddim_mean, anc_mean, rtol=0, atol=1e-12)


def test_ddim_eta1_noise_scale_is_posterior_std():
    s = DiffusionSchedule(20, 1e-3, 5e-2)
    for t in range(2, 21):
        ab_t, ab_prev = s.alpha_bar_at(t), s.alpha_bar_at(t - 1)
        sigma = 1.0 * np.sqrt((1 - ab_prev) / (1 - ab_t)) * np.sqrt(1 - ab_t / ab_prev)
        posterior = np.sqrt(s.beta_at(t) * (1 - ab_prev) / (1 - ab_t))
        assert sigma == pytest.approx(posterior, abs=1e-15)
        assert sigma < s.sigma_at(t)  # strictly narrower than sqrt(beta)


def test_ddim_eta1_matches_posterior_chain_moments():
    # 1-pixel linear predictor eps_hat = (1-c) x / sqrt(1-abar_t): every step
    # is x' = B_t x + s_t z, so the exact mean/variance recursion is available
    # in closed form and serves as the oracle for >=1000 simulated chains.
    s = DiffusionSchedule(20, 1e-3, 5e-2)
    T, c = s.timesteps, 0.1
    n_chains = 4000

    def mean_map(t):
        return (1 - s.beta_at(t) * (1 - c) / (1 - s.alpha_bar_at(t))) / np.sqrt(s.alpha_at(t))

    def chain_var(noise_scale_at):
        m2 = 1.0  # x_T ~ N(0, 1)
        for t in range(T, 0, -1):
            m2 = mean_map(t) ** 2 * m2 + noise_scale_at(t) ** 2
        return m2

    def posterior_std(t):
        if t <= 1:
            return 0.0
        ab_t, ab_prev = s.alpha_bar_at(t), s.alpha_bar_at(t - 1)
        return np.sqrt(s.beta_at(t) * (1 - ab_prev) / (1 - ab_t))

    v_posterior = chain_var(posterior_std)
    v_sqrtbeta = chain_var(lambda t: 0.0 if t <= 1 else s.sigma_at(t))
    assert v_posterior < v_sqrtbeta  # the two ancestral conventions differ

    rng = np.random.default_rng(42)
    x = rng.standard_normal((n_chains, 1, 1, 1))

    def predict(arr, t):
        return (1 - c) * arr / np.sqrt(1 - s.alpha_bar_at(t))

    out = ddim_denoise(x, predict, s, steps=T, eta=1.0, rng=rng).ravel()
    assert abs(out.mean()) < 5 * np.sqrt(v_posterior / n_chains)
    assert out.var() == pytest.approx(v_posterior, rel=0.15)
    # and the sqrt(beta) ancestral chain matches *its* oracle, not the ddim one
    rng2 = np.random.default_rng(43)
    xa = Tensor(rng2.standard_normal((n_chains, 1, 1, 1)))
    for t in range(T, 0, -1):
        eps_hat = Tensor(predict(xa.data, t))
        noise = Tensor(rng2.standard_normal(xa.shape)) if t > 1 else None
        xa = ddpm_step(xa, t, eps_hat, s, noise=noise)
    anc = xa.data.ravel()
    assert anc.var() == pytest.approx(v_sqrtbeta, rel=0.15)
    assert out.var() < anc.var()
