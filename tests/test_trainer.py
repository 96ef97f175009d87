"""Bucket sampling, batching, AdamW, and the training loop of both phases."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from resolab import trainer
from resolab.adapters import attach_resadapter
from resolab.data import SyntheticDataset
from resolab.diffusion import DiffusionSchedule
from resolab.errors import ConfigError, NumericError
from resolab.tensor import Tensor
from resolab.trainer import (
    AdamW,
    TrainPlan,
    TraceRecord,
    TrainTrace,
    check_fit,
    make_batch,
    resolution_probs,
    sample_resolution,
    train_adapter,
    train_base,
)
from resolab.unet import UNetConfig, build_unet

TINY = UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                  num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                  num_classes=2)


def tiny_setup(seed=0):
    model = build_unet(TINY, seed=seed)
    dataset = SyntheticDataset("checkers", 2, 1)
    schedule = DiffusionSchedule(10, 1e-3, 5e-2)
    return model, dataset, schedule


# ---------------------------------------------------------------------------
# p(x) and bucket draws


def test_resolution_probs_reference_values():
    # |x-512|^2 over {128,256,384,768,1024} reduces to {9,4,1,4,16}/34
    probs = resolution_probs([128, 256, 384, 768, 1024], 512)
    expect = np.array([9, 4, 1, 4, 16]) / 34.0
    np.testing.assert_allclose(probs, expect, rtol=0, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_resolution_probs_edge_cases():
    np.testing.assert_allclose(resolution_probs([384, 640], 512), [0.5, 0.5], atol=1e-15)
    in_set = resolution_probs([256, 512, 768], 512)
    assert in_set[1] == 0.0  # the standard size draws zero weight
    with pytest.raises(ConfigError, match="degenerate"):
        resolution_probs([512, 512], 512)
    with pytest.raises(ConfigError):
        resolution_probs([], 512)


def test_sample_resolution_cdf_walk():
    probs = [0.5, 0.5]
    assert sample_resolution(probs, 0.0) == 0
    assert sample_resolution(probs, 0.3) == 0
    assert sample_resolution(probs, 0.4999999) == 0
    assert sample_resolution(probs, 0.5) == 1  # boundary goes right (strict >)
    assert sample_resolution([1.0], 0.97) == 0
    for bad in (-0.001, 1.0, 1.5):
        with pytest.raises(ConfigError):
            sample_resolution(probs, bad)
    # rounding tail guard: cumulative sum may land just below 1.0
    assert sample_resolution([0.3, 0.7 - 1e-12], 1.0 - 1e-13) == 1


def test_empirical_frequencies_match_probs():
    probs = resolution_probs([128, 256, 384, 768, 1024], 512)
    rng = np.random.default_rng(2024)
    draws = np.array([sample_resolution(probs, rng.random()) for _ in range(10_000)])
    freqs = np.bincount(draws, minlength=5) / 10_000.0
    np.testing.assert_allclose(freqs, probs, rtol=0, atol=0.02)


def test_train_plan_probs_and_buckets():
    plan = TrainPlan(resolutions=((8, 8), (12, 12), (24, 24), (32, 32)),
                     standard_resolution=16, steps=1, phase="adapter")
    np.testing.assert_allclose(plan.probs, [0.16, 0.04, 0.16, 0.64], atol=1e-15)
    assert plan.extrapolation_buckets() == [(24, 24), (32, 32)]
    single = TrainPlan(resolutions=((16, 16),), standard_resolution=16, steps=1, phase="base")
    np.testing.assert_array_equal(single.probs, [1.0])
    assert single.extrapolation_buckets() == []


def test_train_plan_validation():
    with pytest.raises(ConfigError, match="phase"):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="warmup")
    with pytest.raises(ConfigError):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=-1, phase="base")
    with pytest.raises(ConfigError):
        TrainPlan(resolutions=(), standard_resolution=16, steps=1, phase="base")
    with pytest.raises(ConfigError):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="base",
                  p_uncond=1.0)
    with pytest.raises(ConfigError):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="base",
                  weight_decay=-0.01)
    with pytest.raises(ConfigError, match="degenerate"):
        TrainPlan(resolutions=((16, 16), (16, 16)), standard_resolution=16, steps=1,
                  phase="adapter")
    with pytest.raises(ConfigError, match="lr must be finite and >= 0, got nan"):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="base",
                  lr=float("nan"))
    with pytest.raises(ConfigError, match=r"adam_beta2 must lie in \[0, 1\), got 1.0"):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="base",
                  adam_beta2=1.0)
    with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="base",
                  batch_size=0)
    with pytest.raises(ConfigError, match=r"bucket sides must be >= 1, got \(0, 8\)"):
        TrainPlan(resolutions=((0, 8), (24, 24)), standard_resolution=16, steps=1,
                  phase="adapter")


# ---------------------------------------------------------------------------
# batches


def test_train_plan_is_frozen_so_the_checked_plan_is_the_one_that_runs():
    plan = TrainPlan(resolutions=((8, 8), (12, 12), (24, 24), (32, 32)),
                     standard_resolution=16, steps=1, phase="adapter")
    with pytest.raises(FrozenInstanceError):
        plan.resolutions = ((8, 8), (24, 24))  # used to leave probs stale: IndexError at step 1
    shorter = replace(plan, resolutions=((8, 8), (24, 24)))
    np.testing.assert_allclose(shorter.probs, [0.5, 0.5])
    assert plan == replace(plan) and hash(plan) == hash(replace(plan))  # probs not compared
    assert plan != shorter


def test_train_plan_rejects_negative_seed():
    with pytest.raises(ConfigError, match="plan seed must be >= 0, got -1"):
        TrainPlan(resolutions=((8, 8),), standard_resolution=16, steps=1, phase="base", seed=-1)


def test_make_batch_shape_and_range():
    ds = SyntheticDataset("checkers", 4, 1)
    x, labels = make_batch(ds, (16, 24), 3, np.random.default_rng(0))
    assert x.shape == (3, 1, 16, 24)
    assert labels.shape == (3,) and labels.min() >= 0 and labels.max() < 4
    assert x.data.min() >= -1.0 and x.data.max() <= 1.0


def test_make_batch_deterministic():
    ds = SyntheticDataset("discs", 4, 1)
    x1, l1 = make_batch(ds, (8, 8), 4, np.random.default_rng(3))
    x2, l2 = make_batch(ds, (8, 8), 4, np.random.default_rng(3))
    np.testing.assert_array_equal(x1.data, x2.data)
    np.testing.assert_array_equal(l1, l2)


def test_make_batch_label_dropout():
    ds = SyntheticDataset("checkers", 4, 1)
    rng = np.random.default_rng(9)
    dropped = 0
    n, batch = 200, 8
    for _ in range(n):
        _, labels = make_batch(ds, (8, 8), batch, rng, p_uncond=0.25, null_class=4)
        assert set(labels) <= {0, 1, 2, 3, 4}
        dropped += int((labels == 4).sum())
    assert abs(dropped / (n * batch) - 0.25) < 0.03
    with pytest.raises(ConfigError, match="null"):
        make_batch(ds, (8, 8), 2, rng, p_uncond=0.5, null_class=None)
    with pytest.raises(ConfigError):
        make_batch(ds, (8, 8), 0, rng)


# ---------------------------------------------------------------------------
# traces


def test_trace_record_line_format():
    rec = TraceRecord(step=17, bucket=(24, 32), phase="adapter", loss=0.123456789123)
    assert rec.line() == "17 24x32 adapter 0.123456789"
    assert TraceRecord(1, (8, 8), "base", 2.0).line() == "1 8x8 base 2"


def test_trace_lines_and_write(tmp_path):
    trace = TrainTrace()
    trace.notes.append("something to know")
    trace.add(1, (8, 8), "base", 1.5)
    trace.add(2, (16, 16), "base", 0.75)
    assert trace.lines() == ["# something to know", "1 8x8 base 1.5", "2 16x16 base 0.75"]
    path = tmp_path / "trace.txt"
    trace.write(path)
    assert path.read_text() == "# something to know\n1 8x8 base 1.5\n2 16x16 base 0.75\n"


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_first_step_hand_value():
    # m-hat = g, v-hat = g^2 on step 1, so the update is lr * g/(|g| + eps)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    opt = AdamW({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step()
    expect = np.array([1.0, -2.0]) - 0.1 * np.array([0.5 / (0.5 + 1e-8), -0.25 / (0.25 + 1e-8)])
    np.testing.assert_allclose(p.data, expect, rtol=0, atol=1e-15)


def test_adamw_weight_decay_is_decoupled():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    # zero gradient: the only movement is -lr * wd * p
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-15)


def test_adamw_skips_unselected_and_gradless():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"a": a, "b": b}, lr=0.1)
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt.step(names=["a"])
    assert opt.counts == {"a": 1, "b": 0}
    np.testing.assert_array_equal(b.data, [1.0])
    opt.zero_grad()
    assert a.grad is None and b.grad is None
    opt.step()  # all grads cleared: counts must not advance
    assert opt.counts == {"a": 1, "b": 0}


# ---------------------------------------------------------------------------
# base training loop


def test_train_base_reduces_loss_and_is_deterministic():
    model, ds, sched = tiny_setup()
    plan = TrainPlan(resolutions=((8, 8),), standard_resolution=8, steps=200,
                     phase="base", batch_size=4, lr=3e-3, seed=1)
    trace = train_base(model, plan, ds, sched)
    losses = np.array([r.loss for r in trace.records])
    assert losses.size == 200
    assert losses[-20:].mean() < losses[:20].mean()
    model2, _, _ = tiny_setup()
    trace2 = train_base(model2, plan, ds, sched)
    assert [r.line() for r in trace.records] == [r.line() for r in trace2.records]
    for name in model.params:
        np.testing.assert_array_equal(model.params[name].data, model2.params[name].data)


def test_train_base_lr_zero_changes_nothing():
    model, ds, sched = tiny_setup()
    before = {k: v.data.copy() for k, v in model.params.items()}
    plan = TrainPlan(resolutions=((8, 8),), standard_resolution=8, steps=5,
                     phase="base", batch_size=2, lr=0.0, seed=0)
    train_base(model, plan, ds, sched)
    for name, arr in before.items():
        np.testing.assert_array_equal(model.params[name].data, arr)


def test_train_base_rejects_adapter_plan_and_frozen_model():
    model, ds, sched = tiny_setup()
    plan = TrainPlan(resolutions=((8, 8), (24, 24)), standard_resolution=16, steps=1,
                     phase="adapter", batch_size=2)
    with pytest.raises(ConfigError, match="base"):
        train_base(model, plan, ds, sched)
    attach_resadapter(model, rank=2)
    base_plan = TrainPlan(resolutions=((8, 8),), standard_resolution=8, steps=1,
                          phase="base", batch_size=2)
    with pytest.raises(ConfigError, match="trainable"):
        train_base(model, base_plan, ds, sched)


def test_train_base_bucket_divisibility():
    model, ds, sched = tiny_setup()
    plan = TrainPlan(resolutions=((10, 15),), standard_resolution=10, steps=1,
                     phase="base", batch_size=2)
    with pytest.raises(ConfigError, match="divis"):
        train_base(model, plan, ds, sched)


DESK = UNetConfig()  # 4 classes, null token 4, spatial divisor 2
DESK_PLAN = dict(standard_resolution=16, steps=2, batch_size=2)


@pytest.mark.parametrize("dataset,buckets,p_uncond,message", [
    (SyntheticDataset("gradients", 4, 2), (), 0.0,
     r"data.channels \(2\) must equal model.in_channels \(1\)"),
    (SyntheticDataset("gradients", 5), (), 0.0,
     r"data.num_classes \(5\) must not exceed model.num_classes \(4\)"),
    (SyntheticDataset("gradients", 4), ((16, 16), (8, 6), (15, 16)), 0.0,
     "bucket 15x16 not divisible by the model's spatial divisor 2"),
], ids=["channels", "classes", "divisor"])
def test_check_fit_rules(dataset, buckets, p_uncond, message):
    with pytest.raises(ConfigError, match=message):
        check_fit(DESK, dataset, buckets, p_uncond)


def test_check_fit_null_class_rule():
    ds = SyntheticDataset("gradients", 4)
    check_fit(DESK, ds, ((16, 16),), 0.1)
    for config in (UNetConfig(num_classes=0), UNetConfig(null_class_reserved=False)):
        check_fit(config, ds, ((16, 16),), 0.0)
        with pytest.raises(ConfigError, match="p_uncond 0.1 > 0 needs a model that reserves"):
            check_fit(config, ds, ((16, 16),), 0.1)


def _no_batch(*args, **kwargs):
    raise AssertionError("a batch was drawn before the run's parts were checked")


@pytest.mark.parametrize("phase", ["base", "adapter"])
def test_five_data_classes_on_the_four_class_model_fail_before_any_step(phase, monkeypatch):
    # class 4 would be the null token: this used to train and return losses
    model = build_unet(DESK, seed=0)
    ds, sched = SyntheticDataset("gradients", 5), DiffusionSchedule()
    monkeypatch.setattr(trainer, "draw_batch", _no_batch)
    with pytest.raises(ConfigError, match=r"data.num_classes \(5\) must not exceed"):
        if phase == "base":
            train_base(model, TrainPlan(((16, 16),), phase="base", **DESK_PLAN), ds, sched)
        else:
            bundle = attach_resadapter(model, rank=2, seed=1)
            train_adapter(model, bundle, TrainPlan(((8, 8), (32, 32)), phase="adapter",
                                                   **DESK_PLAN), ds, sched)


def test_label_dropout_on_a_model_without_null_class_fails_before_any_step(monkeypatch):
    model = build_unet(UNetConfig(num_classes=0), seed=0)
    monkeypatch.setattr(trainer, "draw_batch", _no_batch)
    with pytest.raises(ConfigError, match="needs a model that reserves a null class"):
        train_base(model, TrainPlan(((16, 16),), phase="base", p_uncond=0.1, **DESK_PLAN),
                   SyntheticDataset("gradients", 4), DiffusionSchedule())


def test_train_base_divergence_aborts_with_step_index():
    # normalization plus Adam keep honest runs finite, so emulate a blowup by
    # corrupting the output bias; squaring 1e200 overflows the loss to inf
    # downstream of every op-level finiteness guard
    model, ds, sched = tiny_setup()
    model.params["out.conv.bias"].data[:] = 1e200
    plan = TrainPlan(resolutions=((8, 8),), standard_resolution=8, steps=3,
                     phase="base", batch_size=2, lr=1e-3, seed=0)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="step 1"):
        train_base(model, plan, ds, sched)


# ---------------------------------------------------------------------------
# adapter training loop


def adapter_run(steps=40, resolutions=((8, 8), (12, 12), (24, 24), (32, 32)), seed=0,
                lr=1e-3):
    model, ds, sched = tiny_setup()
    warm = TrainPlan(resolutions=((16, 16),), standard_resolution=16, steps=20,
                     phase="base", batch_size=2, lr=1e-3, seed=seed)
    train_base(model, warm, ds, sched)
    bundle = attach_resadapter(model, rank=2, seed=seed)
    plan = TrainPlan(resolutions=resolutions, standard_resolution=16, steps=steps,
                     phase="adapter", batch_size=2, lr=lr, seed=seed)
    trace = train_adapter(model, bundle, plan, ds, sched)
    return model, bundle, trace


def test_adapter_gating_counts_match_extrapolation_steps():
    model, bundle, trace = adapter_run(steps=60)
    extrap = sum(1 for r in trace.records if max(r.bucket) > 16)
    assert 0 < extrap < 60
    for name, count in trace.meta["norm_delta_update_steps"].items():
        assert count == extrap, name
    for name, count in trace.meta["lora_update_steps"].items():
        assert count == 60, name


def test_adapter_interpolation_only_leaves_deltas_zero():
    model, bundle, trace = adapter_run(steps=30, resolutions=((8, 8), (12, 12)))
    assert any("no extrapolation bucket" in n for n in trace.notes)
    for name, t in bundle.tensors.items():
        if ".delta." in name:
            np.testing.assert_array_equal(t.data, 0.0, err_msg=name)
    # the low-rank pairs still trained
    assert any(np.abs(t.data).max() > 0 for n, t in bundle.tensors.items() if n.endswith(".lora.B"))


def test_adapter_training_freezes_base_bitwise():
    model, ds, sched = tiny_setup()
    warm = TrainPlan(resolutions=((16, 16),), standard_resolution=16, steps=10,
                     phase="base", batch_size=2, lr=1e-3, seed=3)
    train_base(model, warm, ds, sched)
    bundle = attach_resadapter(model, rank=2, seed=3)
    snapshot = {k: v.data.copy() for k, v in model.params.items()}
    plan = TrainPlan(resolutions=((8, 8), (24, 24)), standard_resolution=16, steps=25,
                     phase="adapter", batch_size=2, lr=5e-3, seed=3)
    train_adapter(model, bundle, plan, ds, sched)
    for name, arr in snapshot.items():
        np.testing.assert_array_equal(model.params[name].data, arr)


def test_adapter_run_deterministic():
    _, b1, t1 = adapter_run(steps=25, seed=5)
    _, b2, t2 = adapter_run(steps=25, seed=5)
    assert [r.line() for r in t1.records] == [r.line() for r in t2.records]
    n1, n2 = b1.tensors, b2.tensors
    for name in n1:
        np.testing.assert_array_equal(n1[name].data, n2[name].data)


def test_adapter_rejects_base_plan():
    model, ds, sched = tiny_setup()
    bundle = attach_resadapter(model, rank=2)
    plan = TrainPlan(resolutions=((16, 16),), standard_resolution=16, steps=1,
                     phase="base", batch_size=2)
    with pytest.raises(ConfigError, match="adapter"):
        train_adapter(model, bundle, plan, ds, sched)
