"""Twelve end-to-end acceptance checks over the full training pipeline.

Every test emits one verdict line ("[PASS] criterion N | ...") that the
terminal summary echoes after the run. The expensive artifacts -- a base
denoiser pretrained at 16x16 and a resolution-adapter bundle trained on the
mixed-resolution plan -- are built once per session by fixtures and shared.

Protocol constants (seeds, learning rates, the shipped adapter strength
alpha_r = 0.4) are frozen here; every number asserted below reproduces
bit-for-bit on one CPU core for these seeds.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import container_fixtures as cf
from resolab.adapters import (
    attach_resadapter,
    attach_style_lora,
    effective_param_map,
    merge,
    trainable_param_count,
)
from resolab.data import SyntheticDataset
from resolab.diffusion import DiffusionSchedule, SamplerConfig, ddim_sample
from resolab.errors import ContainerError
from resolab.evalbench import (
    bench_latency,
    make_style_probes,
    multires_eval,
    style_shift,
    tile_layout,
)
from resolab.gradcheck import run_suite
from resolab.store import load_bundle, load_model, save_bundle, save_model
from resolab.tensor import Tensor
from resolab.trainer import TrainPlan, resolution_probs, sample_resolution, train_adapter, train_base
from resolab.unet import UNetConfig, build_unet, unet_forward

MIX = ((8, 8), (12, 12), (24, 24), (32, 32))
EVAL_BUCKETS = [(8, 8), (16, 16), (24, 24), (32, 32)]
OFF_BUCKETS = ((8, 8), (24, 24), (32, 32))
ALPHA_SHIPPED = 0.4


def check(verdict, number, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2} | {name} | {detail}"
    verdict(line)
    assert ok, line


@pytest.fixture(scope="session")
def protocol():
    return SimpleNamespace(
        schedule=DiffusionSchedule(),
        dataset=SyntheticDataset("gradients", 4, 1),
        offstyle=SyntheticDataset("discs", 4, 1),
        timings={},
        base_snapshot=None,
        base_trace=None,
    )


@pytest.fixture(scope="session")
def base_model(protocol):
    model = build_unet(UNetConfig(), seed=0)
    plan = TrainPlan(resolutions=((16, 16),), standard_resolution=16, steps=2000,
                     phase="base", batch_size=8, lr=1e-3, seed=0)
    started = time.perf_counter()
    protocol.base_trace = train_base(model, plan, protocol.dataset, protocol.schedule)
    protocol.timings["base_train_s"] = time.perf_counter() - started
    protocol.base_snapshot = {n: t.data.tobytes() for n, t in model.params.items()}
    return model


@pytest.fixture(scope="session")
def adapter_bundle(protocol, base_model):
    bundle = attach_resadapter(base_model, rank=4, seed=1)
    plan = TrainPlan(resolutions=MIX, standard_resolution=16, steps=2000,
                     phase="adapter", batch_size=8, lr=1e-4, seed=0)
    started = time.perf_counter()
    train_adapter(base_model, bundle, plan, protocol.dataset, protocol.schedule)
    protocol.timings["adapter_train_s"] = time.perf_counter() - started
    return bundle.with_alpha(ALPHA_SHIPPED)


@pytest.fixture(scope="session")
def heldout_report(protocol, base_model, adapter_bundle):
    started = time.perf_counter()
    report = multires_eval(base_model, adapter_bundle, protocol.schedule,
                           protocol.dataset, EVAL_BUCKETS, n_batches=4, seed=99,
                           batch_size=8)
    protocol.timings["eval_s"] = time.perf_counter() - started
    return report


def test_criterion_01_gradient_audit(verdict):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        for _, err in run_suite(seed=seed, step=1e-4):
            worst = max(worst, err)
    wall = time.perf_counter() - started
    check(verdict, 1, "gradient audit",
          worst <= 1e-4 and wall < 60.0,
          f"worst relative error {worst:.3e} over 5 seeds in {wall:.1f}s")


def test_criterion_02_bucket_sampling_law(verdict):
    probs = resolution_probs([128, 256, 384, 768, 1024], 512)
    expected = np.array([9, 4, 1, 4, 16]) / 34.0  # |x-512|^2, normalized
    exact = np.max(np.abs(probs - expected)) <= 1e-12
    rng = np.random.default_rng(2)
    draws = np.array([sample_resolution(probs, rng.random()) for _ in range(10_000)])
    freqs = np.bincount(draws, minlength=5) / 10_000.0
    empirical_gap = float(np.max(np.abs(freqs - expected)))
    check(verdict, 2, "bucket sampling law",
          exact and empirical_gap <= 0.02,
          f"exact probabilities, empirical gap {empirical_gap:.4f} over 10k draws")


def test_criterion_03_attach_identity(verdict, protocol, base_model, adapter_bundle):
    rng = np.random.default_rng(3)
    fresh = attach_resadapter(base_model, rank=4, seed=9)
    zeroed = adapter_bundle.with_alpha(0.0)  # after 2000 real update steps
    t = protocol.schedule.timesteps // 2
    worst_fresh = worst_zero = 0.0
    for r in (8, 16, 24, 32):
        x = rng.standard_normal((2, 1, r, r))
        ref = unet_forward(base_model, Tensor(x), t, [0, 1]).data
        out_f = unet_forward(base_model, Tensor(x), t, [0, 1],
                             effective_param_map(base_model, fresh)).data
        out_z = unet_forward(base_model, Tensor(x), t, [0, 1],
                             effective_param_map(base_model, zeroed)).data
        worst_fresh = max(worst_fresh, float(np.max(np.abs(out_f - ref))))
        worst_zero = max(worst_zero, float(np.max(np.abs(out_z - ref))))
    check(verdict, 3, "attach identity",
          worst_fresh <= 1e-12 and worst_zero <= 1e-12,
          f"fresh-attach gap {worst_fresh:.1e}, alpha_r=0 gap {worst_zero:.1e}")


def test_criterion_04_merge_equivalence(verdict, protocol, base_model):
    bundle = attach_resadapter(base_model, rank=4, seed=11)
    plan = TrainPlan(resolutions=MIX, standard_resolution=16, steps=200,
                     phase="adapter", batch_size=8, lr=1e-4, seed=4)
    train_adapter(base_model, bundle, plan, protocol.dataset, protocol.schedule)
    bundle = bundle.with_alpha(ALPHA_SHIPPED)
    merged = merge(base_model, bundle)
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(100):
        r = (8, 16, 24, 32)[i % 4]
        t = 1 + (7 * i) % protocol.schedule.timesteps
        x = rng.standard_normal((1, 1, r, r))
        a = unet_forward(base_model, Tensor(x), t, [i % 4], effective_param_map(base_model, bundle)).data
        m = unet_forward(merged, Tensor(x), t, [i % 4]).data
        np.testing.assert_allclose(a, m, rtol=1e-9, atol=1e-12)
        scale = max(float(np.max(np.abs(m))), 1e-12)
        worst = max(worst, float(np.max(np.abs(a - m))) / scale)
    check(verdict, 4, "merge equivalence",
          worst <= 1e-9,
          f"worst relative gap {worst:.2e} over 100 inputs after a 200-step run")


def test_criterion_05_frozen_base(verdict, protocol, base_model, adapter_bundle):
    params = base_model.params
    attention_sites = {f"mid.attn.{p}.weight" for p in "qkvo"}
    assert attention_sites <= set(params)
    changed = [n for n, t in params.items()
               if t.data.tobytes() != protocol.base_snapshot[n]]
    attn_ok = not any(n in attention_sites for n in changed)
    check(verdict, 5, "frozen base",
          not changed and attn_ok,
          f"{len(params)} base tensors bitwise unchanged after adapter training "
          f"({len(attention_sites)} attention projections included)")


def test_criterion_06_norm_delta_gating(verdict, protocol, base_model):
    bundle = attach_resadapter(base_model, rank=4, seed=13)
    plan = TrainPlan(resolutions=MIX, standard_resolution=16, steps=80,
                     phase="adapter", batch_size=4, lr=1e-4, seed=5)
    trace = train_adapter(base_model, bundle, plan, protocol.dataset, protocol.schedule)
    extrapolation_steps = sum(1 for rec in trace.records if max(rec.bucket) > 16)
    delta_counts = set(trace.meta["norm_delta_update_steps"].values())
    lora_counts = set(trace.meta["lora_update_steps"].values())
    gated = delta_counts == {extrapolation_steps} and lora_counts == {80}

    interp = attach_resadapter(base_model, rank=4, seed=14)
    plan2 = TrainPlan(resolutions=((8, 8), (12, 12)), standard_resolution=16,
                      steps=40, phase="adapter", batch_size=4, lr=1e-4, seed=6)
    trace2 = train_adapter(base_model, interp, plan2, protocol.dataset, protocol.schedule)
    still_zero = all(not t.data.any() for n, t in interp.tensors.items() if ".delta." in n)
    noted = any("no extrapolation bucket" in n for n in trace2.notes)
    check(verdict, 6, "norm-delta gating",
          gated and still_zero and noted,
          f"deltas updated on {extrapolation_steps}/80 extrapolation steps only; "
          f"interpolation-only run leaves deltas exactly zero")


def test_criterion_07_multires_adaptation(verdict, protocol, base_model,
                                          adapter_bundle, heldout_report):
    rep = heldout_report
    base = {b[0]: rep.value(b, "base") for b in EVAL_BUCKETS}
    tuned = {b[0]: rep.value(b, "base+resadapter") for b in EVAL_BUCKETS}
    off_base = float(np.mean([base[b[0]] for b in OFF_BUCKETS]))
    off_tuned = float(np.mean([tuned[b[0]] for b in OFF_BUCKETS]))
    ratio = off_base / base[16]
    drop = 100.0 * (off_base - off_tuned) / off_base
    damage = 100.0 * (tuned[16] - base[16]) / base[16]
    runtime = sum(protocol.timings.values())

    again = multires_eval(base_model, adapter_bundle, protocol.schedule,
                          protocol.dataset, EVAL_BUCKETS, n_batches=4, seed=99,
                          batch_size=8)
    repeatable = all(again.value(r.bucket, r.variant) == r.value for r in rep.rows)

    fresh = build_unet(UNetConfig(), seed=0)
    replay = train_base(fresh, TrainPlan(resolutions=((16, 16),), standard_resolution=16,
                                         steps=100, phase="base", batch_size=8,
                                         lr=1e-3, seed=0),
                        protocol.dataset, protocol.schedule)
    prefix_match = all(a == b for a, b in zip(replay.records, protocol.base_trace.records[:100]))

    ok = (ratio >= 1.1 and drop >= 20.0 and damage <= 5.0
          and runtime <= 900.0 and repeatable and prefix_match)
    check(verdict, 7, "multi-resolution adaptation", ok,
          f"base off/at ratio {ratio:.2f} (>=1.1); off-resolution loss "
          f"drop {drop:+.1f}% (>=20); at-resolution change {damage:+.1f}% (<=5); "
          f"runtime {runtime:.0f}s (<=900); repeatable eval and training prefix")


def test_criterion_08_parameter_budget(verdict, base_model, adapter_bundle):
    total = sum(t.data.size for t in base_model.params.values())
    trainable = trainable_param_count(adapter_bundle)
    share = 100.0 * trainable / total
    check(verdict, 8, "parameter budget",
          trainable < 0.05 * total,
          f"{trainable} trainable adapter parameters / {total} base parameters "
          f"= {share:.2f}% (< 5%)")


def test_criterion_09_tiled_latency(verdict, protocol, base_model):
    cfg = SamplerConfig(steps=6, guidance_scale=1.0, eta=0.0, seed=0)
    result = bench_latency(base_model, None, (32, 32), (16, 16), 8, cfg,
                           np.array([0]), protocol.schedule, repeats=1)
    origins, counts = tile_layout((32, 32), (16, 16), 8)
    weight_sum = np.zeros((32, 32))
    for y, x in origins:
        weight_sum[y:y + 16, x:x + 16] += 1.0 / counts[y:y + 16, x:x + 16]
    blended = bool(np.all(weight_sum == 1.0))
    check(verdict, 9, "tiled latency",
          result["ratio"] > 1.0 and blended,
          f"tiled/direct ratio {result['ratio']:.2f} (> 1); blend weights sum "
          f"to 1 at every pixel")


def test_criterion_10_style_shift(verdict, protocol, base_model):
    resadapter = attach_resadapter(base_model, rank=4, seed=2)
    plan_mixed = TrainPlan(resolutions=MIX, standard_resolution=16, steps=2000,
                           phase="adapter", batch_size=8, lr=1e-3, seed=3)
    train_adapter(base_model, resadapter, plan_mixed, protocol.offstyle, protocol.schedule)
    stylelora = attach_style_lora(base_model, rank=4, seed=2)
    plan_native = TrainPlan(resolutions=((16, 16),), standard_resolution=16,
                            steps=2000, phase="adapter", batch_size=8, lr=1e-3, seed=3)
    train_adapter(base_model, stylelora, plan_native, protocol.offstyle, protocol.schedule)

    probes = make_style_probes(protocol.dataset, protocol.schedule, 16, 8, seed=123)
    shift_ra, shift_sl = style_shift(base_model, resadapter.with_alpha(ALPHA_SHIPPED),
                                     stylelora, probes)
    # four adapter trainings later the base must still be pristine
    untouched = all(t.data.tobytes() == protocol.base_snapshot[n]
                    for n, t in base_model.params.items())
    check(verdict, 10, "style shift", shift_ra < shift_sl and untouched,
          f"resolution adapter shifts outputs {shift_ra:.4f} < attention "
          f"style-lora {shift_sl:.4f} at the native size (equal budget)")


def test_criterion_11_persistence(verdict, tmp_path, base_model, adapter_bundle):
    mpath, bpath = tmp_path / "m.rsbm", tmp_path / "b.rsad"
    save_model(base_model, str(mpath))
    save_bundle(adapter_bundle, str(bpath))
    loaded_m = load_model(str(mpath))
    loaded_b = load_bundle(str(bpath))
    model_exact = all(
        np.array_equal(loaded_m.params[n].data, t.data.astype("<f4").astype(np.float64))
        for n, t in base_model.params.items())
    orig = adapter_bundle.tensors
    bundle_exact = all(
        np.array_equal(loaded_b.tensors[n].data,
                       t.data.astype("<f4").astype(np.float64))
        for n, t in orig.items()) and loaded_b.alpha == ALPHA_SHIPPED

    twin = tmp_path / "m2.rsbm"
    save_model(load_model(str(mpath)), str(twin))
    stable_bytes = twin.read_bytes() == mpath.read_bytes()

    probe = tmp_path / "fresh.rsbm"
    save_model(build_unet(cf.SMALL, seed=0), str(probe))
    _, _, header, payload = cf.read_parts(probe)
    entry = next(e for e in header["tensors"] if e["name"] == "out.norm.gamma")
    one_bytes = payload[entry["offset"]:entry["offset"] + 4] == bytes((0, 0, 0x80, 0x3F))

    fired = 0
    for name, mutate, pattern in cf.MODEL_CASES:
        target = tmp_path / f"model_{name}.rsbm"
        save_model(cf.small_model(), str(target))
        mutate(target)
        with pytest.raises(ContainerError, match=pattern):
            load_model(str(target))
        fired += 1
    for name, mutate, pattern in cf.BUNDLE_CASES:
        target = tmp_path / f"bundle_{name}.rsad"
        save_bundle(cf.small_bundle(cf.small_model()), str(target))
        mutate(target)
        with pytest.raises(ContainerError, match=pattern):
            load_bundle(str(target))
        fired += 1

    check(verdict, 11, "persistence",
          model_exact and bundle_exact and stable_bytes and one_bytes,
          f"round-trips float32-exact; identical values give identical bytes; "
          f"1.0 stored as 00 00 80 3F; {fired} malformed-file diagnostics fired")


def test_criterion_12_determinism(verdict, protocol, base_model, adapter_bundle):
    params = effective_param_map(base_model, adapter_bundle)
    cfg = SamplerConfig(steps=25, guidance_scale=7.5, eta=0.0, seed=0)
    first = ddim_sample(base_model, (1, 1, 24, 24), cfg, np.array([1]),
                        protocol.schedule, params=params)
    second = ddim_sample(base_model, (1, 1, 24, 24), cfg, np.array([1]),
                         protocol.schedule, params=params)
    identical = first.data.tobytes() == second.data.tobytes()
    s = protocol.schedule
    recurrence = all(s.alpha_bar_at(t) == s.alpha_bar_at(t - 1) * s.alpha_at(t)
                     for t in range(2, s.timesteps + 1))
    seeded_first = s.alpha_bar_at(1) == s.alpha_at(1)
    check(verdict, 12, "determinism",
          identical and recurrence and seeded_first,
          f"guided sample byte-identical across runs; cumulative noise level "
          f"obeys its product recurrence exactly at all {s.timesteps} steps")
