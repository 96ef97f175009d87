"""Evaluation reports, tiled generation, latency bench, style-shift probes."""

import json
import warnings

import numpy as np
import pytest

import resolab
from resolab import evalbench, runconfig
from resolab.adapters import attach_resadapter, attach_style_lora, effective_param_map
from resolab.data import SyntheticDataset
from resolab.diffusion import DiffusionSchedule, SamplerConfig, ddim_denoise, ddim_sample
from resolab.errors import ConfigError, NumericError, ShapeError
from resolab.evalbench import (
    EvalConfig,
    EvalReport,
    EvalRow,
    HELDOUT_METRIC,
    ablation_grid,
    bench_latency,
    make_style_probes,
    multires_eval,
    style_shift,
    tile_layout,
    tiled_generate,
)
from resolab.tensor import Tensor
from resolab.unet import UNetConfig, build_unet, unet_forward

SMALL = UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                   num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                   num_classes=2)


def small_model(seed=0):
    model = build_unet(SMALL, seed=seed)
    rng = np.random.default_rng(40 + seed)
    model.params["out.conv.weight"].data += 0.3 * rng.standard_normal(
        model.params["out.conv.weight"].shape)
    return model


def randomized_bundle(model, seed=5, scale=0.05):
    bundle = attach_resadapter(model, rank=2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for t in bundle.tensors.values():
        t.data = scale * rng.standard_normal(t.shape)
    return bundle


SCHED = DiffusionSchedule(10, 1e-4, 0.05)
DS = SyntheticDataset("checkers", 2, 1)


# ---------------------------------------------------------------------------
# report plumbing


def test_duplicate_row_rejected():
    report = EvalReport()
    report.add(EvalRow((8, 8), "base", HELDOUT_METRIC, 1.0))
    with pytest.raises(ConfigError, match="duplicate report row"):
        report.add(EvalRow((8, 8), "base", HELDOUT_METRIC, 2.0))


def test_row_json_shape():
    row = EvalRow((8, 16), "base", HELDOUT_METRIC, 0.25)
    doc = json.loads(row.to_json())
    assert doc == {"bucket": "8x16", "variant": "base",
                   "metric": HELDOUT_METRIC, "value": 0.25}


def test_jsonl_line_per_row():
    report = EvalReport(metadata={"seed": 7})
    report.add(EvalRow((8, 8), "base", HELDOUT_METRIC, 1.0))
    report.add(EvalRow((16, 16), "base", HELDOUT_METRIC, 2.0))
    lines = report.jsonl().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"metadata": {"seed": 7}}
    assert json.loads(lines[2])["bucket"] == "16x16"


def test_table_is_aligned_text():
    report = EvalReport()
    report.add(EvalRow((8, 8), "base", HELDOUT_METRIC, 0.5))
    text = report.table()
    assert "bucket" in text and "8x8" in text and "0.5" in text


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_row_rejects_a_non_finite_value(value):
    with pytest.raises(NumericError, match=f"base at 8x16: {HELDOUT_METRIC} is {value}"):
        EvalRow((8, 16), "base", HELDOUT_METRIC, value)


def test_multires_eval_of_an_overflowing_model_fails_typed():
    # the loss overflows to inf; the report used to carry "value": Infinity
    model = small_model()
    model.params["out.conv.weight"].data[:] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        with pytest.raises(NumericError, match=f"base at 8x8: {HELDOUT_METRIC} is inf"):
            multires_eval(model, None, SCHED, DS, [(8, 8)], n_batches=1)


def test_value_lookup_missing_raises():
    with pytest.raises(KeyError):
        EvalReport().value((8, 8), "base")


# ---------------------------------------------------------------------------
# multires_eval


def test_multires_eval_deterministic():
    model = small_model()
    a = multires_eval(model, None, SCHED, DS, [(8, 8), (16, 16)], n_batches=2, seed=3)
    b = multires_eval(model, None, SCHED, DS, [(8, 8), (16, 16)], n_batches=2, seed=3)
    for row in a.rows:
        assert b.value(row.bucket, row.variant) == row.value


def test_bucket_draws_do_not_depend_on_bucket_list():
    model = small_model()
    alone = multires_eval(model, None, SCHED, DS, [(8, 8)], n_batches=2, seed=3)
    paired = multires_eval(model, None, SCHED, DS, [(16, 16), (8, 8)], n_batches=2, seed=3)
    assert paired.value((8, 8), "base") == alone.value((8, 8), "base")


def test_identity_bundle_matches_base_exactly():
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=1)  # B zero-init: no-op
    report = multires_eval(model, bundle, SCHED, DS, [(8, 8)], n_batches=2, seed=3)
    assert report.value((8, 8), "base+resadapter") == report.value((8, 8), "base")


def test_style_lora_variant_name():
    model = small_model()
    bundle = attach_style_lora(model, rank=2, seed=1)
    report = multires_eval(model, bundle, SCHED, DS, [(8, 8)], n_batches=1, seed=3)
    assert {r.variant for r in report.rows} == {"base", "base+style-lora"}


def test_empty_buckets_rejected():
    with pytest.raises(ConfigError, match="buckets must be non-empty"):
        multires_eval(small_model(), None, SCHED, DS, [])


def test_metadata_fields_present():
    report = multires_eval(small_model(), None, SCHED, DS, [(8, 8)], n_batches=1, seed=3)
    assert {"seed", "fingerprint", "n_batches", "batch_size", "wall_clock_s"} <= set(
        report.metadata)


_BAD_EVAL_INPUTS = [
    (dict(buckets=[]), "buckets must be non-empty"),
    (dict(buckets=[(8, 8), (0, 8)]), r"eval\.buckets\[1\] must be in \[1, inf\), got 0"),
    (dict(n_batches=0), r"eval\.n_batches must be in \[1, inf\), got 0"),
    (dict(batch_size=0), r"eval\.batch_size must be in \[1, inf\), got 0"),
    (dict(seed=-1), r"eval\.seed must be in \[0, inf\), got -1"),
    (dict(n_batches=2.5), r"eval\.n_batches must be an integer, got 2\.5"),
]


@pytest.mark.parametrize("kwargs,message", _BAD_EVAL_INPUTS,
                         ids=["empty", "zero_side", "n_batches", "batch_size", "seed", "n_batches_float"])
@pytest.mark.parametrize("who", ["multires_eval", "ablation_grid"])
def test_eval_inputs_checked_in_both_entry_points(who, kwargs, message):
    # n_batches=0 used to report a NaN loss, the others a raw numpy error or an empty report
    model = small_model()
    args = {"buckets": [(8, 8)], "n_batches": 1, "seed": 3, **kwargs}
    buckets = args.pop("buckets")
    with pytest.raises(ConfigError, match=f"{who}: .*{message}"):
        if who == "multires_eval":
            multires_eval(model, None, SCHED, DS, buckets, **args)
        else:
            ablation_grid(model, randomized_bundle(model), [{"conv_lora"}], (1.0,), SCHED, DS,
                          buckets, **args)


def test_eval_config_is_the_run_config_section_and_stores_normalised_values():
    assert resolab.EvalConfig is runconfig.EvalConfig is EvalConfig
    cfg = EvalConfig(buckets=[[8, 8], (16, 12)], alphas=[0, 1])
    assert cfg.buckets == ((8, 8), (16, 12)) and cfg.alphas == (0, 1)
    assert hash(cfg) == hash(EvalConfig(buckets=((8, 8), (16, 12)), alphas=(0, 1)))
    with pytest.raises(ConfigError, match="eval.alphas must be non-empty"):
        EvalConfig(alphas=())


@pytest.mark.parametrize("modes,alphas,message", [
    ([{"conv_lora"}], (), "eval.alphas must be non-empty"),
    ([{"conv_lora"}], (0.5, 2.0), r"eval.alphas\[1\] must be in \[0, 1\], got 2.0"),
    ([], (1.0,), "modes must be non-empty"),
], ids=["no_alphas", "alpha_range", "no_modes"])
def test_ablation_grid_checks_its_inputs_before_any_batch(modes, alphas, message, monkeypatch):
    model = small_model()
    monkeypatch.setattr(evalbench, "draw_batch", None)  # a drawn batch would raise TypeError
    with pytest.raises(ConfigError, match=f"ablation_grid: {message}"):
        ablation_grid(model, randomized_bundle(model), modes, alphas, SCHED, DS, [(8, 8)],
                      n_batches=1)


@pytest.mark.parametrize("dataset,buckets,message", [
    # class 4 would be the desk model's null token: this used to report losses
    (SyntheticDataset("gradients", 5), [(16, 16)],
     r"multires_eval: data.num_classes \(5\) must not exceed model.num_classes \(4\)"),
    (SyntheticDataset("gradients", 4, 2), [(16, 16)],
     r"multires_eval: data.channels \(2\) must equal model.in_channels \(1\)"),
    (SyntheticDataset("gradients", 4), [(16, 16), (8, 7)],
     "multires_eval: bucket 8x7 not divisible by the model's spatial divisor 2"),
], ids=["classes", "channels", "divisor"])
def test_multires_eval_checks_the_fit_before_any_batch(dataset, buckets, message, monkeypatch):
    model = build_unet(UNetConfig(), seed=0)
    monkeypatch.setattr(evalbench, "draw_batch", None)
    with pytest.raises(ConfigError, match=message):
        multires_eval(model, None, DiffusionSchedule(), dataset, buckets, n_batches=1)


def test_ablation_metadata_keys_unchanged():
    model = small_model()
    report = ablation_grid(model, randomized_bundle(model), [{"conv_lora"}], (1.0,), SCHED, DS,
                           [(8, 8)], n_batches=1, seed=3)
    assert set(report.metadata) == {"seed", "fingerprint", "wall_clock_s"}


# ---------------------------------------------------------------------------
# ablation grid


def test_ablation_grid_rows_and_alpha_zero():
    model = small_model()
    bundle = randomized_bundle(model)
    modes = [set(), {"conv_lora"}, {"conv_lora", "norm_delta"}]
    report = ablation_grid(model, bundle, modes, (0.0, 0.5, 1.0), SCHED, DS,
                           [(8, 8)], n_batches=1, seed=3)
    assert len(report.rows) == 1 + 9  # base row plus 3 modes x 3 alphas
    base = report.value((8, 8), "base")
    for mode_label in ("none", "conv_lora", "conv_lora+norm_delta"):
        assert report.value((8, 8), f"base+resadapter[{mode_label}]@alpha=0") == base


def test_ablation_full_bundle_cell_changes_loss():
    model = small_model()
    bundle = randomized_bundle(model)
    report = ablation_grid(model, bundle, [{"conv_lora", "norm_delta"}], (1.0,),
                           SCHED, DS, [(8, 8)], n_batches=1, seed=3)
    cell = report.value((8, 8), "base+resadapter[conv_lora+norm_delta]@alpha=1")
    assert cell != report.value((8, 8), "base")


def test_ablation_empty_axes_rejected():
    model = small_model()
    bundle = randomized_bundle(model)
    with pytest.raises(ConfigError, match="must be non-empty"):
        ablation_grid(model, bundle, [], (1.0,), SCHED, DS, [(8, 8)])
    with pytest.raises(ConfigError, match="must be non-empty"):
        ablation_grid(model, bundle, [{"conv_lora"}], (), SCHED, DS, [(8, 8)])


# ---------------------------------------------------------------------------
# tiling


def test_tile_layout_regular_grid():
    origins, counts = tile_layout((32, 32), (16, 16), 8)
    assert origins == [(y, x) for y in (0, 8, 16) for x in (0, 8, 16)]
    assert counts.shape == (32, 32)
    assert counts.min() >= 1.0


def test_tile_layout_counts_match_covering_tiles():
    origins, counts = tile_layout((32, 32), (16, 16), 8)
    for (py, px) in ((0, 0), (12, 12), (31, 31), (8, 20)):
        covering = sum(1 for y, x in origins if y <= py < y + 16 and x <= px < x + 16)
        assert counts[py, px] == covering


def test_tile_layout_clamps_final_position():
    origins, _ = tile_layout((20, 20), (16, 16), 8)
    assert origins == [(0, 0), (0, 4), (4, 0), (4, 4)]


def test_tile_layout_overlap_bounds():
    with pytest.raises(ConfigError, match="overlap must be in"):
        tile_layout((32, 32), (16, 16), 16)
    with pytest.raises(ConfigError, match="overlap must be in"):
        tile_layout((32, 32), (16, 16), -1)


def test_tile_larger_than_target():
    with pytest.raises(ShapeError, match="larger than target"):
        tile_layout((8, 8), (16, 16), 0)


def test_blend_weights_sum_to_one():
    origins, counts = tile_layout((32, 32), (16, 16), 8)
    weight_sum = np.zeros((32, 32))
    for y, x in origins:
        weight_sum[y:y + 16, x:x + 16] += 1.0 / counts[y:y + 16, x:x + 16]
    np.testing.assert_array_equal(weight_sum, np.ones((32, 32)))


def test_degenerate_tiling_equals_direct_sampling():
    model = small_model()
    for guidance in (1.0, 7.5):
        cfg = SamplerConfig(steps=4, guidance_scale=guidance, eta=0.0, seed=9)
        tiled = tiled_generate(model, SCHED, (16, 16), (16, 16), 0, cfg, [0])
        direct = ddim_sample(model, (1, 1, 16, 16), cfg, [0], SCHED)
        assert tiled.data.tobytes() == direct.data.tobytes()


def _per_tile_reference(model, target, tile, overlap, cfg, c, params):
    """Tiled sampling with separate batch-1 guidance passes per tile."""
    origins, counts = tile_layout(target, tile, overlap)
    h, w = tile
    g = cfg.guidance_scale
    null = [model.config.null_class]
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((1, model.config.in_channels) + tuple(target))

    def predict(arr, t):
        acc = np.zeros_like(arr)
        for y, xo in origins:
            patch = Tensor(np.ascontiguousarray(arr[:, :, y:y + h, xo:xo + w]))
            eps_u = unet_forward(model, patch, t, null, params).data
            eps_c = unet_forward(model, patch, t, c, params).data
            acc[:, :, y:y + h, xo:xo + w] += eps_u + g * (eps_c - eps_u)
        return acc / counts

    return ddim_denoise(x, predict, SCHED, cfg.steps, cfg.eta, rng)


def test_batched_tiles_match_per_tile_reference():
    model = small_model()
    params = effective_param_map(model, randomized_bundle(model))
    cfg = SamplerConfig(steps=4, guidance_scale=7.5, eta=0.0, seed=9)
    reference = _per_tile_reference(model, (16, 16), (8, 8), 4, cfg, [1], params)
    batched = tiled_generate(model, SCHED, (16, 16), (8, 8), 4, cfg, [1], params=params)
    np.testing.assert_allclose(batched.data, reference, rtol=0, atol=1e-10)


def test_tiled_output_shape():
    model = small_model()
    cfg = SamplerConfig(steps=2, guidance_scale=1.0, eta=0.0, seed=9)
    out = tiled_generate(model, SCHED, (16, 24), (8, 8), 4, cfg, [1])
    assert out.shape == (1, 1, 16, 24)


def test_tiled_rejects_class_ids_for_more_than_one_image():
    cfg = SamplerConfig(steps=2, guidance_scale=7.5, eta=0.0, seed=9)
    with pytest.raises(ShapeError, match="length-1 vector"):
        tiled_generate(small_model(), SCHED, (16, 16), (8, 8), 4, cfg, [0, 1])


# ---------------------------------------------------------------------------
# latency


def test_bench_latency_keys_and_ratio():
    model = small_model()
    cfg = SamplerConfig(steps=2, guidance_scale=1.0, eta=0.0, seed=9)
    out = bench_latency(model, None, (16, 16), (8, 8), 0, cfg, [0], SCHED, repeats=1)
    assert {"direct_ms", "tiled_ms", "ratio", "repeats"} <= set(out)
    assert out["ratio"] == out["tiled_ms"] / out["direct_ms"]
    assert len(out["tiled_runs_ms"]) == 1


def test_bench_latency_repeats_validated():
    model = small_model()
    cfg = SamplerConfig(steps=2, guidance_scale=1.0, eta=0.0, seed=9)
    with pytest.raises(ConfigError, match=r"repeats must be in \[1, inf\), got 0"):
        bench_latency(model, None, (16, 16), (8, 8), 0, cfg, [0], SCHED, repeats=0)


@pytest.mark.parametrize("tile,overlap,error,message", [
    ((16, 16), 16, ConfigError, r"overlap must be in \[0, 16\), got 16"),
    ((32, 32), 0, ShapeError, "tile 32x32 larger than target 16x16"),
    ((8, 8), 2.5, ConfigError, "overlap must be an integer, got 2.5"),
    ((8.5, 8), 0, ConfigError, "tile must be an integer, got 8.5"),
], ids=["overlap", "tile", "overlap_float", "tile_float"])
def test_bench_latency_checks_its_tile_layout_before_timing(tile, overlap, error, message,
                                                           monkeypatch):
    calls = []
    monkeypatch.setattr(evalbench, "ddim_sample", lambda *args, **kwargs: calls.append(args))
    cfg = SamplerConfig(steps=2, guidance_scale=1.0, eta=0.0, seed=9)
    with pytest.raises(error, match=message):
        bench_latency(small_model(), None, (16, 16), tile, overlap, cfg, [0], SCHED, repeats=3)
    assert calls == []


def test_bench_latency_times_adapter_on_direct_and_tiled_runs():
    model = small_model()
    bundle = randomized_bundle(model)
    seen = []

    def spy(model, x, t, c, params=None):
        seen.append((x.shape[-2:], params is not None))
        return unet_forward(model, x, t, c, params)

    cfg = SamplerConfig(steps=2, guidance_scale=7.5, eta=0.0, seed=9)
    bench_latency(model, bundle, (16, 16), (8, 8), 0, cfg, [0], SCHED, repeats=1, forward=spy)
    assert {shape for shape, _ in seen} == {(16, 16), (8, 8)}  # direct and tiled calls
    assert all(has_params for _, has_params in seen)


# ---------------------------------------------------------------------------
# style probes and shift


def test_make_style_probes_deterministic():
    a = make_style_probes(DS, SCHED, 16, 4, seed=11)
    b = make_style_probes(DS, SCHED, 16, 4, seed=11)
    assert len(a) == 4
    for (xa, ta, ca), (xb, tb, cb) in zip(a, b):
        assert xa.shape == (1, 1, 16, 16)
        assert 1 <= ta <= SCHED.timesteps and ta == tb
        np.testing.assert_array_equal(xa.data, xb.data)
        np.testing.assert_array_equal(ca, cb)


def test_style_shift_zero_for_identity_bundle():
    model = small_model()
    fresh = attach_resadapter(model, rank=2, seed=1)
    trained = randomized_bundle(model)
    probes = make_style_probes(DS, SCHED, 16, 3, seed=11)
    s_fresh, s_trained = style_shift(model, fresh, trained, probes)
    assert s_fresh == 0.0
    assert s_trained > 0.0


def test_style_shift_grows_with_alpha_for_fixed_bundle():
    model = small_model()
    bundle = randomized_bundle(model)
    probes = make_style_probes(DS, SCHED, 16, 3, seed=11)
    half, full = style_shift(model, bundle.with_alpha(0.5), bundle, probes)
    assert 0.0 < half < full


def test_style_shift_is_the_unguided_forward_shift():
    # both passes are cfg_predict at w = 1: the plain forward, bit for bit
    model = small_model()
    bundle = randomized_bundle(model)
    probes = make_style_probes(DS, SCHED, 16, 3, seed=11)
    params = effective_param_map(model, bundle)
    rel = []
    for x, t, c in probes:
        base = unet_forward(model, x, t, c).data
        shift = np.linalg.norm(unet_forward(model, x, t, c, params).data - base)
        rel.append(float(shift) / float(np.linalg.norm(base)))
    assert style_shift(model, bundle, bundle, probes) == (float(np.mean(rel)),) * 2


def test_style_shift_rejects_a_probe_id_outside_the_model_classes():
    # a 5-class dataset draws id 4, the 4-class model's null token
    probes = make_style_probes(SyntheticDataset("gradients", 5), DiffusionSchedule(), 16, 8, seed=1)
    assert [int(c[0]) for _, _, c in probes] == [2, 3, 4, 1, 3, 0, 4, 0]
    model = build_unet(UNetConfig(), seed=0)
    bundle = attach_resadapter(model, rank=2, seed=1)
    with pytest.raises(ConfigError, match=r"class id must be in \[0, 4\), got 4"):
        style_shift(model, bundle, bundle, probes)


def test_style_shift_requires_probes():
    model = small_model()
    bundle = randomized_bundle(model)
    with pytest.raises(ConfigError, match="at least one probe"):
        style_shift(model, bundle, bundle, [])
