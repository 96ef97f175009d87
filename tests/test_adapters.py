"""Adapter bundles: attach identity, alpha scaling, merge, freeze, budgets."""

import re

import numpy as np
import pytest

from resolab import store
from resolab.adapters import (
    DELTA_BETA_SUFFIX,
    DELTA_GAMMA_SUFFIX,
    LORA_A_SUFFIX,
    LORA_B_SUFFIX,
    AdapterBundle,
    adapted_forward,
    attach_resadapter,
    attach_style_lora,
    effective_param_map,
    frozen_param_count,
    merge,
    total_param_count,
    trainable_param_count,
)
from resolab import ops
from resolab.errors import ConfigError
from resolab.tensor import Tape, Tensor
from resolab.unet import UNetConfig, build_unet, unet_forward

SMALL = UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                   num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                   num_classes=2)


def small_model(seed=0, live_output=True):
    model = build_unet(SMALL, seed=seed)
    if live_output:
        # the output conv starts at zero; nudge it so outputs respond to inputs
        rng = np.random.default_rng(100 + seed)
        model.params["out.conv.weight"].data[:] = 0.3 * rng.standard_normal(
            model.params["out.conv.weight"].shape)
    return model


def randomize_bundle(bundle, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    for t in bundle.named_tensors().values():
        t.data = scale * rng.standard_normal(t.shape)
    return bundle


def small_batch(seed=0, n=2, hw=8):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((n, 1, hw, hw)))
    c = np.arange(n) % 2
    return x, 3, c


# ---------------------------------------------------------------------------
# structure and counts


def test_lora_pair_shapes_on_default_model():
    model = build_unet(UNetConfig(), seed=0)
    bundle = attach_resadapter(model, rank=4, seed=0)
    by_site = {p.site: p for p in bundle.loras}
    # down.0 sampler: host [8, 8, 3, 3] -> A [8, 4], B [72, 4] = 320 params
    p = by_site["down.0.sampler.conv.weight"]
    assert p.a.shape == (8, 4) and p.b.shape == (72, 4)
    assert p.param_count() == 320
    # up.0 sampler sees concatenated skip channels: host [8, 16+8+12? ...] -> B rows = C_in*9
    q = by_site["up.0.sampler.conv.weight"]
    host = model.params[q.site]
    assert q.a.shape == (host.shape[0], 4)
    assert q.b.shape == (int(np.prod(host.shape[1:])), 4)
    assert sum(pair.param_count() for pair in bundle.loras) == 928
    assert sum(nd.param_count() for nd in bundle.norm_deltas) == 354
    assert trainable_param_count(bundle) == 1282


def test_param_budget_under_five_percent():
    model = build_unet(UNetConfig(), seed=0)
    bundle = attach_resadapter(model, rank=4, seed=0)
    total = total_param_count(model)
    assert total == 27195
    assert trainable_param_count(bundle) / total < 0.05
    assert frozen_param_count(model) == total  # everything froze on attach


def test_rank_validation():
    model = small_model()
    with pytest.raises(ConfigError):
        attach_resadapter(model, rank=0)
    # smallest sampler host has 4 output channels -> rank must be <= 4
    model2 = small_model()
    with pytest.raises(ConfigError, match="rank"):
        attach_resadapter(model2, rank=5)


def test_attach_rejects_negative_seed():
    for attach in (attach_resadapter, attach_style_lora):
        model = small_model()
        with pytest.raises(ConfigError, match="adapter seed must be >= 0, got -1"):
            attach(model, seed=-1)
        assert frozen_param_count(model) == 0  # rejected before freezing the base


def test_named_tensor_suffixes():
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=1)
    names = bundle.named_tensors()
    n_lora = sum(1 for n in names if n.endswith((LORA_A_SUFFIX, LORA_B_SUFFIX)))
    n_delta = sum(1 for n in names if n.endswith((DELTA_GAMMA_SUFFIX, DELTA_BETA_SUFFIX)))
    assert n_lora == 2 * len(bundle.loras)
    assert n_delta == 2 * len(bundle.norm_deltas)
    assert n_lora + n_delta == len(names)
    for n in names:
        if n.endswith((LORA_A_SUFFIX, LORA_B_SUFFIX)):
            assert ".sampler.conv.weight" in n
        else:
            assert ".norm1" in n or ".norm2" in n


# ---------------------------------------------------------------------------
# identity and alpha behavior


def test_attach_changes_no_output():
    model = small_model()
    x, t, c = small_batch()
    before = unet_forward(model, x, t, c).data.copy()
    bundle = attach_resadapter(model, rank=3, seed=5)
    after = adapted_forward(model, bundle, x, t, c).data
    np.testing.assert_array_equal(before, after)  # B and deltas start at zero


def test_attach_style_lora_identity_and_sites():
    model = small_model()
    x, t, c = small_batch()
    before = unet_forward(model, x, t, c).data.copy()
    bundle = attach_style_lora(model, rank=2, seed=5)
    np.testing.assert_array_equal(before, adapted_forward(model, bundle, x, t, c).data)
    sites = sorted(p.site for p in bundle.loras)
    assert sites == [f"mid.attn.{k}.weight" for k in ("k", "o", "q", "v")]
    assert bundle.norm_deltas == []


def test_attach_style_lora_requires_attention():
    cfg = UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                     num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                     num_classes=2, attn_at_bottleneck=False)
    model = build_unet(cfg, seed=0)
    with pytest.raises(ConfigError, match="attention"):
        attach_style_lora(model)


def test_alpha_zero_recovers_base_after_training():
    model = small_model()
    x, t, c = small_batch(seed=3)
    base_out = unet_forward(model, x, t, c).data.copy()
    bundle = randomize_bundle(attach_resadapter(model, rank=3, seed=7), seed=8)
    moved = adapted_forward(model, bundle, x, t, c).data
    assert np.abs(moved - base_out).max() > 1e-6  # adapter genuinely active
    off = adapted_forward(model, bundle.with_alpha(0.0), x, t, c).data
    np.testing.assert_array_equal(off, base_out)
    assert bundle.alpha == 1.0  # with_alpha returns a new bundle


def test_alpha_scales_param_deltas_linearly():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=2), seed=4)
    pair = bundle.loras[0]
    host = model.params[pair.site].data
    full = effective_param_map(model, bundle)[pair.site].data - host
    half = effective_param_map(model, bundle.with_alpha(0.5))[pair.site].data - host
    np.testing.assert_allclose(half, 0.5 * full, rtol=0, atol=1e-15)
    nd = bundle.norm_deltas[0]
    got = effective_param_map(model, bundle.with_alpha(0.25))[nd.site + ".gamma"].data
    np.testing.assert_allclose(got, model.params[nd.site + ".gamma"].data + 0.25 * nd.dgamma.data,
                               rtol=0, atol=1e-15)


def test_with_alpha_validation():
    model = small_model()
    bundle = attach_resadapter(model, rank=2)
    for bad in (-0.1, 1.0001, 2.0):
        with pytest.raises(ConfigError):
            bundle.with_alpha(bad)
    style = attach_style_lora(small_model(seed=1), rank=2)
    with pytest.raises(ConfigError):
        style.with_alpha(-1.0)


def test_restricted_subsets():
    model = small_model()
    x, t, c = small_batch()
    base_out = unet_forward(model, x, t, c).data.copy()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=9), seed=10)
    lora_only = bundle.restricted({"conv_lora"})
    assert lora_only.loras and not lora_only.norm_deltas
    delta_only = bundle.restricted({"norm_delta"})
    assert delta_only.norm_deltas and not delta_only.loras
    neither = bundle.restricted(set())
    np.testing.assert_array_equal(adapted_forward(model, neither, x, t, c).data, base_out)
    with pytest.raises(ConfigError, match="unknown ablation mode"):
        bundle.restricted({"conv_lora", "attention"})
    # restriction does not mutate the original
    assert bundle.loras and bundle.norm_deltas


# ---------------------------------------------------------------------------
# freeze and gradient routing


def test_attach_freezes_every_base_parameter():
    model = small_model()
    attach_resadapter(model, rank=2)
    assert model.frozen == set(model.params)
    assert all(not t.requires_grad for t in model.params.values())


def test_grads_flow_to_bundle_not_base():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=11), seed=12)
    x, t, c = small_batch(seed=13)
    with Tape() as tape:
        out = adapted_forward(model, bundle, x, t, c)
        loss = ops.mean_all(ops.mul(out, out))
        tape.backward(loss)
    for name, tensor in bundle.named_tensors().items():
        assert tensor.grad is not None, name
    got_signal = [np.abs(t.grad).max() for t in bundle.named_tensors().values()]
    assert max(got_signal) > 0.0
    for tensor in model.params.values():
        assert tensor.grad is None


# ---------------------------------------------------------------------------
# merge


def test_merge_matches_adapted_forward_bitwise():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=3, seed=14), seed=15)
    merged = merge(model, bundle)
    for seed in range(5):
        x, t, c = small_batch(seed=seed, hw=12)
        a = adapted_forward(model, bundle, x, t, c).data
        b = unet_forward(merged, x, t, c).data
        np.testing.assert_array_equal(a, b)  # same arithmetic on both paths


def test_merge_respects_alpha():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=16), seed=17)
    half = bundle.with_alpha(0.5)
    merged = merge(model, half)
    x, t, c = small_batch(seed=18)
    np.testing.assert_array_equal(adapted_forward(model, half, x, t, c).data,
                                  unet_forward(merged, x, t, c).data)


def test_merge_leaves_original_untouched():
    model = small_model()
    snapshot = {k: v.data.copy() for k, v in model.params.items()}
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=19), seed=20)
    merged = merge(model, bundle)
    for name, arr in snapshot.items():
        np.testing.assert_array_equal(model.params[name].data, arr)
    assert merged.frozen == set()
    assert all(t.requires_grad for t in merged.params.values())
    # merged weights actually moved at the wrapped sites
    site = bundle.loras[0].site
    assert np.abs(merged.params[site].data - snapshot[site]).max() > 0.0


def test_fingerprint_mismatch_rejected():
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=21)
    other_cfg = UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                           num_res_blocks_per_level=2, groups=4, time_embed_dim=8,
                           num_classes=2)
    other = build_unet(other_cfg, seed=0)
    x, t, c = small_batch()
    with pytest.raises(ConfigError, match="fingerprint"):
        adapted_forward(other, bundle, x, t, c)
    with pytest.raises(ConfigError, match="fingerprint"):
        merge(other, bundle)


def test_bundle_kinds_report_alpha():
    model = small_model()
    res = attach_resadapter(model, rank=2)
    style = attach_style_lora(small_model(seed=2), rank=2)
    assert res.alpha == 1.0 and style.alpha == 1.0
    assert isinstance(res, AdapterBundle) and res.kind == "resadapter"
    assert res.with_alpha(0.3).alpha == 0.3
    assert style.with_alpha(0.7).alpha == 0.7


def _shrink_norm_delta(bundle):
    nd = next(d for d in bundle.norm_deltas if d.site == "down.0.res.0.norm2")
    nd.dgamma, nd.dbeta = Tensor(np.full(1, 0.5)), Tensor(np.zeros(1))
    return nd.site


def _drop_lora_b_row(bundle):
    pair = next(p for p in bundle.loras if p.site == "down.0.sampler.conv.weight")
    pair.b = Tensor(pair.b.data[:-1])  # [35, r] where the host needs 36 rows
    return pair.site


def _move_lora_off_model(bundle):
    bundle.loras[0].site = "down.5.sampler.conv.weight"
    return bundle.loras[0].site


@pytest.mark.parametrize("mutate", [_shrink_norm_delta, _drop_lora_b_row, _move_lora_off_model])
def test_bundle_tensor_that_misfits_its_host_is_rejected(tmp_path, mutate):
    # each file is well formed on its own; only the host model shows the misfit
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=3)
    site = mutate(bundle)
    path = str(tmp_path / "misfit.rsad")
    store.save_bundle(bundle, path)
    loaded = store.load_bundle(path)
    x, t, c = small_batch()
    with pytest.raises(ConfigError, match=re.escape(f"adapter site {site}:")):
        adapted_forward(model, loaded, x, t, c)
    with pytest.raises(ConfigError, match=re.escape(f"adapter site {site}:")):
        merge(model, loaded)
