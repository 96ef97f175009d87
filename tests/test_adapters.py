"""Adapter bundles: attach identity, alpha scaling, merge, freeze, budgets."""

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from resolab import store
from resolab.adapters import (
    _layout,
    DELTA_BETA_SUFFIX,
    DELTA_GAMMA_SUFFIX,
    LORA_A_SUFFIX,
    LORA_B_SUFFIX,
    AdapterBundle,
    attach_resadapter,
    attach_style_lora,
    check_rank,
    effective_param_map,
    merge,
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
    for t in bundle.tensors.values():
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
    tensors = bundle.tensors
    assert bundle.rank == 4
    # down.0 sampler: host [8, 8, 3, 3] -> A [8, 4], B [72, 4] = 320 params
    a, b = (tensors["down.0.sampler.conv.weight" + s] for s in (LORA_A_SUFFIX, LORA_B_SUFFIX))
    assert a.shape == (8, 4) and b.shape == (72, 4)
    assert a.size + b.size == 320
    # up.0 sampler sees concatenated skip channels: host [8, 16+8+12? ...] -> B rows = C_in*9
    host = model.params["up.0.sampler.conv.weight"]
    assert tensors["up.0.sampler.conv.weight" + LORA_A_SUFFIX].shape == (host.shape[0], 4)
    assert tensors["up.0.sampler.conv.weight" + LORA_B_SUFFIX].shape == (int(np.prod(host.shape[1:])), 4)
    assert sum(t.size for name, t in tensors.items() if ".lora." in name) == 928
    assert sum(t.size for name, t in tensors.items() if ".delta." in name) == 354
    assert trainable_param_count(bundle) == 1282


def test_param_budget_under_five_percent():
    model = build_unet(UNetConfig(), seed=0)
    bundle = attach_resadapter(model, rank=4, seed=0)
    total = sum(t.size for t in model.params.values())
    assert total == 27195
    assert trainable_param_count(bundle) / total < 0.05
    # everything froze on attach
    assert sum(t.size for t in model.params.values() if not t.requires_grad) == total


def test_rank_validation():
    model = small_model()
    with pytest.raises(ConfigError):
        attach_resadapter(model, rank=0)
    # smallest sampler host has 4 output channels -> rank must be <= 4
    model2 = small_model()
    with pytest.raises(ConfigError, match="rank"):
        attach_resadapter(model2, rank=5)


@pytest.mark.parametrize("kind,attach", [("resadapter", attach_resadapter),
                                         ("style-lora", attach_style_lora)])
def test_check_rank_is_the_rule_attach_applies(kind, attach):
    # SMALL's hosts allow ranks up to 4 (sampler convs) and 8 (attention projections)
    for rank in range(-1, 11):
        model = small_model()
        try:
            check_rank(SMALL, kind, rank)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                attach(model, rank=rank)
            # rejected before freezing the base
            assert sum(t.size for t in model.params.values() if not t.requires_grad) == 0
        else:
            assert attach(model, rank=rank).rank == rank
    with pytest.raises(ConfigError, match=re.escape(
            "rank 4 invalid for site down.0.sampler.conv.weight (must be in [1, 1])")):
        check_rank(UNetConfig(base_channels=1), "resadapter", 4)


@pytest.mark.parametrize("config", [SMALL, UNetConfig()], ids=["small", "desk"])
@pytest.mark.parametrize("kind,attach", [("resadapter", attach_resadapter),
                                         ("style-lora", attach_style_lora)])
def test_attach_builds_the_layout(config, kind, attach):
    # the layout is the attached bundle's table: names, order and shapes, at every valid rank
    valid = []
    for rank in range(1, 2 * config.level_channels[-1] + 1):
        try:
            check_rank(config, kind, rank)
        except ConfigError:
            continue
        valid.append(rank)
        bundle = attach(build_unet(config, seed=0), rank=rank, seed=1)
        assert [(n, t.shape) for n, t in bundle.tensors.items()] == list(
            _layout(config, kind, rank).items())
    assert valid == list(range(1, valid[-1] + 1)) and valid[-1] >= 4


def test_attach_rejects_negative_seed():
    for attach in (attach_resadapter, attach_style_lora):
        model = small_model()
        with pytest.raises(ConfigError, match="adapter seed must be >= 0, got -1"):
            attach(model, seed=-1)
        # rejected before freezing the base
        assert sum(t.size for t in model.params.values() if not t.requires_grad) == 0


def test_named_tensor_suffixes():
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=1)
    names = bundle.tensors
    lora, norms = bundle.names("conv_lora"), bundle.names("norm_delta")
    n_lora = sum(1 for n in names if n.endswith((LORA_A_SUFFIX, LORA_B_SUFFIX)))
    n_delta = sum(1 for n in names if n.endswith((DELTA_GAMMA_SUFFIX, DELTA_BETA_SUFFIX)))
    assert n_lora == len(lora)
    assert n_delta == len(norms)
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
    after = unet_forward(model, x, t, c, effective_param_map(model, bundle)).data
    np.testing.assert_array_equal(before, after)  # B and deltas start at zero


def test_attach_style_lora_identity_and_sites():
    model = small_model()
    x, t, c = small_batch()
    before = unet_forward(model, x, t, c).data.copy()
    bundle = attach_style_lora(model, rank=2, seed=5)
    after = unet_forward(model, x, t, c, effective_param_map(model, bundle)).data
    np.testing.assert_array_equal(before, after)
    sites = [n.removesuffix(LORA_A_SUFFIX) for n in bundle.names("conv_lora")
             if n.endswith(LORA_A_SUFFIX)]
    assert sorted(sites) == [f"mid.attn.{k}.weight" for k in ("k", "o", "q", "v")]
    assert bundle.names("norm_delta") == []


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
    moved = unet_forward(model, x, t, c, effective_param_map(model, bundle)).data
    assert np.abs(moved - base_out).max() > 1e-6  # adapter genuinely active
    off = unet_forward(model, x, t, c, effective_param_map(model, bundle.with_alpha(0.0))).data
    np.testing.assert_array_equal(off, base_out)
    assert bundle.alpha == 1.0  # with_alpha returns a new bundle


def test_alpha_scales_param_deltas_linearly():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=2), seed=4)
    site = "down.0.sampler.conv.weight"
    host = model.params[site].data
    full = effective_param_map(model, bundle)[site].data - host
    half = effective_param_map(model, bundle.with_alpha(0.5))[site].data - host
    np.testing.assert_allclose(half, 0.5 * full, rtol=0, atol=1e-15)
    norm = "down.0.res.0.norm1"
    got = effective_param_map(model, bundle.with_alpha(0.25))[norm + ".gamma"].data
    dgamma = bundle.tensors[norm + DELTA_GAMMA_SUFFIX].data
    np.testing.assert_allclose(got, model.params[norm + ".gamma"].data + 0.25 * dgamma,
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
    def parts(b):  # "lora" and/or "delta"
        return {name.split(".")[-2] for name in b.tensors}

    lora_only = bundle.restricted({"conv_lora"})
    assert parts(lora_only) == {"lora"}
    delta_only = bundle.restricted({"norm_delta"})
    assert parts(delta_only) == {"delta"}
    neither = bundle.restricted(set())
    off = unet_forward(model, x, t, c, effective_param_map(model, neither)).data
    np.testing.assert_array_equal(off, base_out)
    # a restricted table is a part of the layout: it passes the host check, and each
    # site takes the full bundle's value where the part is kept and the base's elsewhere
    full = effective_param_map(model, bundle)
    for part in (lora_only, delta_only):
        kept = {name.rsplit(".", 2)[0] for name in part.tensors}
        for site, value in effective_param_map(model, part).items():
            wrapped = site in kept or site.rsplit(".", 1)[0] in kept
            np.testing.assert_array_equal(value.data, (full if wrapped else model.params)[site].data)
    with pytest.raises(ConfigError, match="unknown ablation mode"):
        bundle.restricted({"conv_lora", "attention"})
    # restriction does not mutate the original
    assert parts(bundle) == {"lora", "delta"}


# ---------------------------------------------------------------------------
# freeze and gradient routing


def test_attach_freezes_every_base_parameter():
    model = small_model()
    attach_resadapter(model, rank=2)
    assert sum(t.size for t in model.params.values() if not t.requires_grad) == sum(
        t.size for t in model.params.values())
    assert all(not t.requires_grad for t in model.params.values())


def test_grads_flow_to_bundle_not_base():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=11), seed=12)
    x, t, c = small_batch(seed=13)
    with Tape() as tape:
        out = unet_forward(model, x, t, c, effective_param_map(model, bundle))
        loss = ops.mean_all(ops.mul(out, out))
        tape.backward(loss)
    for name, tensor in bundle.tensors.items():
        assert tensor.grad is not None, name
    got_signal = [np.abs(t.grad).max() for t in bundle.tensors.values()]
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
        a = unet_forward(model, x, t, c, effective_param_map(model, bundle)).data
        b = unet_forward(merged, x, t, c).data
        np.testing.assert_array_equal(a, b)  # same arithmetic on both paths


def test_merge_respects_alpha():
    model = small_model()
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=16), seed=17)
    half = bundle.with_alpha(0.5)
    merged = merge(model, half)
    x, t, c = small_batch(seed=18)
    np.testing.assert_array_equal(unet_forward(model, x, t, c, effective_param_map(model, half)).data,
                                  unet_forward(merged, x, t, c).data)


def test_merge_leaves_original_untouched():
    model = small_model()
    snapshot = {k: v.data.copy() for k, v in model.params.items()}
    bundle = randomize_bundle(attach_resadapter(model, rank=2, seed=19), seed=20)
    merged = merge(model, bundle)
    for name, arr in snapshot.items():
        np.testing.assert_array_equal(model.params[name].data, arr)
    assert sum(t.size for t in merged.params.values() if not t.requires_grad) == 0
    assert all(t.requires_grad for t in merged.params.values())
    # merged weights actually moved at the wrapped sites
    site = "down.0.sampler.conv.weight"
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
        unet_forward(other, x, t, c, effective_param_map(other, bundle))
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


def _shrink_norm_delta(tensors):
    site = "down.0.res.0.norm2"
    tensors[site + DELTA_GAMMA_SUFFIX] = Tensor(np.full(1, 0.5))
    tensors[site + DELTA_BETA_SUFFIX] = Tensor(np.zeros(1))
    return site


def _drop_lora_b_row(tensors):
    name = "down.0.sampler.conv.weight" + LORA_B_SUFFIX
    tensors[name] = Tensor(tensors[name].data[:-1])  # [35, r]; the host needs 36 rows
    return "down.0.sampler.conv.weight"


def _move_lora_off_model(tensors):
    for suffix in (LORA_A_SUFFIX, LORA_B_SUFFIX):
        tensors["down.5.sampler.conv.weight" + suffix] = tensors.pop(
            "down.0.sampler.conv.weight" + suffix)
    return "down.5.sampler.conv.weight"


@pytest.mark.parametrize("mutate", [_shrink_norm_delta, _drop_lora_b_row, _move_lora_off_model])
def test_bundle_tensor_that_misfits_its_host_is_rejected(tmp_path, mutate):
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=3)
    tensors = dict(bundle.tensors)
    site = mutate(tensors)
    bundle = replace(bundle, tensors=tensors)
    # the file is well formed on its own; only the host model shows the misfit
    path = str(tmp_path / "misfit.rsad")
    store.save_bundle(bundle, path)
    x, t, c = small_batch()
    for b in (bundle, store.load_bundle(path)):
        with pytest.raises(ConfigError, match=re.escape(f"adapter site {site}:")):
            unet_forward(model, x, t, c, effective_param_map(model, b))
        with pytest.raises(ConfigError, match=re.escape(f"adapter site {site}:")):
            merge(model, b)


def test_data_reshaped_after_build_is_caught_at_use():
    # a tensor's data stays assignable, so the host check compares every shape
    model = small_model()
    x, t, c = small_batch()
    for name, shape in (("down.0.sampler.conv.weight.lora.A", (4, 3)),
                        ("down.0.sampler.conv.weight.lora.B", (36, 3)),
                        ("down.0.res.0.norm1.delta.gamma", (3,)),
                        ("down.0.res.0.norm1.delta.beta", (3,))):
        bundle = attach_resadapter(model, rank=2, seed=3)
        bundle.tensors[name].data = np.zeros(shape)
        with pytest.raises(ConfigError, match=re.escape(f"adapter site {name.rsplit('.', 2)[0]}:")):
            unet_forward(model, x, t, c, effective_param_map(model, bundle))


def test_a_name_in_no_pair_is_rejected():
    bundle = attach_resadapter(small_model(), rank=2, seed=4)
    tensors = {**bundle.tensors, "down.0.sampler.conv.weight.lora.C": Tensor(np.zeros((36, 2)))}
    with pytest.raises(ConfigError, match=r"unknown site-path 'down\.0\.sampler\.conv\.weight\.lora\.C'"):
        replace(bundle, tensors=tensors)


def _style_site_pair(bundle):  # host-fitting LoRA pair at a style-lora site
    return replace(bundle, tensors={**bundle.tensors,
                                    "mid.attn.q.weight.lora.A": Tensor(np.zeros((8, 2))),
                                    "mid.attn.q.weight.lora.B": Tensor(np.zeros((8, 2)))})


def _norm_delta_on_style(bundle):
    style = attach_style_lora(small_model(seed=1), rank=2)
    return replace(style, tensors={**style.tensors,
                                   "down.0.res.0.norm1.delta.gamma": Tensor(np.zeros(4)),
                                   "down.0.res.0.norm1.delta.beta": Tensor(np.zeros(4))})


def _without(name):
    return lambda b: replace(b, tensors={k: v for k, v in b.tensors.items() if k != name})


def _as_array(name):  # the tensor's numpy data in place of the Tensor
    return lambda b: replace(b, tensors={**b.tensors, name: b.tensors[name].data})


def _mixed_ranks(bundle):
    return replace(bundle, tensors={**bundle.tensors,
                                    "up.0.sampler.conv.weight.lora.A": Tensor(np.zeros((4, 3))),
                                    "up.0.sampler.conv.weight.lora.B": Tensor(np.zeros((108, 3)))})


BAD_BUNDLES = [
    ("site_of_other_kind", _style_site_pair, r"unknown site-path 'mid\.attn\.q\.weight\.lora\.A'"),
    ("norm_delta_on_style_lora", _norm_delta_on_style,
     r"unknown site-path 'down\.0\.res\.0\.norm1\.delta\.gamma' for a 'style-lora' bundle"),
    ("alpha_above_one", lambda b: replace(b, alpha=5.0), r"alpha_r must be a number in \[0, 1\], got 5\.0"),
    ("alpha_nan", lambda b: b.with_alpha(float("nan")), r"alpha_r must be a number in \[0, 1\], got nan"),
    ("alpha_string", lambda b: b.with_alpha("x"), r"alpha_r must be a number in \[0, 1\], got 'x'"),
    ("alpha_bool", lambda b: b.with_alpha(True), r"alpha_r must be a number in \[0, 1\], got True"),
    ("unknown_kind", lambda b: replace(b, kind="hyper"), "unknown bundle kind 'hyper'"),
    ("fingerprint_not_string", lambda b: replace(b, base_fingerprint=7),
     "base_fingerprint must be a string, got 7"),
    ("lora_a_without_b", _without("down.0.sampler.conv.weight.lora.B"),
     r"down\.0\.sampler\.conv\.weight: lora A present without B"),
    ("lora_b_without_a", _without("down.0.sampler.conv.weight.lora.A"),
     r"down\.0\.sampler\.conv\.weight: lora B present without A"),
    ("delta_gamma_without_beta", _without("down.0.res.0.norm1.delta.beta"),
     r"down\.0\.res\.0\.norm1: delta gamma present without beta"),
    ("delta_beta_without_gamma", _without("down.0.res.0.norm1.delta.gamma"),
     r"down\.0\.res\.0\.norm1: delta beta present without gamma"),
    ("mixed_ranks", _mixed_ranks, r"up\.0\.sampler\.conv\.weight: lora shapes .* contradict rank 2"),
    ("array_not_tensor", _as_array("down.0.sampler.conv.weight.lora.A"),
     r"^down\.0\.sampler\.conv\.weight\.lora\.A: expected a Tensor, got ndarray$"),
]


@pytest.mark.parametrize("name,build,pattern", BAD_BUNDLES, ids=[c[0] for c in BAD_BUNDLES])
def test_a_bundle_is_checked_when_built(name, build, pattern):
    bundle = attach_resadapter(small_model(), rank=2, seed=4)
    with pytest.raises(ConfigError, match=pattern):
        build(bundle)


def test_a_bundle_cannot_be_edited_in_place():
    bundle = attach_resadapter(small_model(), rank=2, seed=4)
    with pytest.raises(TypeError):
        bundle.tensors["down.0.sampler.conv.weight.lora.A"] = Tensor(np.zeros((4, 2)))
    with pytest.raises(TypeError):
        del bundle.tensors["down.0.sampler.conv.weight.lora.A"]
    with pytest.raises(FrozenInstanceError):
        bundle.alpha = 5.0
    # the caller's dict is copied: editing it later leaves the bundle as built
    tensors = dict(bundle.tensors)
    built = replace(bundle, tensors=tensors)
    tensors.clear()
    assert len(built.tensors) == len(bundle.tensors)


@pytest.mark.parametrize("attach", [attach_resadapter, attach_style_lora])
@pytest.mark.parametrize("modes", [{"conv_lora", "norm_delta"}, {"conv_lora"}, {"norm_delta"}, set()],
                         ids=["both", "conv_lora", "norm_delta", "neither"])
@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_every_built_bundle_saves_and_loads_back(tmp_path, attach, modes, alpha):
    bundle = randomize_bundle(attach(small_model(), rank=2, seed=5), seed=6)
    bundle = bundle.restricted(modes).with_alpha(alpha)
    path = tmp_path / "b.rsad"
    store.save_bundle(bundle, str(path))
    loaded = store.load_bundle(str(path))
    assert (loaded.kind, loaded.alpha, loaded.base_fingerprint, loaded.rank) == (
        bundle.kind, alpha, bundle.base_fingerprint, bundle.rank)
    assert list(loaded.tensors) == sorted(bundle.tensors)
    for name, t in bundle.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name].data,
                                      t.data.astype("<f4").astype(np.float64), err_msg=name)
    again = tmp_path / "again.rsad"
    store.save_bundle(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edit", [_style_site_pair, lambda b: replace(b, alpha=5.0),
                                  lambda b: replace(b, kind="hyper"),
                                  lambda b: replace(b, kind="style-lora"),
                                  lambda b: replace(b, alpha=0.25),
                                  lambda b: b.restricted({"norm_delta"}).with_alpha(0.0)],
                         ids=["style_site_pair", "alpha_5", "kind_hyper", "kind_style_lora",
                              "alpha_0.25", "norm_delta_alpha_0"])
def test_an_edited_bundle_that_builds_also_loads(tmp_path, edit):
    bundle = randomize_bundle(attach_resadapter(small_model(), rank=2, seed=7), seed=8)
    try:
        edited = edit(bundle)
    except ConfigError:
        return  # refused when built, so never written
    path = str(tmp_path / "edited.rsad")
    store.save_bundle(edited, path)
    loaded = store.load_bundle(path)
    assert (loaded.kind, loaded.alpha, sorted(loaded.tensors)) == (
        edited.kind, edited.alpha, sorted(edited.tensors))
