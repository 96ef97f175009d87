"""Denoiser structure: site grammar, init, conditioning, shape handling."""

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from resolab import Tape, ops
from resolab.adapters import _layout
from resolab.errors import ConfigError, ResolutionError, ShapeError
from resolab.unet import (
    UNetConfig,
    UNetModel,
    build_unet,
    _time_embedding_rows,
    site_shapes,
    unet_forward,
)
from resolab.tensor import Tensor

TINY = UNetConfig(
    in_channels=1, base_channels=4, channel_mults=(1, 2), num_res_blocks_per_level=1,
    groups=4, attn_at_bottleneck=True, time_embed_dim=8, num_classes=2,
)


def test_site_shapes_tiny_config_exact():
    # hand enumeration of the grammar for the tiny config [DERIVED]
    expected = {
        "time.mlp0.weight": (8, 8), "time.mlp0.bias": (8,),
        "time.mlp1.weight": (8, 8), "time.mlp1.bias": (8,),
        "embed.class.weight": (3, 8),  # 2 classes + null row
        "down.0.res.0.norm1.gamma": (1,), "down.0.res.0.norm1.beta": (1,),
        "down.0.res.0.conv1.weight": (4, 1, 3, 3), "down.0.res.0.conv1.bias": (4,),
        "down.0.res.0.norm2.gamma": (4,), "down.0.res.0.norm2.beta": (4,),
        "down.0.res.0.conv2.weight": (4, 4, 3, 3), "down.0.res.0.conv2.bias": (4,),
        "down.0.res.0.skip.weight": (4, 1, 1, 1),
        "down.0.sampler.conv.weight": (4, 4, 3, 3), "down.0.sampler.conv.bias": (4,),
        "down.1.res.0.norm1.gamma": (4,), "down.1.res.0.norm1.beta": (4,),
        "down.1.res.0.conv1.weight": (8, 4, 3, 3), "down.1.res.0.conv1.bias": (8,),
        "down.1.res.0.norm2.gamma": (8,), "down.1.res.0.norm2.beta": (8,),
        "down.1.res.0.conv2.weight": (8, 8, 3, 3), "down.1.res.0.conv2.bias": (8,),
        "down.1.res.0.skip.weight": (8, 4, 1, 1),
        "mid.res.0.norm1.gamma": (8,), "mid.res.0.norm1.beta": (8,),
        "mid.res.0.conv1.weight": (8, 8, 3, 3), "mid.res.0.conv1.bias": (8,),
        "mid.res.0.norm2.gamma": (8,), "mid.res.0.norm2.beta": (8,),
        "mid.res.0.conv2.weight": (8, 8, 3, 3), "mid.res.0.conv2.bias": (8,),
        "mid.attn.q.weight": (8, 8), "mid.attn.k.weight": (8, 8),
        "mid.attn.v.weight": (8, 8), "mid.attn.o.weight": (8, 8),
        "mid.res.1.norm1.gamma": (8,), "mid.res.1.norm1.beta": (8,),
        "mid.res.1.conv1.weight": (8, 8, 3, 3), "mid.res.1.conv1.bias": (8,),
        "mid.res.1.norm2.gamma": (8,), "mid.res.1.norm2.beta": (8,),
        "mid.res.1.conv2.weight": (8, 8, 3, 3), "mid.res.1.conv2.bias": (8,),
        "up.0.sampler.conv.weight": (4, 8, 3, 3), "up.0.sampler.conv.bias": (4,),
        "up.0.res.0.norm1.gamma": (4,), "up.0.res.0.norm1.beta": (4,),
        "up.0.res.0.conv1.weight": (4, 4, 3, 3), "up.0.res.0.conv1.bias": (4,),
        "up.0.res.0.norm2.gamma": (4,), "up.0.res.0.norm2.beta": (4,),
        "up.0.res.0.conv2.weight": (4, 4, 3, 3), "up.0.res.0.conv2.bias": (4,),
        "out.norm.gamma": (4,), "out.norm.beta": (4,),
        "out.conv.weight": (1, 4, 3, 3), "out.conv.bias": (1,),
    }
    assert site_shapes(TINY) == expected


def test_default_config_parameter_count():
    # hand total for the default config: MLPs 2112 + embed 160 + down 10842
    # + mid 10432 + up 3560 + out 89 = 27195  [DERIVED]
    shapes = site_shapes(UNetConfig())
    total = sum(int(np.prod(s)) for s in shapes.values())
    assert total == 27195


def test_build_is_deterministic_and_initialized_by_role():
    a = build_unet(TINY, seed=7)
    b = build_unet(TINY, seed=7)
    c = build_unet(TINY, seed=8)
    assert all((a.params[k].data == b.params[k].data).all() for k in a.params)
    assert any((a.params[k].data != c.params[k].data).any() for k in a.params)
    # role-based init: biases/betas zero, gammas one, output conv zeroed
    assert (a.params["down.0.res.0.conv1.bias"].data == 0).all()
    assert (a.params["mid.res.0.norm1.beta"].data == 0).all()
    assert (a.params["mid.res.0.norm1.gamma"].data == 1).all()
    assert (a.params["out.conv.weight"].data == 0).all()
    assert (a.params["out.conv.bias"].data == 0).all()
    w = a.params["down.1.res.0.conv1.weight"]
    assert 0.5 * np.sqrt(2 / 36) < w.data.std() < 2.0 * np.sqrt(2 / 36)


def test_build_rejects_negative_seed():
    with pytest.raises(ConfigError, match=r"model seed must be in \[0, inf\), got -1"):
        build_unet(TINY, seed=-1)


def test_fresh_model_predicts_exactly_zero():
    model = build_unet(TINY, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 8, 8)))
    out = unet_forward(model, x, [1, 5], [0, 1])
    assert out.shape == x.shape
    assert (out.data == 0.0).all()


def test_time_embedding_hand_values():
    # dim=4: freqs = [10000^0, 10000^(-1/2)] = [1, 0.01]  [DERIVED]
    emb, emb50 = _time_embedding_rows(np.array([1.0, 50.0]), 4)
    np.testing.assert_allclose(
        emb, [np.sin(1.0), np.sin(0.01), np.cos(1.0), np.cos(0.01)], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        emb50, [np.sin(50.0), np.sin(0.5), np.cos(50.0), np.cos(0.5)], rtol=0, atol=1e-15
    )


def test_forward_responds_to_t_and_c_after_unzeroing():
    model = build_unet(TINY, seed=0)
    rng = np.random.default_rng(3)
    model.params["out.conv.weight"].data[:] = 0.3 * rng.standard_normal((1, 4, 3, 3))
    x = Tensor(rng.standard_normal((1, 1, 8, 8)))
    base = unet_forward(model, x, 3, [0]).data
    assert (unet_forward(model, x, 4, [0]).data != base).any()
    assert (unet_forward(model, x, 3, [1]).data != base).any()
    # null class row is a valid input (embedding_rows = num_classes + 1)
    null_out = unet_forward(model, x, 3, [2]).data
    assert null_out.shape == base.shape


def test_class_id_out_of_range():
    model = build_unet(TINY, seed=0)
    x = Tensor(np.zeros((1, 1, 8, 8)))
    with pytest.raises(ConfigError, match="null token = 2"):
        unet_forward(model, x, 1, [3])
    with pytest.raises(ConfigError):
        unet_forward(model, x, 1, None)  # conditional model needs ids


def test_resolution_divisibility_error():
    model = build_unet(TINY, seed=0)
    with pytest.raises(ResolutionError, match="divisible by 2"):
        unet_forward(model, Tensor(np.zeros((1, 1, 7, 8))), 1, [0])
    # three levels -> divisor 4
    cfg3 = UNetConfig(base_channels=4, channel_mults=(1, 1, 2), groups=4,
                      time_embed_dim=8, num_classes=2, num_res_blocks_per_level=1)
    m3 = build_unet(cfg3, seed=0)
    assert cfg3.spatial_divisor == 4
    with pytest.raises(ResolutionError):
        unet_forward(m3, Tensor(np.zeros((1, 1, 10, 8))), 1, [0])
    out = unet_forward(m3, Tensor(np.zeros((1, 1, 8, 8))), 1, [0])
    assert out.shape == (1, 1, 8, 8)


def test_forward_shape_checks():
    model = build_unet(TINY, seed=0)
    with pytest.raises(ShapeError):
        unet_forward(model, Tensor(np.zeros((1, 1, 8))), 1, [0])
    with pytest.raises(ShapeError):
        unet_forward(model, Tensor(np.zeros((1, 2, 8, 8))), 1, [0])
    with pytest.raises(ShapeError):
        unet_forward(model, Tensor(np.zeros((2, 1, 8, 8))), [1, 2, 3], [0, 1])


def test_forward_refuses_an_empty_batch():
    # the class-id range check used to meet numpy's min() of an empty array
    model = build_unet(TINY, seed=0)
    with pytest.raises(ShapeError, match="t: the batch is empty"):
        unet_forward(model, Tensor(np.zeros((0, 1, 8, 8))), 1, [])


@pytest.mark.parametrize("t,c,dtype", [
    (2.7, [0, 1], "float64"), (3.0, [0, 1], "float64"), ("x", [0, 1], "<U1"),
    (True, [0, 1], "bool"), (2, [0, 1.9], "float64"), (2, np.array([0.0, 1.0]), "float64"),
], ids=["t_float", "t_integral_float", "t_string", "t_bool", "c_float", "c_integral_floats"])
def test_forward_refuses_a_non_integer_id(t, c, dtype):
    # t = 2.7 used to run as t = 2 and class id 1.9 as 1; "x" raised numpy's ValueError
    model = build_unet(TINY, seed=0)
    name = "c" if isinstance(t, int) and not isinstance(t, bool) else "t"
    with pytest.raises(ConfigError, match=f"^{name} must hold integers, got {re.escape(dtype)} values$"):
        unet_forward(model, Tensor(np.zeros((2, 1, 8, 8))), t, c)


def test_forward_takes_numpy_integer_ids():
    model = build_unet(TINY, seed=0)
    x = Tensor(np.random.default_rng(3).standard_normal((2, 1, 8, 8)))
    ref = unet_forward(model, x, 2, [0, 1]).data
    assert np.array_equal(unet_forward(model, x, np.int32(2), np.array([0, 1], np.uint8)).data, ref)


def test_forward_works_across_resolutions():
    # the same weights run at any divisor-compatible size (fully convolutional)
    model = build_unet(TINY, seed=1)
    model.params["out.conv.weight"].data[:] = 0.1
    for hw in (4, 8, 12, 24):
        x = Tensor(np.random.default_rng(hw).standard_normal((1, 1, hw, hw)))
        assert unet_forward(model, x, 2, [0]).shape == (1, 1, hw, hw)


def test_adapter_layouts_on_the_desk_config():
    # which sites each bundle kind wraps, read from the desk model's grammar
    config = UNetConfig()
    res = _layout(config, "resadapter", 4)
    lora = [name for name in res if ".lora." in name]
    assert lora == [f"{level}.sampler.conv.weight.lora.{ab}"
                    for level in ("down.0", "up.0") for ab in "AB"]
    deltas = [name for name in res if ".delta." in name]
    assert len(deltas) == 32  # 8 res blocks x 2 norms x (gamma, beta)
    assert all(re.fullmatch(r"(down\.\d|mid|up\.\d)\.res\.\d\.norm[12]\.delta\.(gamma|beta)", n)
               for n in deltas)
    assert not any(name.startswith("out.norm") for name in res)  # head norm is not a resnet norm
    assert lora + deltas == list(res)  # LoRA pairs first, then the norm deltas
    shapes = site_shapes(config)
    for name in deltas:
        assert res[name] == shapes[name.rsplit(".", 2)[0] + ".gamma"]
    style = _layout(config, "style-lora", 2)
    assert list(style) == [f"mid.attn.{p}.weight.lora.{ab}" for p in "koqv" for ab in "AB"]
    assert set(style.values()) == {(16, 2)}
    assert _layout(replace(config, attn_at_bottleneck=False), "style-lora", 2) == {}


def test_fingerprint_depends_on_structure_only():
    a = build_unet(TINY, seed=0)
    b = build_unet(TINY, seed=123)
    assert a.fingerprint == b.fingerprint  # values don't matter
    wider = build_unet(UNetConfig(), seed=0)
    assert a.fingerprint != wider.fingerprint
    assert len(a.fingerprint) == 16
    int(a.fingerprint, 16)  # valid hex


def test_fingerprint_fnv1a_reference():
    # independent FNV-1a implementation over the same site:shape listing
    model = build_unet(TINY, seed=0)
    text = "\n".join(
        f"{k}:{','.join(str(d) for d in model.params[k].shape)}" for k in sorted(model.params)
    )
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    assert model.fingerprint == format(h, "016x")


def test_config_validation():
    with pytest.raises(ConfigError):
        UNetConfig(channel_mults=(1,))
    with pytest.raises(ConfigError):
        UNetConfig(time_embed_dim=7)
    with pytest.raises(ConfigError, match="widest"):
        UNetConfig(time_embed_dim=8, base_channels=8)  # widest level is 16
    with pytest.raises(ConfigError, match="groups"):
        UNetConfig(base_channels=6, groups=4, time_embed_dim=32)
    UNetConfig()
    # unconditional model: no embedding rows, no class ids needed
    cfg = UNetConfig(base_channels=4, groups=4, time_embed_dim=8, num_classes=0,
                     num_res_blocks_per_level=1)
    m = build_unet(cfg, seed=0)
    assert "embed.class.weight" not in m.params
    assert cfg.null_class is None
    out = unet_forward(m, Tensor(np.zeros((1, 1, 8, 8))), 1)
    assert (out.data == 0).all()


def test_forward_gradcheck_single_conv_weight():
    # end-to-end finite difference on one conv weight through the whole net
    model = build_unet(TINY, seed=5)
    rng = np.random.default_rng(5)
    model.params["out.conv.weight"].data[:] = 0.2 * rng.standard_normal((1, 4, 3, 3))
    x = Tensor(rng.standard_normal((1, 1, 8, 8)))
    site = "down.1.res.0.conv1.weight"
    w0 = model.params[site].data.copy()

    def loss_at(arr):
        params = dict(model.params)
        params[site] = Tensor(arr)
        return ops.sum_all(unet_forward(model, x, 4, [1], params=params)).item()

    probe = Tensor(w0.copy(), requires_grad=True)
    with Tape() as tape:
        params = dict(model.params)
        params[site] = probe
        tape.backward(ops.sum_all(unet_forward(model, x, 4, [1], params=params)))

    rng_idx = np.random.default_rng(0)
    flat = probe.grad.ravel()
    for _ in range(5):
        idx = tuple(rng_idx.integers(0, s) for s in w0.shape)
        e = np.zeros_like(w0)
        e[idx] = 1e-4
        numeric = (loss_at(w0 + e) - loss_at(w0 - e)) / 2e-4
        analytic = probe.grad[idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-4
    assert np.all(np.isfinite(flat))


# ---------------------------------------------------------------------------
# a model is valid once it exists


def _edit(*changes):
    """A params edit: per (name, value), drop ``name`` (value None) or set a Tensor of ``value``."""
    def edit(params):
        params = dict(params)
        for name, value in changes:
            params.pop(name, None)
            if value is not None:
                params[name] = Tensor(np.asarray(value, dtype=np.float64))
        return params
    return edit


BAD_MODELS = [  # messages pinned by tests/container_fixtures.py after the file path
    ("unknown_site", _edit(("embed.claxx.weight", np.zeros((3, 8)))),
     r"^unknown site-path 'embed\.claxx\.weight'$"),
    ("missing_site", _edit(("mid.res.0.conv1.bias", None)),
     r"^missing site-path 'mid\.res\.0\.conv1\.bias'$"),
    ("misshapen_site", _edit(("out.conv.bias", np.zeros(3))),
     r"^out\.conv\.bias: stored shape \(3,\) != expected \(1,\)$"),
    ("unknown_before_missing", _edit(("embed.class.weight", None), ("embed.claxx.weight", np.zeros((3, 8)))),
     r"^unknown site-path 'embed\.claxx\.weight'$"),
    ("missing_before_misshapen", _edit(("down.0.res.0.conv1.bias", [1.0]), ("time.mlp1.bias", None)),
     r"^missing site-path 'time\.mlp1\.bias'$"),
    ("first_misshapen_in_name_order", _edit(("up.0.res.0.conv2.bias", np.zeros(5)),
                                            ("down.0.res.0.norm1.beta", np.zeros(3))),
     r"^down\.0\.res\.0\.norm1\.beta: stored shape \(3,\) != expected \(1,\)$"),
    ("array_not_tensor", lambda params: {**params, "out.conv.bias": np.zeros(1)},
     r"^out\.conv\.bias: expected a Tensor, got ndarray$"),
]


@pytest.mark.parametrize("name,edit,pattern", BAD_MODELS, ids=[c[0] for c in BAD_MODELS])
def test_a_model_is_checked_when_built(name, edit, pattern):
    model = build_unet(TINY, seed=0)
    with pytest.raises(ConfigError, match=pattern):
        UNetModel(config=TINY, params=edit(model.params))
    with pytest.raises(ConfigError, match=pattern):
        replace(model, params=edit(model.params))


def test_a_model_of_another_config_is_refused():
    model = build_unet(TINY, seed=0)
    with pytest.raises(ConfigError, match="site-path"):
        replace(model, config=UNetConfig())


def test_a_model_cannot_be_edited_in_place():
    model = build_unet(TINY, seed=0)
    with pytest.raises(TypeError):
        model.params["out.conv.bias"] = Tensor(np.zeros(1))
    with pytest.raises(TypeError):
        del model.params["out.conv.bias"]
    with pytest.raises(FrozenInstanceError):
        model.params = {}
    # the caller's dict is copied: editing it later leaves the model as built
    params = dict(model.params)
    built = UNetModel(config=TINY, params=params)
    params.clear()
    assert sorted(built.params) == sorted(model.params)


def test_fingerprint_follows_from_the_config():
    listed = UNetConfig(**{**TINY.__dict__, "channel_mults": [1, 2]})
    assert listed == TINY and hash(listed) == hash(TINY)
    assert build_unet(listed, seed=1).fingerprint == build_unet(TINY, seed=0).fingerprint


def test_forward_names_the_first_missing_site():
    model = build_unet(TINY, seed=0)
    x = Tensor(np.zeros((1, 1, 8, 8)))
    first = min(model.params)
    with pytest.raises(ConfigError, match=re.escape(f"params lack site-path {first!r}")):
        unet_forward(model, x, 1, [0], params={})
    params = _edit(("mid.attn.k.weight", None))(model.params)
    with pytest.raises(ConfigError, match=r"params lack site-path 'mid\.attn\.k\.weight'"):
        unet_forward(model, x, 1, [0], params=params)
    extra = {**model.params, "not.a.site": Tensor(np.zeros(1))}  # extra keys are ignored
    np.testing.assert_array_equal(unet_forward(model, x, 1, [0], params=extra).data,
                                  unet_forward(model, x, 1, [0]).data)
