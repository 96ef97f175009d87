"""Denoiser structure: site grammar, init, conditioning, shape handling."""

import numpy as np
import pytest

from resolab import Tape, ops
from resolab.errors import ConfigError, ResolutionError, ShapeError
from resolab.unet import (
    SITE_SELECTORS,
    UNetConfig,
    build_unet,
    list_sites,
    model_fingerprint,
    site_shapes,
    time_embedding,
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
    with pytest.raises(ConfigError, match="model seed must be >= 0, got -1"):
        build_unet(TINY, seed=-1)


def test_fresh_model_predicts_exactly_zero():
    model = build_unet(TINY, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 8, 8)))
    out = unet_forward(model, x, [1, 5], [0, 1])
    assert out.shape == x.shape
    assert (out.data == 0.0).all()


def test_time_embedding_hand_values():
    # dim=4: freqs = [10000^0, 10000^(-1/2)] = [1, 0.01]  [DERIVED]
    emb = time_embedding(1, 4).data
    np.testing.assert_allclose(
        emb, [np.sin(1.0), np.sin(0.01), np.cos(1.0), np.cos(0.01)], rtol=0, atol=1e-15
    )
    emb50 = time_embedding(50, 4).data
    np.testing.assert_allclose(
        emb50, [np.sin(50.0), np.sin(0.5), np.cos(50.0), np.cos(0.5)], rtol=0, atol=1e-15
    )
    with pytest.raises(ConfigError):
        time_embedding(1, 5)


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


def test_forward_works_across_resolutions():
    # the same weights run at any divisor-compatible size (fully convolutional)
    model = build_unet(TINY, seed=1)
    model.params["out.conv.weight"].data[:] = 0.1
    for hw in (4, 8, 12, 24):
        x = Tensor(np.random.default_rng(hw).standard_normal((1, 1, hw, hw)))
        assert unet_forward(model, x, 2, [0]).shape == (1, 1, hw, hw)


def test_list_sites_selectors():
    model = build_unet(UNetConfig(), seed=0)
    assert list_sites(model, "sampler_convs") == [
        "down.0.sampler.conv.weight", "up.0.sampler.conv.weight",
    ]
    assert list_sites(model, "attention_projections") == [
        "mid.attn.k.weight", "mid.attn.o.weight", "mid.attn.q.weight", "mid.attn.v.weight",
    ]
    norms = list_sites(model, "resnet_norms")
    assert len(norms) == 32  # 8 res blocks x 2 norms x (gamma, beta)
    assert all(".res." in s and (".norm1." in s or ".norm2." in s) for s in norms)
    assert "out.norm.gamma" not in norms  # head norm is not a resnet norm
    assert list_sites(model) == sorted(model.params)
    assert list_sites(model, "all") == sorted(model.params)
    with pytest.raises(ConfigError):
        list_sites(model, "nope")
    assert set(SITE_SELECTORS) == {"sampler_convs", "resnet_norms",
                                   "attention_projections", "all"}


def test_fingerprint_depends_on_structure_only():
    a = build_unet(TINY, seed=0)
    b = build_unet(TINY, seed=123)
    assert model_fingerprint(a) == model_fingerprint(b)  # values don't matter
    wider = build_unet(UNetConfig(), seed=0)
    assert model_fingerprint(a) != model_fingerprint(wider)
    assert len(model_fingerprint(a)) == 16
    int(model_fingerprint(a), 16)  # valid hex


def test_fingerprint_fnv1a_reference():
    # independent FNV-1a implementation over the same site:shape listing
    model = build_unet(TINY, seed=0)
    text = "\n".join(
        f"{k}:{','.join(str(d) for d in model.params[k].shape)}" for k in sorted(model.params)
    )
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    assert model_fingerprint(model) == format(h, "016x")


def test_config_validation():
    with pytest.raises(ConfigError):
        UNetConfig(channel_mults=(1,)).validate()
    with pytest.raises(ConfigError):
        UNetConfig(time_embed_dim=7).validate()
    with pytest.raises(ConfigError, match="widest"):
        UNetConfig(time_embed_dim=8, base_channels=8).validate()  # widest level is 16
    with pytest.raises(ConfigError, match="groups"):
        UNetConfig(base_channels=6, groups=4, time_embed_dim=32).validate()
    assert UNetConfig().validate() is not None
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
