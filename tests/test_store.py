"""Container round-trips, canonical bytes, and malformed-file diagnostics."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from container_fixtures import (
    BUNDLE_CASES,
    MODEL_CASES,
    PREFIX,
    SMALL,
    read_parts,
    small_bundle,
    small_model,
)
from resolab.adapters import attach_resadapter, attach_style_lora, merge
from resolab.cli import main
from resolab.errors import ConfigError, ContainerError, NumericError
from resolab.store import (
    FORMAT_VERSION,
    inspect,
    load_bundle,
    load_model,
    save_bundle,
    save_model,
)
from resolab.tensor import Tensor
from resolab.unet import build_unet, unet_forward


# ---------------------------------------------------------------------------
# round trips and canonical bytes


def test_model_round_trip_is_float32_exact(tmp_path):
    model = small_model()
    path = tmp_path / "m.rsbm"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.config == model.config
    for name, t in model.params.items():
        quantized = t.data.astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(loaded.params[name].data, quantized, err_msg=name)
    assert sum(t.size for t in loaded.params.values() if not t.requires_grad) == 0
    assert all(t.requires_grad for t in loaded.params.values())


def test_model_round_trip_max_error_small(tmp_path):
    model = small_model(seed=1)
    path = tmp_path / "m.rsbm"
    save_model(model, str(path))
    loaded = load_model(str(path))
    worst = max(np.abs(loaded.params[n].data - model.params[n].data).max()
                for n in model.params)
    assert worst <= 1e-6  # float32 quantization of O(0.1) values


def test_identical_models_serialize_to_identical_bytes(tmp_path):
    a, b = tmp_path / "a.rsbm", tmp_path / "b.rsbm"
    save_model(small_model(seed=3), str(a))
    save_model(small_model(seed=3), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_resave_after_load_is_byte_identical(tmp_path):
    first = tmp_path / "m1.rsbm"
    save_model(small_model(seed=4), str(first))
    second = tmp_path / "m2.rsbm"
    save_model(load_model(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_one_serializes_to_ieee754_single_bytes(tmp_path):
    model = build_unet(SMALL, seed=0)  # fresh norm gains are exactly 1.0
    path = tmp_path / "m.rsbm"
    save_model(model, str(path))
    _, _, header, payload = read_parts(path)
    entry = next(e for e in header["tensors"] if e["name"] == "out.norm.gamma")
    start = entry["offset"]
    assert payload[start:start + 4] == bytes((0x00, 0x00, 0x80, 0x3F))


def test_loaded_model_forward_close_to_original(tmp_path):
    model = small_model(seed=5)
    path = tmp_path / "m.rsbm"
    save_model(model, str(path))
    loaded = load_model(str(path))
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 1, 8, 8)))
    a = unet_forward(model, x, 3, [0, 1]).data
    b = unet_forward(loaded, x, 3, [0, 1]).data
    np.testing.assert_allclose(a, b, atol=1e-5)


def test_bundle_round_trip(tmp_path):
    model = small_model()
    bundle = small_bundle(model).with_alpha(0.75)
    path = tmp_path / "b.rsad"
    save_bundle(bundle, str(path))
    loaded = load_bundle(str(path))
    assert loaded.alpha == 0.75
    assert loaded.base_fingerprint == bundle.base_fingerprint
    assert loaded.rank == bundle.rank == 2
    orig, back = bundle.tensors, loaded.tensors
    assert sorted(back) == sorted(orig)
    for name in orig:
        np.testing.assert_array_equal(back[name].data,
                                      orig[name].data.astype("<f4").astype(np.float64))


def test_restricted_bundle_round_trip(tmp_path):
    model = small_model()
    bundle = attach_resadapter(model, rank=2, seed=9).restricted({"norm_delta"})
    path = tmp_path / "d.rsad"
    save_bundle(bundle, str(path))
    loaded = load_bundle(str(path))
    assert loaded.rank == 0
    assert sorted(loaded.tensors) == sorted(bundle.tensors)
    assert all(".delta." in name for name in loaded.tensors)


def test_style_bundle_round_trip(tmp_path):
    bundle = attach_style_lora(small_model(), rank=2, seed=3).with_alpha(0.25)
    rng = np.random.default_rng(4)
    for t in bundle.tensors.values():  # exactly representable in float32
        t.data = rng.standard_normal(t.shape).astype("<f4").astype(np.float64)
    path = tmp_path / "s.rsad"
    save_bundle(bundle, str(path))
    loaded = load_bundle(str(path))
    assert loaded.kind == bundle.kind == "style-lora"
    assert loaded.alpha == 0.25
    assert loaded.base_fingerprint == bundle.base_fingerprint
    orig, back = bundle.tensors, loaded.tensors
    assert sorted(back) == sorted(orig)
    for name in orig:
        np.testing.assert_array_equal(back[name].data, orig[name].data, err_msg=name)


def test_bundle_bytes_are_pinned(tmp_path):
    # digest of the canonical layout; the RNG-only fixture makes it platform-stable
    path = tmp_path / "b.rsad"
    save_bundle(small_bundle(small_model()).with_alpha(0.4), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "298d125cfe3b208b639cadedb38b42ea989e88630ad171609af3689a9cae7228")


@pytest.mark.parametrize("save,make,digest", [
    (save_model, small_model,
     "5b9edac1ff4651f417afdf03216f2fa6fea013c54f5f23c9ba7d1e4265b7d12d"),
    (save_bundle, lambda: small_bundle(small_model()),
     "4498f4f20375422899204818ba26c7fedf077c96b4acfcd76c202fda7a70f22e"),
], ids=["model", "bundle"])
def test_diagnostics_base_files_are_pinned(tmp_path, save, make, digest):
    # the files every malformed-file row starts from: a codec change cannot alter them unseen
    path = tmp_path / "c.bin"
    save(make(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _built(tmp_path):
    return small_model(seed=6)


def _merged(tmp_path):
    model = small_model(seed=7)
    return merge(model, small_bundle(model).with_alpha(0.6))


def _loaded(tmp_path):
    path = tmp_path / "first.rsbm"
    save_model(small_model(seed=8), str(path))
    return load_model(str(path))


@pytest.mark.parametrize("make", [_built, _merged, _loaded], ids=["build_unet", "merge", "load_model"])
def test_every_built_model_saves_and_loads_back(tmp_path, make):
    model = make(tmp_path)
    path = tmp_path / "m.rsbm"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.config == model.config and loaded.fingerprint == model.fingerprint
    assert list(loaded.params) == sorted(model.params)
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data,
                                      t.data.astype("<f4").astype(np.float64), err_msg=name)
    again = tmp_path / "again.rsbm"
    save_model(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_a_parameter_reshaped_after_build_is_refused_at_save(tmp_path):
    model = small_model()
    model.params["out.conv.bias"].data = np.zeros(3)
    with pytest.raises(ConfigError, match=r"^out\.conv\.bias: stored shape \(3,\) != expected \(1,\)$"):
        save_model(model, str(tmp_path / "m.rsbm"))
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file


def test_a_bundle_leaf_reshaped_after_build_is_refused_at_save(tmp_path):
    bundle = small_bundle(small_model())
    bundle.tensors["down.0.res.0.norm1.delta.gamma"].data = np.zeros(3)
    with pytest.raises(ConfigError, match=r"^down\.0\.res\.0\.norm1: delta shapes \(3,\)/\(1,\) inconsistent$"):
        save_bundle(bundle, str(tmp_path / "b.rsad"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, 1e39], ids=["nan", "past_float32"])
def test_a_non_finite_payload_is_refused_at_save(tmp_path, value):
    # a save refuses what a load would refuse: no NaN or inf as float32 in the file
    model = small_model()
    model.params["out.conv.bias"].data[0] = value
    with pytest.raises(NumericError, match=r"m\.rsbm: out\.conv\.bias: non-finite value"):
        save_model(model, str(tmp_path / "m.rsbm"))
    bundle = small_bundle(small_model())
    bundle.tensors["down.0.res.0.norm1.delta.gamma"].data[0] = value
    with pytest.raises(NumericError, match=r"b\.rsad: down\.0\.res\.0\.norm1\.delta\.gamma: non-finite"):
        save_bundle(bundle, str(tmp_path / "b.rsad"))
    assert list(tmp_path.iterdir()) == []  # neither a file nor a temp file


def test_no_temp_files_left_behind(tmp_path):
    save_model(small_model(), str(tmp_path / "m.rsbm"))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "m.rsbm"]
    assert leftovers == []


# ---------------------------------------------------------------------------
# malformed files: every diagnostic fires on a crafted fixture


@pytest.mark.parametrize("name,mutate,pattern", MODEL_CASES,
                         ids=[c[0] for c in MODEL_CASES])
def test_model_diagnostics(tmp_path, name, mutate, pattern):
    path = tmp_path / "m.rsbm"
    save_model(small_model(), str(path))
    mutate(path)
    with pytest.raises(ContainerError, match=pattern):
        load_model(str(path))


@pytest.mark.parametrize("name,mutate,pattern", BUNDLE_CASES,
                         ids=[c[0] for c in BUNDLE_CASES])
def test_bundle_diagnostics(tmp_path, name, mutate, pattern):
    model = small_model()
    path = tmp_path / "b.rsad"
    save_bundle(small_bundle(model), str(path))
    mutate(path)
    with pytest.raises(ContainerError, match=pattern):
        load_bundle(str(path))


@pytest.fixture(scope="module")
def saved_containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = small_model()
    save_model(model, str(root / "m.rsbm"))
    save_bundle(small_bundle(model), str(root / "b.rsad"))
    return {name: (root / name).read_bytes() for name in ("m.rsbm", "b.rsad")}, root


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["m.rsbm", "b.rsad"]), where=st.floats(0.0, 1.0, exclude_max=True),
       value=st.integers(0, 255))
def test_single_byte_header_mutation_loads_or_exits_2(saved_containers, kind, where, value):
    # prefix or JSON header, any byte value: never an untyped exception
    originals, root = saved_containers
    raw = bytearray(originals[kind])
    header_end = PREFIX.size + PREFIX.unpack_from(raw)[2]
    raw[int(where * header_end)] = value
    path = root / ("mutated-" + kind)
    path.write_bytes(bytes(raw))
    assert main(["inspect", str(path)]) in (0, 2)


def test_model_magic_rejected_by_bundle_loader(tmp_path):
    path = tmp_path / "m.rsbm"
    save_model(small_model(), str(path))
    with pytest.raises(ContainerError, match="bad magic"):
        load_bundle(str(path))


# ---------------------------------------------------------------------------
# inspection


def test_inspect_model(tmp_path):
    path = tmp_path / "m.rsbm"
    save_model(small_model(), str(path))
    text = inspect(str(path))
    assert "RSBM" in text and "base model checkpoint" in text
    assert "out.conv.weight" in text
    assert f"version: {FORMAT_VERSION}" in text


def test_inspect_bundle(tmp_path):
    model = small_model()
    path = tmp_path / "b.rsad"
    save_bundle(small_bundle(model), str(path))
    text = inspect(str(path))
    assert "RSAD" in text and "rank: 2" in text
    assert "adapter kind: resadapter" in text
    assert "alpha_r: 1.0" in text
    assert "down.0.sampler.conv.weight.lora.A" in text


def test_inspect_unknown_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ContainerError, match="bad magic"):
        inspect(str(path))
