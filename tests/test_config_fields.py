"""Every config dataclass holds its fields to one type and range rule, read from its
annotations, from Python as from a run-config file; arguments meet the same rule."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from resolab import ops
from resolab.adapters import check_rank
from resolab.data import SyntheticDataset
from resolab.diffusion import (DiffusionSchedule, SamplerConfig, ddim_sample, ddim_timesteps,
                               forward_marginal)
from resolab.errors import ConfigError, NumericError
from resolab.evalbench import EvalConfig, make_style_probes, tile_layout
from resolab.runconfig import RunConfig, TrainConfig
from resolab.tensor import Tensor
from resolab.trainer import AdamW, TrainPlan, make_batch, resolution_probs
from resolab.unet import UNetConfig, build_unet

# the arguments each class needs besides the field under test
_REQUIRED = {
    UNetConfig: {}, DiffusionSchedule: {}, SyntheticDataset: {}, TrainConfig: {}, RunConfig: {},
    TrainPlan: dict(resolutions=((16, 16),), standard_resolution=16, steps=1, phase="base"),
    EvalConfig: {}, SamplerConfig: {},
}
# float fields whose range, (0, 1), holds no int: their int case has no valid value
_NO_INT_IN_RANGE = {(DiffusionSchedule, "beta_start"), (DiffusionSchedule, "beta_end")}


def _fields():
    """(class, field, annotation, a valid value) for every init field of the eight classes."""
    for cls, required in _REQUIRED.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.init:
                valid = required.get(f.name, getattr(cls(**required), f.name))
                yield cls, f.name, hints[f.name], valid


def _refused(kind, valid):
    """Values of the wrong type for a field annotated ``kind`` whose valid value is ``valid``."""
    if kind is int:
        return [True, 2.5, 2**63]
    if kind is float:
        return ["x"]
    if kind is str:
        return [3]
    if kind is bool:
        return [1]
    if dataclasses.is_dataclass(kind):
        return [5]
    item = typing.get_args(kind)[0]
    if item == tuple[int, int]:
        return [(*valid, (16, 16.5))]
    return [(*valid[:-1], 2.5 if item is int else "x")]


def _accepted(kind, valid):
    """(value, the value stored) pairs of another type that a ``kind`` field converts."""
    if kind is int:
        return [(np.int64(valid), valid)]
    if kind is float:
        return [(math.floor(valid), float(math.floor(valid)))]
    if typing.get_origin(kind) is tuple:
        return [([list(v) if isinstance(v, tuple) else v for v in valid], valid)]
    return []


_REFUSED = [(cls, name, value) for cls, name, kind, valid in _fields() for value in _refused(kind, valid)]
_ACCEPTED = [(cls, name, value, stored) for cls, name, kind, valid in _fields()
             for value, stored in _accepted(kind, valid) if (cls, name) not in _NO_INT_IN_RANGE]


def _id(case):
    return f"{case[0].__name__}.{case[1]}={case[2]!r:.20}"


@pytest.mark.parametrize("cls,name,value", _REFUSED, ids=map(_id, _REFUSED))
def test_a_field_refuses_a_value_of_the_wrong_type(cls, name, value):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        cls(**{**_REQUIRED[cls], name: value})


@pytest.mark.parametrize("cls,name,value,stored", _ACCEPTED, ids=map(_id, _ACCEPTED))
def test_a_field_stores_its_declared_type(cls, name, value, stored):
    got = getattr(cls(**{**_REQUIRED[cls], name: value}), name)
    assert repr(got) == repr(stored)  # equal, and of the same type, items too


def _bounded():
    """(class, field, path, item type, Range, value -> field value) per bounded field, or per
    item of a tuple field: the last item, or the H of the last (H, W) pair, takes the value."""
    for cls, name, _, valid in _fields():
        kind = typing.get_type_hints(cls, include_extras=True)[name]
        if typing.get_origin(kind) is typing.Annotated:
            yield cls, name, name, *typing.get_args(kind), lambda x: x
        elif typing.get_origin(kind) is tuple:
            item, path = typing.get_args(kind)[0], f"{name}[{len(valid) - 1}]"
            if typing.get_origin(item) is tuple:
                yield (cls, name, path, *typing.get_args(typing.get_args(item)[0]),
                       lambda x, v=valid: (*v[:-1], (x, v[-1][1])))
            elif typing.get_origin(item) is typing.Annotated:
                yield cls, name, path, *typing.get_args(item), lambda x, v=valid: (*v[:-1], x)


def _outside(kind, bound):
    """Values just outside each finite end of ``bound``; NaN and both infinities for a float."""
    out = []
    for end, is_open, away in ((bound.lo, bound.open_lo, -1), (bound.hi, bound.open_hi, 1)):
        if not math.isfinite(end):
            continue
        if is_open:
            out.append(kind(end))
        else:
            out.append(end + away if kind is int else math.nextafter(end, away * math.inf))
    return out + ([math.nan, math.inf, -math.inf] if kind is float else [])


def _ends(kind, bound):
    """The finite ends that ``bound`` admits."""
    return [kind(end) for end, is_open in ((bound.lo, bound.open_lo), (bound.hi, bound.open_hi))
            if math.isfinite(end) and not is_open]


_OUT_OF_RANGE = [(cls, name, path, bound, value, wrap(value))
                 for cls, name, path, kind, bound, wrap in _bounded()
                 for value in _outside(kind, bound)]
_AT_THE_ENDS = [(cls, name, path, value, wrap(value))
                for cls, name, path, kind, bound, wrap in _bounded()
                for value in _ends(kind, bound)]
# an end its interval admits but another rule of the class refuses
_REFUSED_BY_ANOTHER_RULE = {(UNetConfig, "time_embed_dim", 1): "time_embed_dim must be even, got 1"}


def _range_id(case):
    return f"{case[0].__name__}.{case[2]}={case[-2]!r}"


def test_every_number_a_config_holds_is_bounded():
    numeric = {(cls, name) for cls, name, kind, _ in _fields()
               if kind in (int, float) or typing.get_origin(kind) is tuple}
    assert {(c[0], c[1]) for c in _OUT_OF_RANGE} == numeric


@pytest.mark.parametrize("cls,name,path,bound,value,field_value", _OUT_OF_RANGE,
                         ids=map(_range_id, _OUT_OF_RANGE))
def test_a_field_refuses_a_value_outside_its_interval(cls, name, path, bound, value, field_value):
    with pytest.raises(ConfigError) as exc:
        cls(**{**_REQUIRED[cls], name: field_value})
    assert str(exc.value).endswith(f"{path} must be in {bound}, got {value!r}")


@pytest.mark.parametrize("cls,name,path,value,field_value", _AT_THE_ENDS,
                         ids=map(_range_id, _AT_THE_ENDS))
def test_a_field_admits_the_ends_of_its_interval(cls, name, path, value, field_value):
    values = {**_REQUIRED[cls], name: field_value}
    other = _REFUSED_BY_ANOTHER_RULE.get((cls, path, value))
    if other:
        with pytest.raises(ConfigError, match=f"^{other}$"):
            cls(**values)
    else:
        assert getattr(cls(**values), name) == field_value


X = Tensor(np.ones((1, 2, 4, 4)))
W = Tensor(np.zeros((2, 2, 3, 3)))
ONES, ZEROS = Tensor(np.ones(2)), Tensor(np.zeros(2))
RNG = np.random.default_rng(0)

_BAD_ARGUMENTS = [
    ("conv_stride", lambda: ops.conv2d(X, W, stride=2.5), ConfigError,
     "conv2d: stride must be an integer, got 2.5"),
    ("conv_stride_bool", lambda: ops.conv2d(X, W, stride=True), ConfigError,
     "conv2d: stride must be an integer, got True"),
    ("conv_padding", lambda: ops.conv2d(X, W, padding=1.5), ConfigError,
     "conv2d: padding must be an integer, got 1.5"),
    ("fused_padding", lambda: ops.group_norm_silu_conv2d(X, 2, ONES, ZEROS, W, padding=1.5),
     ConfigError, "conv2d: padding must be an integer, got 1.5"),
    ("upsample_padding", lambda: ops.upsample_nearest2x_conv2d(X, W, padding=1.5), ConfigError,
     "conv2d: padding must be an integer, got 1.5"),
    ("groups", lambda: ops.group_norm(X, 2.0, ONES, ZEROS), ConfigError,
     "group_norm: groups must be an integer, got 2.0"),
    ("eps_negative", lambda: ops.group_norm(X, 2, ONES, ZEROS, eps=-1.0), ConfigError,
     "group_norm: eps must be in (0, inf), got -1.0"),
    ("eps_zero", lambda: ops.group_norm(X, 2, ONES, ZEROS, eps=0), ConfigError,
     "group_norm: eps must be in (0, inf), got 0.0"),
    ("eps_nan", lambda: ops.group_norm(X, 2, ONES, ZEROS, eps=math.nan), ConfigError,
     "group_norm: eps must be in (0, inf), got nan"),
    ("crop_n", lambda: ops.crop_cols(Tensor(np.ones((2, 4))), 1.5), ConfigError,
     "crop_cols: n must be an integer, got 1.5"),
    ("embed_float_ids", lambda: ops.embed_rows(Tensor(np.ones((3, 2))), np.array([1.5])),
     ConfigError, "embed_rows: ids must hold integers, got float64 values"),
    ("embed_integral_ids", lambda: ops.embed_rows(Tensor(np.ones((3, 2))), [1.0]), ConfigError,
     "embed_rows: ids must hold integers, got float64 values"),
    ("scale_nan", lambda: ops.scale(X, math.nan), NumericError,
     "scale: factor must be finite, got nan"),
    ("scale_inf", lambda: ops.scale(X, -math.inf), NumericError,
     "scale: factor must be finite, got -inf"),
    ("scale_string", lambda: ops.scale(X, "2"), ConfigError,
     "scale: factor must be a number, got '2'"),
    ("ddim_steps", lambda: ddim_timesteps(50, 2.5), ConfigError,
     "steps must be an integer, got 2.5"),
    ("sample_shape", lambda: ddim_sample(None, (1, 1, 8.0, 8), SamplerConfig(), 0, DiffusionSchedule()),
     ConfigError, "ddim_sample: shape must be an integer, got 8.0"),
    ("seed_bool", lambda: build_unet(UNetConfig(), seed=True), ConfigError,
     "model seed must be an integer, got True"),
    ("rank", lambda: check_rank(UNetConfig(), "resadapter", 2.0), ConfigError,
     "rank must be an integer, got 2.0"),
    ("batch_size", lambda: make_batch(SyntheticDataset(), (8, 8), 2.5, np.random.default_rng(0)),
     ConfigError, "batch_size must be an integer, got 2.5"),
    # each of these used to end in a raw numpy error, blame a valid value, or pass silently
    ("sample_shape_negative",
     lambda: ddim_sample(None, (1, 1, -8, 8), SamplerConfig(steps=1), 0, DiffusionSchedule()),
     ConfigError, "ddim_sample: shape must be in [1, inf), got -8"),
    ("tile_zero", lambda: tile_layout((32, 32), (0, 16), 0), ConfigError,
     "tile must be in [1, inf), got 0"),
    ("tile_negative", lambda: tile_layout((32, 32), (-4, 16), 0), ConfigError,
     "tile must be in [1, inf), got -4"),
    ("render_class_float", lambda: SyntheticDataset().render(1.5, 8, 8, RNG), ConfigError,
     "class id must be an integer, got 1.5"),
    ("render_class_bool", lambda: SyntheticDataset().render(True, 8, 8, RNG), ConfigError,
     "class id must be an integer, got True"),
    ("render_height_float", lambda: SyntheticDataset().render(1, 2.5, 8, RNG), ConfigError,
     "height must be an integer, got 2.5"),
    ("render_height_negative", lambda: SyntheticDataset().render(1, -1, 8, RNG), ConfigError,
     "height must be in [1, inf), got -1"),
    ("batch_zero_side", lambda: make_batch(SyntheticDataset(), (0, 8), 2, RNG), ConfigError,
     "height must be in [1, inf), got 0"),
    ("probs_float_side", lambda: resolution_probs([8, 8.5], 16), ConfigError,
     "resolutions[1] must be an integer, got 8.5"),
    ("probs_bool_side", lambda: resolution_probs([True, 8], 16), ConfigError,
     "resolutions[0] must be an integer, got True"),
    ("adamw_lr_negative", lambda: AdamW({"w": ONES}, lr=-1.0), ConfigError,
     "lr must be in [0, inf), got -1.0"),
    ("adamw_lr_nan", lambda: AdamW({"w": ONES}, lr=math.nan), ConfigError,
     "lr must be in [0, inf), got nan"),
    ("batch_p_uncond", lambda: make_batch(SyntheticDataset(), (8, 8), 2, RNG, 2.0, 4), ConfigError,
     "p_uncond must be in [0, 1), got 2.0"),
    ("probes_seed", lambda: make_style_probes(SyntheticDataset(), DiffusionSchedule(), 8, 2, -1),
     ConfigError, "seed must be in [0, inf), got -1"),
    ("probes_n", lambda: make_style_probes(SyntheticDataset(), DiffusionSchedule(), 8, 2.5, 0),
     ConfigError, "n must be an integer, got 2.5"),
    # an array of ids is refused at its least or greatest value, in the same wording
    ("embed_id", lambda: ops.embed_rows(Tensor(np.ones((3, 2))), np.array([0, 5])), ConfigError,
     "embed_rows: id must be in [0, 3), got 5"),
    ("schedule_timestep", lambda: DiffusionSchedule().alpha_bar_at(51), ConfigError,
     "timestep must be in [1, 50], got 51"),
    ("marginal_timestep", lambda: forward_marginal(X, [0], X, DiffusionSchedule()), ConfigError,
     "timestep must be in [1, 50], got 0"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in _BAD_ARGUMENTS],
                         ids=[c[0] for c in _BAD_ARGUMENTS])
def test_an_argument_of_the_wrong_type_or_range_is_refused(call, error, message):
    # each used to raise a raw TypeError, run truncated, or return a NaN
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
