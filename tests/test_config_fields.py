"""Every config dataclass holds its fields to one type rule, read from its annotations,
from Python as from a run-config file; integer arguments of the ops meet the same rule."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from resolab import ops
from resolab.adapters import check_rank
from resolab.data import SyntheticDataset
from resolab.diffusion import DiffusionSchedule, SamplerConfig, ddim_sample, ddim_timesteps
from resolab.errors import ConfigError, NumericError
from resolab.evalbench import EvalConfig
from resolab.runconfig import RunConfig, TrainConfig
from resolab.tensor import Tensor
from resolab.trainer import TrainPlan, make_batch
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


X = Tensor(np.ones((1, 2, 4, 4)))
W = Tensor(np.zeros((2, 2, 3, 3)))
ONES, ZEROS = Tensor(np.ones(2)), Tensor(np.zeros(2))

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
     "group_norm: eps must be finite and > 0, got -1.0"),
    ("eps_zero", lambda: ops.group_norm(X, 2, ONES, ZEROS, eps=0), ConfigError,
     "group_norm: eps must be finite and > 0, got 0"),
    ("eps_nan", lambda: ops.group_norm(X, 2, ONES, ZEROS, eps=math.nan), ConfigError,
     "group_norm: eps must be finite and > 0, got nan"),
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
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in _BAD_ARGUMENTS],
                         ids=[c[0] for c in _BAD_ARGUMENTS])
def test_an_argument_of_the_wrong_type_or_range_is_refused(call, error, message):
    # each used to raise a raw TypeError, run truncated, or return a NaN
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
