"""Declarative run configuration: one JSON document drives every CLI command.

The document has five sections -- model, schedule, data, train, eval --
each a frozen dataclass that checks itself when built, and ``RunConfig`` makes the
commands' own checks between sections, so a config that loads also runs.
Loading is strict: unknown keys and wrong types (per the annotations) fail
with the exact dotted path of the offender, so a typo in a config file fails
loudly instead of silently using a default.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import dataclass, field, fields

from .adapters import DEFAULT_RANK, check_alpha, check_rank
from .data import SyntheticDataset
from .diffusion import DiffusionSchedule
from .errors import ConfigError, check_seed, prefixed
from .evalbench import EvalConfig
from .trainer import TrainPlan, check_fit
from .unet import UNetConfig

__all__ = [
    "TrainConfig", "RunConfig",
    "parse_runconfig", "load_runconfig", "default_runconfig",
]


@dataclass(frozen=True)
class TrainConfig:
    resolutions: tuple[tuple[int, int], ...] = ((8, 8), (12, 12), (24, 24), (32, 32))
    standard_resolution: int = 16
    steps_base: int = 2000
    steps_adapter: int = 2000
    batch_size: int = 8
    lr: float = 1e-4  # adapter phase
    lr_base: float = 1e-3  # base pretraining starts from scratch and runs hotter
    adam_beta1: float = 0.95
    adam_beta2: float = 0.99
    weight_decay: float = 0.0
    seed: int = 0
    p_uncond: float = 0.1
    rank: int = DEFAULT_RANK
    alpha_r: float = 0.4

    def plan(self, phase: str, steps: int | None = None) -> TrainPlan:
        """The training plan of one phase; ``steps`` overrides the config's step count."""
        base = phase == "base"
        s = self.standard_resolution
        return TrainPlan(
            resolutions=((s, s),) if base else self.resolutions,
            standard_resolution=s,
            steps=steps if steps is not None else (self.steps_base if base else self.steps_adapter),
            phase=phase,
            batch_size=self.batch_size,
            lr=self.lr_base if base else self.lr,
            adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2,
            weight_decay=self.weight_decay,
            seed=self.seed,
            p_uncond=self.p_uncond,
        )

    def __post_init__(self):
        check_seed("train.seed", self.seed)
        with prefixed("train.alpha_r "):
            check_alpha(self.alpha_r)
        for phase in ("base", "adapter"):
            with prefixed(f"train ({phase} phase): "):
                self.plan(phase)


@dataclass(frozen=True)
class RunConfig:
    model: UNetConfig = field(default_factory=UNetConfig)
    schedule: DiffusionSchedule = field(default_factory=DiffusionSchedule)
    data: SyntheticDataset = field(default_factory=SyntheticDataset)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        check_fit(self.model, self.data)
        for phase in ("base", "adapter"):
            plan = self.train.plan(phase)
            with prefixed(f"train ({phase} phase): "):
                check_fit(self.model, self.data, plan.resolutions, plan.p_uncond)
        with prefixed("train.rank: "):
            check_rank(self.model, "resadapter", self.train.rank)
        with prefixed("eval.buckets: "):
            check_fit(self.model, self.data, self.eval.buckets)


_SECTION_TYPES = {
    "model": UNetConfig,
    "schedule": DiffusionSchedule,
    "data": SyntheticDataset,
    "train": TrainConfig,
    "eval": EvalConfig,
}

def _coerce_leaf(path: str, expected, value):
    if expected is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean, got {_shown(value)}")
        return value
    if expected is int:
        return _int_at(path, value)
    if expected is float:
        return _float_at(path, value)
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {_shown(value)}")
        return value
    if expected == tuple[tuple[int, int], ...]:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list of [H, W] pairs")
        out = []
        for hw in value:
            if not isinstance(hw, (list, tuple)) or len(hw) != 2:
                raise ConfigError(f"{path} entries must be [H, W] pairs, got {_shown(hw)}")
            out.append((_int_at(f"{path}[0]", hw[0]), _int_at(f"{path}[1]", hw[1])))
        return tuple(out)
    if typing.get_origin(expected) is tuple:  # tuple[T, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list of numbers")
        item = typing.get_args(expected)[0]
        return tuple(_coerce_leaf(path, item, v) for v in value)
    raise ConfigError(f"{path}: unsupported config field type {expected!r}")


def _shown(value) -> str:
    """``repr`` for error messages, made total: repr raises ValueError on an int past
    Python's 4,300-digit limit, so an int past 63 bits shows its bit length, nested too."""
    if isinstance(value, int) and value.bit_length() > 63:
        return f"a {value.bit_length()}-bit integer"
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _int_at(path: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {_shown(value)}")
    if not -2**63 <= value < 2**63:  # numpy indexes and sizes with int64
        raise ConfigError(f"{path} must fit in 64 bits, got {_shown(value)}")
    return value


def _float_at(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {_shown(value)}")
    return float(_int_at(path, value) if isinstance(value, int) else value)


@functools.cache
def _field_types(cls) -> dict:
    """Each field's resolved annotation; resolving costs ~0.2 ms, so once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _build_section(name: str, cls, payload: dict):
    if not isinstance(payload, dict):
        raise ConfigError(f"section '{name}' must be an object, got {_shown(payload)}")
    valid = _field_types(cls)
    unknown = sorted(set(payload) - set(valid))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(f'{name}.{k}' for k in unknown)}")
    kwargs = {key: _coerce_leaf(f"{name}.{key}", valid[key], value)
              for key, value in payload.items()}
    return cls(**kwargs)


def parse_runconfig(document: dict) -> RunConfig:
    if not isinstance(document, dict):
        raise ConfigError("run configuration must be a JSON object")
    unknown = sorted(set(document) - set(_SECTION_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = {
        name: _build_section(name, cls, document[name])
        for name, cls in _SECTION_TYPES.items()
        if name in document
    }
    return RunConfig(**kwargs)


def load_runconfig(path: str | None) -> RunConfig:
    """Parse a JSON run configuration; None gives the defaults."""
    if path is None:
        return default_runconfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int literal over 4300 digits
            raise ConfigError(f"malformed run configuration JSON: {exc}") from None
    return parse_runconfig(document)


def default_runconfig() -> RunConfig:
    return RunConfig()
