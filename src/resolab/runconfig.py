"""Declarative run configuration: one JSON document drives every CLI command.

The document has five sections -- model, schedule, data, train, eval --
each a frozen dataclass that checks itself when built, and ``RunConfig`` makes the
commands' own checks between sections, so a config that loads also runs.
Loading is strict: an unknown key fails with its dotted path, so a typo in a
config file fails loudly instead of silently using a default. The loader
checks no value itself: each section holds its fields to the one type and range
rule of ``errors.check_fields`` (per the annotations) when built, from a file
and from Python alike, and names the offender by its dotted path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .adapters import DEFAULT_RANK, check_rank
from .data import SyntheticDataset
from .diffusion import DiffusionSchedule
from .errors import (ConfigError, Count, Natural, NonNegative, Rate, Unit, _field_types, _shown,
                     check_fields, prefixed)
from .evalbench import EvalConfig
from .trainer import TrainPlan, check_fit
from .unet import UNetConfig

__all__ = [
    "TrainConfig", "RunConfig",
    "parse_runconfig", "load_runconfig", "default_runconfig",
]


@dataclass(frozen=True)
class TrainConfig:
    resolutions: tuple[tuple[Count, Count], ...] = ((8, 8), (12, 12), (24, 24), (32, 32))
    standard_resolution: Count = 16
    steps_base: Natural = 2000
    steps_adapter: Natural = 2000
    batch_size: Count = 8
    lr: NonNegative = 1e-4  # adapter phase
    lr_base: NonNegative = 1e-3  # base pretraining starts from scratch and runs hotter
    adam_beta1: Rate = 0.95
    adam_beta2: Rate = 0.99
    weight_decay: NonNegative = 0.0
    seed: Natural = 0
    p_uncond: Rate = 0.1
    rank: Count = DEFAULT_RANK
    alpha_r: Unit = 0.4

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
        check_fields(self, "train.")
        # the base plan's one bucket holds nothing the fields do not; the adapter plan's
        # buckets must be non-empty and not all at the standard size
        with prefixed("train (adapter phase): "):
            self.plan("adapter")


@dataclass(frozen=True)
class RunConfig:
    model: UNetConfig = field(default_factory=UNetConfig)
    schedule: DiffusionSchedule = field(default_factory=DiffusionSchedule)
    data: SyntheticDataset = field(default_factory=SyntheticDataset)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        check_fields(self, "")
        check_fit(self.model, self.data)
        for phase in ("base", "adapter"):
            plan = self.train.plan(phase)
            with prefixed(f"train ({phase} phase): "):
                check_fit(self.model, self.data, plan.resolutions, plan.p_uncond)
        with prefixed("train.rank: "):
            check_rank(self.model, "resadapter", self.train.rank)
        with prefixed("eval.buckets: "):
            check_fit(self.model, self.data, self.eval.buckets)


def _build_section(name: str, cls, payload: dict):
    if not isinstance(payload, dict):
        raise ConfigError(f"section '{name}' must be an object, got {_shown(payload)}")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(f'{name}.{k}' for k in unknown)}")
    return cls(**payload)  # the section checks its field types and values itself


def parse_runconfig(document: dict) -> RunConfig:
    if not isinstance(document, dict):
        raise ConfigError("run configuration must be a JSON object")
    sections = dict(_field_types(RunConfig))
    unknown = sorted(set(document) - set(sections))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return RunConfig(**{name: _build_section(name, cls, document[name])
                        for name, cls in sections.items() if name in document})


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
