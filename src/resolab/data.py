"""Synthetic scene generators, resolution-parametric by construction.

Each generator renders a continuous scene on pixel centers, so the same
(class, jitter) draw produces consistent images at any resolution: rendering
at 2R and box-downscaling approximates rendering at R. Values stay in
[-1, 1]. Class ids select a scene family; per-sample jitter keeps the
dataset from collapsing to one image per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AT_LEAST_1, ConfigError, Count, Range, check_fields, check_int

__all__ = ["SyntheticDataset", "GENERATORS"]

GENERATORS = ("checkers", "discs", "gradients")


def _grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    v = (np.arange(height) + 0.5) / height
    u = (np.arange(width) + 0.5) / width
    return np.meshgrid(v, u, indexing="ij")


@dataclass(frozen=True)
class SyntheticDataset:
    generator: str = "gradients"
    num_classes: Count = 4
    channels: Count = 1

    def __post_init__(self):
        check_fields(self, "data.")
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r} (choose from {GENERATORS})")

    def build(self) -> SyntheticDataset:
        """Return self: the benchmark harness (perfbench/workloads.py) calls ``build()``."""
        return self

    def render(self, class_id: int, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
        """One [C, H, W] sample in [-1, 1]; consumes a fixed number of draws."""
        class_id = check_int("class id", class_id, Range(0, self.num_classes, open_hi=True))
        height = check_int("height", height, AT_LEAST_1)
        width = check_int("width", width, AT_LEAST_1)
        jitter = rng.uniform(0.0, 1.0, size=4)
        planes = [
            self._render_plane(class_id, height, width, jitter, ch_shift=0.07 * ch)
            for ch in range(self.channels)
        ]
        return np.stack(planes)

    def _render_plane(self, k: int, height: int, width: int, jitter: np.ndarray,
                      ch_shift: float) -> np.ndarray:
        vv, uu = _grid(height, width)
        amp = 0.7 + 0.3 * jitter[3]
        if self.generator == "checkers":
            fx = 1.0 + (k % 2)
            fy = 1.0 + ((k // 2) % 2)
            img = np.sin(2 * np.pi * (fx * uu + jitter[0] + ch_shift)) * \
                np.sin(2 * np.pi * (fy * vv + jitter[1] + ch_shift))
        elif self.generator == "discs":
            cx = 0.25 + 0.5 * (k % 2) + 0.2 * (jitter[0] - 0.5)
            cy = 0.25 + 0.5 * ((k // 2) % 2) + 0.2 * (jitter[1] - 0.5)
            r0 = 0.18 + 0.1 * jitter[2] + ch_shift
            r = np.sqrt((uu - cx) ** 2 + (vv - cy) ** 2)
            img = np.tanh((r0 - r) / 0.1)
        else:  # gradients
            theta = np.pi * (k / self.num_classes) + 0.3 * (jitter[0] - 0.5) + ch_shift
            proj = (uu - 0.5) * np.cos(theta) + (vv - 0.5) * np.sin(theta) + 0.3 * (jitter[1] - 0.5)
            img = np.tanh(3.0 * proj)
        return amp * img
