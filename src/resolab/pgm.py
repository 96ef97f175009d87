"""Minimal binary PGM/PPM writer for sampled images.

Netpbm is the one raster format writable without any imaging dependency:
a tiny ASCII header followed by raw bytes. Single-channel arrays become P5
(PGM), three-channel become P6 (PPM). Values in [-1, 1] map linearly onto
[0, 255] with round-half-to-even, clipping anything outside the range
(so -inf and +inf become 0 and 255); a NaN pixel has no byte and raises
NumericError before anything is written.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

__all__ = ["encode", "write"]


def _to_bytes(image: np.ndarray) -> np.ndarray:
    scaled = (np.asarray(image, dtype=np.float64) + 1.0) * 127.5
    if np.isnan(scaled).any():
        raise NumericError("pgm: NaN pixel in image")
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def encode(image: np.ndarray) -> bytes:
    """Encode a [C,H,W] or [H,W] array in [-1, 1] as P5/P6 bytes."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ShapeError(f"expected [H,W], [1,H,W] or [3,H,W] image, got shape {arr.shape}")
    channels, height, width = arr.shape
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    samples = _to_bytes(arr)
    # interleave channels pixel-by-pixel: [C,H,W] -> [H,W,C]
    payload = np.ascontiguousarray(samples.transpose(1, 2, 0)).tobytes()
    return header + payload


def write(path: str, image: np.ndarray) -> None:
    data = encode(image)  # before the open, so a failed encode leaves no file
    with open(path, "wb") as fh:
        fh.write(data)
