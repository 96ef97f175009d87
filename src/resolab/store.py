"""Binary container for model checkpoints (RSBM) and adapter bundles (RSAD).

Layout: 4-byte magic, uint32 LE format version (currently 1), uint64 LE
header length, canonical JSON header (sorted keys, no whitespace), then the
payload of float32 little-endian tensor blobs, back to back in name order.
The header carries the config and a tensor table of {name, shape, offset,
nbytes} sorted by name with offsets relative to the payload start. A payload
holds only finite values: a save refuses one that does not (NumericError), a
load rejects it (ContainerError). Writes go through a temp file in the target
directory and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, replace

import numpy as np

from .adapters import AdapterBundle, trainable_param_count
from .errors import ConfigError, ContainerError, NumericError
from .runconfig import _build_section
from .tensor import Tensor
from .unet import UNetConfig, UNetModel

__all__ = [
    "MODEL_MAGIC", "BUNDLE_MAGIC", "FORMAT_VERSION",
    "save_model", "load_model", "save_bundle", "load_bundle", "inspect",
]

MODEL_MAGIC = b"RSBM"
BUNDLE_MAGIC = b"RSAD"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _pack(named: dict[str, np.ndarray]) -> tuple[list[dict], bytes]:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(named):
        with np.errstate(over="ignore"):  # a value past float32's range becomes inf, refused on save
            arr = np.ascontiguousarray(named[name], dtype="<f4")
        entries.append({
            "name": name,
            "shape": [int(d) for d in arr.shape],
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    return entries, b"".join(blobs)


def _non_finite(table: list[dict], payload: bytes) -> str | None:
    """Name of the first tensor whose float32 blob holds a NaN or inf, else None."""
    bad = np.flatnonzero(~np.isfinite(np.frombuffer(payload, dtype="<f4")))
    if not bad.size:
        return None
    at = 4 * int(bad[0])
    return next(e["name"] for e in table if e["offset"] <= at < e["offset"] + e["nbytes"])


def _atomic_write(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resolab-", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the target, not the temp file
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _write_container(path: str, magic: bytes, header_obj: dict, payload: bytes) -> None:
    name = _non_finite(header_obj["tensors"], payload)
    if name is not None:
        raise NumericError(f"{path}: {name}: non-finite value as float32, not saved")
    header = _canonical(header_obj)
    _atomic_write(path, _PREFIX.pack(magic, FORMAT_VERSION, len(header)) + header + payload)


def _read_container(path: str, expected_magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PREFIX.size:
        raise ContainerError(f"{path}: truncated header (file is {len(raw)} bytes)")
    magic, version, header_len = _PREFIX.unpack_from(raw)
    if magic != expected_magic:
        raise ContainerError(f"{path}: bad magic {magic!r}, expected {expected_magic.decode()!r}")
    if version > FORMAT_VERSION or version < 1:
        raise ContainerError(f"{path}: unsupported format version {version} (readers know <= {FORMAT_VERSION})")
    if len(raw) < _PREFIX.size + header_len:
        raise ContainerError(f"{path}: truncated header (declared {header_len} bytes)")
    try:
        header = json.loads(raw[_PREFIX.size : _PREFIX.size + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: malformed header JSON ({exc})") from None
    if not isinstance(header, dict) or "config" not in header or "tensors" not in header:
        raise ContainerError(f"{path}: header must carry 'config' and 'tensors'")
    if not isinstance(header["config"], dict):
        raise ContainerError(f"{path}: header 'config' must be a JSON object")
    return header, raw[_PREFIX.size + header_len :]


def _is_count(value) -> bool:
    """A JSON integer >= 0 (JSON true/false are not counts)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _validate_table(path: str, table, payload: bytes) -> None:
    if not isinstance(table, list) or not all(isinstance(e, dict) for e in table):
        raise ContainerError(f"{path}: tensor table must be a list of records")
    for e in table:
        missing = next((key for key in ("name", "shape", "offset", "nbytes") if key not in e), None)
        if missing:
            raise ContainerError(f"{path}: tensor record lacks {missing!r}")
        if not isinstance(e["name"], str):
            raise ContainerError(f"{path}: tensor name must be a string, got {e['name']!r}")
        # no stored tensor has a zero dim, and one would let any other dim pass the nbytes check
        if not isinstance(e["shape"], list) or not all(_is_count(d) and d > 0 for d in e["shape"]):
            raise ContainerError(
                f"{path}: {e['name']}: shape must be a list of positive ints, got {e['shape']!r}"
            )
        for key in ("offset", "nbytes"):
            if not _is_count(e[key]):
                raise ContainerError(f"{path}: {e['name']}: {key} must be a non-negative int, got {e[key]!r}")
    names = [e["name"] for e in table]
    if names != sorted(names) or len(set(names)) != len(names):
        raise ContainerError(f"{path}: tensor names must be unique and sorted")
    cursor = 0
    for e in table:
        shape, nbytes, offset = tuple(e["shape"]), e["nbytes"], e["offset"]
        if nbytes != 4 * math.prod(shape):
            raise ContainerError(f"{path}: {e['name']}: nbytes {nbytes} contradicts shape {shape}")
        if offset < cursor:
            raise ContainerError(f"{path}: overlapping extents at {e['name']}")
        if offset > cursor:
            raise ContainerError(f"{path}: gap in payload before {e['name']}")
        cursor = offset + nbytes
    if len(payload) < cursor:
        raise ContainerError(f"{path}: truncated payload ({len(payload)} bytes, need {cursor})")
    if len(payload) > cursor:
        raise ContainerError(f"{path}: {len(payload) - cursor} trailing payload bytes")
    name = _non_finite(table, payload)
    if name is not None:
        raise ContainerError(f"{path}: {name}: non-finite value in the payload")


def _unpack_tensor(payload: bytes, entry: dict) -> np.ndarray:
    count = entry["nbytes"] // 4
    arr = np.frombuffer(payload, dtype="<f4", count=count, offset=entry["offset"])
    return arr.astype(np.float64).reshape(entry["shape"])


# ---------------------------------------------------------------------------
# models


def save_model(model: UNetModel, path: str) -> None:
    model = replace(model)  # checks again: tensor data stays assignable after the model is built
    config = asdict(model.config)
    config["channel_mults"] = list(model.config.channel_mults)
    entries, payload = _pack({name: t.data for name, t in model.params.items()})
    _write_container(path, MODEL_MAGIC, {"config": config, "tensors": entries}, payload)


def load_model(path: str) -> UNetModel:
    header, payload = _read_container(path, MODEL_MAGIC)
    try:  # the run-config parser's typed fields, unknown-key check included
        config = _build_section("model", UNetConfig, header["config"])
    except ConfigError as exc:
        raise ContainerError(f"{path}: {exc}") from None
    _validate_table(path, header["tensors"], payload)
    params = {e["name"]: Tensor(_unpack_tensor(payload, e), requires_grad=True)
              for e in header["tensors"]}
    try:  # the model checks its sites and shapes
        return UNetModel(config=config, params=params)
    except ConfigError as exc:
        raise ContainerError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# adapter bundles

def save_bundle(bundle: AdapterBundle, path: str) -> None:
    bundle = replace(bundle)  # checks again: tensor data stays assignable after the bundle is built
    config = {
        "kind": bundle.kind,
        "rank": bundle.rank,
        "alpha_r": float(bundle.alpha),
        "base_fingerprint": bundle.base_fingerprint,
    }
    entries, payload = _pack({name: t.data for name, t in bundle.tensors.items()})
    _write_container(path, BUNDLE_MAGIC, {"config": config, "tensors": entries}, payload)


def load_bundle(path: str) -> AdapterBundle:
    header, payload = _read_container(path, BUNDLE_MAGIC)
    config = header["config"]
    rank = config.get("rank", 0)
    if not _is_count(rank):
        raise ContainerError(f"{path}: rank must be a non-negative int, got {rank!r}")
    _validate_table(path, header["tensors"], payload)
    tensors = {e["name"]: Tensor(_unpack_tensor(payload, e), requires_grad=True)
               for e in header["tensors"]}
    try:  # the bundle checks its kind, alpha, fingerprint, sites and pairs
        bundle = AdapterBundle(kind=config.get("kind"), tensors=tensors,
                               alpha=config.get("alpha_r", 1.0),
                               base_fingerprint=config.get("base_fingerprint"))
    except ConfigError as exc:
        raise ContainerError(f"{path}: {exc}") from None
    if bundle.rank and bundle.rank != rank:
        raise ContainerError(f"{path}: lora shapes of rank {bundle.rank} contradict rank {rank}")
    return bundle


# ---------------------------------------------------------------------------
# inspection


def inspect(path: str) -> str:
    """Human-readable report for either container kind; raises on malformed files."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MODEL_MAGIC:
        model = load_model(path)
        lines = [
            "kind: RSBM (base model checkpoint)",
            f"version: {FORMAT_VERSION}",
            f"tensors: {len(model.params)}",
            f"parameters: {sum(t.size for t in model.params.values())}",
            "sites:",
        ]
        lines += [f"  {name}  {list(model.params[name].shape)}" for name in sorted(model.params)]
        return "\n".join(lines)
    if magic == BUNDLE_MAGIC:
        bundle = load_bundle(path)
        lines = [
            "kind: RSAD (adapter bundle)",
            f"version: {FORMAT_VERSION}",
            f"adapter kind: {bundle.kind}",
            f"tensors: {len(bundle.tensors)}",
            f"rank: {bundle.rank}",
            f"alpha_r: {bundle.alpha}",
            f"base_fingerprint: {bundle.base_fingerprint}",
            f"trainable parameters: {trainable_param_count(bundle)}",
            "sites:",
        ]
        lines += [f"  {name}  {list(t.shape)}" for name, t in sorted(bundle.tensors.items())]
        return "\n".join(lines)
    raise ContainerError(f"{path}: bad magic {magic!r}, expected 'RSBM' or 'RSAD'")
