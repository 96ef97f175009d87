"""Binary container for model checkpoints (RSBM) and adapter bundles (RSAD).

Layout: 4-byte magic, uint32 LE format version (currently 1), uint64 LE
header length, canonical JSON header (sorted keys, no whitespace), then the
payload of float32 little-endian tensor blobs, back to back in name order.
The header carries the config and a tensor table of {name, shape, offset,
nbytes} sorted by name with offsets relative to the payload start. A payload
holds only finite values: a save refuses one that does not (NumericError), a
load rejects it (ContainerError). Writes go through a temp file in the target
directory and an atomic rename.

The two kinds differ only in magic, config and the object built, so they share
one write path (``_save``) and one read path (``_load``). The read path's key
rule: the header, its config and each tensor record hold exactly the keys their
writer writes, so a missing or unknown key fails naming it and no key is read
with a default.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, fields, replace

import numpy as np

from .adapters import AdapterBundle
from .errors import NON_NEGATIVE, ConfigError, ContainerError, NumericError, check_int
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
_HEADER_KEYS = frozenset({"config", "tensors"})
_RECORD_KEYS = frozenset({"name", "shape", "offset", "nbytes"})


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


def _save(path: str, magic: bytes, config: dict, tensors) -> None:
    """The one write path: ``config`` and the tensors' float32 blobs in name order."""
    table, blobs, offset = [], [], 0
    for name in sorted(tensors):
        with np.errstate(over="ignore"):  # a value past float32's range becomes inf, refused below
            arr = np.ascontiguousarray(tensors[name].data, dtype="<f4")
        table.append({"name": name, "shape": [int(d) for d in arr.shape],
                      "offset": offset, "nbytes": arr.nbytes})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    payload = b"".join(blobs)
    name = _non_finite(table, payload)
    if name is not None:
        raise NumericError(f"{path}: {name}: non-finite value as float32, not saved")
    header = json.dumps({"config": config, "tensors": table},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    _atomic_write(path, _PREFIX.pack(magic, FORMAT_VERSION, len(header)) + header + payload)


def _check_keys(path: str, what: str, obj, keys: frozenset) -> None:
    """The key rule: ``obj`` is a JSON object holding exactly ``keys``, those its writer writes."""
    if not isinstance(obj, dict):
        raise ContainerError(f"{path}: {what} must be a JSON object")
    if obj.keys() != keys:
        missing = sorted(keys - obj.keys())
        raise ContainerError(f"{path}: {what} lacks {missing[0]!r}" if missing else
                             f"{path}: {what} has unknown key {min(obj.keys() - keys)!r}")


def _is_count(value) -> bool:
    """A JSON integer >= 0 (JSON true/false are not counts)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _validate_table(path: str, table, payload: bytes) -> None:
    if not isinstance(table, list):
        raise ContainerError(f"{path}: tensor table must be a list of records")
    for e in table:
        _check_keys(path, "tensor record", e, _RECORD_KEYS)
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


def _model(config: dict, params: dict[str, Tensor]) -> UNetModel:
    # the config checks its field types and values, the model its sites and shapes
    return UNetModel(config=UNetConfig(**config), params=params)


def _bundle(config: dict, tensors: dict[str, Tensor]) -> AdapterBundle:
    rank = check_int("rank", config["rank"], NON_NEGATIVE)
    # the bundle checks its kind, alpha, fingerprint, sites and pairs
    bundle = AdapterBundle(kind=config["kind"], tensors=tensors, alpha=config["alpha_r"],
                           base_fingerprint=config["base_fingerprint"])
    if bundle.rank != rank:  # a bundle without LoRA pairs is rank 0
        raise ConfigError(f"lora shapes of rank {bundle.rank} contradict rank {rank}")
    return bundle


# magic -> (the config keys its writer writes, the object a load builds)
_KINDS = {
    MODEL_MAGIC: (frozenset(f.name for f in fields(UNetConfig)), _model),
    BUNDLE_MAGIC: (frozenset({"kind", "rank", "alpha_r", "base_fingerprint"}), _bundle),
}


def _load(path: str, magics: tuple[bytes, ...]) -> UNetModel | AdapterBundle:
    """The one read path: the model or bundle in ``path``, whose magic must be one of ``magics``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:4]
    if magic not in magics:
        expected = " or ".join(repr(m.decode()) for m in magics)
        raise ContainerError(f"{path}: bad magic {magic!r}, expected {expected}")
    if len(raw) < _PREFIX.size:
        raise ContainerError(f"{path}: truncated header (file is {len(raw)} bytes)")
    _, version, header_len = _PREFIX.unpack_from(raw)
    if version > FORMAT_VERSION or version < 1:
        raise ContainerError(f"{path}: unsupported format version {version} (readers know <= {FORMAT_VERSION})")
    if len(raw) < _PREFIX.size + header_len:
        raise ContainerError(f"{path}: truncated header (declared {header_len} bytes)")
    try:  # ValueError also covers an int literal past Python's 4,300 digits
        header = json.loads(raw[_PREFIX.size : _PREFIX.size + header_len].decode("utf-8"))
    except ValueError as exc:
        raise ContainerError(f"{path}: malformed header JSON ({exc})") from None
    config_keys, build = _KINDS[magic]
    _check_keys(path, "header", header, _HEADER_KEYS)
    _check_keys(path, "header 'config'", header["config"], config_keys)
    payload = raw[_PREFIX.size + header_len :]
    _validate_table(path, header["tensors"], payload)
    tensors = {}
    for e in header["tensors"]:
        blob = np.frombuffer(payload, dtype="<f4", count=e["nbytes"] // 4, offset=e["offset"])
        tensors[e["name"]] = Tensor(blob.astype(np.float64).reshape(e["shape"]), requires_grad=True)
    try:
        return build(header["config"], tensors)
    except ConfigError as exc:
        raise ContainerError(f"{path}: {exc}") from None


def save_model(model: UNetModel, path: str) -> None:
    model = replace(model)  # checks again: tensor data stays assignable after the model is built
    _save(path, MODEL_MAGIC, asdict(model.config), model.params)


def load_model(path: str) -> UNetModel:
    return _load(path, (MODEL_MAGIC,))


def save_bundle(bundle: AdapterBundle, path: str) -> None:
    bundle = replace(bundle)  # checks again: tensor data stays assignable after the bundle is built
    config = {"kind": bundle.kind, "rank": bundle.rank, "alpha_r": bundle.alpha,
              "base_fingerprint": bundle.base_fingerprint}
    _save(path, BUNDLE_MAGIC, config, bundle.tensors)


def load_bundle(path: str) -> AdapterBundle:
    return _load(path, (BUNDLE_MAGIC,))


def inspect(path: str) -> str:
    """Human-readable report for either container kind; raises on malformed files."""
    obj = _load(path, tuple(_KINDS))
    if isinstance(obj, AdapterBundle):
        title, tensors, count = "RSAD (adapter bundle)", obj.tensors, "trainable parameters"
        facts = [("adapter kind", obj.kind), ("rank", obj.rank), ("alpha_r", obj.alpha),
                 ("base_fingerprint", obj.base_fingerprint)]
    else:
        title, tensors, count, facts = "RSBM (base model checkpoint)", obj.params, "parameters", []
    lines = [f"kind: {title}", f"version: {FORMAT_VERSION}", f"tensors: {len(tensors)}",
             *(f"{label}: {value}" for label, value in facts),
             f"{count}: {sum(t.size for t in tensors.values())}", "sites:"]
    lines += [f"  {name}  {list(t.shape)}" for name, t in sorted(tensors.items())]
    return "\n".join(lines)
