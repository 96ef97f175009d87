"""Binary container for model checkpoints (RSBM) and adapter bundles (RSAD).

Layout: 4-byte magic, uint32 LE format version (currently 1), uint64 LE
header length, canonical JSON header (sorted keys, no whitespace), then the
payload of float32 little-endian tensor blobs, back to back in name order.
The header carries the config and a tensor table of {name, shape, offset,
nbytes} sorted by name with offsets relative to the payload start. Writes go
through a temp file in the target directory and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .adapters import (
    BUNDLE_KINDS, DELTA_BETA_SUFFIX, DELTA_GAMMA_SUFFIX, LORA_A_SUFFIX, LORA_B_SUFFIX,
    AdapterBundle, LoRAPair, NormDelta, trainable_param_count,
)
from .errors import ConfigError, ContainerError
from .runconfig import _build_section
from .tensor import Tensor
from .unet import _SELECTOR_PATTERNS, UNetConfig, UNetModel, site_shapes

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


def _atomic_write(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resolab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_container(path: str, magic: bytes, header_obj: dict, payload: bytes) -> None:
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
        if not isinstance(e["shape"], list) or not all(_is_count(d) for d in e["shape"]):
            raise ContainerError(
                f"{path}: {e['name']}: shape must be a list of non-negative ints, got {e['shape']!r}"
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
    bad = np.flatnonzero(~np.isfinite(np.frombuffer(payload, dtype="<f4")))
    if bad.size:
        at = 4 * int(bad[0])
        name = next(e["name"] for e in table if e["offset"] <= at < e["offset"] + e["nbytes"])
        raise ContainerError(f"{path}: {name}: non-finite value in the payload")


def _unpack_tensor(payload: bytes, entry: dict) -> np.ndarray:
    count = entry["nbytes"] // 4
    arr = np.frombuffer(payload, dtype="<f4", count=count, offset=entry["offset"])
    return arr.astype(np.float64).reshape(entry["shape"])


# ---------------------------------------------------------------------------
# models


def save_model(model: UNetModel, path: str) -> None:
    from dataclasses import asdict

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
    expected = site_shapes(config)
    _validate_table(path, header["tensors"], payload)
    table = {e["name"]: e for e in header["tensors"]}
    unknown_sites = set(table) - set(expected)
    if unknown_sites:
        raise ContainerError(f"{path}: unknown site-path {sorted(unknown_sites)[0]!r}")
    missing = set(expected) - set(table)
    if missing:
        raise ContainerError(f"{path}: missing site-path {sorted(missing)[0]!r}")
    params = {}
    for name, entry in table.items():
        if tuple(entry["shape"]) != expected[name]:
            raise ContainerError(
                f"{path}: {name}: stored shape {tuple(entry['shape'])} != expected {expected[name]}"
            )
        params[name] = Tensor(_unpack_tensor(payload, entry), requires_grad=True)
    return UNetModel(config=config, params=params, frozen=set())


# ---------------------------------------------------------------------------
# adapter bundles

def save_bundle(bundle: AdapterBundle, path: str) -> None:
    config = {
        "kind": bundle.kind,
        "rank": int(bundle.loras[0].rank) if bundle.loras else 0,
        "alpha_r": float(bundle.alpha),
        "base_fingerprint": bundle.base_fingerprint,
    }
    entries, payload = _pack({name: t.data for name, t in bundle.named_tensors().items()})
    _write_container(path, BUNDLE_MAGIC, {"config": config, "tensors": entries}, payload)


def load_bundle(path: str) -> AdapterBundle:
    header, payload = _read_container(path, BUNDLE_MAGIC)
    config = header["config"]
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in BUNDLE_KINDS:
        raise ContainerError(f"{path}: unknown bundle kind {kind!r} (choose from {sorted(BUNDLE_KINDS)})")
    fingerprint = config.get("base_fingerprint")
    if not isinstance(fingerprint, str):
        raise ContainerError(f"{path}: base_fingerprint must be a string, got {fingerprint!r}")
    rank = config.get("rank", 0)
    if not _is_count(rank):
        raise ContainerError(f"{path}: rank must be a non-negative int, got {rank!r}")
    alpha = config.get("alpha_r", 1.0)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0.0 <= alpha <= 1.0:
        raise ContainerError(f"{path}: alpha_r must be a number in [0, 1], got {alpha!r}")
    _validate_table(path, header["tensors"], payload)
    # suffix -> (selector pattern of the kind, host param tail appended to the site)
    lora_pattern, delta_pattern = (_SELECTOR_PATTERNS.get(sel) for sel in BUNDLE_KINDS[kind])
    site_rules = {
        LORA_A_SUFFIX: (lora_pattern, ""), LORA_B_SUFFIX: (lora_pattern, ""),
        DELTA_GAMMA_SUFFIX: (delta_pattern, ".gamma"), DELTA_BETA_SUFFIX: (delta_pattern, ".gamma"),
    }
    arrays: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name = entry["name"]
        suffix = next((s for s in site_rules if name.endswith(s)), None)
        pattern, tail = site_rules.get(suffix, (None, ""))
        if pattern is None or not pattern.match(name[: -len(suffix)] + tail):
            raise ContainerError(f"{path}: unknown site-path {name!r}")
        arrays[name] = _unpack_tensor(payload, entry)

    lora_sites = sorted({n[: -len(LORA_A_SUFFIX)] for n in arrays if n.endswith(LORA_A_SUFFIX)})
    pairs = []
    for site in lora_sites:
        a_name, b_name = site + LORA_A_SUFFIX, site + LORA_B_SUFFIX
        if b_name not in arrays:
            raise ContainerError(f"{path}: {site}: lora A present without B")
        a, b = arrays[a_name], arrays[b_name]
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != rank or b.shape[1] != rank:
            raise ContainerError(f"{path}: {site}: lora shapes {a.shape}/{b.shape} contradict rank {rank}")
        pairs.append(LoRAPair(site=site, a=Tensor(a, requires_grad=True),
                              b=Tensor(b, requires_grad=True), rank=rank))
    orphan_b = {n[: -len(LORA_B_SUFFIX)] for n in arrays if n.endswith(LORA_B_SUFFIX)} - set(lora_sites)
    if orphan_b:
        raise ContainerError(f"{path}: {sorted(orphan_b)[0]}: lora B present without A")

    delta_sites = sorted({n[: -len(DELTA_GAMMA_SUFFIX)] for n in arrays if n.endswith(DELTA_GAMMA_SUFFIX)})
    deltas = []
    for site in delta_sites:
        g_name, b_name = site + DELTA_GAMMA_SUFFIX, site + DELTA_BETA_SUFFIX
        if b_name not in arrays:
            raise ContainerError(f"{path}: {site}: delta gamma present without beta")
        dg, db = arrays[g_name], arrays[b_name]
        if dg.shape != db.shape or dg.ndim != 1:
            raise ContainerError(f"{path}: {site}: delta shapes {dg.shape}/{db.shape} inconsistent")
        deltas.append(NormDelta(site=site, dgamma=Tensor(dg, requires_grad=True),
                                dbeta=Tensor(db, requires_grad=True)))
    orphan_db = {n[: -len(DELTA_BETA_SUFFIX)] for n in arrays if n.endswith(DELTA_BETA_SUFFIX)} - set(delta_sites)
    if orphan_db:
        raise ContainerError(f"{path}: {sorted(orphan_db)[0]}: delta beta present without gamma")

    return AdapterBundle(kind=kind, loras=pairs, norm_deltas=deltas, alpha=float(alpha),
                         base_fingerprint=fingerprint)


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
        named = bundle.named_tensors()
        lines = [
            "kind: RSAD (adapter bundle)",
            f"version: {FORMAT_VERSION}",
            f"adapter kind: {bundle.kind}",
            f"tensors: {len(named)}",
            f"rank: {bundle.loras[0].rank if bundle.loras else 0}",
            f"alpha_r: {bundle.alpha}",
            f"base_fingerprint: {bundle.base_fingerprint}",
            f"trainable parameters: {trainable_param_count(bundle)}",
            "sites:",
        ]
        lines += [f"  {name}  {list(named[name].shape)}" for name in sorted(named)]
        return "\n".join(lines)
    raise ContainerError(f"{path}: bad magic {magic!r}, expected 'RSBM' or 'RSAD'")
