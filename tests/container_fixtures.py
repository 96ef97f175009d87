"""Shared container fixtures: valid files plus every malformed-file mutation.

Each case is (name, mutate, pattern): ``mutate`` edits a freshly saved valid
file in place, and loading it afterwards must raise ContainerError whose
message matches ``pattern``.
"""

import json
import struct

import numpy as np

from resolab.adapters import attach_resadapter
from resolab.store import BUNDLE_MAGIC, MODEL_MAGIC
from resolab.unet import UNetConfig, build_unet

SMALL = UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                   num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                   num_classes=2)
PREFIX = struct.Struct("<4sIQ")


def small_model(seed=0):
    model = build_unet(SMALL, seed=seed)
    rng = np.random.default_rng(50 + seed)
    for t in model.params.values():
        t.data = 0.1 * rng.standard_normal(t.shape)
    return model


def small_bundle(model, seed=11):
    bundle = attach_resadapter(model, rank=2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for t in bundle.named_tensors().values():
        t.data = 0.05 * rng.standard_normal(t.shape)
    return bundle


def read_parts(path):
    raw = path.read_bytes()
    magic, version, hlen = PREFIX.unpack_from(raw)
    header = json.loads(raw[PREFIX.size:PREFIX.size + hlen])
    return magic, version, header, raw[PREFIX.size + hlen:]


def write_parts(path, magic, version, header, payload):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(PREFIX.pack(magic, version, len(blob)) + blob + payload)


def _edit(path, magic, fn):
    """Apply fn(header, payload) -> (header, payload) and rewrite the file."""
    _, version, header, payload = read_parts(path)
    header, payload = fn(header, payload)
    write_parts(path, magic, version, header, payload)


def drop_entry(path, magic, predicate):
    """Remove one table entry, compacting offsets and payload around it."""
    def fn(header, payload):
        idx = next(i for i, e in enumerate(header["tensors"]) if predicate(e["name"]))
        entry = header["tensors"].pop(idx)
        start, size = entry["offset"], entry["nbytes"]
        payload = payload[:start] + payload[start + size:]
        for e in header["tensors"]:
            if e["offset"] > start:
                e["offset"] -= size
        return header, payload
    _edit(path, magic, fn)


def shrink_entry(path, magic, suffix):
    """Drop the last element of a 1-D tensor, keeping the table consistent."""
    def fn(header, payload):
        entry = next(e for e in header["tensors"] if e["name"].endswith(suffix))
        start, old = entry["offset"], entry["nbytes"]
        entry["shape"] = [entry["shape"][0] - 1]
        entry["nbytes"] = old - 4
        payload = payload[:start + old - 4] + payload[start + old:]
        for e in header["tensors"]:
            if e["offset"] > start:
                e["offset"] -= 4
        return header, payload
    _edit(path, magic, fn)


def _swap_first_rows(path, magic):
    def fn(header, payload):
        header["tensors"][0], header["tensors"][1] = (
            header["tensors"][1], header["tensors"][0])
        return header, payload
    _edit(path, magic, fn)


def _rename(path, magic, old, new):
    def fn(header, payload):
        entry = next(e for e in header["tensors"] if e["name"] == old)
        entry["name"] = new
        return header, payload
    _edit(path, magic, fn)


def _patch_entry(path, magic, site, **changes):
    def fn(header, payload):
        entry = next(e for e in header["tensors"] if e["name"] == site)
        entry.update(changes)
        return header, payload
    _edit(path, magic, fn)


def _drop_entry_key(path, magic, key):
    def fn(header, payload):
        del header["tensors"][0][key]
        return header, payload
    _edit(path, magic, fn)


def _poison_payload(path, magic, value):
    """Overwrite the last float32 of the payload with ``value``."""
    def fn(header, payload):
        return header, payload[:-4] + np.float32(value).astype("<f4").tobytes()
    _edit(path, magic, fn)


def _rename_sorted(path, magic, old, new):
    """Rename one entry, then re-sort the table and lay the payload out to match."""
    def fn(header, payload):
        blobs = {}
        for e in header["tensors"]:
            blob = payload[e["offset"]:e["offset"] + e["nbytes"]]
            if e["name"] == old:
                e["name"] = new
            blobs[e["name"]] = blob
        header["tensors"].sort(key=lambda e: e["name"])
        offset = 0
        for e in header["tensors"]:
            e["offset"] = offset
            offset += e["nbytes"]
        return header, b"".join(blobs[e["name"]] for e in header["tensors"])
    _edit(path, magic, fn)


def _patch_config(path, magic, **changes):
    def fn(header, payload):
        header["config"].update(changes)
        return header, payload
    _edit(path, magic, fn)


def _set_config(path, magic, config):
    def fn(header, payload):
        header["config"] = config
        return header, payload
    _edit(path, magic, fn)


def _drop_config_key(path, magic, key):
    def fn(header, payload):
        del header["config"][key]
        return header, payload
    _edit(path, magic, fn)


# --- model-file mutations ---------------------------------------------------

def _m_truncate_prefix(path):
    path.write_bytes(b"RSBM\x01")


def _m_bad_magic(path):
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])


def _m_bump_version(path):
    _, version, header, payload = read_parts(path)
    write_parts(path, MODEL_MAGIC, version + 1, header, payload)


def _m_declare_long_header(path):
    raw = bytearray(path.read_bytes())
    raw[8:16] = struct.pack("<Q", len(raw) * 2)
    path.write_bytes(bytes(raw))


def _m_garbage_json(path):
    _, _, _, payload = read_parts(path)
    blob = b"{this is not json"
    path.write_bytes(PREFIX.pack(MODEL_MAGIC, 1, len(blob)) + blob + payload)


def _m_drop_tensors_key(path):
    def fn(header, payload):
        del header["tensors"]
        return header, payload
    _edit(path, MODEL_MAGIC, fn)


def _m_duplicate_name(path):
    def fn(header, payload):
        header["tensors"][1]["name"] = header["tensors"][0]["name"]
        return header, payload
    _edit(path, MODEL_MAGIC, fn)


def _m_nbytes_lie(path):
    def fn(header, payload):
        header["tensors"][0]["nbytes"] += 4
        return header, payload
    _edit(path, MODEL_MAGIC, fn)


def _m_overlap(path):
    def fn(header, payload):
        header["tensors"][1]["offset"] -= 4
        return header, payload
    _edit(path, MODEL_MAGIC, fn)


def _m_gap(path):
    def fn(header, payload):
        header["tensors"][1]["offset"] += 4
        return header, payload
    _edit(path, MODEL_MAGIC, fn)


def _m_truncate_payload(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])


def _m_trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00")


def _m_missing_site(path):
    def fn(header, payload):
        dropped = header["tensors"].pop()  # last in sorted order
        return header, payload[:dropped["offset"]]
    _edit(path, MODEL_MAGIC, fn)


def _m_transpose_shape(path):
    def fn(header, payload):
        entry = next(e for e in header["tensors"] if e["name"] == "embed.class.weight")
        entry["shape"] = entry["shape"][::-1]
        return header, payload
    _edit(path, MODEL_MAGIC, fn)


MODEL_CASES = [
    ("truncated_prefix", _m_truncate_prefix, "truncated header"),
    ("bad_magic", _m_bad_magic, "bad magic"),
    ("unsupported_version", _m_bump_version, "unsupported format version"),
    ("declared_header_too_long", _m_declare_long_header, "truncated header"),
    ("malformed_json", _m_garbage_json, "malformed header JSON"),
    ("missing_required_keys", _m_drop_tensors_key, "must carry"),
    ("unsorted_names", lambda p: _swap_first_rows(p, MODEL_MAGIC), "unique and sorted"),
    ("duplicate_names", _m_duplicate_name, "unique and sorted"),
    ("nbytes_contradicts_shape", _m_nbytes_lie, "contradicts shape"),
    ("overlapping_extents", _m_overlap, "overlapping extents"),
    ("payload_gap", _m_gap, "gap in payload"),
    ("truncated_payload", _m_truncate_payload, "truncated payload"),
    ("trailing_payload", _m_trailing_bytes, "trailing payload"),
    ("unknown_config_key", lambda p: _patch_config(p, MODEL_MAGIC, zoom_factor=2),
     "unknown config key"),
    ("config_not_object", lambda p: _set_config(p, MODEL_MAGIC, []),
     "'config' must be a JSON object"),
    ("config_int_as_string", lambda p: _patch_config(p, MODEL_MAGIC, groups="4"),
     "model.groups must be an integer"),
    ("config_bool_as_string", lambda p: _patch_config(p, MODEL_MAGIC, attn_at_bottleneck="no"),
     "model.attn_at_bottleneck must be a boolean"),
    ("config_mults_not_list", lambda p: _patch_config(p, MODEL_MAGIC, channel_mults=2),
     "model.channel_mults must be a list"),
    ("unknown_site", lambda p: _rename(p, MODEL_MAGIC, "embed.class.weight",
                                       "embed.claxx.weight"), "unknown site-path"),
    ("missing_site", _m_missing_site, "missing site-path"),
    ("shape_mismatch", _m_transpose_shape, "stored shape"),
    ("record_lacks_nbytes", lambda p: _drop_entry_key(p, MODEL_MAGIC, "nbytes"),
     "lacks 'nbytes'"),
    ("record_lacks_name", lambda p: _drop_entry_key(p, MODEL_MAGIC, "name"),
     "lacks 'name'"),
    ("name_not_string", lambda p: _patch_entry(p, MODEL_MAGIC, "down.0.res.0.conv1.bias",
                                               name=None), "name must be a string"),
    ("shape_not_list", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", shape=1),
     "shape must be a list of non-negative ints"),
    ("shape_dim_not_int", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", shape=["x"]),
     "shape must be a list of non-negative ints"),
    ("shape_dim_float", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", shape=[1.0]),
     "shape must be a list of non-negative ints"),
    ("shape_dim_negative", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", shape=[-1]),
     "shape must be a list of non-negative ints"),
    ("shape_dim_bool", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", shape=[True]),
     "shape must be a list of non-negative ints"),
    ("nbytes_not_int", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", nbytes="4"),
     "nbytes must be a non-negative int"),
    ("nbytes_float", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", nbytes=4.0),
     "nbytes must be a non-negative int"),
    ("offset_negative", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", offset=-4),
     "offset must be a non-negative int"),
    ("offset_null", lambda p: _patch_entry(p, MODEL_MAGIC, "out.conv.bias", offset=None),
     "offset must be a non-negative int"),
    ("nan_payload", lambda p: _poison_payload(p, MODEL_MAGIC, np.nan), "non-finite value"),
    ("inf_payload", lambda p: _poison_payload(p, MODEL_MAGIC, -np.inf), "non-finite value"),
]


# --- bundle-file mutations --------------------------------------------------

BUNDLE_CASES = [
    ("lora_a_without_b",
     lambda p: drop_entry(p, BUNDLE_MAGIC,
                          lambda n: n == "down.0.sampler.conv.weight.lora.B"),
     "A present without B"),
    ("lora_b_without_a",
     lambda p: drop_entry(p, BUNDLE_MAGIC,
                          lambda n: n == "down.0.sampler.conv.weight.lora.A"),
     "B present without A"),
    ("delta_gamma_without_beta",
     lambda p: drop_entry(p, BUNDLE_MAGIC, lambda n: n.endswith(".delta.beta")),
     "gamma present without beta"),
    ("delta_beta_without_gamma",
     lambda p: drop_entry(p, BUNDLE_MAGIC, lambda n: n.endswith(".delta.gamma")),
     "beta present without gamma"),
    ("rank_contradiction",
     lambda p: _patch_config(p, BUNDLE_MAGIC, rank=3), "contradict rank"),
    ("unknown_lora_site",
     lambda p: _rename(p, BUNDLE_MAGIC, "down.0.sampler.conv.weight.lora.A",
                       "down.0.sampler.conv.wei.lora.A"), "unknown site-path"),
    ("unknown_suffix",
     lambda p: _rename(p, BUNDLE_MAGIC,
                       sorted(e["name"] for e in read_parts(p)[2]["tensors"])[-1],
                       "zzz.weird"), "unknown site-path"),
    ("delta_shape_inconsistent",
     lambda p: shrink_entry(p, BUNDLE_MAGIC, ".delta.beta"), "inconsistent"),
    ("config_not_object", lambda p: _set_config(p, BUNDLE_MAGIC, []),
     "'config' must be a JSON object"),
    ("unknown_kind", lambda p: _patch_config(p, BUNDLE_MAGIC, kind="hyper-lora"),
     "unknown bundle kind"),
    ("missing_fingerprint", lambda p: _drop_config_key(p, BUNDLE_MAGIC, "base_fingerprint"),
     "base_fingerprint must be a string"),
    ("non_string_fingerprint", lambda p: _patch_config(p, BUNDLE_MAGIC, base_fingerprint=7),
     "base_fingerprint must be a string"),
    ("alpha_above_one", lambda p: _patch_config(p, BUNDLE_MAGIC, alpha_r=5.0),
     "alpha_r must be a number in \\[0, 1\\]"),
    ("alpha_negative", lambda p: _patch_config(p, BUNDLE_MAGIC, alpha_r=-0.5),
     "alpha_r must be a number in \\[0, 1\\]"),
    ("alpha_not_number", lambda p: _patch_config(p, BUNDLE_MAGIC, alpha_r="x"),
     "alpha_r must be a number in \\[0, 1\\]"),
    ("alpha_null", lambda p: _patch_config(p, BUNDLE_MAGIC, alpha_r=None),
     "alpha_r must be a number in \\[0, 1\\]"),
    ("alpha_bool", lambda p: _patch_config(p, BUNDLE_MAGIC, alpha_r=True),
     "alpha_r must be a number in \\[0, 1\\]"),
    ("alpha_nan", lambda p: _patch_config(p, BUNDLE_MAGIC, alpha_r=float("nan")),
     "alpha_r must be a number in \\[0, 1\\]"),
    ("rank_not_int", lambda p: _patch_config(p, BUNDLE_MAGIC, rank="x"),
     "rank must be a non-negative int"),
    ("rank_float", lambda p: _patch_config(p, BUNDLE_MAGIC, rank=2.0),
     "rank must be a non-negative int"),
    ("rank_negative", lambda p: _patch_config(p, BUNDLE_MAGIC, rank=-2),
     "rank must be a non-negative int"),
    ("rank_bool", lambda p: _patch_config(p, BUNDLE_MAGIC, rank=True),
     "rank must be a non-negative int"),
    ("nan_payload", lambda p: _poison_payload(p, BUNDLE_MAGIC, np.nan), "non-finite value"),
    # a style-lora site is not a resadapter site: validation follows the kind
    ("lora_site_of_other_kind",
     lambda p: _rename_sorted(p, BUNDLE_MAGIC, "down.0.sampler.conv.weight.lora.A",
                              "mid.attn.q.weight.lora.A"), "unknown site-path"),
]
