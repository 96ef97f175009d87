"""The resolab benchmark: three closed-loop workloads against the public API.

One caller in one process runs one operation at a time and starts the next
only when the previous one has returned:

* ``train-base``: one ``train_base`` step at 16x16, batch 8, every base
  parameter trainable (conv weight gradients and AdamW over the whole model).
* ``train-adapter``: one ``train_adapter`` step of a rank-4 ResAdapter on the
  frozen base, on the default bucket plan {8, 12, 24, 32} around s = 16, so
  most steps run at 32x32 (large activations, norm-delta gate).
* ``sample``: batch-1 DDIM requests (25 steps, guidance 7.5) in a fixed
  rotation: direct 16x16 with the base, direct 32x32 with adapter params,
  and 32x32 tiled from 16x16 tiles with overlap 8 and adapter params. No
  tape records, so the backward path is idle.

Every workload starts from a base checkpoint made from the workload seed by
a short ``train_base`` and saved with ``store.save_model``; only loading it
is timed (as part of set-up). Each training operation is a ``train_*`` call
with ``steps=1`` and a per-step seed, so every step can be timed and checked
on its own; the optimizer state starts fresh in each call.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import resolab
from resolab import (
    ResolabError,
    SamplerConfig,
    TrainPlan,
    attach_resadapter,
    ddim_sample,
    default_runconfig,
    effective_param_map,
    multires_eval,
    store,
    tiled_generate,
    train_adapter,
    train_base,
    unet_forward,
)
from resolab.tensor import Tensor

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-base", "train-adapter", "sample")

BATCH = 8
STANDARD = 16
RANK = 4
ALPHA = 0.4  # the blend strength saved bundles carry by default
GUIDANCE = 7.5
TARGET = (32, 32)
TILE = (16, 16)
OVERLAP = 8
SAMPLE_KINDS = ("direct16", "direct32", "tiled32")
TRAIN_BUCKETS = ("8x8", "12x12", "16x16", "24x24", "32x32")

_now = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Amounts of work per run; the smoke test shrinks them."""

    pretrain_steps: int = 24  # short train_base that makes the base checkpoint
    adapter_pretrain_steps: int = 12  # train_adapter steps behind the sample bundle
    pinned_steps: int = 48  # first steps of a training run whose losses give loss_mean
    setup_repeats: int = 15  # set-ups per run; setup_s is their median
    ddim_steps: int = 25
    heldout_batches: int = 8  # batches of 8 at 32x32 behind the sample loss_mean


FULL = Sizes()


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "resolab": resolab.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# helpers


def _params_digest(params) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _bucket_name(hw) -> str:
    return f"{hw[0]}x{hw[1]}"


def _step_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


@dataclass
class Op:
    """One workload operation, prepared before its timed call."""

    name: str  # the public function called, also the span name
    kind: str | None  # request kind; for training filled from the result
    call: Callable[[], object]
    images: int


class Workload:
    """Prepares inputs (untimed), sets up (timed), then issues operations."""

    name = ""
    ops_per_round = 1  # a run ends only after whole rounds

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.rc = default_runconfig()
        self.dataset = self.rc.data.build()
        self.schedule = self.rc.schedule.build()
        self.checkpoint = os.path.join(workdir, "base.rsbm")
        model = resolab.build_unet(self.rc.model, seed=seed)
        train_base(model, self._plan("base", sizes.pretrain_steps, seed), self.dataset,
                   self.schedule)
        store.save_model(model, self.checkpoint)
        self.failures: list[str] = []

    def _plan(self, phase: str, steps: int, seed: int) -> TrainPlan:
        t = self.rc.train
        adapter = phase == "adapter"
        return TrainPlan(
            resolutions=t.resolutions if adapter else ((STANDARD, STANDARD),),
            standard_resolution=STANDARD, steps=steps, phase=phase, batch_size=BATCH,
            lr=t.lr if adapter else t.lr_base, adam_beta1=t.adam_beta1,
            adam_beta2=t.adam_beta2, weight_decay=t.weight_decay, seed=seed,
            p_uncond=t.p_uncond,
        )

    def setup(self, tracer) -> None:
        """Load the checkpoint, attach or load adapters, run one warm-up forward."""
        raise NotImplementedError

    def load_model(self, tracer):
        if tracer is None:
            return store.load_model(self.checkpoint)
        return tracer.timed("store.load_model", store.load_model)(self.checkpoint)

    def next_op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, i: int, op: Op, out) -> str | None:
        """None if the output of operation i is correct, else what is wrong."""
        raise NotImplementedError

    def loss_mean(self, losses: list[float]) -> float:
        """Mean loss of the pinned first steps; the same at the same seed."""
        return float(np.mean(losses[: self.sizes.pinned_steps]))


class TrainBase(Workload):
    name = "train-base"

    def setup(self, tracer) -> None:
        self.model = self.load_model(tracer)
        rng = np.random.default_rng([self.seed, 1])
        x = Tensor(rng.standard_normal((BATCH, 1, STANDARD, STANDARD)))
        unet_forward(self.model, x, np.arange(1, BATCH + 1), np.arange(BATCH) % 4)

    def next_op(self, i: int) -> Op:
        plan = self._plan("base", 1, _step_seed(self.seed, i))
        return Op("trainer.train_base", None,
                  lambda: train_base(self.model, plan, self.dataset, self.schedule), BATCH)

    def check(self, i: int, op: Op, out) -> str | None:
        rec = out.records[0]
        op.kind = _bucket_name(rec.bucket)
        if not np.isfinite(rec.loss):
            return f"step {i}: loss {rec.loss} not finite"
        return None


class TrainAdapter(Workload):
    name = "train-adapter"

    def setup(self, tracer) -> None:
        self.model = self.load_model(tracer)
        self.bundle = attach_resadapter(self.model, rank=RANK, seed=self.seed)
        rng = np.random.default_rng([self.seed, 2])
        x = Tensor(rng.standard_normal((BATCH, 1) + TARGET))
        unet_forward(self.model, x, np.arange(1, BATCH + 1), np.arange(BATCH) % 4,
                     effective_param_map(self.model, self.bundle))
        self.frozen_digest = _params_digest(self.model.params)
        self.buckets: dict[str, int] = {}

    def next_op(self, i: int) -> Op:
        plan = self._plan("adapter", 1, _step_seed(self.seed, i))
        return Op("trainer.train_adapter", None,
                  lambda: train_adapter(self.model, self.bundle, plan, self.dataset,
                                        self.schedule), BATCH)

    def check(self, i: int, op: Op, out) -> str | None:
        rec = out.records[0]
        op.kind = _bucket_name(rec.bucket)
        self.buckets[op.kind] = self.buckets.get(op.kind, 0) + 1
        if not np.isfinite(rec.loss):
            return f"step {i}: loss {rec.loss} not finite"
        if _params_digest(self.model.params) != self.frozen_digest:
            return f"step {i}: frozen base parameters changed"
        extrapolation = int(max(rec.bucket) > STANDARD)
        gate = out.meta["norm_delta_update_steps"]
        if not gate or any(v != extrapolation for v in gate.values()):
            return f"step {i}: norm-delta updates {sorted(set(gate.values()))} " \
                   f"for a {op.kind} step (want {extrapolation})"
        if any(v != 1 for v in out.meta["lora_update_steps"].values()):
            return f"step {i}: a low-rank pair did not update"
        return None


class Sample(Workload):
    name = "sample"
    ops_per_round = len(SAMPLE_KINDS)

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        super().__init__(seed, sizes, workdir)
        self.bundle_path = os.path.join(workdir, "adapter.rsad")
        model = store.load_model(self.checkpoint)
        bundle = attach_resadapter(model, rank=RANK, seed=self.seed)
        train_adapter(model, bundle, self._plan("adapter", sizes.adapter_pretrain_steps, seed),
                      self.dataset, self.schedule)
        store.save_bundle(bundle.with_alpha(ALPHA), self.bundle_path)
        # the base model's 32x32 sample for request 0; the adapted one must differ
        base = store.load_model(self.checkpoint)
        self.base32 = ddim_sample(base, (1, 1) + TARGET, self._cfg(0), self._classes(0),
                                  self.schedule).data
        self.digests: dict[tuple, str] = {}

    def _cfg(self, r: int) -> SamplerConfig:
        return SamplerConfig(steps=self.sizes.ddim_steps, guidance_scale=GUIDANCE, eta=0.0,
                             seed=self.seed * 2 + r % 2)

    def _classes(self, r: int) -> np.ndarray:
        return np.array([r % 2])

    def setup(self, tracer) -> None:
        self.model = self.load_model(tracer)
        self.bundle = store.load_bundle(self.bundle_path)
        self.params = effective_param_map(self.model, self.bundle)
        rng = np.random.default_rng([self.seed, 3])
        x = Tensor(rng.standard_normal((1, 1) + TARGET))
        unet_forward(self.model, x, 1, np.array([0]), self.params)

    def next_op(self, i: int) -> Op:
        r, kind = divmod(i, len(SAMPLE_KINDS))
        kind = SAMPLE_KINDS[kind]
        cfg, c = self._cfg(r), self._classes(r)
        m, s, p = self.model, self.schedule, self.params
        if kind == "direct16":
            return Op("diffusion.ddim_sample", kind,
                      lambda: ddim_sample(m, (1, 1, STANDARD, STANDARD), cfg, c, s), 1)
        if kind == "direct32":
            return Op("diffusion.ddim_sample", kind,
                      lambda: ddim_sample(m, (1, 1) + TARGET, cfg, c, s, params=p), 1)
        return Op("evalbench.tiled_generate", kind,
                  lambda: tiled_generate(m, s, TARGET, TILE, OVERLAP, cfg, c, params=p), 1)

    def check(self, i: int, op: Op, out) -> str | None:
        x = out.data
        if not np.all(np.isfinite(x)):
            return f"request {i} ({op.kind}): sample not finite"
        r = i // len(SAMPLE_KINDS)
        key = (op.kind, self._cfg(r).seed, int(self._classes(r)[0]))
        digest = hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return f"request {i} ({op.kind}): same request gave different bytes"
        if op.kind == "direct32" and r % 2 == 0 and np.array_equal(x, self.base32):
            return f"request {i}: adapted 32x32 sample equals the base sample"
        return None

    def loss_mean(self, losses):
        report = multires_eval(self.model, self.bundle, self.schedule, self.dataset, [TARGET],
                               n_batches=self.sizes.heldout_batches, seed=self.seed,
                               batch_size=BATCH)
        return report.value(TARGET, "base+resadapter")


_CLASSES = {cls.name: cls for cls in (TrainBase, TrainAdapter, Sample)}


# ---------------------------------------------------------------------------
# measurement


def _loop(wl: Workload, seconds: float, min_ops: int, start_index: int, tracer,
          records: list, losses: list, record: bool = False) -> int:
    """Closed loop: issue operations until both the time and min_ops are reached.

    Returns the index of the next operation; ``record`` keeps full spans.
    """
    i = start_index
    started = _now()
    done = 0
    while done < min_ops or _now() - started < seconds or i % wl.ops_per_round:
        op = wl.next_op(i)
        span = tracer.op(op.name, record=record) if tracer else nullcontext()
        error = None
        t0 = _now()
        try:
            with span:
                out = op.call()
        except ResolabError as exc:
            out, error = None, f"operation {i} raised {type(exc).__name__}: {exc}"
        dt = _now() - t0
        if error is None:
            error = wl.check(i, op, out)
            if error is None and op.name.startswith("trainer."):
                losses.append(float(out.records[0].loss))
        if error is not None:
            wl.failures.append(error)
        records.append({"kind": op.kind, "seconds": dt, "images": op.images,
                        "ok": error is None})
        i += 1
        done += 1
    return i


def _setup_times(wl: Workload, tracer) -> list[float]:
    times = []
    for _ in range(wl.sizes.setup_repeats):
        t0 = _now()
        wl.setup(tracer)
        times.append(_now() - t0)
    return times


def _by_kind(records: list) -> dict[str, list]:
    kinds: dict[str, list] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    return kinds


def _images_per_s(records: list) -> float:
    """Images over the time the realised mix takes at each kind's median latency.

    Medians per kind keep a burst of interference from other processes out of
    the figure; counts per kind keep the mix the run actually drew.
    """
    seconds = sum(len(rs) * _median([r["seconds"] for r in rs])
                  for rs in _by_kind(records).values())
    return sum(r["images"] for r in records) / seconds


def _end_to_end(wl: Workload, setup: list[float], records: list, losses: list) -> dict:
    times = [r["seconds"] for r in records]
    return {
        "setup_s": (_median(setup), "s"),
        "images_per_s": (_images_per_s(records), "1/s"),
        "op_ms.p50": (_median(times) * 1e3, "ms"),
        "loss_mean": (wl.loss_mean(losses), "mse"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _named_view(wl: Workload, e2e: dict, records: list) -> dict:
    """The end-to-end figures under their per-workload names, with sample counts."""
    times = [r["seconds"] * 1e3 for r in records]
    n = len(records)
    failed = sum(not r["ok"] for r in records)
    view = {
        "setup_s": (e2e["setup_s"][0], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"][0], "MB"),
        "error_rate": (failed / n, "ratio"),
    }
    if wl.name == "sample":
        view["sample_images_per_s"] = (e2e["images_per_s"][0], "1/s", n)
        for kind in SAMPLE_KINDS:
            ms = [r["seconds"] * 1e3 for r in records if r["kind"] == kind]
            view[f"{kind}_ms.p50"] = (_median(ms), "ms", len(ms))
    else:
        prefix = "base" if wl.name == "train-base" else "adapter"
        view[f"{prefix}_samples_per_s"] = (e2e["images_per_s"][0], "1/s", n)
        view[f"{prefix}_step_ms.p50"] = (_median(times), "ms", n)
        view[f"{prefix}_step_ms.p95"] = (_percentile(times, 95), "ms", n)
        view[f"{prefix}_loss_mean"] = (e2e["loss_mean"][0], "mse", wl.sizes.pinned_steps)
    return view


def _kind_medians(records: list) -> dict[str, float]:
    return {k: _median([r["seconds"] for r in rs]) for k, rs in _by_kind(records).items()}


def _per_layer(wl: Workload, tracer: tracing.Tracer, setup_tracer: tracing.Tracer,
               untraced: list) -> dict:
    ops = tracer.ops
    n = len(ops)
    totals = tracer.totals
    counters = tracer.counters

    def per_op_ms(name: str, field: int = 1) -> float:
        agg = totals.get(name)
        return agg[field] * 1e3 / n if agg else 0.0

    def per_op_calls(name: str) -> float:
        agg = totals.get(name)
        return agg[0] / n if agg else 0.0

    m: dict[str, tuple] = {}
    for kind in tracing.OP_KINDS:
        m[f"ops.{kind}.calls"] = (per_op_calls(f"ops.{kind}"), "count")
        m[f"ops.{kind}.fwd_ms"] = (per_op_ms(f"ops.{kind}"), "ms")
        m[f"ops.{kind}.bwd_ms"] = (per_op_ms(f"ops.{kind}.bwd"), "ms")
    m["ops.self_attention.ms"] = (per_op_ms("ops.self_attention"), "ms")
    m["ops.conv2d.gflop"] = (counters.get("conv2d.flop", 0.0) / n / 1e9, "GFLOP")
    m["ops.conv2d.mb_moved"] = (counters.get("conv2d.bytes", 0.0) / n / 1e6, "MB")
    m["ops.matmul.gflop"] = (counters.get("matmul.flop", 0.0) / n / 1e9, "GFLOP")
    m["tensor.backward.ms"] = (per_op_ms("tensor.backward"), "ms")
    m["tensor.backward.self_ms"] = (per_op_ms("tensor.backward", 2), "ms")
    m["tensor.records"] = (counters.get("tape.records", 0.0) / n, "count")
    m["unet.forward.calls"] = (per_op_calls("unet.forward"), "count")
    m["unet.forward.ms"] = (per_op_ms("unet.forward"), "ms")
    m["unet.forward.self_ms"] = (per_op_ms("unet.forward", 2), "ms")
    m["adapters.effective_param_map.ms"] = (per_op_ms("adapters.effective_param_map"), "ms")
    m["diffusion.simple_loss.ms"] = (per_op_ms("diffusion.simple_loss"), "ms")
    m["diffusion.cfg_predict.ms"] = (per_op_ms("diffusion.cfg_predict"), "ms")
    cfg_calls = tracer.span_count("diffusion.cfg_predict")
    cfg_forwards = tracer.pair_counts.get(("diffusion.cfg_predict", "unet.forward"), 0)
    m["diffusion.cfg_predict.forwards"] = (cfg_forwards / cfg_calls if cfg_calls else 0.0,
                                           "count")
    m["diffusion.ddim_denoise.self_ms"] = (per_op_ms("diffusion.ddim_denoise", 2), "ms")
    for bucket in TRAIN_BUCKETS:
        steps = [o["seconds"] * 1e3 for o in ops if o["kind"] == bucket]
        m[f"trainer.step_ms.{bucket}"] = (_median(steps), "ms")
    m["trainer.make_batch.ms"] = (per_op_ms("trainer.make_batch"), "ms")
    m["trainer.adamw_step.ms"] = (per_op_ms("trainer.adamw_step"), "ms")
    gated = counters.get("gate.adapter_steps", 0.0)
    m["trainer.norm_delta_gate.fired_share"] = (
        counters.get("gate.fired", 0.0) / gated if gated else 0.0, "ratio")
    m["data.render.calls"] = (per_op_calls("data.render"), "count")
    m["data.render.ms"] = (per_op_ms("data.render"), "ms")
    tiled = [o for o in ops if o["kind"] == "tiled32"]
    m["evalbench.tiled_generate.ms"] = (_median([o["seconds"] * 1e3 for o in tiled]), "ms")
    m["evalbench.tile_forwards"] = (
        sum(o["forwards"] for o in tiled) / (len(tiled) * wl.sizes.ddim_steps) if tiled else 0.0,
        "count")
    loads = setup_tracer.totals.get("store.load_model", [0, 0.0, 0.0])
    m["store.load_model.ms"] = (loads[1] * 1e3 / loads[0] if loads[0] else 0.0, "ms")
    m["store.load_model.bytes"] = (float(os.path.getsize(wl.checkpoint)), "bytes")
    # Tracing overhead: traced over untraced median per kind, weighted by traced count.
    base = _kind_medians(untraced)
    traced_kinds: dict[str, list] = {}
    for o in ops:
        traced_kinds.setdefault(o["kind"], []).append(o["seconds"])
    common = [k for k in traced_kinds if k in base]
    num = sum(len(traced_kinds[k]) * _median(traced_kinds[k]) for k in common)
    den = sum(len(traced_kinds[k]) * base[k] for k in common)
    m["trace.overhead_share"] = (num / den - 1.0 if den else 0.0, "ratio")
    op_seconds = sum(o["seconds"] for o in ops)
    unattributed = sum(o["unattributed"] for o in ops)
    m["trace.unattributed_ms"] = (unattributed * 1e3 / n, "ms")
    m["trace.unattributed_share"] = (unattributed / op_seconds if op_seconds else 0.0, "ratio")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        out_dir: str | os.PathLike | None = None) -> dict:
    """Run one workload; returns the result with its metrics and checks."""
    if workload not in _CLASSES:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    out_dir = Path(out_dir if out_dir is not None else ROOT / ".perfbench")
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(workload, seed)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        wl = _CLASSES[workload](seed, sizes, workdir)
        records: list = []
        losses: list = []
        result = {"env": env, "workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace)}
        if not trace:
            setup = _setup_times(wl, None)
            min_ops = sizes.pinned_steps if wl.ops_per_round == 1 else 2 * wl.ops_per_round
            _loop(wl, seconds, min_ops, 0, None, records, losses)
            metrics = _end_to_end(wl, setup, records, losses)
            result["named_metrics"] = _named_view(wl, metrics, records)
        else:
            setup_tracer = tracing.Tracer()
            with tracing.install(setup_tracer):
                _setup_times(wl, setup_tracer)
            # Untraced and traced rounds alternate, so that drift in machine
            # speed does not read as tracing overhead.
            untraced: list = []
            tracer = tracing.Tracer()
            i = 0
            started = _now()
            while not records or _now() - started < seconds:
                i = _loop(wl, 0.0, wl.ops_per_round, i, None, untraced, losses)
                with tracing.install(tracer):
                    i = _loop(wl, 0.0, wl.ops_per_round, i, tracer, records, losses,
                              record=not records)
            for o, r in zip(tracer.ops, records):
                o["kind"] = r["kind"]
            metrics = _per_layer(wl, tracer, setup_tracer, untraced)
            records = untraced + records
            trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
            _write_json(trace_path, {"env": env, "spans": tracer.span_records(),
                                     "span_fields": ["name", "start_ms", "end_ms", "parent",
                                                     "op_id"]})
            result["trace_file"] = str(trace_path)
        if workload == "train-adapter":
            result["bucket_mix"] = dict(sorted(wl.buckets.items(),
                                               key=lambda kv: int(kv[0].split("x")[0])))
    failed = sum(not r["ok"] for r in records)
    result.update({
        "correct": not wl.failures,
        "attempted": len(records),
        "failed": failed,
        "failures": wl.failures[:20],
        "metrics": metrics,
        "op_ms": [[r["kind"], round(r["seconds"] * 1e3, 4)] for r in records],
    })
    _write_json(out_dir / f"result-{workload}-trace{int(trace)}-seed{seed}.json", result)
    return result


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


__all__ = ["FULL", "Sizes", "WORKLOADS", "environment", "run"]
