"""Span tracer that times resolab from outside, by patching module attributes.

A span has a name, a start, an end and a parent span; spans opened while a
workload operation (one training step or one sample request) runs share
that operation's id. Aggregates (count, total time, self time) are kept for
every span name. Full span records are kept in memory only for operations
the caller asks to record, and written out at the end.

Patch points follow how resolab looks names up:

* ``resolab.ops`` functions are resolved on the module at call time (also
  inside ``self_attention``), so replacing ``resolab.ops.<kind>`` works.
* ``diffusion``, ``trainer`` and ``evalbench`` import ``unet_forward``,
  ``simple_loss``, ``cfg_predict`` and ``ddim_denoise`` by name, and
  ``unet_forward`` is bound as a ``forward=`` default. So the importing
  module's attribute is replaced, and the replacement passes a timed
  ``forward=`` on; patching ``resolab.unet.unet_forward`` would time nothing.
* Backward time per op kind comes from wrapping ``Tape.record``: each
  recorded vjp is timed under the op kind whose forward recorded it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from resolab import adapters, data, diffusion, evalbench, ops, tensor, trainer, unet

OP_KINDS = (
    "conv2d", "group_norm", "silu", "linear", "matmul", "softmax",
    "upsample_nearest2x", "add", "sub", "mul", "scale", "reshape", "permute",
    "embed_rows", "crop_cols", "mean_all",
)

_now = time.perf_counter


class Tracer:
    """Nested spans with per-name aggregates; one instance per measured phase."""

    def __init__(self):
        self.origin = _now()
        self._stack: list[list] = []  # open frames: [name, start, child_seconds, span_index]
        self.totals: dict[str, list] = {}  # name -> [count, seconds, self_seconds]
        self.pair_counts: dict[tuple[str, str], int] = {}  # (parent, child) -> count
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent_index, op_id]
        self.ops: list[dict] = []  # one entry per finished operation
        self._op_id: int | None = None
        self._recording = False

    def open(self, name: str) -> None:
        index = -1
        if self._recording:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._op_id])
        self._stack.append([name, _now(), 0.0, index])

    def close(self) -> tuple[float, float]:
        """Close the innermost span; returns its duration and self time."""
        end = _now()
        name, start, child, index = self._stack.pop()
        dur = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            key = (parent[0], name)
            self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        if index >= 0:
            span = self.spans[index]
            span[1] = start
            span[2] = end
        return dur, dur - child

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span_count(self, name: str) -> int:
        agg = self.totals.get(name)
        return agg[0] if agg else 0

    @contextmanager
    def op(self, name: str, record: bool = False):
        """Span for one workload operation; yields a dict the caller may label."""
        self._op_id = len(self.ops)
        self._recording = record
        forwards = self.span_count("unet.forward")
        entry = {"name": name, "kind": None}
        self.open(name)
        try:
            yield entry
        finally:
            entry["seconds"], entry["unattributed"] = self.close()
            entry["forwards"] = self.span_count("unet.forward") - forwards
            self.ops.append(entry)
            self._op_id = None
            self._recording = False

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapper

    def span_records(self) -> list[list]:
        """Recorded spans with times in ms since the tracer was made."""
        o = self.origin
        return [[n, round((s - o) * 1e3, 4), round((e - o) * 1e3, 4), p, i]
                for n, s, e, p, i in self.spans]


def _conv2d_costs(out_shape, w_shape) -> tuple[float, float]:
    """FLOPs and bytes of one conv2d GEMM pass (forward, or one gradient)."""
    n, co, ho, wo = out_shape
    ci, k = w_shape[1], w_shape[2]
    cols = n * ci * k * k * ho * wo
    flops = 2.0 * co * cols
    return flops, 8.0 * (2 * cols + n * co * ho * wo + co * ci * k * k)


def _matmul_flops(a_shape, out_shape) -> float:
    size = 1
    for d in out_shape:
        size *= d
    return 2.0 * size * a_shape[-1]


@contextmanager
def install(tracer: Tracer):
    """Patch resolab so that ``tracer`` sees every layer; restore on exit."""
    replacements: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        replacements.append((owner, attr, value))

    conv2d = ops.conv2d
    matmul = ops.matmul

    def counted_conv2d(x, w, b=None, stride=1, padding=0):
        out = conv2d(x, w, b, stride, padding)
        flops, nbytes = _conv2d_costs(out.shape, w.shape)
        tracer.count("conv2d.flop", flops)
        tracer.count("conv2d.bytes", nbytes)
        return out

    def counted_matmul(a, b):
        out = matmul(a, b)
        tracer.count("matmul.flop", _matmul_flops(a.shape, out.shape))
        return out

    inner = {kind: getattr(ops, kind) for kind in OP_KINDS}
    inner["conv2d"] = counted_conv2d
    inner["matmul"] = counted_matmul
    for kind in OP_KINDS:
        patch(ops, kind, tracer.timed(f"ops.{kind}", inner[kind]))
    patch(ops, "self_attention", tracer.timed("ops.self_attention", ops.self_attention))

    record = tensor.Tape.record

    def traced_record(tape, out, inputs, vjp):
        name = tracer.current() or "ops.unknown"
        flops = nbytes = 0.0
        key = None
        if name == "ops.conv2d":
            x, w = inputs[0], inputs[1]
            per_flops, per_bytes = _conv2d_costs(out.shape, w.shape)
            grads = int(x.requires_grad) + int(w.requires_grad)
            flops, nbytes, key = grads * per_flops, grads * per_bytes, "conv2d"
        elif name == "ops.matmul":
            # the matmul vjp always forms both operand gradients
            flops, key = 2.0 * _matmul_flops(inputs[0].shape, out.shape), "matmul"
        bwd_name = name + ".bwd"

        def timed_vjp(g):
            tracer.open(bwd_name)
            try:
                return vjp(g)
            finally:
                tracer.close()
                if key is not None:
                    tracer.count(key + ".flop", flops)
                    if nbytes:
                        tracer.count(key + ".bytes", nbytes)

        record(tape, out, inputs, timed_vjp)

    patch(tensor.Tape, "record", traced_record)

    backward = tensor.Tape.backward

    def traced_backward(tape, output):
        tracer.count("tape.records", len(tape))
        tracer.open("tensor.backward")
        try:
            return backward(tape, output)
        finally:
            tracer.close()

    patch(tensor.Tape, "backward", traced_backward)

    forwards: dict[object, object] = {}

    def timed_forward(forward):
        if forward is None:
            forward = unet.unet_forward
        wrapped = forwards.get(forward)
        if wrapped is None:
            wrapped = forwards[forward] = tracer.timed("unet.forward", forward)
        return wrapped

    simple_loss = diffusion.simple_loss

    def traced_simple_loss(model, x0, t, eps, c, schedule, params=None, forward=None):
        tracer.open("diffusion.simple_loss")
        try:
            return simple_loss(model, x0, t, eps, c, schedule, params, timed_forward(forward))
        finally:
            tracer.close()

    cfg_predict = diffusion.cfg_predict

    def traced_cfg_predict(model, x, t, c, w, params=None, forward=None):
        tracer.open("diffusion.cfg_predict")
        try:
            return cfg_predict(model, x, t, c, w, params, timed_forward(forward))
        finally:
            tracer.close()

    denoise = tracer.timed("diffusion.ddim_denoise", diffusion.ddim_denoise)
    step = trainer.AdamW.step

    def traced_step(opt, names=None):
        if names is not None:
            tracer.count("gate.adapter_steps")
            if any(n.endswith((adapters.DELTA_GAMMA_SUFFIX, adapters.DELTA_BETA_SUFFIX))
                   for n in names):
                tracer.count("gate.fired")
        tracer.open("trainer.adamw_step")
        try:
            return step(opt, names)
        finally:
            tracer.close()

    patch(trainer, "simple_loss", traced_simple_loss)
    patch(trainer, "effective_param_map",
          tracer.timed("adapters.effective_param_map", trainer.effective_param_map))
    patch(trainer, "make_batch", tracer.timed("trainer.make_batch", trainer.make_batch))
    patch(trainer.AdamW, "step", traced_step)
    patch(diffusion, "cfg_predict", traced_cfg_predict)
    patch(evalbench, "cfg_predict", traced_cfg_predict)
    patch(diffusion, "ddim_denoise", denoise)
    patch(evalbench, "ddim_denoise", denoise)
    patch(data.SyntheticDataset, "render",
          tracer.timed("data.render", data.SyntheticDataset.render))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


__all__ = ["OP_KINDS", "Tracer", "install"]
