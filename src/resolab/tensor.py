"""Dense float64 tensors and the tape for reverse-mode differentiation.

Values live in contiguous row-major numpy arrays, always float64; float32
appears only at serialization boundaries. Ops (see resolab.ops) append a
record to the innermost active ``Tape`` while any of their inputs requires a
gradient. ``Tape.backward`` replays records in exact reverse execution order
and *adds* the resulting gradients into each leaf's ``grad`` slot, so running
backward twice without resetting grads doubles them.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

__all__ = ["Tensor", "Tape", "active_tape"]


class _TapeStack(threading.local):
    """Per-thread stack of recording tapes (each thread starts empty)."""

    def __init__(self):
        self.tapes: list["Tape"] = []


_TAPE_STACK = _TapeStack()


def active_tape() -> "Tape | None":
    """The innermost tape recording on the calling thread, or None."""
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


class Tensor:
    """N-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        if self.grad is not None:
            out.grad = self.grad.copy()
        return out

    def check_finite(self, context: str = "tensor") -> "Tensor":
        """Raise NumericError if any element is NaN or infinite."""
        if not np.all(np.isfinite(self.data)):
            raise NumericError(f"{context}: non-finite values detected")
        return self

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# A record is (output, inputs, vjp) where vjp maps the output cotangent to a
# list of input cotangents aligned with ``inputs`` (None for no gradient).
Record = tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], list]]


class Tape:
    """Ordered record of executed primitives, used as a context manager.

    Only one tape per thread records at a time (the innermost). The stack
    of active tapes is thread-local, so a tape only sees ops run on the
    thread that entered it.
    """

    def __init__(self):
        self._records: list[Record] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        self._records.append((out, inputs, vjp))

    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into every reachable leaf's grad.

        ``output`` must be scalar. Leaves are tensors that require a gradient
        and were not produced by a record on this tape (parameters, inputs).
        """
        if output.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {output.shape}")
        # Cotangents for this traversal; additive accumulation into .grad
        # happens only at the end so repeated backward calls stack cleanly.
        pending: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        holders: dict[int, Tensor] = {id(output): output}
        for out, inputs, vjp in reversed(self._records):
            g = pending.pop(id(out), None)
            holders.pop(id(out), None)
            if g is None:
                continue  # this record does not feed the requested output
            for inp, gi in zip(inputs, vjp(g)):
                if gi is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in pending:
                    pending[key] = pending[key] + gi
                else:
                    pending[key] = gi
                    holders[key] = inp
        for key, g in pending.items():
            leaf = holders[key]
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g
