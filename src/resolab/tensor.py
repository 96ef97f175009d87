"""Dense float64 tensors and the tape for reverse-mode differentiation.

Values live in contiguous row-major numpy arrays, always float64; float32
appears only at serialization boundaries. Ops (see resolab.ops) append a
record to the innermost active ``Tape`` while any of their inputs requires a
gradient. ``Tape.backward`` replays records in exact reverse execution order
and *adds* the resulting gradients into each leaf's ``grad`` slot, so running
backward twice without resetting grads doubles them.

A record holds no activation. Its output is named by a key (the tape's serial
and the record's index), stored on the output Tensor, and each input is held
as that key when a record of the same tape produced it, as the Tensor itself
when it is a leaf (a parameter or an input), or as None when it needs no
gradient. Each vjp closes over only the arrays its backward reads, so an
activation is freed as soon as its last reader -- the caller or a vjp --
drops it.
"""

from __future__ import annotations

import itertools
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
_TAPE_SERIALS = itertools.count()


def active_tape() -> "Tape | None":
    """The innermost tape recording on the calling thread, or None."""
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


class Tensor:
    """N-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # (tape serial, record index) of the record that produced this tensor
        self._key: tuple[int, int] | None = None

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

    def check_finite(self, context: str = "tensor") -> "Tensor":
        """Raise NumericError if any element is NaN or infinite."""
        if not np.all(np.isfinite(self.data)):
            raise NumericError(f"{context}: non-finite values detected")
        return self

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# A record is (inputs, vjp); record i's output is the tensor whose key is
# (tape serial, i). Each input entry is the index of the record that produced
# it on this tape, the leaf Tensor itself, or None when it needs no gradient.
# vjp maps the output cotangent to a list of input cotangents aligned with the
# inputs (None for no gradient).
Record = tuple[tuple[int | Tensor | None, ...], Callable[[np.ndarray], list]]


class Tape:
    """Ordered record of executed primitives, used as a context manager.

    Only one tape per thread records at a time (the innermost). The stack
    of active tapes is thread-local, so a tape only sees ops run on the
    thread that entered it.
    """

    def __init__(self):
        # keys are (serial, index), never id(): ids of freed outputs get reused
        self._serial = next(_TAPE_SERIALS)
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

    def _index(self, t: Tensor) -> int | None:
        """Index of the record on this tape that produced ``t``, else None."""
        key = t._key
        return key[1] if key is not None and key[0] == self._serial else None

    def _entry(self, t: Tensor) -> int | Tensor | None:
        if not t.requires_grad:
            return None
        index = self._index(t)
        return t if index is None else index

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        entries = tuple(self._entry(t) for t in inputs)
        out._key = (self._serial, len(self._records))
        self._records.append((entries, vjp))

    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into every reachable leaf's grad.

        ``output`` must be scalar. Leaves are tensors that require a gradient
        and were not produced by a record on this tape (parameters, inputs).
        """
        if output.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {output.shape}")
        # Cotangents for this traversal, per record output and per leaf;
        # additive accumulation into .grad happens only at the end so repeated
        # backward calls stack cleanly.
        pending: list[np.ndarray | None] = [None] * len(self._records)
        leaves: dict[Tensor, np.ndarray] = {}
        start = self._index(output)
        if start is None:
            leaves[output] = np.ones_like(output.data)
        else:
            pending[start] = np.ones_like(output.data)
        for i in range(len(self._records) - 1, -1, -1):
            g = pending[i]
            if g is None:
                continue  # this record does not feed the requested output
            pending[i] = None
            entries, vjp = self._records[i]
            for entry, gi in zip(entries, vjp(g)):
                if gi is None or entry is None:
                    continue
                if type(entry) is int:
                    prev = pending[entry]
                    pending[entry] = gi if prev is None else prev + gi
                else:
                    prev = leaves.get(entry)
                    leaves[entry] = gi if prev is None else prev + gi
        for leaf, g in leaves.items():
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g
