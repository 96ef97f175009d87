"""Exception taxonomy shared across the package, plus the one type and range rule of values.

The CLI maps these onto exit codes: configuration/compatibility/container
problems exit 2, numeric failures exit 3, usage errors exit 1.

Every config dataclass calls ``check_fields`` first when built, from a run-config
file and from Python alike. A bool is not an int; an integral number (numpy's
too) is stored as an int within 64 bits, and as a float in a float field; a
str, bool or dataclass field takes only its type; a ``tuple[T, ...]`` field
takes a list or tuple whose items meet the same rule, stored as a tuple. A
field annotated ``Annotated[T, Range(...)]`` (the aliases below name the
recurring ones) must then lie in that interval. Arguments that are not fields
meet the same two rules through ``check_int`` and ``check_number``. Every
out-of-range value is refused in one wording: ``<name> must be in <interval>,
got <value>``.
"""

import contextlib
import dataclasses
import functools
import math
import numbers
import typing


class ResolabError(Exception):
    """Base class for all package-raised errors."""


class ShapeError(ResolabError):
    """Operands or inputs have incompatible shapes; messages name the axis."""


class ResolutionError(ShapeError):
    """Spatial dims violate the model's divisibility requirement."""


class ConfigError(ResolabError):
    """Invalid configuration value or incompatible model/adapter pairing."""


class NumericError(ResolabError):
    """Non-finite values or a diverged computation."""


class ContainerError(ResolabError):
    """Malformed or incompatible serialized checkpoint/bundle file."""


@contextlib.contextmanager
def prefixed(prefix: str):
    """Re-raise a ConfigError from the block with ``prefix`` before its message."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _shown(value) -> str:
    """``repr`` for error messages, made total: repr raises ValueError on an int past
    Python's 4,300-digit limit, so an int past 63 bits shows its bit length, nested too."""
    if isinstance(value, int) and value.bit_length() > 63:
        return f"a {value.bit_length()}-bit integer"
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    return repr(value)


@dataclasses.dataclass(frozen=True)
class Range:
    """An interval of numbers, closed at a finite end unless marked open; an infinite end
    is always open, so a number in it is finite, and NaN lies in none."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def _closed(self) -> tuple[bool, bool]:
        return (not self.open_lo and self.lo != -math.inf, not self.open_hi and self.hi != math.inf)

    def __str__(self) -> str:
        lo, hi = (str(x) if isinstance(x, int) else f"{x:g}" for x in (self.lo, self.hi))
        closed_lo, closed_hi = self._closed()
        return f"{'[' if closed_lo else '('}{lo}, {hi}{']' if closed_hi else ')'}"

    def check(self, name: str, value):
        """``value``; ConfigError naming ``name`` unless it lies in the interval."""
        closed_lo, closed_hi = self._closed()
        if not ((self.lo < value or closed_lo and value == self.lo)
                and (value < self.hi or closed_hi and value == self.hi)):
            raise ConfigError(f"{name} must be in {self}, got {_shown(value)}")
        return value

    def check_all(self, name: str, values):
        """``values``, a numpy array; ConfigError naming ``name`` at its least or greatest
        value unless both lie in the interval."""
        if values.size:
            self.check(name, values.min().item())
            self.check(name, values.max().item())
        return values


# The recurring bounds: NON_NEGATIVE holds seeds (numpy's generators reject negatives), step
# and class counts, learning rates and tolerances; AT_LEAST_1 sizes and counts; UNIT blend
# strengths and eta; RATE Adam betas and the label-drop rate.
NON_NEGATIVE, AT_LEAST_1, POSITIVE = Range(0), Range(1), Range(0, open_lo=True)
UNIT, RATE = Range(0, 1), Range(0, 1, open_hi=True)
Natural, Count = typing.Annotated[int, NON_NEGATIVE], typing.Annotated[int, AT_LEAST_1]
NonNegative = typing.Annotated[float, NON_NEGATIVE]
Unit, Rate = typing.Annotated[float, UNIT], typing.Annotated[float, RATE]


def check_int(name: str, value, within: Range | None = None) -> int:
    """``value`` as an int; ConfigError naming ``name`` unless it is an integral number
    (numpy's too), not a bool, within 64 bits (numpy indexes and sizes with int64), and
    in ``within`` when given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if not -2**63 <= value < 2**63:
        raise ConfigError(f"{name} must fit in 64 bits, got {_shown(value)}")
    return value if within is None else within.check(name, value)


def check_number(name: str, value, within: Range | None = None) -> float:
    """``value`` as a float; ConfigError naming ``name`` unless it is a real number, not a
    bool, in ``within`` when given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {_shown(value)}")
    value = float(check_int(name, value) if isinstance(value, numbers.Integral) else value)
    return value if within is None else within.check(name, value)


@functools.cache
def _field_types(cls) -> tuple:
    """(name, resolved annotation) of each init field; resolving costs ~70 us, so once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def _typed(path: str, kind, value):
    """``value`` as a field annotated ``kind`` stores it, by the module's type and range rule."""
    if typing.get_origin(kind) is typing.Annotated:
        kind, within = typing.get_args(kind)
        return within.check(path, _typed(path, kind, value))
    if kind in (int, float):
        return (check_int if kind is int else check_number)(path, value)
    if typing.get_origin(kind) is not tuple:  # bool, str or a dataclass
        if not isinstance(value, kind):
            what = {bool: "a boolean", str: "a string"}.get(kind, f"an instance of {kind.__name__}")
            raise ConfigError(f"{path} must be {what}, got {_shown(value)}")
        return value
    item = typing.get_args(kind)[0]
    sides = typing.get_args(item) if typing.get_origin(item) is tuple else None  # (H, W) pairs
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list of {'[H, W] pairs' if sides else 'numbers'}")
    bad = [hw for hw in value if sides and not (isinstance(hw, (list, tuple)) and len(hw) == 2)]
    if bad:
        raise ConfigError(f"{path} entries must be [H, W] pairs, got {_shown(bad[0])}")
    return tuple(tuple(map(functools.partial(_typed, f"{path}[{i}]"), sides, v)) if sides
                 else _typed(f"{path}[{i}]", item, v) for i, v in enumerate(value))


def check_fields(obj, prefix: str) -> None:
    """Store each init field of ``obj`` by the type and range rule; errors name prefix + field."""
    for name, kind in _field_types(type(obj)):
        object.__setattr__(obj, name, _typed(f"{prefix}{name}", kind, getattr(obj, name)))
