"""Exception taxonomy shared across the package, plus the one type rule of config values.

The CLI maps these onto exit codes: configuration/compatibility/container
problems exit 2, numeric failures exit 3, usage errors exit 1.

Every config dataclass calls ``check_fields`` first when built, from a run-config
file and from Python alike. A bool is not an int; an integral number (numpy's
too) is stored as an int within 64 bits, and as a float in a float field; a
str, bool or dataclass field takes only its type; a ``tuple[T, ...]`` field
takes a list or tuple whose items meet the same rule, stored as a tuple.
"""

import contextlib
import dataclasses
import functools
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


def check_seed(name: str, seed: int) -> None:
    """Raise ConfigError unless ``seed`` is an integer >= 0 (numpy's generators reject negatives)."""
    if check_int(name, seed) < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")


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


def check_int(name: str, value) -> int:
    """``value`` as an int; ConfigError naming ``name`` unless it is an integral number
    (numpy's too), not a bool, within 64 bits (numpy indexes and sizes with int64)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if not -2**63 <= value < 2**63:
        raise ConfigError(f"{name} must fit in 64 bits, got {_shown(value)}")
    return value


def check_number(name: str, value) -> float:
    """``value`` as a float; ConfigError naming ``name`` unless it is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {_shown(value)}")
    return float(check_int(name, value) if isinstance(value, numbers.Integral) else value)


@functools.cache
def _field_types(cls) -> tuple:
    """(name, resolved annotation) of each init field; resolving costs ~70 us, so once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def _typed(path: str, kind, value):
    """``value`` as a field annotated ``kind`` stores it, by the module's type rule."""
    if kind in (int, float):
        return (check_int if kind is int else check_number)(path, value)
    if typing.get_origin(kind) is not tuple:  # bool, str or a dataclass
        if not isinstance(value, kind):
            what = {bool: "a boolean", str: "a string"}.get(kind, f"an instance of {kind.__name__}")
            raise ConfigError(f"{path} must be {what}, got {_shown(value)}")
        return value
    item = typing.get_args(kind)[0]
    pairs = item == tuple[int, int]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list of {'[H, W] pairs' if pairs else 'numbers'}")
    bad = [hw for hw in value if pairs and not (isinstance(hw, (list, tuple)) and len(hw) == 2)]
    if bad:
        raise ConfigError(f"{path} entries must be [H, W] pairs, got {_shown(bad[0])}")
    return tuple(tuple(check_int(f"{path}[{i}]", side) for side in v) if pairs
                 else _typed(f"{path}[{i}]", item, v) for i, v in enumerate(value))


def check_fields(obj, prefix: str) -> None:
    """Store each init field of ``obj`` as the type rule gives it; an error names prefix + field."""
    for name, kind in _field_types(type(obj)):
        object.__setattr__(obj, name, _typed(f"{prefix}{name}", kind, getattr(obj, name)))
