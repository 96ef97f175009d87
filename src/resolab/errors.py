"""Exception taxonomy shared across the package, plus the seed check and error prefix.

The CLI maps these onto exit codes: configuration/compatibility/container
problems exit 2, numeric failures exit 3, usage errors exit 1.
"""

import contextlib


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
    """Raise ConfigError unless ``seed`` is >= 0 (numpy's generators reject negatives)."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")


@contextlib.contextmanager
def prefixed(prefix: str):
    """Re-raise a ConfigError from the block with ``prefix`` before its message."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None
