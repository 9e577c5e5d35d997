"""Exception hierarchy shared across the library, and the field checks of
the config dataclasses that raise it."""

import dataclasses
import math
import numbers
import typing


class HotplugError(Exception):
    """Base class for all library errors."""


class DimensionError(HotplugError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateVectorError(DimensionError):
    """A vector with (near-)zero norm was passed where a direction is required."""


class ParameterError(HotplugError):
    """A scalar parameter is outside its documented domain."""


class ContractError(HotplugError):
    """A caller violated an operation's contract (non-scalar loss, missing grad, ...)."""


class ConfigError(HotplugError):
    """A configuration object or file is invalid."""


class FormatError(HotplugError):
    """A binary artifact is malformed, or its contents do not fit their configs."""


class TruncatedFileError(FormatError):
    """A binary artifact ended before all declared payload bytes were read."""


def checked(value, kind: type, where: str, minimum: int = 1):
    """``value`` if it fits a config field of type ``kind``, else a
    ``ConfigError`` naming ``where``: an int field takes an integer of at
    least ``minimum``, a float field any finite number; a bool is neither."""
    if kind is int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < minimum):
            raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    elif kind is float:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
    elif not isinstance(value, kind):
        raise ConfigError(f"{where} must be a {kind.__name__}, got {value!r}")
    return value


def check_fields(config, **minimums):
    """``checked`` on every field of a config dataclass, by its annotation;
    an int field must reach ``minimums.get(name, 1)``."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        checked(getattr(config, f.name), hints[f.name],
                f"{type(config).__name__}.{f.name}", minimums.get(f.name, 1))
