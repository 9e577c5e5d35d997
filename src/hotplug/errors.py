"""Exception hierarchy shared across the library."""


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
