"""Exception types shared across the package.

Every error raised on a contract violation derives from RamcError so
callers can distinguish library failures from programming mistakes.
The errors carry no attributes: what went wrong is in the message.
"""


class RamcError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(RamcError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class MatrixSizeError(RamcError, ValueError):
    """A result would exceed the configured maximum element count."""


class DegenerateSystemError(RamcError, ValueError):
    """A matrix, linear system or selected sub-dictionary is rank deficient."""


class InfeasibleMaskError(RamcError, ValueError):
    """A sampling mask cannot satisfy row/column coverage requirements."""


class ConfigError(RamcError, ValueError):
    """A configuration document or value is invalid."""


class UndefinedMetricError(RamcError, ValueError):
    """A metric is undefined for the given inputs (e.g. zero reference)."""
