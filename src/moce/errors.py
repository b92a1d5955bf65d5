"""Error taxonomy shared by every module, and the integer check that raises it.

Each class maps to one failure category so callers (and the CLI exit-code
logic) can tell misuse apart from bad data and from numeric breakdown.
"""

import numbers


class MoceError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MoceError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class ContractError(MoceError, ValueError):
    """A documented precondition was violated by the caller."""


class StateError(MoceError, RuntimeError):
    """An object was used in an order its lifecycle forbids."""


class NumericError(MoceError, ArithmeticError):
    """A computation produced or encountered non-finite values."""


class FormatError(MoceError, ValueError):
    """A file or stream does not match its declared format."""


class ConfigError(MoceError, ValueError):
    """A configuration value is missing, unknown, or inconsistent."""


def integer(value, what: str, low: int | None = None) -> int:
    """``value``, the argument named ``what``, as a Python int, or ContractError.

    Python and numpy integers pass. A boolean would read as 0 or 1 and a
    float or a string would fail later with a bare TypeError, so each is
    rejected where it enters, before any work; so is a value below ``low``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ContractError(f"{what} must be >= {low}, got {value}")
    return int(value)
