"""Exception taxonomy shared across the package.

Every error raised on purpose derives from BourbakiError so callers (and the
CLI) can distinguish rejected input from genuine bugs.
"""


class BourbakiError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BourbakiError, ValueError):
    """An argument lies outside the mathematical domain (usually [0, 1])."""


class ParameterError(BourbakiError, ValueError):
    """A structural parameter is invalid (family parameter, case tag, index)."""


class DigitError(ParameterError):
    """A base-3 digit outside {0, 1, 2}, or a non-canonical digit expansion."""


class ParseError(BourbakiError, ValueError):
    """Malformed textual input (rationals, decimals, CLI arguments)."""


class OrderError(BourbakiError, ValueError):
    """Interval endpoints supplied in the wrong order."""


class EmptyInputError(BourbakiError, ValueError):
    """A nonempty collection was required."""


class ResourceLimitError(BourbakiError):
    """An index or count beyond its documented cap."""


class ConsistencyError(BourbakiError, RuntimeError):
    """Internal cross-check failed; indicates an implementation bug."""
