"""Exception hierarchy shared across the package, and its int and real checks.

Exit-code mapping used by the CLI: usage/config problems -> 1,
data problems -> 2, numeric problems -> 3.
"""

import math
import numbers


class VollabError(Exception):
    """Base class for all package errors."""


class UsageError(VollabError):
    """Bad command-line arguments or invalid run configuration."""


class DataError(VollabError):
    """Problems with input data (parsing, integrity, alignment)."""


class ReadError(DataError):
    """An input file that cannot be opened or decoded."""


class ParseError(DataError):
    """Malformed cell or row in an input file."""


class IntegrityError(DataError):
    """Structurally valid input violating an invariant (e.g. duplicate dates)."""


class AlignmentError(DataError):
    """Frames whose date ranges cannot be joined."""


class EmptyInputError(DataError):
    """Empty file or empty partition."""


class NumericError(VollabError):
    """Non-finite values or numerically impossible requests."""


class DomainError(NumericError):
    """Input outside a mathematical domain (e.g. log of a non-positive value)."""


class FitError(NumericError):
    """A model or scaler cannot be fitted on the given data."""


class DegenerateTestError(NumericError):
    """A statistical test with zero long-run variance: forecasts indistinguishable."""


class ReportError(VollabError):
    """Missing or partial record files when building a report."""


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, low: int) -> None:
    """Raise VollabError unless value is an int, not a bool, and >= low."""
    if not (is_int(value) and value >= low):
        raise VollabError(f"{name} must be int >= {low}, got {value!r}")


def check_real(name: str, value, rule: str, ok) -> None:
    """Raise VollabError unless value is a real number, not a bool or nan, for
    which ok(value) holds; rule describes ok in the message."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or math.isnan(value) or not ok(value)):
        raise VollabError(f"{name} must be float {rule}, got {value!r}")
