"""Shared exception types, and the value predicates that spec validation uses."""

import math
import numbers


class SpecError(ValueError):
    """A problem description failed parsing or validation."""


class SizeGuardError(ValueError):
    """An instance exceeds a built-in enumeration or register size limit."""


def is_int(value) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for a real number, numpy's included, that is not a bool and is finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def is_positive_finite(value) -> bool:
    """True for a real number, not a bool, that is finite and above zero."""
    return is_finite_real(value) and value > 0


def is_utf8(value) -> bool:
    """True for a string that UTF-8 can encode: one with no lone surrogate.

    Python reads file-name bytes that the locale cannot decode as lone surrogates.
    """
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True
