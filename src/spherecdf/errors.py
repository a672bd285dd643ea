"""Semantic exceptions and the argument validators shared across the package.

Public functions validate each argument once, on entry, with check_real,
check_int or check_u64, and refuse one outside its domain with DomainError.
"""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


# numbers.Real would also take Fraction and Decimal, and costs twice as much
_REALS = (int, float, np.integer, np.floating)


def check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
               interval: str = "()") -> float:
    """Validate a finite real between lo and hi and return it as a float.

    Reals are int, float and numpy integer or floating scalars; strings, None,
    Decimal and other objects are refused, never converted.  interval gives the
    endpoint brackets, so check_real(v, name, 0.0) asks for v > 0.
    """
    try:
        v = float(value) if isinstance(value, _REALS) else math.nan
    except OverflowError:  # an int beyond the float range
        v = math.nan
    if not math.isfinite(v):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    if not ((lo < v if interval[0] == "(" else lo <= v)
            and (v < hi if interval[1] == ")" else v <= hi)):
        raise DomainError(
            f"{name} must lie in {interval[0]}{lo:g}, {hi:g}{interval[1]}, got {value!r}")
    return v


def check_int(value, name: str, minimum: int = 1) -> int:
    """Validate an integral count of at least minimum and return it as an int."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}") from None
    if n < minimum or n != value:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return n


def check_u64(value, name: str) -> int:
    """Validate an unsigned 64-bit integer key and return it as an int."""
    if not isinstance(value, (int, np.integer)) or not 0 <= value < (1 << 64):
        raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)
