"""Semantic exceptions and the argument validators shared across the package."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def check_int(value, name: str, minimum: int = 1) -> int:
    """Validate an integral count of at least minimum and return it as an int."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}") from None
    if n < minimum or n != value:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return n


def check_positive(value, name: str) -> float:
    """Validate a positive finite real and return it as a float."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return v


def check_open(value, lo: float, hi: float, name: str) -> float:
    """Validate a real strictly between lo and hi and return it as a float."""
    v = float(value)
    if not lo < v < hi:
        raise DomainError(f"{name} must lie in ({lo:g}, {hi:g}), got {value!r}")
    return v


def check_u64(value, name: str) -> int:
    """Validate an unsigned 64-bit integer key and return it as an int."""
    if not isinstance(value, (int, np.integer)) or not 0 <= value < (1 << 64):
        raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)
