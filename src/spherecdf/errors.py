"""Semantic exceptions and the argument validators, the one home of every argument rule.

Public functions validate each argument once, on entry, and refuse one outside
its domain with DomainError.  A real, scalar or array, is a float or an int
that numpy stores in 64 bits, finite and inside its bracket (check_real,
check_reals); a count or a stream key is an int in [lo, 2^64), and a count
that sizes an array one in [lo, 2^53] (check_int); a string option is a str
among its choices (check_choice).  A value built from validated arguments is
not checked again: prevalidated makes a record without its __post_init__
checks.
"""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


U64_MAX = (1 << 64) - 1  # the largest count, seed or stream id
SIZE_MAX = 1 << 53  # the largest count that sizes an array (see check_int)
_INT_MIN = -(1 << 63)  # the least int numpy stores in an integer dtype
# numbers.Real would also take Fraction and Decimal, and costs twice as much
_REALS = (int, float, np.integer, np.floating)
# bool subclasses int, yet no validator takes True or False as a number
_BOOLS = (bool, np.bool_)


def _check_bracket(least, most, value, name: str, lo, hi, interval: str):
    """The bracket rule on the least and most entries; NaN, which min and max keep, fails."""
    if not ((lo < least if interval[0] == "(" else lo <= least)
            and (most < hi if interval[1] == ")" else most <= hi)):
        lo, hi = (f"{b:g}" if isinstance(b, float) else b for b in (lo, hi))
        raise DomainError(
            f"{name} must lie in {interval[0]}{lo}, {hi}{interval[1]}, got {value!r}")


def _is_real(value) -> bool:
    if isinstance(value, int):
        # numpy stores an int outside [-2^63, 2^64) only in an object array,
        # which check_reals refuses, so check_real refuses it too
        return not isinstance(value, bool) and _INT_MIN <= value <= U64_MAX
    return isinstance(value, _REALS)  # np.bool_ is no np.integer


def check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
               interval: str = "()") -> float:
    """Validate a finite real between lo and hi and return it as a float.

    Reals are float, numpy integer or floating scalars, and ints in
    [-2^63, 2^64), the range numpy stores as an integer array; bools, strings,
    None, Decimal, larger ints and other objects are refused, never converted.
    interval gives the endpoint brackets, so check_real(v, name, 0.0) asks for
    v > 0.
    """
    # a float, the common case, skips the type tests
    v = float(value) if type(value) is float or _is_real(value) else math.nan
    if not math.isfinite(v):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    _check_bracket(v, v, value, name, lo, hi, interval)
    return v


def check_reals(value, name: str, lo: float = -math.inf, hi: float = math.inf,
                interval: str = "()") -> np.ndarray:
    """check_real for a scalar or an array; returns a float64 ndarray, 0-d for a scalar.

    The dtype must be integer or floating: bool, string and object arrays are
    refused, never converted.  NaN always fails the bracket, +-inf at an open end.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold finite reals, got {value!r}")
    v = arr.astype(np.float64, copy=False)
    _check_bracket(v.min(initial=math.inf), v.max(initial=-math.inf), value, name, lo, hi,
                   interval)
    return v


def check_int(value, name: str, lo: int = 1, hi: int = U64_MAX) -> int:
    """Validate a count or key in [lo, hi] and return it as an int.

    Only int and numpy integer scalars are taken; bools, floats (even integral
    ones such as 10.0), strings and None are refused, never converted.  hi
    defaults to 2^64 - 1, the top of the range check_real takes ints from.  A
    count that sizes an array takes hi=SIZE_MAX, 2^53: far past any array that
    fits in memory (which raises MemoryError), and short of 2^60 float64
    entries, where numpy fails with a bare ValueError instead.
    """
    if isinstance(value, _BOOLS) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    _check_bracket(value, value, value, name, lo, hi, "[]")
    return int(value)


def check_choice(value, name: str, choices) -> str:
    """Validate a string option, a str among choices, and return it.

    Arrays, bytes, None and other objects are refused, never converted.
    """
    if not (isinstance(value, str) and value in choices):
        *head, last = (repr(c) for c in choices)
        raise DomainError(f"{name} must be {', '.join(head)} or {last}, got {value!r}")
    return value


def prevalidated(cls, **fields):
    """An instance of the frozen dataclass cls holding fields its caller has validated.

    Skips cls.__post_init__, so a public function that validated its
    arguments does not check the values it built from them a second time.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
