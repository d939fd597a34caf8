"""Small numerical helpers, and the type and range rules of the records' fields:
a number is an int or a float (np.float64 is one), never a bool."""

import sys
from typing import Iterable

import numpy as np

# `x <= FLOAT_MAX` refuses inf and NaN, and an int too large for a float.
FLOAT_MAX = sys.float_info.max


def is_integer(value) -> bool:
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def check_real(name: str, value, low, strict: bool = False) -> None:
    """ValueError unless ``value`` is a number, >= ``low`` (> if ``strict``) and finite."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (low < value if strict else low <= value) or not value <= FLOAT_MAX:
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low} and finite, got {value}")


def check_count(name: str, value, high: int) -> None:
    """ValueError unless ``value`` is an int, not a bool or a float, from 1 to ``high``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= high:
        raise ValueError(f"{name} must be between 1 and {high}, got {value}")


def left_sum(values: Iterable[float]) -> float:
    """``values`` added in order, each addition rounded: ``sum()`` before
    Python 3.12, which compensates float rounding from then on."""
    total = 0
    for value in values:
        total += value
    return total


def stable_mean(values: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """Arithmetic mean computed as pivot + mean(values - pivot).

    Centering on the first element keeps the mean of a constant array exactly
    equal to that constant (the residuals are all zero), which plain summation
    does not guarantee. Degenerate distributions therefore average without
    drift, and the correction term is better conditioned for near-constant
    samples.

    ``scratch``, a float array of the same shape (it may be ``values``
    itself), receives the residuals instead of a fresh temporary.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("mean of empty array")
    pivot = float(arr.flat[0])
    # np.add.reduce over every axis is the sum np.sum computes, without its
    # Python-level wrapper.
    residuals = np.subtract(arr, pivot, out=scratch)
    return pivot + float(np.add.reduce(residuals, axis=None)) / arr.size
