"""Small numerical helpers."""

import numpy as np


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
    return pivot + float(np.sum(np.subtract(arr, pivot, out=scratch))) / arr.size
