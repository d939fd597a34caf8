"""Complex-matrix MIMO capacity: log-det kernel and TRS-scaled variants.

MIMO capacities here are spectral efficiencies (bit/s/Hz) with noise
normalized to unit power inside the formula; absolute-noise scenarios are
handled by pre-scaling the channel matrix. Power is split equally across
transmit antennas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import TrsGain
from .errors import EmptyUserSetError, NotHermitianError, NotPositiveDefiniteError
from .numeric import FLOAT_MAX

# Max elementwise asymmetry tolerated before a matrix is declared non-Hermitian,
# absolute or relative to the largest |entry|; guards against silently
# factoring a non-Hermitian product.
HERMITIAN_ATOL = 1e-10

# Desk-scale simulator with dense factorization; anything larger is a mistake.
MAX_DIM = 64

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class MimoChannel:
    """One MIMO link: channel matrix H (n_rx x n_tx) and total transmit power."""

    h: np.ndarray
    total_power_w: float
    norm_sq: float = field(init=False, repr=False, compare=False)  # ||H||_F^2

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError(f"channel matrix must be 2-D and non-empty, got shape {h.shape}")
        if max(h.shape) > MAX_DIM:
            raise ValueError(f"channel matrix dimension exceeds {MAX_DIM}: {h.shape}")
        # ||H||_F^2 bounds every |entry| of H * H^H. Unlike a ufunc, vdot
        # overflows without a numpy warning.
        norm_sq = float(np.vdot(h, h).real)
        if not norm_sq <= FLOAT_MAX:
            if not np.isfinite(h).all():
                raise ValueError("channel matrix entries must be finite")
            raise ValueError(f"channel matrix entries too large: ||H||_F^2 exceeds {FLOAT_MAX}")
        if not 0 <= self.total_power_w <= FLOAT_MAX:
            raise ValueError(f"total_power_w must be >= 0 and finite, got {self.total_power_w}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "norm_sq", norm_sq)

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]

    @property
    def n_rx(self) -> int:
        return self.h.shape[0]


def hermitian_logdet(m: np.ndarray) -> float:
    """log2(det(M)) of a Hermitian positive-definite matrix.

    LAPACK's Cholesky (``np.linalg.cholesky``) decides definiteness and LU
    ``np.linalg.slogdet`` gives the value as a sum of logs, so the
    determinant never overflows. The value is not read off the Cholesky
    diagonal: its square roots round, so log2 det(2*I_2) would come out one
    ulp above 2. Raises ValueError for a matrix that is not square, too
    large or not finite, then NotHermitianError / NotPositiveDefiniteError.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension exceeds {MAX_DIM}: {n}")
    # LAPACK reads one triangle only, so the asymmetry is checked here. Any
    # non-finite entry makes it inf or NaN, which routes the finiteness check
    # off the common path; inf - inf would warn, hence the errstate. A Gram
    # product's rounding asymmetry grows with its entries, so a large matrix
    # is held to the tolerance relative to its largest |entry| instead.
    with np.errstate(invalid="ignore"):
        asym = abs(a - a.conj().T).max() if n else 0.0
    if not asym <= HERMITIAN_ATOL:
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        peak = abs(a).max()
        if not asym <= HERMITIAN_ATOL * peak:
            raise NotHermitianError(
                f"max asymmetry {asym:.3e} exceeds {HERMITIAN_ATOL:.0e}, "
                f"absolute and relative to the largest |entry| {peak:.3e}"
            )
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return float(np.linalg.slogdet(a)[1]) / _LN2


@lru_cache(maxsize=MAX_DIM)
def _identity(n: int) -> np.ndarray:
    """The n x n complex identity, shared by every capacity call, read-only."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


def mimo_capacity(ch: MimoChannel) -> float:
    """log2 det(I + (P / n_tx) * H * H^H), in bit/s/Hz."""
    return mimo_capacity_trs(ch, TrsGain(1.0))


def mimo_capacity_trs(ch: MimoChannel, gain: TrsGain) -> float:
    """MIMO capacity with the TRS gain boosting the SNR term inside the det.

    Unlike the scalar links (where the gain multiplies the capacity itself),
    the MIMO form places gamma on the signal term: log2 det(I + gamma*(P/n_tx)*H*H^H).
    """
    h = ch.h
    n_rx, n_tx = h.shape
    scale = gain.gamma * (ch.total_power_w / n_tx)
    # Refused before the product overflows with a numpy warning.
    if not scale * ch.norm_sq <= FLOAT_MAX:
        raise ValueError(
            f"gamma * (total_power_w / n_tx) overflows: "
            f"{gain.gamma} * ({ch.total_power_w} / {n_tx}), times ||H||_F^2 = {ch.norm_sq}"
        )
    # The same IEEE operations as eye + scale * gram, in the one fresh array:
    # addition commutes bit for bit, so the bytes match.
    gram = h @ h.conj().T
    gram *= scale
    gram += _identity(n_rx)
    return hermitian_logdet(gram)


def multiuser_mimo_total(channels: Sequence[MimoChannel], gain: TrsGain) -> float:
    """Sum of per-user TRS MIMO capacities."""
    if len(channels) == 0:
        raise EmptyUserSetError("multi-user total requires at least one user")
    return sum(mimo_capacity_trs(ch, gain) for ch in channels)
