"""Scalar channel models: Shannon capacity, fading, and TRS gain.

Everything works in plain SI units (Hz, W, bit/s); dB conversion, if any,
belongs to the caller. All functions are pure; randomness enters only through
an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numeric import check_count, check_real, stable_mean

_LN2 = math.log(2.0)

# Fading draws per link that a scenario may ask for; a larger count is a
# typo, not a simulation. A run draws into one float64 workspace of 2 rows of
# this many, 160 MB at the ceiling; a link with outages allocates its mask and
# usable capacities on top (a Rician one raises the peak by 245 MiB in all).
MAX_SAMPLES = 10**7


class FadingKind(Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


@dataclass(frozen=True)
class LinkBudget:
    """Bandwidth and power levels of one directed link.

    Noise must be strictly positive: a noiseless link would have infinite
    capacity, which the downstream time/energy formulas cannot represent.
    """

    # The field order is the key order of a link's budget in the config echo.
    bandwidth_hz: float
    signal_power_w: float
    noise_power_w: float
    interference_power_w: float = 0.0

    def __post_init__(self):
        check_real("bandwidth_hz", self.bandwidth_hz, 0, strict=True)
        check_real("signal_power_w", self.signal_power_w, 0)
        check_real("noise_power_w", self.noise_power_w, 0, strict=True)
        check_real("interference_power_w", self.interference_power_w, 0)


@dataclass(frozen=True)
class FadingSpec:
    """Statistical fading model of a link.

    ``mean_power`` is the mean of |h|^2 (defaults to normalized fading, 1.0),
    and AWGN's is 1; ``k_factor`` is the Rician LOS-to-scatter power ratio
    and is only allowed for the Rician kind.
    """

    kind: FadingKind
    mean_power: float = 1.0
    k_factor: float | None = None

    def __post_init__(self):
        check_real("mean_power", self.mean_power, 0, strict=True)
        if self.kind is FadingKind.AWGN and self.mean_power != 1:
            raise ValueError(f"mean_power must be 1 for AWGN fading, got {self.mean_power}")
        if self.kind is FadingKind.RICIAN:
            if self.k_factor is None:
                raise ValueError("Rician fading requires a k_factor")
            check_real("k_factor", self.k_factor, 0)
        elif self.k_factor is not None:
            raise ValueError(f"k_factor is only valid for Rician fading, got kind={self.kind}")

    @staticmethod
    def awgn() -> "FadingSpec":
        return FadingSpec(FadingKind.AWGN)

    @staticmethod
    def rayleigh(mean_power: float = 1.0) -> "FadingSpec":
        return FadingSpec(FadingKind.RAYLEIGH, mean_power=mean_power)

    @staticmethod
    def rician(k_factor: float, mean_power: float = 1.0) -> "FadingSpec":
        return FadingSpec(FadingKind.RICIAN, mean_power=mean_power, k_factor=k_factor)


@dataclass(frozen=True)
class FadingDraw:
    """One realized squared fading magnitude |h|^2."""

    h_squared: float

    def __post_init__(self):
        check_real("h_squared", self.h_squared, 0)


@dataclass(frozen=True)
class TrsGain:
    """Multiplicative TRS improvement factor applied to a link.

    gamma = 1 is the explicit "TRS off" identity.
    """

    gamma: float

    def __post_init__(self):
        check_real("gamma", self.gamma, 1)


TRS_OFF = TrsGain(1.0)


def link_rng(seed: int, link_index: int) -> np.random.Generator:
    """The generator of link ``link_index``'s fading draws under ``seed``:
    PCG64 on ``SeedSequence(seed, spawn_key=(link_index,))``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(link_index,))))


def _finite(capacity: float, what: str) -> float:
    if not math.isfinite(capacity):
        raise ValueError(f"capacity overflows: {what} is {capacity} bit/s")
    return capacity


def shannon_capacity(link: LinkBudget) -> float:
    """Capacity B * log2(1 + S / (N + I)) of a link, in bit/s. Raises
    ValueError when it overflows."""
    # float(S) divides as numpy does; a numpy scalar field would warn on overflow.
    with np.errstate(over="ignore"):
        return _finite(received_capacity(link, float(link.signal_power_w)), "capacity")


def received_capacity(link: LinkBudget, power_w):
    """Capacity B * log2(1 + P / (N + I)), in bit/s, at received power P: the
    one home of the formula. A float P gives a float; a float64 array gets the
    same bits in place and is returned. log1p keeps full precision at tiny SNR."""
    # In float, so int powers past the float range sum to inf as floats do.
    noise = float(link.noise_power_w) + link.interference_power_w
    if isinstance(power_w, np.ndarray):
        power_w /= noise
        np.log1p(power_w, out=power_w)
        power_w *= link.bandwidth_hz
        power_w /= _LN2
        return power_w
    # np.log1p rounds as the array loop does (math.log1p may not); then Python floats.
    return float(np.log1p(power_w / noise)) * link.bandwidth_hz / _LN2


def faded_capacity_samples(link: LinkBudget, h_squared: np.ndarray, out=None) -> np.ndarray:
    """Faded capacity B * log2(1 + |h|^2 S / (N + I)) over an array of |h|^2
    draws: ``received_capacity`` at S * |h|^2. ``out``, a float array of the
    draws' shape (it may be ``h_squared``), receives them in place of a fresh one."""
    caps = np.multiply(link.signal_power_w, np.asarray(h_squared, dtype=float), out=out)
    return received_capacity(link, caps)


def sample_h_squared(spec: FadingSpec, rng: np.random.Generator, size=None, out=None):
    """Draw |h|^2 value(s) from the fading distribution.

    Returns a float when ``size`` is None, otherwise an ndarray. AWGN is the
    degenerate draw |h|^2 = 1 and consumes no randomness. Rayleigh |h|^2 is
    exponential with mean ``mean_power``. Rician h is built as a real LOS
    component sqrt(K*omega/(K+1)) plus circular complex Gaussian scatter of
    total variance omega/(K+1), so E[|h|^2] = omega for every K.

    ``out``, a C-contiguous float64 array of shape ``(2, size)``, receives
    the draws in ``out[0]``, which is returned, instead of fresh arrays;
    ``out[1]`` is overwritten (the Rician quadrature component). The values
    are those of the allocating call bit for bit.
    """
    if out is not None and out.shape != (2, size):
        raise ValueError(f"out must have shape (2, {size}), got {out.shape}")
    h2, scratch = (None, None) if out is None else out
    if spec.kind is FadingKind.AWGN:
        if size is None:
            return 1.0
        if h2 is None:
            return np.ones(size)
        h2.fill(1.0)
        return h2
    # In place, the operations of rng.exponential(mean_power, size) and of
    # los + sigma * N, sigma * N' and re * re + im * im, in that order.
    if spec.kind is FadingKind.RAYLEIGH:
        h2 = rng.standard_exponential(size, out=h2)
        h2 *= spec.mean_power
        return h2
    k = spec.k_factor
    omega = spec.mean_power
    los = math.sqrt(k * omega / (k + 1.0))
    sigma = math.sqrt(omega / (2.0 * (k + 1.0)))
    re = rng.standard_normal(size, out=h2)
    re *= sigma
    re += los
    im = rng.standard_normal(size, out=scratch)
    im *= sigma
    re *= re
    im *= im
    re += im
    return re


def sample_fading(spec: FadingSpec, rng: np.random.Generator) -> FadingDraw:
    """Draw one fading realization."""
    return FadingDraw(h_squared=sample_h_squared(spec, rng))


def ergodic_capacity(
    link: LinkBudget, spec: FadingSpec, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo mean of the faded capacity over ``n_samples`` draws.
    Raises ValueError when it overflows."""
    check_count("n_samples", n_samples, MAX_SAMPLES)
    h2 = sample_h_squared(spec, rng, size=n_samples)
    # An inf capacity leaves inf - inf = NaN in the mean.
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(stable_mean(faded_capacity_samples(link, h2)), "mean capacity")
