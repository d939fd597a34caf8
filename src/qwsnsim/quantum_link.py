"""Quantum-link metrics: QBER and the QKD exponential loss budget.

QBER is a measured ratio (or supplied model parameter); nothing here
simulates photons or key exchange. The TRS recovery of received power is
clamped at the transmitted power, since a gain model must not create energy;
the unclamped value is simply gamma * qkd_received_power(spec) if a caller
wants it as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import TrsGain


@dataclass(frozen=True)
class QberCount:
    """Error and total counts of a key exchange."""

    errors: int
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise ValueError(f"total must be >= 1, got {self.total}")
        if not 0 <= self.errors <= self.total:
            raise ValueError(f"errors must be in [0, total], got {self.errors}/{self.total}")


@dataclass(frozen=True)
class QkdLinkSpec:
    """Transmit power, per-km loss coefficient, and distance of a QKD link."""

    tx_power_w: float
    loss_coeff_per_km: float
    distance_km: float

    def __post_init__(self):
        for name in ("tx_power_w", "loss_coeff_per_km", "distance_km"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def qber(counts: QberCount) -> float:
    """Fraction of incorrectly received bits."""
    return counts.errors / counts.total


def qber_with_trs(qber_value: float, gain: TrsGain) -> float:
    """TRS reduces the error ratio by the gain factor: QBER / gamma."""
    if not 0.0 <= qber_value <= 1.0:
        raise ValueError(f"qber must be in [0, 1], got {qber_value}")
    return qber_value / gain.gamma


def qkd_received_power(spec: QkdLinkSpec) -> float:
    """Received power after exponential channel loss: P * exp(-alpha * d)."""
    return spec.tx_power_w * math.exp(-spec.loss_coeff_per_km * spec.distance_km)


def qkd_received_power_trs(spec: QkdLinkSpec, gain: TrsGain) -> float:
    """TRS-recovered received power, clamped at the transmitted power."""
    return min(gain.gamma * qkd_received_power(spec), spec.tx_power_w)
