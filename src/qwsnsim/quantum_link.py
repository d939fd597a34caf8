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
from .numeric import check_real


@dataclass(frozen=True)
class QkdLinkSpec:
    """Transmit power, per-km loss coefficient, and distance of a QKD link."""

    tx_power_w: float
    loss_coeff_per_km: float
    distance_km: float

    def __post_init__(self):
        for name in ("tx_power_w", "loss_coeff_per_km", "distance_km"):
            check_real(name, getattr(self, name), 0)


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
