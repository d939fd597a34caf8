"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: capacity via
extended-precision decimal arithmetic, ergodic capacity via Gauss-Laguerre
quadrature, log-det via eigenvalues, distributions via analytic CDFs, and the
SA objective's totals via a plain Python loop.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

# Asymptotic Kolmogorov critical value at the 1% level: D_crit = 1.6276 / sqrt(n).
KS_CRIT_1PCT = 1.6276


def decimal_capacity(bandwidth, signal, noise, interference, prec=60) -> float:
    """B * log2(1 + S/(N+I)) evaluated with 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        snr = Decimal(signal) / (Decimal(noise) + Decimal(interference))
        return float(Decimal(bandwidth) * (1 + snr).ln() / Decimal(2).ln())


def decimal_received_power(tx_power, loss_coeff, distance, prec=60) -> float:
    """P * exp(-alpha * d) evaluated with 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        return float(Decimal(tx_power) * (-Decimal(loss_coeff) * Decimal(distance)).exp())


def gauss_laguerre_ergodic(snr, bandwidth=1.0, nodes=96) -> float:
    """E[B * log2(1 + snr*x)] for x ~ Exp(1), by Gauss-Laguerre quadrature."""
    x, w = np.polynomial.laguerre.laggauss(nodes)
    return float(bandwidth * np.sum(w * np.log1p(snr * x)) / np.log(2.0))


class ZeroCapacity(Exception):
    """Raised by ``running_totals`` at the first link with capacity <= 0."""

    def __init__(self, index):
        super().__init__(index)
        self.index = index


def running_totals(links, caps, powers):
    """(TRS energy total, TRS latency total, min TRS capacity) of the SA
    objective, by a left-to-right Python loop over the links in order.

    ``links`` holds one ``(src node index, gamma, packet_length_bits)`` per
    link and ``caps`` the per-link capacities without TRS.
    """
    energy = 0.0
    latency = 0.0
    min_cap_trs = math.inf
    # Python floats throughout, so overflow is silent as in IEEE arithmetic.
    for i, ((src, gamma, length), cap) in enumerate(zip(links, map(float, caps))):
        if cap <= 0.0:
            raise ZeroCapacity(i)
        denom = float(gamma) * cap
        latency += float(length) / denom
        energy += float(powers[src]) * float(length) / denom
        if denom < min_cap_trs:
            min_cap_trs = denom
    return energy, latency, min_cap_trs


def ks_statistic_exponential(samples, mean) -> float:
    """One-sample Kolmogorov-Smirnov statistic against Exp(mean)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = 1.0 - np.exp(-x / mean)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def random_hermitian_pd(rng, size) -> np.ndarray:
    """A = G G^H + I with complex Gaussian G: Hermitian, comfortably PD."""
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return g @ g.conj().T + np.eye(size)


def eigen_log2det(matrix) -> float:
    """log2(det) via the eigenvalue product of a Hermitian matrix."""
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(np.sum(np.log2(eigenvalues)))


def random_unitary(rng, size) -> np.ndarray:
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, _r = np.linalg.qr(g)
    return q
