"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: capacity via
extended-precision decimal arithmetic, ergodic capacity via Gauss-Laguerre
quadrature, log-det via eigenvalues, distributions via analytic CDFs, the
SA objective's totals via a plain Python loop, the grid optimum via one
assessment per grid point, and the pivoted Monte-Carlo mean via a one-line
1-D sum. The capacity expressions the package spelled out before it had one
kernel are kept as references for its bit-exact pins.
"""

import itertools
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


def capacity_reference(bandwidth_hz, signal_w, noise_w, interference_w):
    """B * log1p(S / (N + I)) / ln 2, the scalar expression behind
    ``shannon_capacity``, ``faded_capacity`` and ``ergodic_capacity`` (with
    the faded signal S * |h|^2) before ``faded_capacity_samples`` served all
    three."""
    snr = signal_w / (noise_w + interference_w)
    return bandwidth_hz * np.log1p(snr) / math.log(2.0)


def annealer_faded_reference(bandwidth_hz, noise_w, interference_w, power_w, h2) -> float:
    """The annealer's former faded capacity at transmit power ``power_w``:
    the stable mean of B * log1p(p * |h|^2 / (N + I)) / ln 2 over the frozen
    draws ``h2``."""
    denom = noise_w + interference_w
    return pivoted_mean(bandwidth_hz * np.log1p(power_w * h2 / denom) / math.log(2.0))


def pivoted_mean(x) -> float:
    """x[0] + sum(x - x[0]) / n over a 1-D array: the mean the simulator
    reports, centred on the first element, with numpy's 1-D sum."""
    x = np.asarray(x, dtype=float)
    return float(x[0] + np.sum(x - x[0]) / x.size)


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


def grid_argmin(assess, axis, n_nodes):
    """Best feasible point of the grid ``axis``^``n_nodes``, one point at a
    time in ``itertools.product`` order: the least objective, then the least
    total power, then the first visited. None when no point is feasible.

    ``assess(powers)`` returns ``(objective, feasible, penalized)``.
    """
    best = None
    for idx in itertools.product(range(len(axis)), repeat=n_nodes):
        powers = tuple(float(axis[k]) for k in idx)
        objective, feasible, _penalized = assess(powers)
        if not feasible:
            continue
        total_power = sum(powers)
        if (
            best is None
            or objective < best[0]
            or (objective == best[0] and total_power < best[1])
        ):
            best = (objective, total_power, powers)
    return None if best is None else best[2]


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
