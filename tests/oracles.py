"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: capacity via
extended-precision decimal arithmetic, ergodic capacity via Gauss-Laguerre
quadrature and, for Rayleigh fading, via the exponential integral's decimal
series, log-det via eigenvalues, distributions via analytic CDFs (the Rician
one as a decimal Poisson-Erlang mixture), the
SA objective's totals via a plain Python loop, the annealer via a chain that
re-evaluates every link on every move, the grid optimum via one assessment
per grid point, and the pivoted Monte-Carlo mean via a one-line 1-D sum. The
capacity expressions the package spelled out before it had one kernel are
kept as references for its bit-exact pins.
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
    ``shannon_capacity``, the former ``faded_capacity`` and
    ``ergodic_capacity`` (with the faded signal S * |h|^2) before
    ``faded_capacity_samples`` served all three."""
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


# The Euler-Mascheroni constant to 60 decimal places.
EULER_GAMMA = "0.577215664901532860606512090082402431042159335939923598805767"


def rayleigh_ergodic(snr, prec=60) -> float:
    """E[log2(1 + snr*x)] for x ~ Exp(1), exactly: e^(1/snr) * E1(1/snr) / ln 2.

    E1(x) = -gamma - ln x - sum_k (-x)^k / (k * k!), summed in ``prec``-digit
    decimal arithmetic until a term drops below 10^-prec of the sum. The
    terms peak near e^x / x, so the cancellation costs about x / ln 10 digits:
    none to speak of above -10 dB."""
    with localcontext() as ctx:
        ctx.prec = prec
        x = 1 / Decimal(snr)
        e1 = -Decimal(EULER_GAMMA) - x.ln()
        term, k = Decimal(1), 0
        tiny = Decimal(10) ** -prec
        while True:
            k += 1
            term *= -x / k
            e1 -= term / k
            if abs(term) < tiny * abs(e1):
                break
        return float(x.exp() * e1 / Decimal(2).ln())


def rician_cdf(t, k, omega, prec=50, terms=400) -> float:
    """P(|h|^2 <= t) under Rician fading with K-factor ``k`` and E|h|^2 = ``omega``.

    y = |h|^2 (K+1)/omega is half a noncentral chi-square with 2 degrees of
    freedom and noncentrality 2K: a Poisson(K) mixture of Erlang(j+1) laws.
    So the CDF is sum_j e^-K K^j/j! * (1 - e^-y sum_{m<=j} y^m/m!) at
    y = t(K+1)/omega, summed over the first ``terms`` j in ``prec``-digit
    decimal arithmetic. At K = 0 it is 1 - e^(-t/omega)."""
    with localcontext() as ctx:
        ctx.prec = prec
        k = Decimal(k)
        y = Decimal(t) * (k + 1) / Decimal(omega)
        weight = (-k).exp()  # e^-K K^j / j!
        erlang = (-y).exp()  # e^-y y^j / j!
        below = erlang  # e^-y sum_{m<=j} y^m / m!
        cdf = weight * (1 - below)
        for j in range(1, terms):
            weight *= k / j
            erlang *= y / j
            below += erlang
            cdf += weight * (1 - below)
        return float(cdf)


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


def anneal_reference(problem, schedule, seed):
    """``optimize_sa(problem, schedule, seed)`` by a plain-Python annealer, or
    None where it finds no feasible point with a finite objective.

    Every move re-evaluates every link with ``capacity_reference`` (AWGN or
    deterministic) or ``annealer_faded_reference`` (the frozen draws of an
    ergodic treatment) and reduces the totals with ``running_totals``. The
    chain makes the same generator calls in the same order and applies the
    same reflect, accept and best rules: a NaN penalized value counts as
    +inf, and a move between equal penalties, +inf included, is level.
    """
    # Data types and the frozen-draw sampler only: no optimizer code runs.
    from qwsnsim.channel import FadingKind, link_rng, sample_h_squared
    from qwsnsim.optimizer import (
        PENALTY_WEIGHT,
        Allocation,
        ErgodicMean,
        OptResult,
        Solver,
    )

    nodes = problem.topology.nodes
    index = {node.id: i for i, node in enumerate(nodes)}
    links = []  # (src, gamma, packet length), as running_totals takes them
    capacity = []  # per link: capacity without TRS at its source's power
    for i, link in enumerate(problem.topology.links):
        src = index[link.src]
        links.append((src, link.gain.gamma, nodes[src].packet_length_bits))
        b = link.budget
        if isinstance(problem.fading, ErgodicMean) and link.fading.kind is not FadingKind.AWGN:
            fading = problem.fading
            h2 = sample_h_squared(link.fading, link_rng(fading.seed, i), size=fading.n_samples)
            capacity.append(
                lambda p, b=b, h2=h2: annealer_faded_reference(
                    b.bandwidth_hz, b.noise_power_w, b.interference_power_w, p, h2
                )
            )
        else:
            capacity.append(
                lambda p, b=b: capacity_reference(
                    b.bandwidth_hz, p, b.noise_power_w, b.interference_power_w
                )
            )

    def totals(powers):
        caps = [cap(powers[src]) for cap, (src, _gamma, _length) in zip(capacity, links)]
        return running_totals(links, caps, powers)

    def assess(powers):
        try:
            energy, latency, min_cap_trs = totals(powers)
        except ZeroCapacity:
            return math.inf, False, math.inf
        objective = problem.alpha * energy + problem.beta * latency
        viol_cap = max(0.0, problem.r_min_bps - min_cap_trs)
        if problem.r_min_bps > 0:
            viol_cap /= problem.r_min_bps
        viol_lat = max(0.0, latency - problem.latency_max_s)
        if math.isfinite(problem.latency_max_s):
            viol_lat /= problem.latency_max_s
        feasible = viol_cap == 0.0 and viol_lat == 0.0
        penalized = objective + PENALTY_WEIGHT * (viol_cap + viol_lat)
        return objective, feasible, math.inf if math.isnan(penalized) else penalized

    lo, hi = problem.p_min_w, problem.p_max_w
    sigma = 0.05 * (hi - lo)
    n = len(nodes)
    rng = np.random.default_rng(seed)
    # Overflowing capacities and totals are part of the chain, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [float(p) for p in rng.uniform(lo, hi, size=n)]
        objective, feasible, penalized = assess(powers)
        best = (objective, list(powers)) if feasible and math.isfinite(objective) else None
        if schedule.t_initial is not None:
            temperature = schedule.t_initial
        elif math.isfinite(penalized) and penalized != 0:
            temperature = abs(penalized)
        else:
            temperature = 1.0
        for _ in range(schedule.iterations):
            j = int(rng.integers(n))
            candidate = list(powers)
            value = candidate[j] + rng.normal(0.0, sigma)
            while value < lo or value > hi:
                value = 2.0 * lo - value if value < lo else 2.0 * hi - value
            candidate[j] = value
            cand_obj, cand_feasible, cand_pen = assess(candidate)
            if cand_feasible and cand_obj < (math.inf if best is None else best[0]):
                best = (cand_obj, candidate)
            delta = 0.0 if cand_pen == penalized else cand_pen - penalized
            u = rng.random()
            if delta <= 0 or (temperature > 0 and u < math.exp(-delta / temperature)):
                powers, penalized = candidate, cand_pen
            temperature *= schedule.cooling
        if best is None:
            return None
        energy, latency, min_cap_trs = totals(best[1])
    return OptResult(
        allocation=Allocation(tuple(best[1])),
        objective=problem.alpha * energy + problem.beta * latency,
        energy_total_j=energy,
        latency_total_s=latency,
        feasible=min_cap_trs >= problem.r_min_bps and latency <= problem.latency_max_s,
        evaluations=schedule.iterations + 1,
        solver=Solver.SIMULATED_ANNEALING,
    )


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
