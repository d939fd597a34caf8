"""Acceptance gate: one test per release criterion, each enforced at its
stated tolerance and runtime budget, printing one line per criterion
(run with `pytest tests/test_acceptance.py -v -s`).
"""

import functools
import json
import math
import operator
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from qwsnsim.channel import (
    FadingSpec,
    LinkBudget,
    TrsGain,
    ergodic_capacity,
    sample_fading,
    sample_h_squared,
    shannon_capacity,
)
from qwsnsim.cli import main
from qwsnsim.mimo import MimoChannel, hermitian_logdet, mimo_capacity
from qwsnsim.network import Link, Node, Topology, TopologyKind, path_capacity, path_latency
from qwsnsim.optimizer import (
    PowerProblem,
    SaSchedule,
    grid_search_oracle,
    kkt_residual,
    optimize_sa,
)
from qwsnsim.quantum_link import QkdLinkSpec, qber_with_trs, qkd_received_power, qkd_received_power_trs
from qwsnsim.scenario import link_metrics

from oracles import (
    KS_CRIT_1PCT,
    decimal_capacity,
    decimal_received_power,
    eigen_log2det,
    gauss_laguerre_ergodic,
    ks_statistic_exponential,
    random_hermitian_pd,
    random_unitary,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: {elapsed:.2f}s exceeded {budget_s}s budget"
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s < {budget_s:.0f}s)")


def test_gamma_law_exactness():
    with criterion("gamma-law exactness on 1000 randomized links", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            budget = LinkBudget(
                float(10.0 ** rng.uniform(0, 7)),
                float(10.0 ** rng.uniform(-6, 0)),
                float(10.0 ** rng.uniform(-9, -3)),
                float(10.0 ** rng.uniform(-9, -3)),
            )
            gamma = float(rng.uniform(1.0, 8.0))
            link = Link("a", "b", budget, FadingSpec.rayleigh(), TrsGain(gamma))
            node = Node("a", float(10.0 ** rng.uniform(-3, 1)), float(10.0 ** rng.uniform(1, 5)))
            m = link_metrics(node, link, sample_fading(link.fading, rng))
            assert m.capacity_trs_bps / m.capacity_bps == pytest.approx(gamma, rel=1e-12)
            assert m.tx_time_trs_s * gamma == pytest.approx(m.tx_time_s, rel=1e-12)
            assert m.energy_trs_j * gamma == pytest.approx(m.energy_j, rel=1e-12)
            assert m.latency_trs_s * gamma == pytest.approx(m.latency_s, rel=1e-12)


def test_shannon_kernel_against_extended_precision_oracle():
    with criterion("Shannon kernel vs 60-digit oracle (incl. tiny SNR)", 1.0):
        rng = np.random.default_rng(77)
        budgets = []
        for _ in range(70):
            budgets.append(
                (
                    float(10.0 ** rng.uniform(0, 9)),
                    float(10.0 ** rng.uniform(-12, 2)),
                    float(10.0 ** rng.uniform(-12, 2)),
                    float(10.0 ** rng.uniform(-12, 2)),
                )
            )
        for _ in range(30):
            noise = float(10.0 ** rng.uniform(-3, 2))
            signal = noise * float(10.0 ** rng.uniform(-16, -9))  # SNR < 1e-8
            budgets.append((float(10.0 ** rng.uniform(0, 9)), signal, noise, 0.0))
        for b, s, n, i in budgets:
            got = shannon_capacity(LinkBudget(b, s, n, i))
            assert got == pytest.approx(decimal_capacity(b, s, n, i), rel=1e-12)


def test_fading_statistics():
    with criterion("fading statistics (mean, KS, large-K variance)", 10.0):
        omega = 2.0
        h2 = sample_h_squared(FadingSpec.rayleigh(omega), np.random.default_rng(42), 1_000_000)
        assert abs(h2.mean() - omega) < 3.0 * omega / math.sqrt(h2.size)

        k0 = sample_h_squared(FadingSpec.rician(0.0, 1.0), np.random.default_rng(8), 100_000)
        assert ks_statistic_exponential(k0, 1.0) < KS_CRIT_1PCT / math.sqrt(k0.size)

        frozen = sample_h_squared(FadingSpec.rician(1e6, omega), np.random.default_rng(9), 1_000_000)
        assert frozen.var() < 1e-4 * omega**2


def test_ergodic_capacity_against_quadrature_oracle():
    with criterion("ergodic capacity vs Gauss-Laguerre at 0/10/20 dB", 10.0):
        for seed, snr in ((1, 1.0), (2, 10.0), (3, 100.0)):
            link = LinkBudget(1.0, snr, 1.0, 0.0)
            got = ergodic_capacity(link, FadingSpec.rayleigh(), 1_000_000, np.random.default_rng(seed))
            assert got == pytest.approx(gauss_laguerre_ergodic(snr), rel=0.01)


def test_mimo_kernel_and_invariances():
    with criterion("MIMO log-det kernel, diagonal split, unitary invariance", 5.0):
        rng = np.random.default_rng(21)
        for _ in range(100):
            size = int(rng.integers(1, 9))
            matrix = random_hermitian_pd(rng, size)
            assert hermitian_logdet(matrix) == pytest.approx(eigen_log2det(matrix), rel=1e-9)

        for _ in range(50):
            a, b = rng.uniform(0.2, 3.0, size=2)
            power = float(rng.uniform(0.1, 10.0))
            channel = MimoChannel(np.diag([a, b]).astype(complex), power)
            split = np.log2(1 + power * a * a / 2) + np.log2(1 + power * b * b / 2)
            assert mimo_capacity(channel) == pytest.approx(float(split), abs=1e-10, rel=1e-10)

        for _ in range(20):
            h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            rotated = random_unitary(rng, 4) @ h @ random_unitary(rng, 3)
            assert mimo_capacity(MimoChannel(rotated, 2.1)) == pytest.approx(
                mimo_capacity(MimoChannel(h, 2.1)), rel=1e-9
            )


def test_multi_hop_law():
    with criterion("multi-hop capacity min / latency additivity", 1.0):
        rng = np.random.default_rng(6)
        for _ in range(200):
            hops = [float(c) for c in rng.uniform(0.01, 1e6, size=int(rng.integers(1, 10)))]
            assert path_capacity(hops) == min(hops)
            perm = list(hops)
            rng.shuffle(perm)
            assert path_capacity(perm) == path_capacity(hops)
            assert path_latency(hops) == functools.reduce(operator.add, hops)
            assert path_latency([h / 2.0 for h in hops]) == path_latency(hops) / 2.0


def test_qber_and_qkd_budget():
    with criterion("QBER composition, QKD exp oracle, TRS clamp", 1.0):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = float(rng.uniform(0.0, 1.0))
            g1, g2 = (float(2.0 ** rng.integers(0, 5)) for _ in range(2))
            assert qber_with_trs(qber_with_trs(q, TrsGain(g1)), TrsGain(g2)) == qber_with_trs(
                q, TrsGain(g1 * g2)
            )
        for _ in range(200):
            spec = QkdLinkSpec(
                float(10.0 ** rng.uniform(-6, 2)),
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.0, 50.0)),
            )
            assert qkd_received_power(spec) == pytest.approx(
                decimal_received_power(spec.tx_power_w, spec.loss_coeff_per_km, spec.distance_km),
                rel=1e-12,
            )
        for _ in range(1000):
            spec = QkdLinkSpec(
                float(10.0 ** rng.uniform(-6, 2)),
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.0, 50.0)),
            )
            gain = TrsGain(float(rng.uniform(1.0, 100.0)))
            assert qkd_received_power_trs(spec, gain) <= spec.tx_power_w


def _sa_instance(seed, gamma=1.0):
    rng = np.random.default_rng(seed)
    nodes = (
        Node("a", 1.0, float(rng.uniform(0.5, 2.0))),
        Node("b", 1.0, float(rng.uniform(0.5, 2.0))),
    )

    def link(src, dst):
        return Link(
            src,
            dst,
            LinkBudget(1.0, 1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.5))),
            FadingSpec.awgn(),
            TrsGain(gamma),
        )

    topo = Topology(TopologyKind.MESH, nodes, (link("a", "b"), link("b", "a")))
    return PowerProblem(topo, p_min_w=0.2, p_max_w=5.0, alpha=1.0, beta=1.0)


def test_optimizer_against_grid_oracle():
    with criterion("SA vs 64-point grid oracle on 20 instances + gamma argmin", 60.0):
        for seed in range(20):
            problem = _sa_instance(seed)
            oracle = grid_search_oracle(problem, 64)
            annealed = optimize_sa(problem, SaSchedule(iterations=10_000), rng=1000 + seed)
            assert abs(annealed.objective - oracle.objective) <= 0.01 * oracle.objective

        grid_argmins = []
        sa_argmins = []
        for gamma in (1.0, 2.0, 4.0):
            problem = _sa_instance(0, gamma=gamma)
            grid_argmins.append(grid_search_oracle(problem, 64).allocation)
            sa_argmins.append(optimize_sa(problem, SaSchedule(iterations=10_000), rng=42).allocation)
        assert grid_argmins[0] == grid_argmins[1] == grid_argmins[2]
        assert sa_argmins[0] == sa_argmins[1] == sa_argmins[2]


def _kkt_instance(bandwidth, noise, length, alpha, beta, box):
    nodes = (Node("a", 1.0, length), Node("b", 1.0, 1.0))
    link = Link("a", "b", LinkBudget(bandwidth, 1.0, noise, 0.0), FadingSpec.awgn(), TrsGain(1.0))
    topo = Topology(TopologyKind.MESH, nodes, (link,))
    return PowerProblem(topo, p_min_w=box[0], p_max_w=box[1], alpha=alpha, beta=beta)


def test_kkt_diagnostics():
    with criterion("KKT stationarity at grid minima, exact slackness", 10.0):
        # Grid density chosen so curvature * half-spacing stays below the
        # 1e-3 gate: F'' is ~0.26 for the first instance, ~1.21 for the second.
        instances = [
            (_kkt_instance(1.0, 1.0, 1.0, alpha=1.0, beta=1.0, box=(1.0, 2.4)), 701),
            (_kkt_instance(2.0, 0.5, 3.0, alpha=1.5, beta=0.7, box=(0.5, 1.3)), 801),
        ]
        for problem, points in instances:
            located = grid_search_oracle(problem, points)
            interior = located.allocation.powers_w[0]
            assert problem.p_min_w < interior < problem.p_max_w
            diag = kkt_residual(located.allocation, problem, [0.0] * 6)
            assert diag.stationarity_residual < 1e-3
            assert diag.complementary_slackness == 0.0


def test_end_to_end_determinism():
    with criterion("byte-identical simulate across runs and thread counts", 10.0):
        config = str(CONFIG_DIR / "example_chain.yaml")
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            outputs = []
            for threads in ("1", "1", "4"):
                code = main(
                    [
                        "simulate",
                        "--config",
                        config,
                        "--seed",
                        "123",
                        "--out",
                        str(out),
                        "--format",
                        "json",
                        "--threads",
                        threads,
                    ]
                )
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]
            json.loads(outputs[0])
