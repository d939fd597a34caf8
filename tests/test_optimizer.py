import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsnsim.channel import (
    FadingSpec,
    LinkBudget,
    TrsGain,
    faded_capacity_samples,
    sample_h_squared,
)
from qwsnsim.errors import NoFeasiblePointError
from qwsnsim.network import Link, Node, Topology, TopologyKind
from qwsnsim.optimizer import (
    Allocation,
    Deterministic,
    ErgodicMean,
    PowerProblem,
    SaSchedule,
    Solver,
    _Evaluator,
    _reduce,
    grid_search_oracle,
    kkt_residual,
    optimize_sa,
    weighted_objective,
)

from oracles import (
    ZeroCapacity,
    anneal_reference,
    annealer_faded_reference,
    grid_argmin,
    running_totals,
)


def single_link_problem(
    gamma=1.0,
    bandwidth=1.0,
    noise=1.0,
    interference=0.0,
    packet_bits=1.0,
    p_min=0.5,
    p_max=3.0,
    alpha=1.0,
    beta=0.0,
    r_min=0.0,
    latency_max=math.inf,
    fading=None,
    fading_spec=None,
    signal=1.0,
):
    nodes = (Node("a", 1.0, packet_bits), Node("b", 1.0, 1.0))
    link = Link(
        "a",
        "b",
        LinkBudget(bandwidth, signal, noise, interference),
        fading_spec or FadingSpec.awgn(),
        TrsGain(gamma),
    )
    topo = Topology(TopologyKind.MESH, nodes, (link,))
    return PowerProblem(
        topo,
        p_min_w=p_min,
        p_max_w=p_max,
        r_min_bps=r_min,
        latency_max_s=latency_max,
        alpha=alpha,
        beta=beta,
        fading=fading or Deterministic(),
    )


def two_link_problem(seed, gamma=1.0, beta=1.0, p_min=0.2, p_max=5.0):
    """Randomized two-node mesh with traffic in both directions."""
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
    return PowerProblem(topo, p_min_w=p_min, p_max_w=p_max, alpha=1.0, beta=beta)


def _seeded_mesh(seed, n_nodes=40, n_links=90):
    """A mixed AWGN/Rayleigh/Rician mesh drawn from ``seed``, under the
    ergodic treatment, whose latency cap binds below its midpoint powers."""
    rng = np.random.default_rng(seed)
    nodes = tuple(
        Node(f"n{i}", 1.0, float(rng.choice((512, 1024, 4096)))) for i in range(n_nodes)
    )
    pairs = {}  # (src, dst) -> None, unique and in draw order
    while len(pairs) < n_links:
        pairs[tuple(rng.choice(n_nodes, size=2, replace=False))] = None
    links = []
    for src, dst in pairs:
        spec = [
            FadingSpec.awgn(),
            FadingSpec.rayleigh(float(rng.uniform(0.5, 2.0))),
            FadingSpec.rician(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.5, 2.0))),
        ][rng.integers(3)]
        budget = LinkBudget(float(rng.uniform(1e5, 1e7)), 1.0, float(rng.uniform(1e-9, 1e-6)))
        gain = TrsGain(float(rng.uniform(1.0, 4.0)))
        links.append(Link(f"n{src}", f"n{dst}", budget, spec, gain))
    problem = PowerProblem(
        Topology(TopologyKind.MESH, nodes, tuple(links)),
        p_min_w=0.01,
        p_max_w=2.0,
        beta=0.5,
        fading=ErgodicMean(n_samples=50, seed=seed),
    )
    _energy, latency, _least = _Evaluator(problem).totals([0.7] * n_nodes)
    return replace(problem, latency_max_s=latency)


def no_link_problem(p_min=0.1, p_max=2.0):
    nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, 1.0))
    topo = Topology(TopologyKind.MESH, nodes, ())
    return PowerProblem(topo, p_min_w=p_min, p_max_w=p_max, alpha=1.0, beta=0.0)


class TestObjectives:
    def test_unit_instance(self):
        # P=1 over B=1, N=1 gives C=1 bit/s; E = P*L/C = 1 J.
        problem = single_link_problem()
        assert weighted_objective(Allocation((1.0, 1.0)), problem) == 1.0

    def test_gain_halves_energy(self):
        problem = single_link_problem(gamma=2.0)
        assert weighted_objective(Allocation((1.0, 1.0)), problem) == 0.5

    def test_chain_matches_stepwise_pipeline(self):
        from qwsnsim.channel import shannon_capacity

        rng = np.random.default_rng(6)
        nodes = (Node("a", 1.0, 700.0), Node("b", 1.0, 1200.0), Node("c", 1.0, 1.0))
        links = (
            Link("a", "b", LinkBudget(2e3, 1.0, 0.25, 0.05), FadingSpec.awgn(), TrsGain(2.0)),
            Link("b", "c", LinkBudget(5e3, 1.0, 0.5, 0.0), FadingSpec.awgn(), TrsGain(4.0)),
        )
        topo = Topology(TopologyKind.CHAIN, nodes, links)
        lengths = {node.id: node.packet_length_bits for node in nodes}
        problem = PowerProblem(topo, p_min_w=0.1, p_max_w=4.0)
        powers = {"a": float(rng.uniform(0.1, 4.0)), "b": float(rng.uniform(0.1, 4.0))}
        alloc = Allocation((powers["a"], powers["b"], 1.0))

        expected = 0.0
        for link in links:
            p = powers[link.src]
            cap = shannon_capacity(
                LinkBudget(
                    link.budget.bandwidth_hz,
                    p,
                    link.budget.noise_power_w,
                    link.budget.interference_power_w,
                )
            )
            expected += p * lengths[link.src] / (link.gain.gamma * cap)
        assert weighted_objective(alloc, problem) == pytest.approx(expected, rel=1e-12)

    def test_weighted_degenerate_weights(self):
        energy_only = single_link_problem(alpha=1.0, beta=0.0)
        latency_only = single_link_problem(alpha=0.0, beta=1.0)
        both = single_link_problem(alpha=1.0, beta=1.0)
        alloc = Allocation((1.5, 1.0))
        e = weighted_objective(alloc, energy_only)
        lat = weighted_objective(alloc, latency_only)
        assert e == _Evaluator(energy_only).totals(alloc.powers_w)[0]
        assert weighted_objective(alloc, both) == pytest.approx(e + lat, rel=1e-15)

    def test_out_of_bounds_allocation_rejected(self):
        problem = single_link_problem()
        with pytest.raises(ValueError):
            weighted_objective(Allocation((10.0, 1.0)), problem)
        with pytest.raises(ValueError):
            weighted_objective(Allocation((1.0,)), problem)


def _assess_terms(evaluator, terms):
    """(objective, feasible, penalized objective) at the point whose per-link
    terms are ``terms``, as the annealer assesses a move."""
    return evaluator._penalize(*evaluator.reduce(terms))


def _assess(evaluator, powers):
    """(objective, feasible, penalized objective) at the allocation, from
    fresh per-link terms."""
    return _assess_terms(evaluator, evaluator.start(powers))


def _slacks(problem, powers):
    """Signed slacks of the rate floor and the latency cap (negative =
    violated), from the evaluator's totals."""
    _energy, latency, min_cap_trs = _Evaluator(problem).totals(powers)
    return min_cap_trs - problem.r_min_bps, problem.latency_max_s - latency


class TestFeasibility:
    def test_vacuous_constraints(self):
        problem = single_link_problem(r_min=0.0, latency_max=math.inf)
        capacity_slack, latency_slack = _slacks(problem, (1.0, 1.0))
        assert capacity_slack >= 0
        assert latency_slack == math.inf
        assert _assess(_Evaluator(problem), (1.0, 1.0))[1]

    def test_impossible_rate_floor(self):
        problem = single_link_problem(r_min=100.0)
        capacity_slack, _latency_slack = _slacks(problem, (3.0, 3.0))
        assert capacity_slack < 0
        assert not _assess(_Evaluator(problem), (3.0, 3.0))[1]

    def test_boundary_allocation_has_zero_slack(self):
        # Analytic inversion: C_trs = gamma*B*log2(1 + P/N) = r_min at P = 1.
        problem = single_link_problem(r_min=1.0, p_min=0.5, p_max=3.0)
        capacity_slack, _latency_slack = _slacks(problem, (1.0, 1.0))
        assert capacity_slack == 0.0
        assert _assess(_Evaluator(problem), (1.0, 1.0))[1]


class TestGridOracle:
    def test_matches_independent_rescan(self):
        for seed in (0, 1):
            problem = two_link_problem(seed)
            result = grid_search_oracle(problem, 16)
            axis = np.linspace(problem.p_min_w, problem.p_max_w, 16)
            best = math.inf
            best_point = None
            for pa, pb in itertools.product(axis, axis):
                value = weighted_objective(Allocation((float(pa), float(pb))), problem)
                if value < best:
                    best, best_point = value, (float(pa), float(pb))
            assert result.objective == best
            assert result.allocation.powers_w == best_point
            assert result.evaluations == 256
            assert result.solver is Solver.GRID_ORACLE

    def test_single_node_full_scan(self):
        problem = single_link_problem(alpha=1.0, beta=1.0)
        result = grid_search_oracle(problem, 64)
        axis = np.linspace(problem.p_min_w, problem.p_max_w, 64)
        values = [
            weighted_objective(Allocation((float(p), problem.p_min_w)), problem) for p in axis
        ]
        assert result.objective == min(values)

    def test_oracle_dominates_every_grid_point(self):
        problem = two_link_problem(3, beta=0.5)
        result = grid_search_oracle(problem, 12)
        axis = np.linspace(problem.p_min_w, problem.p_max_w, 12)
        for pa, pb in itertools.product(axis, axis):
            assert result.objective <= weighted_objective(
                Allocation((float(pa), float(pb))), problem
            )

    def test_all_infeasible_grid(self):
        problem = single_link_problem(r_min=1e9)
        with pytest.raises(NoFeasiblePointError):
            grid_search_oracle(problem, 8)

    def test_tie_breaks_to_smallest_total_power(self):
        result = grid_search_oracle(no_link_problem(), 5)
        assert result.objective == 0.0
        assert result.allocation.powers_w == (0.1, 0.1)

    def test_guards(self):
        with pytest.raises(ValueError):
            grid_search_oracle(single_link_problem(), 1)
        nodes = tuple(Node(f"n{i}", 1.0, 1.0) for i in range(5))
        topo = Topology(TopologyKind.MESH, nodes, ())
        with pytest.raises(ValueError):
            grid_search_oracle(PowerProblem(topo, 0.1, 1.0), 4)


class TestSimulatedAnnealing:
    def test_flat_landscape_returns_any_point_in_box(self):
        problem = no_link_problem()
        result = optimize_sa(problem, SaSchedule(iterations=100), rng=5)
        assert result.objective == 0.0
        assert result.feasible
        for p in result.allocation.powers_w:
            assert problem.p_min_w <= p <= problem.p_max_w

    def test_deterministic_given_seed(self):
        problem = two_link_problem(7)
        a = optimize_sa(problem, SaSchedule(iterations=2000), rng=11)
        b = optimize_sa(problem, SaSchedule(iterations=2000), rng=11)
        assert a == b

    def test_result_is_in_bounds_and_feasible(self):
        problem = two_link_problem(2, beta=0.3)
        result = optimize_sa(problem, SaSchedule(iterations=3000), rng=0)
        for p in result.allocation.powers_w:
            assert problem.p_min_w <= p <= problem.p_max_w
        assert result.feasible
        assert min(_slacks(problem, result.allocation.powers_w)) >= 0

    def test_matches_grid_oracle_within_one_percent(self):
        for seed in range(5):
            problem = two_link_problem(seed)
            oracle = grid_search_oracle(problem, 64)
            sa = optimize_sa(problem, SaSchedule(iterations=6000), rng=100 + seed)
            assert abs(sa.objective - oracle.objective) <= 0.01 * oracle.objective

    def test_impossible_constraints_raise(self):
        problem = single_link_problem(r_min=1e9)
        with pytest.raises(NoFeasiblePointError):
            optimize_sa(problem, SaSchedule(iterations=200), rng=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_result_totals_are_a_fresh_evaluation(self, seed):
        # The chain keeps its best point's totals rather than evaluating it
        # again; they must be what a fresh evaluator gives at its powers.
        problem = _seeded_mesh(seed)
        result = optimize_sa(problem, SaSchedule(iterations=300), rng=seed)
        evaluator = _Evaluator(problem)
        totals = evaluator.totals(result.allocation.powers_w)
        objective, feasible, _penalized = evaluator._penalize(*totals)
        assert _bits((result.energy_total_j, result.latency_total_s)) == _bits(totals[:2])
        assert _bits(result.objective) == _bits(objective)
        assert result.feasible == feasible

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SaSchedule(cooling=1.0)
        with pytest.raises(ValueError):
            SaSchedule(iterations=0)
        with pytest.raises(ValueError):
            SaSchedule(t_initial=-1.0)
        with pytest.raises(ValueError, match="^t_initial must be"):
            SaSchedule(t_initial=10**400)  # an int beyond the float range


class TestGammaScaling:
    def test_grid_argmin_invariant_and_objective_scales(self):
        base = grid_search_oracle(two_link_problem(0, gamma=1.0), 32)
        for gamma in (2.0, 4.0):
            swept = grid_search_oracle(two_link_problem(0, gamma=gamma), 32)
            assert swept.allocation == base.allocation
            assert swept.objective == base.objective / gamma

    def test_sa_trajectory_invariant_for_dyadic_gains(self):
        results = [
            optimize_sa(two_link_problem(0, gamma=g), SaSchedule(iterations=3000), rng=42)
            for g in (1.0, 2.0, 4.0)
        ]
        assert results[0].allocation == results[1].allocation == results[2].allocation
        assert results[1].objective == results[0].objective / 2.0
        assert results[2].objective == results[0].objective / 4.0


class TestErgodicTreatment:
    def test_objective_is_deterministic(self):
        problem = single_link_problem(
            fading=ErgodicMean(n_samples=500, seed=9),
            fading_spec=FadingSpec.rayleigh(),
            alpha=1.0,
            beta=1.0,
        )
        alloc = Allocation((1.3, 1.0))
        assert weighted_objective(alloc, problem) == weighted_objective(alloc, problem)

    def test_ergodic_mean_differs_from_deterministic_under_fading(self):
        alloc = Allocation((1.3, 1.0))
        ergodic = single_link_problem(
            fading=ErgodicMean(n_samples=500, seed=9), fading_spec=FadingSpec.rayleigh()
        )
        flat = single_link_problem(fading_spec=FadingSpec.rayleigh())
        assert weighted_objective(alloc, ergodic) != weighted_objective(alloc, flat)

    # Zero, subnormal, below p_min (kkt_residual's finite differences step
    # there) and negative enough that some draws leave log1p's domain. AWGN
    # takes the deterministic branch: at p = -2.0 it is NaN, not an error.
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-310, 1.3, -1e-3, -0.25, -2.0])
    @pytest.mark.parametrize(
        "spec", [FadingSpec.rayleigh(0.5), FadingSpec.rician(2.0), FadingSpec.awgn()]
    )
    def test_faded_capacity_matches_the_former_expression(self, p, spec):
        problem = single_link_problem(
            bandwidth=3.0,
            noise=0.7,
            interference=0.2,
            # The node's power is the signal power; the link's own is unused.
            signal=7.5,
            fading=ErgodicMean(n_samples=300, seed=4),
            fading_spec=spec,
        )
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4, spawn_key=(0,))))
        h2 = sample_h_squared(spec, rng, size=300)
        with np.errstate(invalid="ignore"):
            got = _Evaluator(problem)._capacity(0, p)
            want = annealer_faded_reference(3.0, 0.7, 0.2, p, h2)
        assert _bits(got) == _bits(want)

    def test_deterministic_capacity_is_the_scalar_expression(self):
        # The simulator's capacity of the link at each power, bit for bit;
        # math.log1p differs from it in the last ulp for some of these.
        problem = single_link_problem(noise=1e-4, interference=1e-4, p_min=1e-5, p_max=5e-3)
        evaluator = _Evaluator(problem)
        budget = problem.topology.links[0].budget
        powers = np.linspace(1e-5, 5e-3, 2000).tolist()
        got = [evaluator._capacity(0, p) for p in powers]
        want = [
            faded_capacity_samples(replace(budget, signal_power_w=p), np.ones(1))[0]
            for p in powers
        ]
        assert _bits(got) == _bits(want)

    def test_scalar_log1p_is_the_array_loop(self):
        # The float branch of channel.received_capacity calls np.log1p on
        # one float; its array branch runs it over an array. A numpy release
        # whose two loops round differently must fail here.
        x = np.exp(np.random.default_rng(15).uniform(-3.0, 3.0, 200_000))
        scalar = [float(np.log1p(v)) for v in x.tolist()]
        assert _bits(scalar) == _bits(np.log1p(x))

    def test_awgn_links_ignore_the_treatment(self):
        alloc = Allocation((1.3, 1.0))
        ergodic = single_link_problem(fading=ErgodicMean(n_samples=500, seed=9))
        flat = single_link_problem()
        assert weighted_objective(alloc, ergodic) == weighted_objective(alloc, flat)


# The evaluator leaves numpy's error state to the public entry points, so tests
# that call it directly on overflowing inputs set that state themselves.
def quiet_overflow(test):
    return np.errstate(over="ignore", invalid="ignore")(test)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# Power 0 gives zero capacity: the infeasible (inf, False, inf) assessment.
_POWERS = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def delta_cases(draw, n_nodes=(2, 5), n_links=(1, 8), start=_POWERS):
    """A mixed AWGN/Rayleigh/Rician mesh under either fading treatment, a
    starting allocation drawn from ``start``, and a chain of single-node
    moves."""
    n = draw(st.integers(*n_nodes))
    nodes = tuple(
        Node(f"n{i}", 1.0, draw(st.sampled_from((1.0, 512.0, 4096.0)))) for i in range(n)
    )
    pairs = []
    if n > 1:  # a single node has no link
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] != t[1]
                ),
                min_size=n_links[0],
                max_size=n_links[1],
                unique=True,
            )
        )
    links = []
    for src, dst in pairs:
        kind = draw(st.sampled_from(("awgn", "rayleigh", "rician")))
        spec = {
            "awgn": FadingSpec.awgn,
            "rayleigh": lambda: FadingSpec.rayleigh(draw(st.floats(0.5, 2.0))),
            "rician": lambda: FadingSpec.rician(draw(st.floats(0.0, 10.0)), draw(st.floats(0.5, 2.0))),
        }[kind]()
        budget = LinkBudget(
            draw(st.floats(1.0, 1e7)), 1.0, draw(st.floats(1e-12, 1.0)), draw(st.floats(0.0, 1e-3))
        )
        links.append(Link(f"n{src}", f"n{dst}", budget, spec, TrsGain(draw(st.floats(1.0, 8.0)))))
    fading = draw(
        st.one_of(
            st.just(Deterministic()),
            st.builds(ErgodicMean, n_samples=st.integers(1, 32), seed=st.integers(0, 2**32)),
        )
    )
    problem = PowerProblem(
        Topology(TopologyKind.MESH, nodes, tuple(links)),
        p_min_w=0.0,
        p_max_w=1.0,
        r_min_bps=draw(st.sampled_from((0.0, 1e3, 1e6))),
        latency_max_s=draw(st.sampled_from((math.inf, 1e-3, 1.0))),
        alpha=draw(st.sampled_from((0.0, 1.0))),
        beta=draw(st.sampled_from((0.5, 1.0))),
        fading=fading,
    )
    powers = draw(st.lists(start, min_size=n, max_size=n))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), _POWERS), min_size=1, max_size=6))
    return problem, powers, moves


@st.composite
def anneal_cases(draw):
    """A ``delta_cases`` mesh of 1-6 nodes (p_min_w = 0) whose rate floor or
    latency cap may bind, a schedule and a seed."""
    problem, _powers, _moves = draw(delta_cases(n_nodes=(1, 6), n_links=(0, 8)))
    seed = draw(st.integers(0, 2**32))
    if problem.topology.links:
        # The chain's starting point, as the annealer draws it. As a floor,
        # its least TRS capacity is violated by lowering the weakest link's
        # node; as a cap, its latency by lowering any node: the first moves
        # cross both.
        start = np.random.default_rng(seed).uniform(0.0, problem.p_max_w, problem.n_nodes)
        _energy, latency, min_cap_trs = _Evaluator(problem).totals(start)
        if draw(st.booleans()):
            problem = replace(problem, r_min_bps=min_cap_trs)
        if draw(st.booleans()):
            problem = replace(problem, latency_max_s=latency)
    schedule = SaSchedule(
        t_initial=draw(st.one_of(st.none(), st.floats(1e-9, 1e3))),
        cooling=draw(st.sampled_from((0.5, 0.95, 0.999))),
        iterations=draw(st.integers(1, 60)),
    )
    return problem, schedule, seed


class TestAnnealerOracle:
    @settings(max_examples=200, deadline=None)
    @given(anneal_cases())
    def test_equals_plain_python_annealer(self, case):
        problem, schedule, seed = case
        expected = anneal_reference(problem, schedule, seed)
        if expected is None:
            with pytest.raises(NoFeasiblePointError):
                optimize_sa(problem, schedule, seed)
        else:
            assert optimize_sa(problem, schedule, seed) == expected


class TestNanStart:
    """Above about 1.8e8 W the energy P * L / C of node b's 1e300-bit packet
    overflows, so alpha = 0 times it makes the objective NaN; the chain
    starts there at seed 1 and must still walk down to the finite region."""

    @staticmethod
    def _problem():
        nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, 1e300))
        link = Link("b", "a", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(1.0))
        topology = Topology(TopologyKind.MESH, nodes, (link,))
        return PowerProblem(topology, p_min_w=1e4, p_max_w=1e9, alpha=0.0, beta=1.0)

    def test_chain_leaves_a_nan_start(self):
        problem, schedule = self._problem(), SaSchedule(iterations=2000)
        start = np.random.default_rng(1).uniform(1e4, 1e9, size=2).tolist()
        objective, _feasible, penalized = _assess(_Evaluator(problem), start)
        assert math.isnan(objective)
        assert penalized == math.inf
        result = optimize_sa(problem, schedule, 1)
        assert result.feasible
        assert math.isfinite(result.objective)
        assert 1e8 < result.allocation.powers_w[1] < 1.8e8
        assert result == anneal_reference(problem, schedule, 1)


class TestZeroCapacity:
    """Power 0 leaves a link without capacity: the entry points raise
    ValueError naming the allocation, without a numpy warning."""

    @pytest.mark.parametrize(
        "fading,spec",
        [
            pytest.param(None, None, id="deterministic"),
            pytest.param(ErgodicMean(50, 3), FadingSpec.rayleigh(), id="ergodic-rayleigh"),
        ],
    )
    def test_weighted_objective_and_kkt_name_the_allocation(self, fading, spec):
        problem = single_link_problem(p_min=0.0, fading=fading, fading_spec=spec)
        alloc = Allocation((0.0, 1.0))
        with pytest.raises(ValueError, match=r"at allocation \(0\.0, 1\.0\)"):
            weighted_objective(alloc, problem)
        with pytest.raises(ValueError, match=r"at allocation \(0\.0, 1\.0\)"):
            kkt_residual(alloc, problem, [0.0] * 6)


class TestDeltaEvaluation:
    """The annealer's patched terms against a whole-point evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(delta_cases())
    @quiet_overflow
    def test_move_evaluation_equals_full_evaluation(self, case):
        problem, powers, moves = case
        evaluator = _Evaluator(problem)
        terms = evaluator.start(powers)
        # Every other move is rejected and undone, as the annealer does.
        for k, (node, power) in enumerate(moves):
            candidate = list(powers)
            candidate[node] = power
            old = evaluator.move(terms, node, power)
            assert _bits(terms) == _bits(evaluator.start(candidate))
            assert _bits(_assess_terms(evaluator, terms)) == _bits(_assess(evaluator, candidate))
            if k % 2:
                evaluator.undo(terms, old)
                assert _bits(terms) == _bits(evaluator.start(powers))
            else:
                powers = candidate

    def test_move_to_zero_power_is_infeasible(self):
        # A Python-float L / 0.0 would raise ZeroDivisionError.
        problem = two_link_problem(3, p_min=0.0)
        evaluator = _Evaluator(problem)
        terms = evaluator.start([1.0, 1.0])
        evaluator.move(terms, 0, 0.0)
        assert _assess_terms(evaluator, terms) == (math.inf, False, math.inf)
        assert _assess(evaluator, [0.0, 1.0]) == (math.inf, False, math.inf)

    def test_no_links(self):
        evaluator = _Evaluator(no_link_problem())
        assert _assess_terms(evaluator, evaluator.start([1.0, 1.0])) == (0.0, True, 0.0)


def _capacities(evaluator, powers):
    """Per-link capacity without TRS at the allocation, one ``_capacity`` per link."""
    return [evaluator._capacity(i, powers[link[0]]) for i, link in enumerate(evaluator.links)]


def _oracle_totals(problem, caps, powers):
    """running_totals over the problem's links, or None where it meets a link
    without capacity."""
    nodes = problem.topology.nodes
    index = {n.id: i for i, n in enumerate(nodes)}
    links = [
        (index[link.src], link.gain.gamma, nodes[index[link.src]].packet_length_bits)
        for link in problem.topology.links
    ]
    try:
        return running_totals(links, caps, powers)
    except ZeroCapacity:
        return None


def _fake_capacities(evaluator, caps):
    """Make ``evaluator`` read link ``i``'s capacity as ``caps[i]``, whatever
    the power: values the channel never yields reach the terms."""
    evaluator._capacity = lambda i, _p: float(caps[i])
    return evaluator


@quiet_overflow
def _agrees(evaluator, powers, expected) -> bool:
    """``totals`` equals the loop's, or, where the loop meets a link without
    capacity, its least TRS capacity is <= 0."""
    got = evaluator.totals(powers)
    return got[2] <= 0.0 if expected is None else _same(got, expected)


def _same(a, b) -> bool:
    """Equal values bit for bit (any NaN matches any NaN)."""
    return len(a) == len(b) and all(
        (math.isnan(x) and math.isnan(y)) or _bits(x) == _bits(y) for x, y in zip(a, b)
    )


_ANY_CAP = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, 5e-324, 1e-310, 1e308)),
)


# More than 8 links, so a pairwise or unrolled sum would round differently,
# and a feasible start, so the sums are reached before a zero-power move.
_LARGE_MESHES = delta_cases(n_nodes=(5, 12), n_links=(9, 40), start=st.floats(1e-3, 1.0))


class TestTotalsOracle:
    """The vectorized ``totals`` against the left-to-right Python loop."""

    @settings(max_examples=200, deadline=None)
    @given(_LARGE_MESHES)
    def test_equals_running_loop_on_meshes(self, case):
        problem, powers, moves = case
        powers = np.array(powers)
        evaluator = _Evaluator(problem)
        caps = _capacities(evaluator, powers)
        assert _agrees(evaluator, powers, _oracle_totals(problem, caps, powers))
        for node, power in moves:
            powers = powers.copy()
            powers[node] = power
            caps = _capacities(evaluator, powers)
            assert _agrees(evaluator, powers, _oracle_totals(problem, caps, powers))

    @settings(max_examples=200, deadline=None)
    @given(_LARGE_MESHES, st.data())
    def test_equals_running_loop_on_any_capacities(self, case, data):
        # Capacities the channel never yields (NaN, inf, negative, subnormal)
        # and powers up to overflow: the first zero link, NaN propagation and
        # the NaN-skipping minimum must all match the loop.
        problem, _powers, _moves = case
        n_links, n_nodes = len(problem.topology.links), problem.n_nodes
        caps = np.array(data.draw(st.lists(_ANY_CAP, min_size=n_links, max_size=n_links)))
        power = st.one_of(st.just(-0.0), st.floats(0.0, 1e308))
        powers = data.draw(st.lists(power, min_size=n_nodes, max_size=n_nodes))
        evaluator = _fake_capacities(_Evaluator(problem), caps)
        assert _agrees(evaluator, powers, _oracle_totals(problem, caps, powers))

    @pytest.mark.parametrize(
        "caps,powers",
        [
            pytest.param([math.nan, 0.0, 1.0], [0.5, 1.0, 0.25], id="nan-then-zero"),
            pytest.param([math.nan, 2.0, 3.0], [0.5, 1.0, 0.25], id="nan-skipped-by-min"),
            pytest.param([-0.0, 1.0, 1.0], [0.5, 1.0, 0.25], id="negative-zero-capacity"),
            pytest.param([1.0, 2.0, 3.0], [-0.0, -0.0, -0.0], id="negative-zero-power"),
            pytest.param([math.inf, 1.0, 5e-324], [0.5, 1.0, 0.25], id="inf-and-subnormal"),
        ],
    )
    def test_equals_running_loop_on_edge_capacities(self, caps, powers):
        nodes = tuple(Node(f"n{i}", 1.0, 64.0) for i in range(3))
        budget = LinkBudget(1.0, 1.0, 1.0, 0.0)
        links = tuple(
            Link(f"n{i}", f"n{(i + 1) % 3}", budget, FadingSpec.awgn(), TrsGain(2.0))
            for i in range(3)
        )
        topology = Topology(TopologyKind.MESH, nodes, links)
        problem = PowerProblem(topology, p_min_w=0.0, p_max_w=1.0)
        caps = np.array(caps)
        evaluator = _fake_capacities(_Evaluator(problem), caps)
        assert _agrees(evaluator, powers, _oracle_totals(problem, caps, powers))

    def test_no_links(self):
        problem = no_link_problem()
        evaluator = _Evaluator(problem)
        expected = running_totals([], [], [1.0, 1.0])
        assert expected == (0.0, 0.0, math.inf)
        assert evaluator.totals([1.0, 1.0]) == expected

    def test_accumulate_is_the_python_running_sum(self):
        # totals relies on np.add.accumulate adding strictly left to right;
        # a numpy release that changes that must fail here, not shift the
        # SA trajectory silently.
        rng = np.random.default_rng(20260601)
        lengths = [1, 2, 3, 3000, *rng.integers(1, 3001, size=196)]
        for n in lengths:
            x = 10.0 ** rng.uniform(-9.0, 9.0, size=n) * rng.choice((-1.0, 1.0), size=n)
            running = list(itertools.accumulate(x.tolist()))
            assert _bits(np.add.accumulate(x)) == _bits(running)


class TestKkt:
    def test_zero_multipliers_give_zero_complementary_slackness(self):
        problem = single_link_problem(alpha=1.0, beta=1.0)
        diag = kkt_residual(Allocation((1.0, 1.0)), problem, [0.0] * 6)
        assert diag.complementary_slackness == 0.0
        assert diag.primal_violation == 0.0

    def test_infeasible_point_has_positive_primal_violation(self):
        problem = single_link_problem(r_min=100.0)
        diag = kkt_residual(Allocation((1.0, 1.0)), problem, [0.0] * 6)
        assert diag.primal_violation > 0.0

    def test_stationarity_small_at_grid_minimum(self):
        problem = single_link_problem(alpha=1.0, beta=1.0)
        located = grid_search_oracle(problem, 501)
        diag = kkt_residual(located.allocation, problem, [0.0] * 6)
        assert diag.stationarity_residual < 1e-3

    def test_multiplier_validation(self):
        problem = single_link_problem()
        with pytest.raises(ValueError):
            kkt_residual(Allocation((1.0, 1.0)), problem, [0.0] * 5)
        with pytest.raises(ValueError):
            kkt_residual(Allocation((1.0, 1.0)), problem, [-1.0] + [0.0] * 5)

    def test_active_multiplier_reports_slack_product(self):
        problem = single_link_problem(r_min=0.5)
        multipliers = [2.0] + [0.0] * 5
        diag = kkt_residual(Allocation((1.0, 1.0)), problem, multipliers)
        slack, _latency_slack = _slacks(problem, (1.0, 1.0))
        assert diag.complementary_slackness == pytest.approx(2.0 * slack, rel=1e-12)



class TestKktAtTheBoxEdge:
    """Finite differences that stay inside [p_min_w, p_max_w]."""

    @staticmethod
    def _objective(problem, *powers):
        return weighted_objective(Allocation(powers), problem)

    def test_interior_point_takes_the_central_difference(self):
        problem = single_link_problem(alpha=1.0, beta=1.0)
        step = 1e-6 * 2.5  # relative to the box width 3.0 - 0.5
        slope = (
            self._objective(problem, 1.0 + step, 1.0) - self._objective(problem, 1.0 - step, 1.0)
        ) / (2.0 * step)
        diag = kkt_residual(Allocation((1.0, 1.0)), problem, [0.0] * 6)
        assert diag.stationarity_residual == math.sqrt(slope * slope)

    def test_power_near_zero_takes_a_forward_difference(self):
        # A central step of 5e-6 would evaluate a negative power.
        problem = single_link_problem(bandwidth=1e6, signal=1e-3, noise=1e-9, p_min=0.0, p_max=5.0)
        step = 1e-6 * 5.0
        slope = (
            self._objective(problem, 1e-12 + step, 1.0) - self._objective(problem, 1e-12, 1.0)
        ) / step
        diag = kkt_residual(Allocation((1e-12, 1.0)), problem, [0.0] * 6)
        assert math.isfinite(diag.stationarity_residual)
        assert diag.stationarity_residual == math.sqrt(slope * slope)

    def test_power_at_the_upper_bound_takes_a_backward_difference(self):
        problem = single_link_problem(alpha=1.0, beta=1.0)
        step = 1e-6 * 3.0
        slope = (
            self._objective(problem, 3.0, 1.0) - self._objective(problem, 3.0 - step, 1.0)
        ) / step
        diag = kkt_residual(Allocation((3.0, 1.0)), problem, [0.0] * 6)
        assert diag.stationarity_residual == math.sqrt(slope * slope)

    def test_box_narrower_than_the_step_shrinks_it(self):
        # The relative step 1e-6 is wider than the whole box [1, 1 + 2**-30].
        step = 2**-30
        problem = single_link_problem(alpha=1.0, beta=1.0, p_min=1.0, p_max=1.0 + step)
        slope = (
            self._objective(problem, 1.0 + step, 1.0) - self._objective(problem, 1.0, 1.0)
        ) / step
        diag = kkt_residual(Allocation((1.0, 1.0)), problem, [0.0] * 6)
        assert diag.stationarity_residual == math.sqrt(slope * slope)


class TestOverflow:
    """Powers near the float range overflow the Rayleigh link's p * |h|^2:
    the entry points raise ValueError naming the allocation or stay quiet,
    and never return NaN (pytest turns a numpy warning into an error)."""

    @staticmethod
    def _problem():
        nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, 1.0))
        budget = LinkBudget(1e6, 1e-3, 1e-4, 2e-4)
        links = (
            Link("a", "b", budget, FadingSpec.awgn(), TrsGain(2.0)),
            Link("b", "a", budget, FadingSpec.rayleigh(), TrsGain(2.0)),
        )
        topology = Topology(TopologyKind.MESH, nodes, links)
        return PowerProblem(topology, 1e300, 1.7e308, fading=ErgodicMean(50, 3))

    def test_weighted_objective_names_the_allocation(self):
        with pytest.raises(ValueError, match=r"nan at allocation \(1\.7e\+308, 1\.7e\+308\)"):
            weighted_objective(Allocation((1.7e308, 1.7e308)), self._problem())

    def test_kkt_residual_names_the_allocation(self):
        with pytest.raises(ValueError, match=r"at allocation \(1\.7e\+308, 1\.7e\+308\)"):
            kkt_residual(Allocation((1.7e308, 1.7e308)), self._problem(), [0.0] * 6)

    def test_grid_oracle_is_quiet(self):
        result = grid_search_oracle(self._problem(), 4)
        assert result.feasible
        assert math.isfinite(result.objective)


class TestProblemValidation:
    def test_bounds(self):
        topo = Topology(TopologyKind.MESH, (Node("a", 1.0, 1.0),), ())
        with pytest.raises(ValueError):
            PowerProblem(topo, 1.0, 1.0)
        with pytest.raises(ValueError):
            PowerProblem(topo, -0.1, 1.0)
        with pytest.raises(ValueError):
            PowerProblem(topo, 0.1, 1.0, r_min_bps=-1.0)
        with pytest.raises(ValueError):
            PowerProblem(topo, 0.1, 1.0, latency_max_s=0.0)
        with pytest.raises(ValueError):
            PowerProblem(topo, 0.1, 1.0, alpha=0.0, beta=0.0)
        for field in ("r_min_bps", "alpha", "beta"):
            with pytest.raises(ValueError):
                PowerProblem(topo, 0.1, 1.0, **{field: math.nan})
        with pytest.raises(ValueError):
            ErgodicMean(n_samples=0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_ergodic_seed_out_of_range_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"^seed must fit in 64 unsigned bits, got {seed}$"):
            ErgodicMean(seed=seed)
        assert ErgodicMean(seed=2**64 - 1).seed == 2**64 - 1

    # A Python int beyond the float range compares below math.inf; the bound
    # is the largest float, so such an int is refused here.
    @pytest.mark.parametrize(
        "field, match",
        [("p_max_w", "p_max_w"), ("r_min_bps", "r_min_bps"),
         ("latency_max_s", "latency_max_s"), ("alpha", "alpha"), ("beta", "beta")],
    )
    def test_int_beyond_the_float_range_is_refused(self, field, match):
        topo = Topology(TopologyKind.MESH, (Node("a", 1.0, 1.0),), ())
        with pytest.raises(ValueError, match=f"^{match}"):
            PowerProblem(topo, **{"p_min_w": 0.1, "p_max_w": 1.0, field: 10**400})


class TestGridOracleBatches:
    """The grid oracle, which reduces the per-link terms of a batch of grid
    points at once, against one ``assess`` per grid point."""

    @settings(max_examples=150, deadline=None)
    @given(delta_cases(n_nodes=(2, 3), n_links=(0, 6)), st.integers(2, 9))
    @quiet_overflow
    def test_equals_per_point_loop(self, case, points):
        # p_min = 0 gives zero-capacity (infeasible) rows; the sampled rate
        # floors, latency caps and alpha = 0 give all-infeasible grids and ties.
        problem, _powers, _moves = case
        axis = np.linspace(problem.p_min_w, problem.p_max_w, points)
        assess = functools.partial(_assess, _Evaluator(problem))
        expected = grid_argmin(assess, axis, problem.n_nodes)
        if expected is None:
            with pytest.raises(NoFeasiblePointError):
                grid_search_oracle(problem, points)
        else:
            assert grid_search_oracle(problem, points).allocation.powers_w == expected

    @pytest.mark.parametrize(
        "length,p_max,alpha",
        [
            # The energy overflows everywhere and alpha = 0: every objective
            # is 0 * inf = NaN, and the first feasible point stands.
            pytest.param(1e300, 1e301, 0.0, id="all-nan"),
            # Each batch runs from finite objectives into NaN ones.
            pytest.param(1e300, 1e9, 0.0, id="finite-then-nan"),
            # Every latency overflows; inf - inf against the unlimited cap is
            # NaN, which max(0.0, .) counts as no violation.
            pytest.param(1e308, 1e-3, 1.0, id="latency-overflows"),
        ],
    )
    @quiet_overflow
    def test_non_finite_objectives(self, length, p_max, alpha):
        # One link, from the last node: every batch sees the same objectives.
        nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, length))
        link = Link("b", "a", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(1.0))
        topology = Topology(TopologyKind.MESH, nodes, (link,))
        problem = PowerProblem(topology, p_max / 1e4, p_max, alpha=alpha, beta=1.0)
        axis = np.linspace(problem.p_min_w, problem.p_max_w, 7)
        expected = grid_argmin(functools.partial(_assess, _Evaluator(problem)), axis, 2)
        assert expected is not None
        assert grid_search_oracle(problem, 7).allocation.powers_w == expected

    @settings(max_examples=200, deadline=None)
    @given(delta_cases(n_nodes=(2, 4), n_links=(1, 8)), st.integers(1, 4), st.data())
    @quiet_overflow
    def test_batched_reduce_equals_reduce_per_row(self, case, rows, data):
        # Capacities the channel never yields (NaN, inf, zero, negative) and
        # powers up to overflow.
        problem, _powers, _moves = case
        n_links, n_nodes = len(problem.topology.links), problem.n_nodes
        def matrix(element, width):
            row = st.lists(element, min_size=width, max_size=width)
            return np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))

        caps = matrix(_ANY_CAP, n_links)
        powers = matrix(st.floats(0.0, 1e308), n_nodes)
        evaluator = _Evaluator(problem)
        points = []
        for cap_row, power_row in zip(caps, powers.tolist()):
            points.append(_fake_capacities(evaluator, cap_row).start(power_row))
        batched = _reduce(*np.stack(points, axis=1))
        for i, terms in enumerate(points):
            assert _same([float(total[i]) for total in batched], _Evaluator.reduce(terms))
