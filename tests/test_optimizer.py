import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsnsim.channel import FadingSpec, LinkBudget, TrsGain
from qwsnsim.errors import InfeasibleLinkError, NoFeasiblePointError
from qwsnsim.network import Link, Node, Topology, TopologyKind
from qwsnsim.optimizer import (
    Allocation,
    Deterministic,
    ErgodicMean,
    PowerProblem,
    SaSchedule,
    Solver,
    _batch_assess,
    _Evaluator,
    check_feasibility,
    energy_objective,
    grid_search_oracle,
    kkt_residual,
    optimize_sa,
    weighted_objective,
)

from oracles import ZeroCapacity, grid_argmin, running_totals


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
):
    nodes = (Node("a", 1.0, packet_bits), Node("b", 1.0, 1.0))
    link = Link(
        "a",
        "b",
        LinkBudget(bandwidth, 1.0, noise, interference),
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


def no_link_problem(p_min=0.1, p_max=2.0):
    nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, 1.0))
    topo = Topology(TopologyKind.MESH, nodes, ())
    return PowerProblem(topo, p_min_w=p_min, p_max_w=p_max, alpha=1.0, beta=0.0)


class TestObjectives:
    def test_unit_instance(self):
        # P=1 over B=1, N=1 gives C=1 bit/s; E = P*L/C = 1 J.
        problem = single_link_problem()
        assert energy_objective(Allocation((1.0, 1.0)), problem) == 1.0

    def test_gain_halves_energy(self):
        problem = single_link_problem(gamma=2.0)
        assert energy_objective(Allocation((1.0, 1.0)), problem) == 0.5

    def test_chain_matches_stepwise_pipeline(self):
        from qwsnsim.channel import shannon_capacity

        rng = np.random.default_rng(6)
        nodes = (Node("a", 1.0, 700.0), Node("b", 1.0, 1200.0), Node("c", 1.0, 1.0))
        links = (
            Link("a", "b", LinkBudget(2e3, 1.0, 0.25, 0.05), FadingSpec.awgn(), TrsGain(2.0)),
            Link("b", "c", LinkBudget(5e3, 1.0, 0.5, 0.0), FadingSpec.awgn(), TrsGain(4.0)),
        )
        topo = Topology(TopologyKind.CHAIN, nodes, links)
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
            length = topo.node(link.src).packet_length_bits
            expected += p * length / (link.gain.gamma * cap)
        assert energy_objective(alloc, problem) == pytest.approx(expected, rel=1e-12)

    def test_weighted_degenerate_weights(self):
        energy_only = single_link_problem(alpha=1.0, beta=0.0)
        latency_only = single_link_problem(alpha=0.0, beta=1.0)
        both = single_link_problem(alpha=1.0, beta=1.0)
        alloc = Allocation((1.5, 1.0))
        e = weighted_objective(alloc, energy_only)
        lat = weighted_objective(alloc, latency_only)
        assert e == energy_objective(alloc, energy_only)
        assert weighted_objective(alloc, both) == pytest.approx(e + lat, rel=1e-15)

    def test_out_of_bounds_allocation_rejected(self):
        problem = single_link_problem()
        with pytest.raises(ValueError):
            energy_objective(Allocation((10.0, 1.0)), problem)
        with pytest.raises(ValueError):
            energy_objective(Allocation((1.0,)), problem)


class TestFeasibility:
    def test_vacuous_constraints(self):
        problem = single_link_problem(r_min=0.0, latency_max=math.inf)
        out = check_feasibility(Allocation((1.0, 1.0)), problem)
        assert out.feasible
        assert out.capacity_slack_bps >= 0
        assert out.latency_slack_s == math.inf

    def test_impossible_rate_floor(self):
        problem = single_link_problem(r_min=100.0)
        out = check_feasibility(Allocation((3.0, 3.0)), problem)
        assert not out.feasible
        assert out.capacity_slack_bps < 0

    def test_boundary_allocation_has_zero_slack(self):
        # Analytic inversion: C_trs = gamma*B*log2(1 + P/N) = r_min at P = 1.
        problem = single_link_problem(r_min=1.0, p_min=0.5, p_max=3.0)
        out = check_feasibility(Allocation((1.0, 1.0)), problem)
        assert out.feasible
        assert out.capacity_slack_bps == 0.0


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
        assert check_feasibility(result.allocation, problem).feasible

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

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SaSchedule(cooling=1.0)
        with pytest.raises(ValueError):
            SaSchedule(iterations=0)
        with pytest.raises(ValueError):
            SaSchedule(t_initial=-1.0)


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

    def test_awgn_links_ignore_the_treatment(self):
        alloc = Allocation((1.3, 1.0))
        ergodic = single_link_problem(fading=ErgodicMean(n_samples=500, seed=9))
        flat = single_link_problem()
        assert weighted_objective(alloc, ergodic) == weighted_objective(alloc, flat)


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
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
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


class TestDeltaEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(delta_cases())
    def test_move_evaluation_equals_full_evaluation(self, case):
        problem, powers, moves = case
        powers = np.array(powers)
        evaluator = _Evaluator(problem)
        caps = evaluator.capacities(powers)
        for node, power in moves:
            candidate = powers.copy()
            candidate[node] = power
            cand_caps = evaluator.capacities(candidate, caps, node)
            assert _bits(cand_caps) == _bits(evaluator.capacities(candidate))
            assert _bits(evaluator.assess(candidate, cand_caps)) == _bits(
                evaluator.assess(candidate)
            )
            powers, caps = candidate, cand_caps

    def test_move_to_zero_power_is_infeasible(self):
        problem = two_link_problem(3, p_min=0.0)
        evaluator = _Evaluator(problem)
        caps = evaluator.capacities([1.0, 1.0])
        moved = evaluator.capacities([0.0, 1.0], caps, 0)
        assert evaluator.assess([0.0, 1.0], moved) == (math.inf, False, math.inf)
        assert evaluator.assess([0.0, 1.0]) == (math.inf, False, math.inf)


def _oracle_totals(problem, caps, powers):
    """running_totals over the problem's links, or the InfeasibleLinkError
    message of its first zero-capacity link."""
    nodes = problem.topology.nodes
    index = {n.id: i for i, n in enumerate(nodes)}
    links = [
        (index[link.src], link.gain.gamma, nodes[index[link.src]].packet_length_bits)
        for link in problem.topology.links
    ]
    try:
        return running_totals(links, caps, powers)
    except ZeroCapacity as exc:
        link_id = problem.topology.links[exc.index].id
        return f"zero capacity on link {link_id} at power {powers[links[exc.index][0]]}"


def _evaluator_totals(evaluator, powers, caps=None):
    try:
        return evaluator.totals(powers, caps)
    except InfeasibleLinkError as exc:
        return str(exc)


def _same(a, b) -> bool:
    """Equal messages, or equal totals bit for bit (any NaN matches any NaN)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
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
        caps = evaluator.capacities(powers)
        assert _same(_evaluator_totals(evaluator, powers), _oracle_totals(problem, caps, powers))
        for node, power in moves:
            powers = powers.copy()
            powers[node] = power
            caps = evaluator.capacities(powers, caps, node)
            assert _same(
                _evaluator_totals(evaluator, powers, caps), _oracle_totals(problem, caps, powers)
            )

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
        assert _same(
            _evaluator_totals(_Evaluator(problem), powers, caps),
            _oracle_totals(problem, caps, powers),
        )

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
        assert _same(
            _evaluator_totals(_Evaluator(problem), powers, caps),
            _oracle_totals(problem, caps, powers),
        )

    def test_no_links(self):
        problem = no_link_problem()
        evaluator = _Evaluator(problem)
        expected = running_totals([], [], [1.0, 1.0])
        assert expected == (0.0, 0.0, math.inf)
        assert evaluator.totals([1.0, 1.0]) == expected
        assert evaluator.totals([1.0, 1.0], evaluator.capacities([1.0, 1.0])) == expected

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
        slack = check_feasibility(Allocation((1.0, 1.0)), problem).capacity_slack_bps
        assert diag.complementary_slackness == pytest.approx(2.0 * slack, rel=1e-12)


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


class TestGridOracleBatches:
    """The batched grid oracle against one ``assess`` per grid point."""

    @settings(max_examples=150, deadline=None)
    @given(delta_cases(n_nodes=(2, 3), n_links=(0, 6)), st.integers(2, 9))
    def test_equals_per_point_loop(self, case, points):
        # p_min = 0 gives zero-capacity (infeasible) rows; the sampled rate
        # floors, latency caps and alpha = 0 give all-infeasible grids and ties.
        problem, _powers, _moves = case
        axis = np.linspace(problem.p_min_w, problem.p_max_w, points)
        expected = grid_argmin(_Evaluator(problem).assess, axis, problem.n_nodes)
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
            # NaN, which max(0.0, .) and fmax(0.0, .) both count as no violation.
            pytest.param(1e308, 1e-3, 1.0, id="latency-overflows"),
        ],
    )
    def test_non_finite_objectives(self, length, p_max, alpha):
        # One link, from the last node: every batch sees the same objectives.
        nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, length))
        link = Link("b", "a", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(1.0))
        topology = Topology(TopologyKind.MESH, nodes, (link,))
        problem = PowerProblem(topology, p_max / 1e4, p_max, alpha=alpha, beta=1.0)
        axis = np.linspace(problem.p_min_w, problem.p_max_w, 7)
        expected = grid_argmin(_Evaluator(problem).assess, axis, 2)
        assert expected is not None
        assert grid_search_oracle(problem, 7).allocation.powers_w == expected

    @settings(max_examples=200, deadline=None)
    @given(delta_cases(n_nodes=(2, 4), n_links=(1, 8)), st.integers(1, 4), st.data())
    def test_batch_assess_equals_assess_per_row(self, case, rows, data):
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
        objective, feasible = _batch_assess(evaluator, powers, caps)
        for i in range(rows):
            expected_objective, expected_feasible, _penalized = evaluator.assess(powers[i], caps[i])
            assert _same([objective[i]], [expected_objective])
            assert feasible[i] == expected_feasible
