import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsnsim.channel import (
    MAX_SAMPLES,
    FadingDraw,
    FadingSpec,
    LinkBudget,
    TrsGain,
    ergodic_capacity,
    faded_capacity_samples,
    link_rng,
    sample_fading,
    sample_h_squared,
)
from qwsnsim.errors import (
    AllSamplesOutageError,
    EmptyNetworkError,
    EmptyPathError,
)
from qwsnsim.network import (
    Link,
    Node,
    Topology,
    TopologyKind,
    network_totals,
    path_capacity,
    path_latency,
)
from qwsnsim.mimo import MimoChannel
from qwsnsim.quantum_link import QkdLinkSpec
from qwsnsim.scenario import ScenarioConfig, link_metrics, run_scenario


def awgn_link(src="a", dst="b", b=1.0, s=1.0, n=1.0, i=0.0, gamma=1.0):
    return Link(src, dst, LinkBudget(b, s, n, i), FadingSpec.awgn(), TrsGain(gamma))


def random_link(rng, gamma=None):
    budget = LinkBudget(
        float(10.0 ** rng.uniform(0, 7)),
        float(10.0 ** rng.uniform(-6, 0)),
        float(10.0 ** rng.uniform(-9, -3)),
        float(10.0 ** rng.uniform(-9, -3)),
    )
    gamma = float(rng.uniform(1.0, 8.0)) if gamma is None else gamma
    return Link("a", "b", budget, FadingSpec.rayleigh(), TrsGain(gamma))


class TestLinkMetrics:
    def test_awgn_composition(self):
        node = Node("a", 1.0, 1.0)
        link = awgn_link(gamma=2.0)
        m = link_metrics(node, link, FadingDraw(1.0))
        assert m.capacity_bps == 1.0
        assert m.tx_time_s == 1.0
        assert m.energy_j == 1.0
        assert (m.capacity_trs_bps, m.tx_time_trs_s, m.energy_trs_j) == (2.0, 0.5, 0.5)
        assert m.latency_s == 1.0 and m.latency_trs_s == 0.5

    def test_unit_gain_leaves_metrics_alone(self):
        node = Node("a", 0.7, 123.0)
        m = link_metrics(node, awgn_link(b=5.0, s=2.0, n=0.3, gamma=1.0), FadingDraw(1.0))
        assert m.capacity_trs_bps == m.capacity_bps
        assert m.tx_time_trs_s == m.tx_time_s
        assert m.energy_trs_j == m.energy_j
        assert m.latency_trs_s == m.latency_s

    def test_matches_stepwise_pipeline_on_seeded_draw(self):
        node = Node("a", 0.4, 2048.0)
        link = Link(
            "a", "b", LinkBudget(1e6, 1e-4, 1e-7, 1e-8), FadingSpec.rayleigh(), TrsGain(3.0)
        )
        draw = sample_fading(link.fading, np.random.default_rng(99))
        m = link_metrics(node, link, draw)
        capacity = float(faded_capacity_samples(link.budget, [draw.h_squared])[0])
        tx_time = node.packet_length_bits / capacity
        energy = node.tx_power_w * tx_time
        assert m.capacity_bps == capacity
        assert m.tx_time_s == tx_time
        assert m.energy_j == energy
        assert m.latency_s == tx_time
        assert m.capacity_trs_bps == capacity * 3.0
        assert m.tx_time_trs_s == tx_time / 3.0
        assert m.energy_trs_j == energy / 3.0
        assert m.latency_trs_s == tx_time / 3.0

    def test_outage_draw_raises(self):
        node = Node("a", 1.0, 1.0)
        with pytest.raises(AllSamplesOutageError):
            link_metrics(node, awgn_link(), FadingDraw(0.0))

    def test_capacity_overflow_is_a_value_error_without_warnings(self):
        link = Link("a", "b", LinkBudget(1e308, 1.0, 1e-300), FadingSpec.awgn(), TrsGain(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="capacity overflows"):
                link_metrics(Node("a", 1.0, 1.0), link, FadingDraw(1.0))

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_equals_a_one_sample_run_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        fadings = (FadingSpec.awgn(), FadingSpec.rayleigh(1.5), FadingSpec.rician(3.0, 0.5))
        nodes = tuple(
            Node(f"n{j}", float(10.0 ** rng.uniform(-3, 1)), float(10.0 ** rng.uniform(1, 5)))
            for j in range(4)
        )
        pairs = [(src.id, dst.id) for src in nodes for dst in nodes if src is not dst]
        links = tuple(
            dataclasses.replace(random_link(rng), src=src, dst=dst, fading=fadings[k % 3])
            for k, (src, dst) in enumerate(pairs)
        )
        config = ScenarioConfig(Topology(TopologyKind.MESH, nodes, links), n_samples=1, seed=seed)
        report = run_scenario(config)
        by_id = {node.id: node for node in nodes}
        for i, (link, summary) in enumerate(zip(links, report.links)):
            h2 = sample_h_squared(link.fading, link_rng(seed, i), size=1)
            m = link_metrics(by_id[link.src], link, FadingDraw(float(h2[0])))
            expected = dataclasses.astuple(summary.metrics)
            assert [x.hex() for x in dataclasses.astuple(m)] == [x.hex() for x in expected]

    def test_wrong_source_node_rejected(self):
        with pytest.raises(ValueError):
            link_metrics(Node("c", 1.0, 1.0), awgn_link(), FadingDraw(1.0))

    def test_gamma_laws_on_random_links(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            link = random_link(rng)
            node = Node("a", float(10.0 ** rng.uniform(-3, 1)), float(10.0 ** rng.uniform(1, 5)))
            draw = sample_fading(link.fading, rng)
            m = link_metrics(node, link, draw)
            g = link.gain.gamma
            assert m.capacity_trs_bps / m.capacity_bps == pytest.approx(g, rel=1e-12)
            assert m.tx_time_s / m.tx_time_trs_s == pytest.approx(g, rel=1e-12)
            assert m.energy_j / m.energy_trs_j == pytest.approx(g, rel=1e-12)
            assert m.latency_s / m.latency_trs_s == pytest.approx(g, rel=1e-12)

    def test_trs_never_hurts(self):
        rng = np.random.default_rng(555)
        for _ in range(200):
            link = random_link(rng)
            node = Node("a", 1.0, 100.0)
            m = link_metrics(node, link, sample_fading(link.fading, rng))
            assert m.capacity_trs_bps >= m.capacity_bps
            assert m.tx_time_trs_s <= m.tx_time_s
            assert m.energy_trs_j <= m.energy_j
            assert m.latency_trs_s <= m.latency_s


class TestPathAggregation:
    def test_min_rule(self):
        assert path_capacity([2.0, 3.0, 5.0]) == 2.0
        assert path_capacity([7.0]) == 7.0

    def test_min_is_order_invariant(self):
        rng = np.random.default_rng(2)
        hops = list(rng.uniform(0.1, 10.0, size=8))
        expected = path_capacity(hops)
        for _ in range(20):
            rng.shuffle(hops)
            assert path_capacity(hops) == expected

    def test_latency_sums(self):
        assert path_latency([1.0, 2.0, 3.0]) == 6.0
        assert path_latency([4.0]) == 4.0

    def test_latency_scales_with_gain(self):
        hops = [1.0, 2.0, 4.0]
        assert path_latency([h / 2.0 for h in hops]) == path_latency(hops) / 2.0

    def test_empty_paths_rejected(self):
        with pytest.raises(EmptyPathError):
            path_capacity([])
        with pytest.raises(EmptyPathError):
            path_latency([])


class TestNetworkTotals:
    def _metrics(self, gamma=2.0):
        node = Node("a", 1.0, 10.0)
        return link_metrics(node, awgn_link(b=3.0, s=2.0, n=1.0, gamma=gamma), FadingDraw(1.0))

    def test_singleton(self):
        m = self._metrics()
        report = network_totals([m])
        assert report.capacity_trs_bps == m.capacity_trs_bps
        assert report.energy_trs_j == m.energy_trs_j
        assert report.latency_trs_s == m.latency_trs_s

    def test_two_identical_links_double(self):
        m = self._metrics()
        report = network_totals([m, m])
        assert report.capacity_trs_bps == 2 * m.capacity_trs_bps
        assert report.energy_trs_j == 2 * m.energy_trs_j

    def test_mixed_mesh_matches_resummation(self):
        rng = np.random.default_rng(10)
        metrics = []
        for _ in range(3):
            link = random_link(rng)
            node = Node("a", 1.0, 500.0)
            metrics.append(link_metrics(node, link, sample_fading(link.fading, rng)))
        report = network_totals(metrics)
        assert report.capacity_trs_bps == pytest.approx(
            math.fsum(m.capacity_trs_bps for m in metrics), rel=1e-9
        )
        assert report.energy_trs_j == pytest.approx(
            math.fsum(m.energy_trs_j for m in metrics), rel=1e-9
        )
        assert report.latency_trs_s == pytest.approx(
            math.fsum(m.latency_trs_s for m in metrics), rel=1e-9
        )

    def test_empty_network_rejected(self):
        with pytest.raises(EmptyNetworkError):
            network_totals([])


NAN = math.nan
_RAYLEIGH_CAPACITY = (LinkBudget(1.0, 1.0, 1.0), FadingSpec.rayleigh())


# A `x < 0` check is false for NaN; each of these must still refuse it, and
# a sample count must be bounded before numpy sizes an array with it.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: path_capacity([NAN, 1.0]), id="path_capacity-first"),
        pytest.param(lambda: path_capacity([1.0, NAN]), id="path_capacity-last"),
        pytest.param(lambda: FadingDraw(NAN), id="FadingDraw"),
        pytest.param(lambda: QkdLinkSpec(NAN, 0.2, 1.0), id="QkdLinkSpec-power"),
        pytest.param(lambda: QkdLinkSpec(1.0, NAN, 1.0), id="QkdLinkSpec-loss"),
        pytest.param(lambda: QkdLinkSpec(1.0, 0.2, NAN), id="QkdLinkSpec-distance"),
        pytest.param(lambda: MimoChannel(np.eye(2), NAN), id="MimoChannel"),
        pytest.param(
            lambda: ergodic_capacity(*_RAYLEIGH_CAPACITY, 2**64, np.random.default_rng(0)),
            id="ergodic_capacity-2**64",
        ),
        pytest.param(
            lambda: ergodic_capacity(
                *_RAYLEIGH_CAPACITY, MAX_SAMPLES + 1, np.random.default_rng(0)
            ),
            id="ergodic_capacity-ceiling+1",
        ),
    ],
)
def test_library_rejects_nan_and_oversized_counts(call):
    with pytest.raises(ValueError, match=r">= 0|n_samples must be between 1 and 10000000"):
        call()


def _nodes(*ids):
    return tuple(Node(i, 1.0, 100.0) for i in ids)


# A Python int beyond the float range compares below math.inf; the bound is
# the largest float, so such an int is refused before a float() overflows.
@pytest.mark.parametrize("field", ["tx_power_w", "packet_length_bits"])
def test_node_refuses_an_int_beyond_the_float_range(field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        Node("a", **{"tx_power_w": 1.0, "packet_length_bits": 1.0, field: 10**400})
    Node("a", **{"tx_power_w": 1.0, "packet_length_bits": 1.0, field: int(sys.float_info.max)})


def test_node_refuses_an_id_holding_the_link_arrow():
    # Otherwise a->(b->c) and (a->b)->c would share the link id a->b->c.
    for node_id in ("b->c", "->", "a->"):
        with pytest.raises(ValueError, match="^id must not contain '->'"):
            Node(node_id, 1.0, 100.0)
    Node("a-b>c", 1.0, 100.0)


@st.composite
def _chain_candidates(draw):
    """Node ids and directed (src, dst) pairs: either any pairs, or the
    consecutive pairs of an ordering in any order, each one maybe reversed."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        order = draw(st.permutations(ids))
        pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in zip(order, order[1:])]
        return ids, draw(st.permutations(pairs))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    return ids, draw(st.lists(st.sampled_from(pairs), max_size=len(ids) + 1)) if pairs else []


@settings(max_examples=300, deadline=None)
@given(_chain_candidates())
def test_chain_is_exactly_an_ordering_of_the_nodes(candidate):
    ids, pairs = candidate
    is_path = any(
        sorted(pairs) == sorted(zip(order, order[1:])) for order in itertools.permutations(ids)
    )
    links = tuple(awgn_link(a, b) for a, b in pairs)
    if is_path:
        Topology(TopologyKind.CHAIN, _nodes(*ids), links)
    else:
        with pytest.raises(ValueError):
            Topology(TopologyKind.CHAIN, _nodes(*ids), links)


class TestTopologyValidation:
    def test_valid_chain(self):
        Topology(
            TopologyKind.CHAIN,
            _nodes("a", "b", "c"),
            (awgn_link("a", "b"), awgn_link("b", "c")),
        )

    def test_single_node_chain(self):
        Topology(TopologyKind.CHAIN, _nodes("a"), ())

    def test_chain_rejects_fork(self):
        with pytest.raises(ValueError):
            Topology(
                TopologyKind.CHAIN,
                _nodes("a", "b", "c"),
                (awgn_link("a", "b"), awgn_link("a", "c")),
            )

    def test_chain_rejects_wrong_link_count(self):
        with pytest.raises(ValueError):
            Topology(TopologyKind.CHAIN, _nodes("a", "b", "c"), (awgn_link("a", "b"),))

    def test_chain_rejects_cycle(self):
        with pytest.raises(ValueError):
            Topology(
                TopologyKind.CHAIN,
                _nodes("a", "b", "c"),
                (awgn_link("a", "b"), awgn_link("b", "a")),
            )

    def test_chain_rejects_disconnected_pair(self):
        with pytest.raises(ValueError):
            Topology(
                TopologyKind.CHAIN,
                _nodes("a", "b", "c", "d"),
                (awgn_link("a", "b"), awgn_link("c", "d"), awgn_link("b", "a")),
            )

    def test_star_hub_is_first_node(self):
        Topology(
            TopologyKind.STAR,
            _nodes("hub", "s1", "s2"),
            (awgn_link("hub", "s1"), awgn_link("s2", "hub")),
        )

    def test_star_rejects_spoke_to_spoke(self):
        with pytest.raises(ValueError):
            Topology(
                TopologyKind.STAR,
                _nodes("hub", "s1", "s2"),
                (awgn_link("hub", "s1"), awgn_link("s1", "s2")),
            )

    def test_mesh_allows_bidirectional(self):
        Topology(
            TopologyKind.MESH,
            _nodes("a", "b"),
            (awgn_link("a", "b"), awgn_link("b", "a")),
        )

    def test_mesh_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            Topology(
                TopologyKind.MESH,
                _nodes("a", "b"),
                (awgn_link("a", "b"), awgn_link("a", "b", b=2.0)),
            )

    def test_unknown_node_reference_rejected(self):
        with pytest.raises(ValueError):
            Topology(TopologyKind.MESH, _nodes("a", "b"), (awgn_link("a", "zzz"),))

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            Topology(TopologyKind.MESH, _nodes("a", "a"), ())

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            awgn_link("a", "a")
