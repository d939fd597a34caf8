"""Topologies, the per-link metric record, and network aggregation.

The metrics come from one kernel, ``scenario.simulate_link``, and
``scenario.link_metrics`` is that kernel on one fading draw. A faded link's
capacity C is its mean over the draws; its time L/C and energy P*L/C follow
from that mean (the ergodic rate). Links are directed: bidirectional
traffic is two links. Latency is the time L/C only (no queueing or
propagation terms), and every TRS variant of a metric is the base value
scaled by the link's gain: capacity goes up by gamma, time/energy/latency
come down by gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .channel import FadingSpec, LinkBudget, TrsGain
from .errors import EmptyNetworkError, EmptyPathError
from .numeric import check_real, left_sum


@dataclass(frozen=True)
class Node:
    # The field order is the key order of a node in the config echo.
    id: str
    tx_power_w: float
    packet_length_bits: float

    def __post_init__(self):
        # A link's id is "src->dst", so such an id would make two links
        # print alike: a->(b->c) and (a->b)->c.
        if "->" in self.id:
            raise ValueError(
                f"id must not contain '->', which separates a link's nodes, got {self.id!r}"
            )
        check_real("tx_power_w", self.tx_power_w, 0)
        check_real("packet_length_bits", self.packet_length_bits, 0, strict=True)


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    budget: LinkBudget
    fading: FadingSpec
    gain: TrsGain

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"link endpoints must differ, got {self.src!r} -> {self.dst!r}")

    @property
    def id(self) -> str:
        return f"{self.src}->{self.dst}"


class TopologyKind(Enum):
    CHAIN = "chain"
    STAR = "star"
    MESH = "mesh"


@dataclass(frozen=True)
class Topology:
    """Node/link graph. The star hub is the first node by convention.

    Chain: links must form one directed path visiting each node once.
    Star: every link touches the hub. Mesh: any links, no duplicated
    (src, dst) pair. Duplicate pairs are rejected for every kind.
    """

    kind: TopologyKind
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        if not self.nodes:
            raise ValueError("topology requires at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        known = set(ids)
        seen_pairs = set()
        for link in self.links:
            for endpoint in (link.src, link.dst):
                if endpoint not in known:
                    raise ValueError(f"link references unknown node {endpoint!r}")
            pair = (link.src, link.dst)
            if pair in seen_pairs:
                raise ValueError(f"duplicate link {link.id}")
            seen_pairs.add(pair)
        if self.kind is TopologyKind.CHAIN:
            self._validate_chain()
        elif self.kind is TopologyKind.STAR:
            hub = self.nodes[0].id
            for link in self.links:
                if hub not in (link.src, link.dst):
                    raise ValueError(f"star link {link.id} does not touch hub {hub!r}")

    def _validate_chain(self):
        if len(self.links) != len(self.nodes) - 1:
            raise ValueError(
                f"chain of {len(self.nodes)} nodes needs {len(self.nodes) - 1} links, "
                f"got {len(self.links)}"
            )
        if not self.links:
            return
        succ: dict[str, str] = {}
        in_deg: dict[str, int] = {}
        for link in self.links:
            if link.src in succ:
                raise ValueError(f"node {link.src!r} has two outgoing chain links")
            succ[link.src] = link.dst
            in_deg[link.dst] = in_deg.get(link.dst, 0) + 1
            if in_deg[link.dst] > 1:
                raise ValueError(f"node {link.dst!r} has two incoming chain links")
        # n - 1 links, each node entered at most once: exactly one start.
        cursor, visited = next(n.id for n in self.nodes if n.id not in in_deg), 1
        while cursor in succ:
            cursor = succ[cursor]
            visited += 1
        if visited != len(self.nodes):
            raise ValueError("chain path does not visit every node")


@dataclass(frozen=True)
class LinkMetrics:
    """Per-link derived metrics, with and without TRS."""

    # The field order is the order of the report's metric keys and CSV columns.
    capacity_bps: float
    capacity_trs_bps: float
    tx_time_s: float
    tx_time_trs_s: float
    energy_j: float
    energy_trs_j: float
    latency_s: float
    latency_trs_s: float


def path_capacity(hop_capacities: Sequence[float]) -> float:
    """End-to-end capacity of a multi-hop route: the weakest hop."""
    if len(hop_capacities) == 0:
        raise EmptyPathError("path has no hops")
    for c in hop_capacities:
        check_real("hop_capacities", c, 0)
    return min(hop_capacities)


def path_latency(hop_latencies: Sequence[float]) -> float:
    """Per-hop latencies accumulate along the route."""
    if len(hop_latencies) == 0:
        raise EmptyPathError("path has no hops")
    for t in hop_latencies:
        check_real("hop_latencies", t, 0)
    total = left_sum(hop_latencies)
    check_real("path latency", total, 0)
    return total


def network_totals(per_link: Sequence[LinkMetrics]) -> LinkMetrics:
    """Each metric column's left-to-right sum over the links, in link order.

    ``left_sum`` rounds after each addition on every Python, so the totals of
    a report are its link rows added up, bit for bit.
    """
    if len(per_link) == 0:
        raise EmptyNetworkError("network has no links")
    return LinkMetrics(*map(left_sum, zip(*(vars(m).values() for m in per_link))))
