"""Scenario ingestion, the seeded Monte-Carlo driver, gamma sweeps, and
report emission.

A scenario is a YAML/JSON document::

    topology:
      kind: chain                  # chain | star | mesh (star hub = first node)
      nodes:
        - {id: a, tx_power_w: 1.0, packet_length_bits: 1000}
        - {id: b, tx_power_w: 1.0, packet_length_bits: 1000}
      links:
        - src: a
          dst: b
          bandwidth_hz: 1.0e6
          signal_power_w: 1.0e-3
          noise_power_w: 1.0e-9
          interference_power_w: 0.0          # optional, default 0
          fading: {kind: rayleigh, mean_power: 1.0}   # optional, default awgn
          gamma: 2.0                          # optional, default 1
    monte_carlo: {n_samples: 1000, seed: 42}  # optional, defaults 1 / 0
    optimizer:                                # optional
      p_min_w: 0.1
      p_max_w: 5.0
      r_min_bps: 0.0                          # optional
      latency_max_s: .inf                     # optional
      weights: {alpha: 1.0, beta: 0.0}        # optional
      schedule: {t_initial: null, cooling: 0.95, iterations: 10000}  # optional
      fading: {treatment: deterministic}      # or {treatment: ergodic,
                                              #     n_samples: N, seed: S}
    output: {path: report.csv, format: csv}   # optional, default stdout/csv

Unknown keys are rejected so typos never silently fall back to defaults.
Every Monte-Carlo stream is derived from (seed, link index), so adding a link
never perturbs the draws of existing links, and a fixed seed fully determines
every output byte regardless of thread count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import (
    FadingKind,
    FadingSpec,
    LinkBudget,
    TrsGain,
    faded_capacity_samples,
    sample_h_squared,
)
from .errors import AllSamplesOutageError, ScenarioParseError, ScenarioValidationError
from .network import (
    Link,
    LinkMetrics,
    NetworkReport,
    Node,
    Topology,
    TopologyKind,
    network_totals,
    path_capacity,
)
from .numeric import stable_mean
from .optimizer import (
    Deterministic,
    ErgodicMean,
    FadingTreatment,
    OptResult,
    PowerProblem,
    SaSchedule,
    optimize_sa,
)

# Reserved sub-stream for the optimizer's annealing chain; link streams use
# their (small) link indices, so the two can never collide.
_SA_STREAM = 2**32 - 1


class _ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader that also accepts unsigned exponents like 2.0e6.

    Stock YAML 1.1 resolution insists on a signed exponent and would hand
    such scalars back as strings. The libyaml parser is used when PyYAML was
    built with it; implicit resolvers run in Python either way.
    """


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
        |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
        |\.[0-9][0-9_]*(?:[eE][-+]?[0-9]+)?
        |[-+]?\.(?:inf|Inf|INF)
        |\.(?:nan|NaN|NAN))$""",
        re.X,
    ),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class OptimizerSection:
    p_min_w: float
    p_max_w: float
    r_min_bps: float = 0.0
    latency_max_s: float = math.inf
    alpha: float = 1.0
    beta: float = 0.0
    schedule: SaSchedule = dataclasses.field(default_factory=SaSchedule)
    fading: FadingTreatment = dataclasses.field(default_factory=Deterministic)

    def to_problem(self, topology: Topology) -> PowerProblem:
        return PowerProblem(
            topology=topology,
            p_min_w=self.p_min_w,
            p_max_w=self.p_max_w,
            r_min_bps=self.r_min_bps,
            latency_max_s=self.latency_max_s,
            alpha=self.alpha,
            beta=self.beta,
            fading=self.fading,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    topology: Topology
    n_samples: int = 1
    seed: int = 0
    optimizer: OptimizerSection | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def echo(self) -> dict:
        """Normalized configuration tree with all defaults applied."""
        links = []
        for link in self.topology.links:
            fading: dict = {"kind": link.fading.kind.value}
            if link.fading.kind is not FadingKind.AWGN:
                fading["mean_power"] = link.fading.mean_power
            if link.fading.kind is FadingKind.RICIAN:
                fading["k_factor"] = link.fading.k_factor
            links.append(
                {
                    "src": link.src,
                    "dst": link.dst,
                    "bandwidth_hz": link.budget.bandwidth_hz,
                    "signal_power_w": link.budget.signal_power_w,
                    "noise_power_w": link.budget.noise_power_w,
                    "interference_power_w": link.budget.interference_power_w,
                    "fading": fading,
                    "gamma": link.gain.gamma,
                }
            )
        tree = {
            "topology": {
                "kind": self.topology.kind.value,
                "nodes": [
                    {
                        "id": n.id,
                        "tx_power_w": n.tx_power_w,
                        "packet_length_bits": n.packet_length_bits,
                    }
                    for n in self.topology.nodes
                ],
                "links": links,
            },
            "monte_carlo": {"n_samples": self.n_samples, "seed": self.seed},
            "output": {"path": self.output_path, "format": self.output_format},
        }
        if self.optimizer is not None:
            opt = self.optimizer
            fading: dict = {"treatment": "deterministic"}
            if isinstance(opt.fading, ErgodicMean):
                fading = {
                    "treatment": "ergodic",
                    "n_samples": opt.fading.n_samples,
                    "seed": opt.fading.seed,
                }
            tree["optimizer"] = {
                "p_min_w": opt.p_min_w,
                "p_max_w": opt.p_max_w,
                "r_min_bps": opt.r_min_bps,
                # No limit echoes as null (strict JSON has no Infinity);
                # null reads back as the default.
                "latency_max_s": opt.latency_max_s if math.isfinite(opt.latency_max_s) else None,
                "weights": {"alpha": opt.alpha, "beta": opt.beta},
                "schedule": {
                    "t_initial": opt.schedule.t_initial,
                    "cooling": opt.schedule.cooling,
                    "iterations": opt.schedule.iterations,
                },
                "fading": fading,
            }
        return tree


@dataclass(frozen=True)
class LinkSummary:
    """Mean metrics of one link over the non-outage Monte-Carlo draws."""

    link_id: str
    metrics: LinkMetrics
    outage_count: int
    samples_used: int
    trs_ratios: dict


@dataclass(frozen=True)
class RunReport:
    seed: int
    n_samples: int
    links: tuple[LinkSummary, ...]
    network: NetworkReport
    optimization: OptResult | None
    config: dict


# --------------------------------------------------------------------------
# Configuration loading
# --------------------------------------------------------------------------


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioValidationError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: set[str], required: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioValidationError(
            f"{path}.{sorted(unknown)[0]}", "unknown key (strict mode)"
        )
    missing = required - set(mapping)
    if missing:
        raise ScenarioValidationError(f"{path}.{sorted(missing)[0]}", "required key missing")


_REQUIRED = object()


def _number(mapping: dict, key: str, path: str, default=_REQUIRED) -> float:
    # An explicit null means "use the default", same as omitting the key.
    value = mapping.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioValidationError(f"{path}.{key}", "required value missing")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(f"{path}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _integer(mapping: dict, key: str, path: str, default=_REQUIRED) -> int:
    value = mapping.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioValidationError(f"{path}.{key}", "required value missing")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(f"{path}.{key}", f"expected an integer, got {value!r}")
    return value


def _string(mapping: dict, key: str, path: str, default=_REQUIRED):
    value = mapping.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioValidationError(f"{path}.{key}", "required value missing")
        return default
    if not isinstance(value, str):
        raise ScenarioValidationError(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


def _check_seed(seed: int, path: str) -> None:
    if not 0 <= seed < 2**64:
        raise ScenarioValidationError(path, f"must fit in 64 unsigned bits, got {seed}")


def _parse_fading(raw, path: str) -> FadingSpec:
    if raw is None:
        return FadingSpec.awgn()
    mapping = _require_mapping(raw, path)
    _check_keys(mapping, {"kind", "mean_power", "k_factor"}, {"kind"}, path)
    kind = _string(mapping, "kind", path)
    try:
        fading_kind = FadingKind(kind)
    except ValueError:
        raise ScenarioValidationError(
            f"{path}.kind", f"expected one of awgn/rayleigh/rician, got {kind!r}"
        ) from None
    mean_power = _number(mapping, "mean_power", path, default=1.0)
    k_factor = _number(mapping, "k_factor", path, default=None)
    try:
        return FadingSpec(fading_kind, mean_power=mean_power, k_factor=k_factor)
    except ValueError as exc:
        raise ScenarioValidationError(path, str(exc)) from None


def _parse_topology(raw, path: str) -> Topology:
    mapping = _require_mapping(raw, path)
    _check_keys(mapping, {"kind", "nodes", "links"}, {"kind", "nodes"}, path)
    kind_name = _string(mapping, "kind", path)
    try:
        kind = TopologyKind(kind_name)
    except ValueError:
        raise ScenarioValidationError(
            f"{path}.kind", f"expected one of chain/star/mesh, got {kind_name!r}"
        ) from None

    raw_nodes = mapping["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ScenarioValidationError(f"{path}.nodes", "expected a non-empty list")
    nodes = []
    for i, raw_node in enumerate(raw_nodes):
        node_path = f"{path}.nodes[{i}]"
        node_map = _require_mapping(raw_node, node_path)
        _check_keys(
            node_map,
            {"id", "tx_power_w", "packet_length_bits"},
            {"id", "tx_power_w", "packet_length_bits"},
            node_path,
        )
        try:
            nodes.append(
                Node(
                    id=_string(node_map, "id", node_path),
                    tx_power_w=_number(node_map, "tx_power_w", node_path),
                    packet_length_bits=_number(node_map, "packet_length_bits", node_path),
                )
            )
        except ValueError as exc:
            raise ScenarioValidationError(node_path, str(exc)) from None
    node_ids = {n.id for n in nodes}

    links = []
    raw_links = mapping.get("links", [])
    if not isinstance(raw_links, list):
        raise ScenarioValidationError(f"{path}.links", "expected a list")
    for i, raw_link in enumerate(raw_links):
        link_path = f"{path}.links[{i}]"
        link_map = _require_mapping(raw_link, link_path)
        _check_keys(
            link_map,
            {
                "src",
                "dst",
                "bandwidth_hz",
                "signal_power_w",
                "noise_power_w",
                "interference_power_w",
                "fading",
                "gamma",
            },
            {"src", "dst", "bandwidth_hz", "signal_power_w", "noise_power_w"},
            link_path,
        )
        src = _string(link_map, "src", link_path)
        dst = _string(link_map, "dst", link_path)
        for key, endpoint in (("src", src), ("dst", dst)):
            if endpoint not in node_ids:
                raise ScenarioValidationError(
                    f"{link_path}.{key}", f"references undeclared node {endpoint!r}"
                )
        try:
            budget = LinkBudget(
                bandwidth_hz=_number(link_map, "bandwidth_hz", link_path),
                signal_power_w=_number(link_map, "signal_power_w", link_path),
                noise_power_w=_number(link_map, "noise_power_w", link_path),
                interference_power_w=_number(
                    link_map, "interference_power_w", link_path, default=0.0
                ),
            )
            gain = TrsGain(_number(link_map, "gamma", link_path, default=1.0))
            fading = _parse_fading(link_map.get("fading"), f"{link_path}.fading")
            links.append(Link(src=src, dst=dst, budget=budget, fading=fading, gain=gain))
        except ScenarioValidationError:
            raise
        except ValueError as exc:
            raise ScenarioValidationError(link_path, str(exc)) from None

    try:
        return Topology(kind=kind, nodes=tuple(nodes), links=tuple(links))
    except ValueError as exc:
        raise ScenarioValidationError(path, str(exc)) from None


def _parse_optimizer(raw, path: str) -> OptimizerSection:
    mapping = _require_mapping(raw, path)
    _check_keys(
        mapping,
        {"p_min_w", "p_max_w", "r_min_bps", "latency_max_s", "weights", "schedule", "fading"},
        {"p_min_w", "p_max_w"},
        path,
    )
    alpha, beta = 1.0, 0.0
    if "weights" in mapping:
        weights = _require_mapping(mapping["weights"], f"{path}.weights")
        _check_keys(weights, {"alpha", "beta"}, set(), f"{path}.weights")
        alpha = _number(weights, "alpha", f"{path}.weights", default=1.0)
        beta = _number(weights, "beta", f"{path}.weights", default=0.0)
    schedule = SaSchedule()
    if "schedule" in mapping:
        sched = _require_mapping(mapping["schedule"], f"{path}.schedule")
        _check_keys(sched, {"t_initial", "cooling", "iterations"}, set(), f"{path}.schedule")
        try:
            schedule = SaSchedule(
                t_initial=_number(sched, "t_initial", f"{path}.schedule", default=None),
                cooling=_number(sched, "cooling", f"{path}.schedule", default=0.95),
                iterations=_integer(sched, "iterations", f"{path}.schedule", default=10_000),
            )
        except ValueError as exc:
            raise ScenarioValidationError(f"{path}.schedule", str(exc)) from None
    fading: FadingTreatment = Deterministic()
    if "fading" in mapping:
        fmap = _require_mapping(mapping["fading"], f"{path}.fading")
        _check_keys(fmap, {"treatment", "n_samples", "seed"}, {"treatment"}, f"{path}.fading")
        treatment = _string(fmap, "treatment", f"{path}.fading")
        if treatment == "deterministic":
            pass
        elif treatment == "ergodic":
            seed = _integer(fmap, "seed", f"{path}.fading", default=0)
            _check_seed(seed, f"{path}.fading.seed")
            try:
                fading = ErgodicMean(
                    n_samples=_integer(fmap, "n_samples", f"{path}.fading", default=1000),
                    seed=seed,
                )
            except ValueError as exc:
                raise ScenarioValidationError(f"{path}.fading", str(exc)) from None
        else:
            raise ScenarioValidationError(
                f"{path}.fading.treatment",
                f"expected deterministic or ergodic, got {treatment!r}",
            )
    try:
        return OptimizerSection(
            p_min_w=_number(mapping, "p_min_w", path),
            p_max_w=_number(mapping, "p_max_w", path),
            r_min_bps=_number(mapping, "r_min_bps", path, default=0.0),
            latency_max_s=_number(mapping, "latency_max_s", path, default=math.inf),
            alpha=alpha,
            beta=beta,
            schedule=schedule,
            fading=fading,
        )
    except ValueError as exc:
        raise ScenarioValidationError(path, str(exc)) from None


def load_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document.

    Raises ScenarioParseError for malformed documents and
    ScenarioValidationError (with the offending field path) for constraint
    violations.
    """
    try:
        raw = yaml.load(text, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"malformed scenario document: {exc}") from None
    if raw is None:
        raise ScenarioParseError("empty scenario document")
    mapping = _require_mapping(raw, "<root>")
    _check_keys(mapping, {"topology", "monte_carlo", "optimizer", "output"}, {"topology"}, "<root>")

    topology = _parse_topology(mapping["topology"], "topology")

    n_samples, seed = 1, 0
    if "monte_carlo" in mapping:
        mc = _require_mapping(mapping["monte_carlo"], "monte_carlo")
        _check_keys(mc, {"n_samples", "seed"}, set(), "monte_carlo")
        n_samples = _integer(mc, "n_samples", "monte_carlo", default=1)
        seed = _integer(mc, "seed", "monte_carlo", default=0)
        if n_samples < 1:
            raise ScenarioValidationError("monte_carlo.n_samples", f"must be >= 1, got {n_samples}")
        _check_seed(seed, "monte_carlo.seed")

    optimizer = None
    if "optimizer" in mapping and mapping["optimizer"] is not None:
        optimizer = _parse_optimizer(mapping["optimizer"], "optimizer")
        try:
            optimizer.to_problem(topology)
        except ValueError as exc:
            raise ScenarioValidationError("optimizer", str(exc)) from None

    output_path, output_format = None, "csv"
    if "output" in mapping:
        out = _require_mapping(mapping["output"], "output")
        _check_keys(out, {"path", "format"}, set(), "output")
        output_path = _string(out, "path", "output", default=None)
        output_format = _string(out, "format", "output", default="csv")
        if output_format not in ("csv", "json"):
            raise ScenarioValidationError(
                "output.format", f"expected csv or json, got {output_format!r}"
            )

    return ScenarioConfig(
        topology=topology,
        n_samples=n_samples,
        seed=seed,
        optimizer=optimizer,
        output_path=output_path,
        output_format=output_format,
    )


# --------------------------------------------------------------------------
# Monte-Carlo driver
# --------------------------------------------------------------------------


def _link_rng(seed: int, link_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(link_index,))))


def sa_rng(seed: int) -> np.random.Generator:
    """The annealing chain's generator: the scenario seed's reserved sub-stream."""
    return _link_rng(seed, _SA_STREAM)


def simulate_link(node: Node, link: Link, h_squared: np.ndarray) -> tuple[LinkMetrics, int]:
    """Average one link's metrics over an array of fading draws.

    A draw whose capacity is zero, or so small that its time or energy is not
    finite, is counted as an outage and excluded from the means. Raises
    AllSamplesOutageError when nothing is left to average.
    """
    h2 = np.asarray(h_squared, dtype=float)
    gamma = link.gain.gamma
    caps = faded_capacity_samples(link.budget, h2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tx_times = node.packet_length_bits / caps
        energies = node.tx_power_w * tx_times
    # A zero capacity gives an infinite (or 0/0) time, and an infinite time an
    # infinite (or 0*inf) energy, so a finite energy marks a usable draw.
    usable = np.isfinite(energies)
    used = int(np.count_nonzero(usable))
    outages = h2.size - used
    if used == 0:
        raise AllSamplesOutageError(link.id)
    if outages:
        caps, tx_times, energies = caps[usable], tx_times[usable], energies[usable]
    # One scratch buffer takes every TRS-scaled array and every residual.
    scratch = np.empty_like(caps)
    mean_cap = stable_mean(caps, scratch)
    mean_cap_trs = stable_mean(np.multiply(caps, gamma, out=scratch), scratch)
    mean_tx = stable_mean(tx_times, scratch)
    mean_tx_trs = stable_mean(np.divide(tx_times, gamma, out=scratch), scratch)
    mean_energy = stable_mean(energies, scratch)
    mean_energy_trs = stable_mean(np.divide(energies, gamma, out=scratch), scratch)
    metrics = LinkMetrics(
        capacity_bps=mean_cap,
        capacity_trs_bps=mean_cap_trs,
        tx_time_s=mean_tx,
        tx_time_trs_s=mean_tx_trs,
        energy_j=mean_energy,
        energy_trs_j=mean_energy_trs,
        latency_s=mean_tx,
        latency_trs_s=mean_tx_trs,
    )
    return metrics, outages


def run_scenario(config: ScenarioConfig, threads: int = 1) -> RunReport:
    """Execute the Monte-Carlo scenario.

    Per link: draw fading from the link's private seeded stream, average the
    derived metrics over non-outage draws, then aggregate network totals. If
    an optimizer section is present, the annealing solver runs on a reserved
    sub-stream of the same seed. Output is identical for any thread count.
    """
    topology = config.topology
    links = topology.links
    if not links:
        raise ScenarioValidationError("topology.links", "scenario needs at least one link")
    nodes = {n.id: n for n in topology.nodes}

    def worker(index: int) -> tuple[LinkMetrics, int]:
        link = links[index]
        rng = _link_rng(config.seed, index)
        h2 = sample_h_squared(link.fading, rng, size=config.n_samples)
        return simulate_link(nodes[link.src], link, h2)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(len(links))))
    else:
        results = [worker(i) for i in range(len(links))]

    summaries = []
    for i, (link, (metrics, outages)) in enumerate(zip(links, results)):
        # B log2(1 + SNR), or gamma times it, overflowed (an inf draw leaves
        # inf - inf = NaN in the mean); the ratios below would divide 0 by 0.
        if not math.isfinite(metrics.capacity_trs_bps):
            raise ScenarioValidationError(
                f"topology.links[{i}]",
                f"capacity overflows: mean TRS capacity is {metrics.capacity_trs_bps} bit/s",
            )
        summaries.append(
            LinkSummary(
                link_id=link.id,
                metrics=metrics,
                outage_count=outages,
                samples_used=config.n_samples - outages,
                trs_ratios={
                    "capacity_gain": metrics.capacity_trs_bps / metrics.capacity_bps,
                    "time_reduction": metrics.tx_time_s / metrics.tx_time_trs_s,
                    "energy_reduction": metrics.energy_j / metrics.energy_trs_j,
                    "latency_reduction": metrics.latency_s / metrics.latency_trs_s,
                },
            )
        )

    bottleneck = None
    if topology.kind is TopologyKind.CHAIN:
        bottleneck = path_capacity([s.metrics.capacity_trs_bps for s in summaries])
    network = network_totals(
        [s.metrics for s in summaries],
        link_ids=[s.link_id for s in summaries],
        bottleneck_capacity_bps=bottleneck,
    )

    optimization = None
    if config.optimizer is not None:
        problem = config.optimizer.to_problem(topology)
        optimization = optimize_sa(problem, config.optimizer.schedule, sa_rng(config.seed))

    return RunReport(
        seed=config.seed,
        n_samples=config.n_samples,
        links=tuple(summaries),
        network=network,
        optimization=optimization,
        config=config.echo(),
    )


def gamma_sweep(
    config: ScenarioConfig, gammas: list[float], threads: int = 1
) -> list[tuple[float, RunReport]]:
    """Run the scenario once per gain value with every link's gamma replaced.

    The seed is reused for each entry, so the fading draws are identical
    across the sweep: energy and latency totals scale as 1/gamma, throughput
    as gamma.
    """
    if not gammas:
        raise ValueError("gamma sweep requires at least one value")
    out = []
    for gamma in gammas:
        gain = TrsGain(gamma)
        links = tuple(dataclasses.replace(link, gain=gain) for link in config.topology.links)
        topology = Topology(kind=config.topology.kind, nodes=config.topology.nodes, links=links)
        swept = dataclasses.replace(config, topology=topology)
        out.append((gamma, run_scenario(swept, threads=threads)))
    return out


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

CSV_HEADER = (
    "link_id,capacity_bps,capacity_trs_bps,tx_time_s,tx_time_trs_s,"
    "energy_j,energy_trs_j,latency_s,latency_trs_s,outages"
)

_METRIC_FIELDS = (
    "capacity_bps",
    "capacity_trs_bps",
    "tx_time_s",
    "tx_time_trs_s",
    "energy_j",
    "energy_trs_j",
    "latency_s",
    "latency_trs_s",
)


def _fmt(value: float) -> str:
    # 17 significant digits round-trip any IEEE double exactly.
    return format(value, ".17g")


def optimization_tree(result: OptResult) -> dict:
    """JSON-ready tree of an optimizer result (the `optimize` command's output)."""
    return {
        "solver": result.solver.value,
        "feasible": result.feasible,
        "objective": result.objective,
        "energy_total_j": result.energy_total_j,
        "latency_total_s": result.latency_total_s,
        "evaluations": result.evaluations,
        "powers_w": list(result.allocation.powers_w),
    }


def report_tree(report: RunReport) -> dict:
    """JSON-ready tree of a run report (stable field order)."""
    tree = {
        "seed": report.seed,
        "n_samples": report.n_samples,
        "links": [
            {
                "link_id": s.link_id,
                **{name: getattr(s.metrics, name) for name in _METRIC_FIELDS},
                "outages": s.outage_count,
                "samples_used": s.samples_used,
                "trs_ratios": s.trs_ratios,
            }
            for s in report.links
        ],
        "totals": {
            "throughput_bps": report.network.total_throughput_bps,
            "energy_j": report.network.total_energy_j,
            "latency_s": report.network.total_latency_s,
            "bottleneck_capacity_bps": report.network.bottleneck_capacity_bps,
        },
        "config": report.config,
    }
    if report.optimization is not None:
        tree["optimization"] = optimization_tree(report.optimization)
    return tree


def emit_report(report: RunReport, output_format: str) -> str:
    """Render a report as CSV (fixed column contract) or JSON.

    The CSV TOTALS row carries the column sums; optimizer results appear only
    in the JSON tree since the CSV column set is fixed.
    """
    if output_format == "json":
        return json.dumps(report_tree(report), indent=2, allow_nan=False) + "\n"
    if output_format != "csv":
        raise ValueError(f"unknown report format {output_format!r}")
    lines = [CSV_HEADER]
    for s in report.links:
        cells = [s.link_id]
        cells += [_fmt(getattr(s.metrics, name)) for name in _METRIC_FIELDS]
        cells.append(str(s.outage_count))
        lines.append(",".join(cells))
    totals = [
        sum(getattr(s.metrics, name) for s in report.links) for name in _METRIC_FIELDS
    ]
    lines.append(
        ",".join(
            ["TOTALS"]
            + [_fmt(v) for v in totals]
            + [str(sum(s.outage_count for s in report.links))]
        )
    )
    return "\n".join(lines) + "\n"
