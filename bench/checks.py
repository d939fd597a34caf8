"""Output checks of the benchmark workloads.

Each check takes the generated ``Case`` and one invocation's output text and
returns a list of problems; an empty list means the output is correct. The
tolerances are the acceptance gate's own: rel 1e-12 for the exact gamma laws
and the objective, rel 1e-9 for log-dets against the eigenvalue oracle.

The checks hold on every seed. Gamma laws are compared within a tolerance, not
bit for bit: ``stable_mean(gamma * caps)`` and ``gamma * stable_mean(caps)``
differ by a few ulp when gamma is not a power of two.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import (
    MIMO_ANTENNAS,
    MIMO_GAMMA,
    MIMO_POWER_W,
    SWEEP_HEADER,
    Case,
    rayleigh_users,
)

GAMMA_LAW_RTOL = 1e-12
OBJECTIVE_RTOL = 1e-12
LOGDET_RTOL = 1e-9

_TRS_PAIRS = (
    ("capacity_trs_bps", "capacity_bps", 1),
    ("tx_time_trs_s", "tx_time_s", -1),
    ("energy_trs_j", "energy_j", -1),
    ("latency_trs_s", "latency_s", -1),
)
_RATIOS = ("capacity_gain", "time_reduction", "energy_reduction", "latency_reduction")


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * abs(expected)


def _reject_constant(token: str):
    raise ValueError(f"non-RFC 8259 token {token}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN/Infinity tokens and overflowing numbers fail."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def _parse(text: str, problems: list):
    try:
        return strict_json(text)
    except ValueError as exc:
        problems.append(f"not strict JSON: {exc}")
        return None


def check_mesh_simulate(case: Case, text: str) -> list[str]:
    problems: list[str] = []
    doc = _parse(text, problems)
    if doc is None:
        return problems
    expect = case.expect
    n_samples = expect["n_samples"]
    if doc.get("seed") != expect["seed"] or doc.get("n_samples") != n_samples:
        problems.append("seed or n_samples differ from the scenario")
    links = doc.get("links", [])
    if len(links) != len(expect["links"]):
        return problems + [f"{len(links)} links reported, {len(expect['links'])} generated"]
    echoed = doc["config"]["topology"]["links"]
    for i, (got, spec) in enumerate(zip(links, expect["links"])):
        where = f"links[{i}]"
        if got["link_id"] != f"{spec['src']}->{spec['dst']}":
            problems.append(f"{where}: link {got['link_id']} out of generated order")
        if echoed[i]["gamma"] != spec["gamma"]:
            problems.append(f"{where}: echoed gamma {echoed[i]['gamma']} != {spec['gamma']}")
        gamma = spec["gamma"]
        for trs, base, sign in _TRS_PAIRS:
            law = got[base] * gamma if sign > 0 else got[base] / gamma
            if not _close(got[trs], law, GAMMA_LAW_RTOL):
                problems.append(f"{where}.{trs} = {got[trs]!r} breaks the gamma law ({law!r})")
        for ratio in _RATIOS:
            if not _close(got["trs_ratios"][ratio], gamma, GAMMA_LAW_RTOL):
                problems.append(f"{where}.trs_ratios.{ratio} = {got['trs_ratios'][ratio]!r} != {gamma}")
        if got["capacity_bps"] <= 0 or got["outages"] < 0:
            problems.append(f"{where}: non-positive capacity or negative outages")
        if got["outages"] + got["samples_used"] != n_samples:
            problems.append(f"{where}: outages + samples_used != {n_samples}")
    totals = doc.get("totals", {})
    for total, field in (
        ("throughput_bps", "capacity_trs_bps"),
        ("energy_j", "energy_trs_j"),
        ("latency_s", "latency_trs_s"),
    ):
        expected = math.fsum(link[field] for link in links)
        if not _close(totals.get(total, math.nan), expected, GAMMA_LAW_RTOL):
            problems.append(f"totals.{total} is not the sum of the links' {field}")
    return problems


def check_chain_sweep(case: Case, text: str) -> list[str]:
    lines = text.split("\n")
    gammas = case.expect["gammas"]
    if lines[0] != SWEEP_HEADER:
        return [f"header {lines[0]!r} != {SWEEP_HEADER!r}"]
    if len(lines) != len(gammas) + 2 or lines[-1] != "":
        return [f"expected {len(gammas)} rows and a final newline, got {len(lines) - 1} lines"]
    rows = []
    for line in lines[1:-1]:
        try:
            rows.append([_finite_float(cell) for cell in line.split(",")])
        except ValueError as exc:
            return [f"row {line!r}: {exc}"]
    problems = []
    if any(len(row) != 4 for row in rows):
        return ["a row does not have 4 columns"]
    if [row[0] for row in rows] != gammas:
        problems.append(f"gamma column {[row[0] for row in rows]} != {gammas}")
    _, throughput, energy, latency = rows[0]
    if min(throughput, energy, latency) <= 0:
        problems.append("non-positive totals at the first gamma")
    for gamma, row in zip(gammas, rows):
        scale = gamma / gammas[0]
        for name, got, law in (
            ("throughput", row[1], throughput * scale),
            ("energy", row[2], energy / scale),
            ("latency", row[3], latency / scale),
        ):
            if not _close(got, law, GAMMA_LAW_RTOL):
                problems.append(f"gamma {gamma}: {name} {got!r} breaks the gamma law ({law!r})")
    return problems


def optimize_problem(case: Case):
    """The PowerProblem of a mesh_optimize case, built with the public API
    from the generator's own data (not through the scenario loader)."""
    from qwsnsim import (
        ErgodicMean,
        FadingKind,
        FadingSpec,
        Link,
        LinkBudget,
        Node,
        PowerProblem,
        Topology,
        TopologyKind,
        TrsGain,
    )

    expect = case.expect
    nodes = tuple(Node(n["id"], n["tx_power_w"], n["packet_length_bits"]) for n in expect["nodes"])
    links = []
    for spec in expect["links"]:
        fading = spec["fading"]
        links.append(
            Link(
                src=spec["src"],
                dst=spec["dst"],
                budget=LinkBudget(
                    spec["bandwidth_hz"],
                    spec["signal_power_w"],
                    spec["noise_power_w"],
                    spec["interference_power_w"],
                ),
                fading=FadingSpec(
                    FadingKind(fading["kind"]),
                    mean_power=fading.get("mean_power", 1.0),
                    k_factor=fading.get("k_factor"),
                ),
                gain=TrsGain(spec["gamma"]),
            )
        )
    opt = expect["optimizer"]
    return PowerProblem(
        topology=Topology(TopologyKind.MESH, nodes, tuple(links)),
        p_min_w=opt["p_min_w"],
        p_max_w=opt["p_max_w"],
        r_min_bps=opt["r_min_bps"],
        latency_max_s=opt["latency_max_s"],
        alpha=opt["weights"]["alpha"],
        beta=opt["weights"]["beta"],
        fading=ErgodicMean(opt["fading"]["n_samples"], opt["fading"]["seed"]),
    )


def check_mesh_optimize(case: Case, text: str) -> list[str]:
    from qwsnsim import Allocation, weighted_objective

    problems: list[str] = []
    doc = _parse(text, problems)
    if doc is None:
        return problems
    opt = case.expect["optimizer"]
    if doc.get("solver") != "simulated_annealing" or doc.get("feasible") is not True:
        problems.append(f"solver {doc.get('solver')!r}, feasible {doc.get('feasible')!r}")
    if doc.get("evaluations") != opt["schedule"]["iterations"] + 1:
        problems.append(f"evaluations {doc.get('evaluations')} != iterations + 1")
    powers = doc.get("powers_w", [])
    if len(powers) != len(case.expect["nodes"]):
        return problems + [f"{len(powers)} powers for {len(case.expect['nodes'])} nodes"]
    outside = [p for p in powers if not opt["p_min_w"] <= p <= opt["p_max_w"]]
    if outside:
        return problems + [f"powers outside the box: {outside[:3]}"]
    problem = optimize_problem(case)
    objective = weighted_objective(Allocation(tuple(powers)), problem)
    if not _close(doc["objective"], objective, OBJECTIVE_RTOL):
        problems.append(f"objective {doc['objective']!r} != weighted_objective {objective!r}")
    weighted = problem.alpha * doc["energy_total_j"] + problem.beta * doc["latency_total_s"]
    if not _close(doc["objective"], weighted, OBJECTIVE_RTOL):
        problems.append("objective != alpha * energy + beta * latency")
    return problems


def oracle_logdet(m: np.ndarray) -> float:
    """log2 det of a Hermitian positive-definite matrix from its eigenvalues."""
    return float(np.sum(np.log2(np.linalg.eigvalsh(m))))


def check_mimo_ergodic(case: Case, text: str) -> list[str]:
    """Every user's log-det against the eigenvalue oracle, then every cell
    total in the output against the sum of the oracle log-dets."""
    from qwsnsim import MimoChannel, TrsGain, mimo_capacity_trs

    lines = text.split("\n")
    cells = case.expect["cells"]
    if len(lines) != cells + 1 or lines[-1] != "":
        return [f"expected {cells} totals and a final newline, got {len(lines) - 1} lines"]
    gain = TrsGain(MIMO_GAMMA)
    problems = []
    for i, (line, hs) in enumerate(zip(lines, rayleigh_users(case.seed, cells))):
        oracle_total = 0.0
        for n, h in zip(MIMO_ANTENNAS, hs):
            scale = MIMO_GAMMA * MIMO_POWER_W / n
            oracle = oracle_logdet(np.eye(n) + scale * (h @ h.conj().T))
            got = mimo_capacity_trs(MimoChannel(h, MIMO_POWER_W), gain)
            if not _close(got, oracle, LOGDET_RTOL):
                problems.append(f"cell {i} {n}x{n}: log-det {got!r} != oracle {oracle!r}")
            oracle_total += oracle
        try:
            total = _finite_float(line)
        except ValueError as exc:
            problems.append(f"cell {i}: {exc}")
            continue
        if not _close(total, oracle_total, LOGDET_RTOL):
            problems.append(f"cell {i}: total {total!r} != oracle sum {oracle_total!r}")
    return problems


CHECKS = {
    "mesh_simulate": check_mesh_simulate,
    "chain_sweep": check_chain_sweep,
    "mesh_optimize": check_mesh_optimize,
    "mimo_ergodic": check_mimo_ergodic,
}


def check(case: Case, text: str) -> list[str]:
    """Problems found in one output of ``case``; empty when it is correct.

    A check that crashes on malformed output reports the crash as a problem.
    """
    try:
        return CHECKS[case.name](case, text)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
