"""Constrained power allocation: objective assembly, feasibility, a
simulated-annealing solver, an exhaustive grid oracle, and KKT diagnostics.

The decision vector holds one transmit power per node. Each link is evaluated
with its source node's power as the signal power; the objective is the
weighted sum of the TRS energy and latency totals

    alpha * sum_links P_src * L_src / (gamma * C(P_src))
  + beta  * sum_links L_src / (gamma * C(P_src))

subject to per-link TRS capacity >= r_min and total TRS latency <= latency_max,
plus the box bounds on every power. The problem is non-convex (log capacity in
the denominator), hence the metaheuristic plus a brute-force oracle to check it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .channel import MAX_SAMPLES, FadingKind, sample_h_squared
from .errors import InfeasibleLinkError, NoFeasiblePointError
from .network import Topology
from .numeric import stable_mean

_LN2 = math.log(2.0)

# Additive penalty per unit of normalized constraint violation. Large enough to
# dominate any sane objective, finite so the chain can cross infeasible valleys.
PENALTY_WEIGHT = 1e6


@dataclass(frozen=True)
class Deterministic:
    """Evaluate every link at |h|^2 = 1."""


@dataclass(frozen=True)
class ErgodicMean:
    """Evaluate links on the mean capacity over frozen seeded fading draws.

    The draw set is derived once from (seed, link index), so the objective is
    a fixed deterministic function of the allocation.
    """

    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(
                f"n_samples must be between 1 and {MAX_SAMPLES}, got {self.n_samples}"
            )


FadingTreatment = Deterministic | ErgodicMean


@dataclass(frozen=True)
class PowerProblem:
    topology: Topology
    p_min_w: float
    p_max_w: float
    r_min_bps: float = 0.0
    latency_max_s: float = math.inf
    alpha: float = 1.0
    beta: float = 0.0
    fading: FadingTreatment = field(default_factory=Deterministic)

    def __post_init__(self):
        if not 0 <= self.p_min_w < self.p_max_w < math.inf:
            raise ValueError(
                f"power bounds must be finite and satisfy 0 <= p_min < p_max, got "
                f"[{self.p_min_w}, {self.p_max_w}]"
            )
        if not 0 <= self.r_min_bps < math.inf:
            raise ValueError(f"r_min_bps must be >= 0 and finite, got {self.r_min_bps}")
        if not self.latency_max_s > 0:
            raise ValueError(f"latency_max_s must be > 0, got {self.latency_max_s}")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError(f"weights must be finite and >= 0, got {self.alpha}, {self.beta}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("at least one of alpha, beta must be positive")

    @property
    def n_nodes(self) -> int:
        return len(self.topology.nodes)


@dataclass(frozen=True)
class Allocation:
    """Candidate solution: one transmit power per node, in node order."""

    powers_w: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "powers_w", tuple(float(p) for p in self.powers_w))


class Solver(Enum):
    SIMULATED_ANNEALING = "simulated_annealing"
    GRID_ORACLE = "grid_oracle"


@dataclass(frozen=True)
class OptResult:
    allocation: Allocation
    objective: float
    energy_total_j: float
    latency_total_s: float
    feasible: bool
    evaluations: int
    solver: Solver


@dataclass(frozen=True)
class KktDiagnostics:
    stationarity_residual: float
    primal_violation: float
    complementary_slackness: float
    multipliers: tuple[float, ...]


class Feasibility(NamedTuple):
    feasible: bool
    capacity_slack_bps: float
    latency_slack_s: float


@dataclass(frozen=True)
class SaSchedule:
    """Geometric cooling schedule. t_initial = None derives the starting
    temperature from the initial objective magnitude."""

    t_initial: float | None = None
    cooling: float = 0.95
    iterations: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.t_initial is not None and not 0 < self.t_initial < math.inf:
            raise ValueError(f"t_initial must be finite and > 0, got {self.t_initial}")


class _Evaluator:
    """Per-problem cache of link constants and frozen fading draws.

    An SA move changes one node's power, so only the links leaving that node
    change capacity: ``capacities`` takes the capacities of the previous
    allocation and recomputes just the moved node's links. Totals are always
    reduced from scratch over the per-link capacities, so a move evaluation
    equals a full evaluation bit for bit.
    """

    def __init__(self, problem: PowerProblem):
        self.problem = problem
        nodes = problem.topology.nodes
        node_index = {n.id: i for i, n in enumerate(nodes)}
        self.links = []
        self.node_links: list[list[int]] = [[] for _ in nodes]
        srcs, gammas = [], []
        for i, link in enumerate(problem.topology.links):
            h2 = None
            if isinstance(problem.fading, ErgodicMean) and link.fading.kind is not FadingKind.AWGN:
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(problem.fading.seed, spawn_key=(i,)))
                )
                h2 = sample_h_squared(link.fading, rng, size=problem.fading.n_samples)
            src = node_index[link.src]
            self.node_links[src].append(i)
            srcs.append(src)
            gammas.append(link.gain.gamma)
            self.links.append(
                (
                    src,
                    link.budget.bandwidth_hz,
                    link.budget.noise_power_w + link.budget.interference_power_w,
                    h2,
                )
            )
        # Per-link operands of ``totals``.
        self.src = np.array(srcs, dtype=np.intp)
        self.gamma = np.array(gammas, dtype=float)
        self.length = np.array([nodes[src].packet_length_bits for src in srcs], dtype=float)

    def _capacity(self, i: int, powers: Sequence[float]) -> float:
        src, bandwidth, denom, h2 = self.links[i]
        p = powers[src]
        if h2 is None:
            return bandwidth * math.log1p(p / denom) / _LN2
        return stable_mean(bandwidth * np.log1p(p * h2 / denom) / _LN2)

    def capacities(
        self,
        powers: Sequence[float],
        previous: np.ndarray | None = None,
        moved: int | None = None,
    ) -> np.ndarray:
        """Per-link capacity (bit/s) at the allocation, without TRS.

        With ``previous`` (the capacities of an allocation that differs from
        ``powers`` only at node ``moved``), only that node's links are
        recomputed.
        """
        if previous is None:
            return np.array([self._capacity(i, powers) for i in range(len(self.links))])
        caps = previous.copy()
        for i in self.node_links[moved]:
            caps[i] = self._capacity(i, powers)
        return caps

    def totals(self, powers: Sequence[float] | np.ndarray, caps: np.ndarray | None = None):
        """(TRS energy total, TRS latency total, min TRS link capacity).

        ``caps`` are the per-link capacities at ``powers`` when already known.
        Raises InfeasibleLinkError when a link has zero capacity. Given a
        leading batch axis on ``powers`` (B, nodes) and ``caps`` (B, links),
        with no zero capacity, it returns three arrays of B totals.

        The totals are left-to-right running sums in link order, as the
        equivalent Python loop ``total += term`` computes them:
        ``np.add.accumulate`` adds sequentially, whereas ``np.sum`` and
        ``np.add.reduce`` add pairwise and ``math.fsum`` compensates, so
        each of those would round differently and move the SA trajectory.
        """
        if caps is None:
            caps = self.capacities(powers)
        if not caps.size:
            return 0.0, 0.0, math.inf
        # `<=`, not `~(caps > 0)`: a NaN capacity is not an infeasible link.
        bad = np.flatnonzero(caps <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise InfeasibleLinkError(
                f"zero capacity on link {self.problem.topology.links[i].id} "
                f"at power {powers[self.src[i]]}"
            )
        # `take`, not `[..., self.src]`, which costs more per SA move.
        p = np.asarray(powers, dtype=float).take(self.src, -1)
        # Overflow to inf is silent, as in Python float arithmetic.
        with np.errstate(over="ignore", invalid="ignore"):
            denom = self.gamma * caps
            # The leading 0.0 is the loop's start value: it maps -0.0 to 0.0.
            # `.T[-1]` takes the last running sum of each row; `[..., -1]`
            # would too, but leaves a slower 0-d array for a single row.
            latency = 0.0 + np.add.accumulate(self.length / denom, -1).T[-1]
            energy = 0.0 + np.add.accumulate(p * self.length / denom, -1).T[-1]
        # fmin skips NaN, as the loop's `cap < min_cap` test does.
        min_cap_trs = np.fmin.reduce(denom, -1, initial=math.inf)
        if caps.ndim > 1:
            return energy, latency, min_cap_trs
        return float(energy), float(latency), float(min_cap_trs)

    def assess(self, powers: Sequence[float], caps: np.ndarray | None = None):
        """(objective, feasible, penalized objective) at the allocation.

        Zero-capacity allocations come back as +inf so stochastic search can
        reject them without special-casing.
        """
        try:
            energy, latency, min_cap_trs = self.totals(powers, caps)
        except InfeasibleLinkError:
            return math.inf, False, math.inf
        problem = self.problem
        objective = problem.alpha * energy + problem.beta * latency
        viol_cap = max(0.0, problem.r_min_bps - min_cap_trs)
        if problem.r_min_bps > 0:
            viol_cap /= problem.r_min_bps
        viol_lat = max(0.0, latency - problem.latency_max_s)
        if math.isfinite(problem.latency_max_s):
            viol_lat /= problem.latency_max_s
        feasible = viol_cap == 0.0 and viol_lat == 0.0
        penalized = objective + PENALTY_WEIGHT * (viol_cap + viol_lat)
        return objective, feasible, penalized


def _check_bounds(alloc: Allocation, problem: PowerProblem) -> None:
    if len(alloc.powers_w) != problem.n_nodes:
        raise ValueError(
            f"allocation has {len(alloc.powers_w)} powers for {problem.n_nodes} nodes"
        )
    for i, p in enumerate(alloc.powers_w):
        if not problem.p_min_w <= p <= problem.p_max_w:
            raise ValueError(
                f"power {p} for node {i} outside bounds "
                f"[{problem.p_min_w}, {problem.p_max_w}]"
            )


def energy_objective(alloc: Allocation, problem: PowerProblem) -> float:
    """Total TRS energy sum P_src * L_src / (gamma * C(P_src)), in J."""
    _check_bounds(alloc, problem)
    energy, _latency, _min_cap = _Evaluator(problem).totals(alloc.powers_w)
    return energy


def weighted_objective(alloc: Allocation, problem: PowerProblem) -> float:
    """alpha * TRS energy total + beta * TRS latency total."""
    _check_bounds(alloc, problem)
    energy, latency, _min_cap = _Evaluator(problem).totals(alloc.powers_w)
    return problem.alpha * energy + problem.beta * latency


def check_feasibility(alloc: Allocation, problem: PowerProblem) -> Feasibility:
    """Signed slacks of the two rate/latency constraints (negative = violated)."""
    _check_bounds(alloc, problem)
    evaluator = _Evaluator(problem)
    try:
        _energy, latency, min_cap_trs = evaluator.totals(alloc.powers_w)
    except InfeasibleLinkError:
        return Feasibility(False, -problem.r_min_bps, -math.inf)
    capacity_slack = min_cap_trs - problem.r_min_bps
    latency_slack = problem.latency_max_s - latency
    return Feasibility(capacity_slack >= 0 and latency_slack >= 0, capacity_slack, latency_slack)


def _result(evaluator, powers, evaluations, solver) -> OptResult:
    energy, latency, min_cap_trs = evaluator.totals(powers)
    problem = evaluator.problem
    objective = problem.alpha * energy + problem.beta * latency
    feasible = min_cap_trs >= problem.r_min_bps and latency <= problem.latency_max_s
    return OptResult(
        allocation=Allocation(tuple(powers)),
        objective=objective,
        energy_total_j=energy,
        latency_total_s=latency,
        feasible=feasible,
        evaluations=evaluations,
        solver=solver,
    )


def grid_search_oracle(problem: PowerProblem, points_per_node: int) -> OptResult:
    """Exhaustively evaluate the uniform power grid and return the best
    feasible point.

    Ties on the objective break toward smaller total power, then toward the
    lexicographically first grid index in node order. Node counts above 4 are
    rejected (the grid is combinatorial).
    """
    if points_per_node < 2:
        raise ValueError(f"points_per_node must be >= 2, got {points_per_node}")
    if problem.n_nodes > 4:
        raise ValueError(f"grid oracle limited to 4 nodes, got {problem.n_nodes}")
    evaluator = _Evaluator(problem)
    axis = np.linspace(problem.p_min_w, problem.p_max_w, points_per_node)
    n = problem.n_nodes
    # A link's capacity depends only on its source's power: tabulate each
    # link once per grid value, table[k, i] for link i at power axis[k].
    table = np.array([evaluator.capacities([p] * n) for p in axis.tolist()])
    links = np.arange(table.shape[1])
    from_last = evaluator.src == n - 1
    batch = np.arange(points_per_node)[:, None]
    best = None  # (objective, total_power, grid index)
    # The last node's grid values form one batch per index of the others,
    # visited in itertools.product order, as are the rows of each batch.
    for idx in itertools.product(range(points_per_node), repeat=n - 1):
        powers = np.empty((points_per_node, n))
        powers[:, : n - 1] = axis[list(idx)]
        powers[:, n - 1] = axis
        rows = np.where(from_last, batch, np.array(idx + (0,))[evaluator.src])
        objective, feasible = _batch_assess(evaluator, powers, table[rows, links])
        total_power = sum(axis[k] for k in idx) + axis
        ks = np.flatnonzero(feasible)
        if not ks.size:
            continue
        if best is None:
            # The first feasible point stands until a later one beats it; a
            # NaN objective is never beaten.
            best = (objective[ks[0]], total_power[ks[0]], idx + (int(ks[0]),))
        # The first row of least objective; total power rises along the
        # batch, so it is also the least total power among the tied rows.
        ks = ks[objective[ks] == np.fmin.reduce(objective[ks])]
        if not ks.size:  # every feasible objective is NaN
            continue
        k = int(ks[0])
        if objective[k] < best[0] or (objective[k] == best[0] and total_power[k] < best[1]):
            best = (objective[k], total_power[k], idx + (k,))
    if best is None:
        raise NoFeasiblePointError("entire grid violates the constraints")
    powers = tuple(float(axis[k]) for k in best[2])
    return _result(evaluator, powers, points_per_node**problem.n_nodes, Solver.GRID_ORACLE)


def _batch_assess(evaluator: _Evaluator, powers: np.ndarray, caps: np.ndarray):
    """Objective and feasibility of each row, as ``_Evaluator.assess`` gives
    them for one allocation."""
    problem = evaluator.problem
    objective = np.full(len(caps), math.inf)
    feasible = np.zeros(len(caps), dtype=bool)
    # Rows with a zero-capacity link stay infeasible at +inf, as in `assess`.
    linked = ~(caps <= 0.0).any(axis=-1)
    energy, latency, min_cap_trs = evaluator.totals(powers[linked], caps[linked])
    with np.errstate(over="ignore", invalid="ignore"):
        objective[linked] = problem.alpha * energy + problem.beta * latency
        # fmax(0, NaN) is 0, as Python's max(0.0, nan) is.
        viol_cap = np.fmax(0.0, problem.r_min_bps - min_cap_trs)
        if problem.r_min_bps > 0:
            viol_cap = viol_cap / problem.r_min_bps
        viol_lat = np.fmax(0.0, latency - problem.latency_max_s)
        if math.isfinite(problem.latency_max_s):
            viol_lat = viol_lat / problem.latency_max_s
    feasible[linked] = (viol_cap == 0.0) & (viol_lat == 0.0)
    return objective, feasible


def _reflect(value: float, lo: float, hi: float) -> float:
    while value < lo or value > hi:
        value = 2.0 * lo - value if value < lo else 2.0 * hi - value
    return value


def optimize_sa(
    problem: PowerProblem,
    schedule: SaSchedule | None = None,
    rng: np.random.Generator | int = 0,
) -> OptResult:
    """Simulated annealing over the power box.

    Moves perturb one uniformly chosen node's power with a Gaussian step of
    sigma = 5% of the box width, reflected at the bounds. Infeasible
    candidates are penalized, not rejected, so the chain can cross infeasible
    valleys. Returns the best feasible allocation with a finite objective
    encountered; deterministic for a given seed.
    """
    if schedule is None:
        schedule = SaSchedule()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    evaluator = _Evaluator(problem)
    lo, hi = problem.p_min_w, problem.p_max_w
    sigma = 0.05 * (hi - lo)
    n = problem.n_nodes

    powers = rng.uniform(lo, hi, size=n)
    caps = evaluator.capacities(powers)
    objective, feasible, penalized = evaluator.assess(powers, caps)
    # Only a finite objective can be reported; a point whose energy or
    # latency overflows is never the best.
    best = (objective, tuple(powers)) if feasible and math.isfinite(objective) else None
    if schedule.t_initial is not None:
        temperature = schedule.t_initial
    else:
        temperature = abs(penalized) if math.isfinite(penalized) and penalized != 0 else 1.0

    for _ in range(schedule.iterations):
        j = int(rng.integers(n))
        candidate = powers.copy()
        candidate[j] = _reflect(candidate[j] + rng.normal(0.0, sigma), lo, hi)
        cand_caps = evaluator.capacities(candidate, caps, j)
        cand_obj, cand_feasible, cand_pen = evaluator.assess(candidate, cand_caps)
        if cand_feasible and cand_obj < (math.inf if best is None else best[0]):
            best = (cand_obj, tuple(candidate))
        delta = cand_pen - penalized
        u = rng.random()
        if delta <= 0 or (temperature > 0 and u < math.exp(-delta / temperature)):
            powers, penalized, caps = candidate, cand_pen, cand_caps
        temperature *= schedule.cooling

    if best is None:
        raise NoFeasiblePointError("no feasible allocation with a finite objective encountered")
    return _result(evaluator, best[1], schedule.iterations + 1, Solver.SIMULATED_ANNEALING)


def kkt_residual(
    alloc: Allocation,
    problem: PowerProblem,
    multipliers: Sequence[float],
) -> KktDiagnostics:
    """First-order optimality diagnostics at an allocation.

    Multipliers are ordered [capacity, latency, lower bounds..., upper
    bounds...], one per constraint (2 + 2N in total), all written as g <= 0.
    The Lagrangian gradient is evaluated by central finite differences with a
    relative step of 1e-6.
    """
    n = problem.n_nodes
    expected = 2 + 2 * n
    if len(multipliers) != expected:
        raise ValueError(f"expected {expected} multipliers, got {len(multipliers)}")
    if any(m < 0 for m in multipliers):
        raise ValueError("multipliers must be >= 0")
    _check_bounds(alloc, problem)
    evaluator = _Evaluator(problem)
    lam = tuple(float(m) for m in multipliers)

    def constraint_values(powers):
        try:
            _energy, latency, min_cap_trs = evaluator.totals(powers)
        except InfeasibleLinkError:
            latency, min_cap_trs = math.inf, 0.0
        g = [problem.r_min_bps - min_cap_trs, latency - problem.latency_max_s]
        g += [problem.p_min_w - p for p in powers]
        g += [p - problem.p_max_w for p in powers]
        return g

    def lagrangian(powers):
        energy, latency, _min_cap = evaluator.totals(powers)
        value = problem.alpha * energy + problem.beta * latency
        for lam_k, g_k in zip(lam, constraint_values(powers)):
            if lam_k != 0.0:
                value += lam_k * g_k
        return value

    width = problem.p_max_w - problem.p_min_w
    grad = []
    base = list(alloc.powers_w)
    for i in range(n):
        step = 1e-6 * max(abs(base[i]), width)
        up, down = list(base), list(base)
        up[i] += step
        down[i] -= step
        grad.append((lagrangian(up) - lagrangian(down)) / (2.0 * step))
    stationarity = math.sqrt(sum(g * g for g in grad))

    g_at_point = constraint_values(base)
    primal_violation = max(0.0, max(g_at_point))
    complementary = max(
        (abs(lam_k * g_k) for lam_k, g_k in zip(lam, g_at_point) if lam_k != 0.0),
        default=0.0,
    )
    return KktDiagnostics(
        stationarity_residual=stationarity,
        primal_violation=primal_violation,
        complementary_slackness=complementary,
        multipliers=lam,
    )
