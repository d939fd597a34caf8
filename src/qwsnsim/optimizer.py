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

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import MAX_SAMPLES, FadingKind, link_rng, received_capacity, sample_h_squared
from .errors import NoFeasiblePointError
from .network import Topology
from .numeric import check_count, check_real, is_integer, left_sum, stable_mean

# Additive penalty per unit of normalized constraint violation. Large enough to
# dominate any sane objective, finite so the chain can cross infeasible valleys.
PENALTY_WEIGHT = 1e6

# Annealing iterations a schedule may ask for. 10**7 moves take minutes on a
# large mesh; a larger count is a typo, not a schedule.
MAX_ITERATIONS = 10**7

# Entry points leave numpy overflow as inf and NaN, as Python floats do, and
# check what they return. As a decorator it costs once per call, not once per
# move; each use is its own errstate, which numpy 1.x cannot enter twice.
_quiet_overflow = functools.partial(np.errstate, over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Deterministic:
    """Evaluate every link at |h|^2 = 1."""


@dataclass(frozen=True)
class ErgodicMean:
    """Evaluate links on the mean capacity over frozen seeded fading draws.

    The draw set is derived once from (seed, link index), so the objective is
    a fixed deterministic function of the allocation.
    """

    # The field order is the key order of the ergodic treatment in the config echo.
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_count("n_samples", self.n_samples, MAX_SAMPLES)
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")


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
        for name in ("p_min_w", "p_max_w", "r_min_bps", "alpha", "beta"):
            check_real(name, getattr(self, name), 0)
        if not self.p_min_w < self.p_max_w:
            raise ValueError(
                f"power bounds must be finite and satisfy 0 <= p_min < p_max, got "
                f"[{self.p_min_w}, {self.p_max_w}]"
            )
        if not (isinstance(self.latency_max_s, float) and self.latency_max_s == math.inf):
            check_real("latency_max_s", self.latency_max_s, 0, strict=True)
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
        powers = tuple(self.powers_w)
        for p in powers:
            check_real("powers_w", p, 0)
        object.__setattr__(self, "powers_w", tuple(map(float, powers)))


class Solver(Enum):
    SIMULATED_ANNEALING = "simulated_annealing"
    GRID_ORACLE = "grid_oracle"


@dataclass(frozen=True)
class OptResult:
    # The field order is the key order of the `optimize` output.
    solver: Solver
    feasible: bool
    objective: float
    energy_total_j: float
    latency_total_s: float
    evaluations: int
    allocation: Allocation


@dataclass(frozen=True)
class KktDiagnostics:
    stationarity_residual: float
    primal_violation: float
    complementary_slackness: float


@dataclass(frozen=True)
class SaSchedule:
    """Geometric cooling schedule. t_initial = None derives the starting
    temperature from the initial objective magnitude."""

    # The field order is the key order of the schedule in the config echo.
    t_initial: float | None = None
    cooling: float = 0.95
    iterations: int = 10_000

    def __post_init__(self):
        check_real("cooling", self.cooling, 0, strict=True)
        if not self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")
        check_count("iterations", self.iterations, MAX_ITERATIONS)
        if self.t_initial is not None:
            check_real("t_initial", self.t_initial, 0, strict=True)


def _reduce(denom, latency_terms, energy_terms):
    """(energy total, latency total, least gamma * C) along the last axis, as a
    loop `total += term` and `if denom < least` gives them. np.sum adds pairwise
    and math.fsum compensates: either would round differently."""
    if not denom.shape[-1]:
        zeros = np.zeros(denom.shape[:-1])
        return zeros, zeros, zeros + math.inf
    # Adding the loop's start value 0.0 maps -0.0 to 0.0. `.T[-1]` is each
    # row's last running sum; `[..., -1]` leaves a slower 0-d array for one row.
    return (
        0.0 + np.add.accumulate(energy_terms, -1).T[-1],
        0.0 + np.add.accumulate(latency_terms, -1).T[-1],
        np.fmin.reduce(denom, -1, initial=math.inf),
    )


class _Evaluator:
    """Per-problem cache of link budgets and frozen fading draws. A link's
    capacity C at power P is ``received_capacity`` of its budget at P, or
    the stable mean of it at P * |h|^2 over the link's frozen draws.

    An evaluated point is its per-link terms gamma * C, L / (gamma * C) and
    P * L / (gamma * C), three rows (``start``); a link without capacity has
    gamma * C <= 0 and NaN for the others. A move changes one node's power,
    so ``move`` recomputes only that node's links in place and returns the
    old terms for ``undo`` on rejection. ``reduce`` gives the totals of all
    terms, from scratch.
    """

    def __init__(self, problem: PowerProblem):
        self.problem = problem
        nodes = problem.topology.nodes
        node_index = {n.id: i for i, n in enumerate(nodes)}
        self.links = []  # (src, budget, frozen |h|^2 or None, gamma, L)
        self.node_links: list[list[int]] = [[] for _ in nodes]
        for i, link in enumerate(problem.topology.links):
            h2, fading = None, problem.fading
            if isinstance(fading, ErgodicMean) and link.fading.kind is not FadingKind.AWGN:
                h2 = sample_h_squared(link.fading, link_rng(fading.seed, i), size=fading.n_samples)
            src = node_index[link.src]
            self.node_links[src].append(i)
            self.links.append((src, link.budget, h2, link.gain.gamma, nodes[src].packet_length_bits))

    def _capacity(self, i: int, p: float) -> float:
        """Capacity (bit/s) of link ``i`` at source power ``p``, without TRS."""
        _src, budget, h2, _gamma, _length = self.links[i]
        if h2 is None:
            return received_capacity(budget, p)
        caps = p * h2
        return stable_mean(received_capacity(budget, caps), caps)

    def totals(self, powers: Sequence[float]) -> tuple[float, float, float]:
        """(TRS energy total, TRS latency total, least TRS link capacity) at
        the allocation. A link without capacity shows as a least TRS
        capacity <= 0, with NaN totals."""
        return self.reduce(self.start(powers))

    def start(self, powers: Sequence[float]) -> tuple[np.ndarray, ...]:
        """The per-link terms at the allocation, as three rows."""
        terms = tuple(np.empty((3, len(self.links))))
        for j, p in enumerate(powers):
            self.move(terms, j, p)
        return terms

    def move(self, terms: tuple[np.ndarray, ...], j: int, p: float) -> list:
        """Set the terms of node ``j``'s links to power ``p``; return the old ones."""
        denom, latency_terms, energy_terms = terms
        old = []
        for i in self.node_links[j]:
            old.append((i, denom[i], latency_terms[i], energy_terms[i]))
            gamma, length = self.links[i][3:]
            denom[i] = d = gamma * self._capacity(i, p)
            # A float L / 0.0 raises ZeroDivisionError. Without capacity, the
            # link's gamma * C <= 0 alone makes `_penalize` reject the point.
            latency_terms[i], energy_terms[i] = (
                (length / d, p * length / d) if d > 0.0 else (math.nan, math.nan)
            )
        return old

    @staticmethod
    def undo(terms: tuple[np.ndarray, ...], old: list) -> None:
        denom, latency_terms, energy_terms = terms
        for i, d, latency, energy in old:
            denom[i], latency_terms[i], energy_terms[i] = d, latency, energy

    @staticmethod
    def reduce(terms: tuple[np.ndarray, ...]) -> tuple[float, float, float]:
        """``totals`` at the point whose per-link terms are ``terms``."""
        return tuple(map(float, _reduce(*terms)))

    def _penalize(self, energy: float, latency: float, min_cap_trs: float):
        """(objective, feasible, penalized objective) from the totals. A link
        without capacity gives +inf, so stochastic search rejects it without
        a special case; so does a NaN penalized value, which no move could
        otherwise leave."""
        # gamma >= 1, so the least gamma * C is <= 0 exactly when a capacity is.
        if min_cap_trs <= 0.0:
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
        return objective, feasible, math.inf if math.isnan(penalized) else penalized


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


@_quiet_overflow()
def weighted_objective(alloc: Allocation, problem: PowerProblem) -> float:
    """alpha * TRS energy total + beta * TRS latency total. Raises ValueError
    when it is not finite: it overflows, or a link has no capacity."""
    _check_bounds(alloc, problem)
    evaluator = _Evaluator(problem)
    objective = evaluator._penalize(*evaluator.totals(alloc.powers_w))[0]
    if not math.isfinite(objective):
        raise ValueError(f"objective is {objective} at allocation {alloc.powers_w}")
    return objective


def _result(evaluator, powers, totals, evaluations, solver) -> OptResult:
    """The result at ``powers``, whose ``evaluator.totals`` are ``totals``."""
    energy, latency, _min_cap_trs = totals
    objective, feasible, _penalized = evaluator._penalize(*totals)
    return OptResult(
        solver, feasible, objective, energy, latency, evaluations, Allocation(tuple(powers))
    )


@_quiet_overflow()
def grid_search_oracle(problem: PowerProblem, points_per_node: int) -> OptResult:
    """Exhaustively evaluate the uniform power grid and return the best
    feasible point.

    Ties on the objective break toward smaller total power, then toward the
    lexicographically first grid index in node order. Node counts above 4 are
    rejected (the grid is combinatorial). Each link's per-link terms are
    tabulated once per grid value and reduced a batch of points at a time;
    each point is scored by ``_Evaluator._penalize`` on its totals, as an
    annealing move is.
    """
    # A grid finer than the annealer's longest run is a typo, not a grid.
    check_count("points_per_node", points_per_node, MAX_ITERATIONS)
    if points_per_node < 2:
        raise ValueError(f"points_per_node must be >= 2, got {points_per_node}")
    if problem.n_nodes > 4:
        raise ValueError(f"grid oracle limited to 4 nodes, got {problem.n_nodes}")
    evaluator = _Evaluator(problem)
    axis = np.linspace(problem.p_min_w, problem.p_max_w, points_per_node)
    n = problem.n_nodes
    # A link's terms depend only on its source's power: tabulate each link
    # once per grid value, table[:, k, i] for link i at power axis[k].
    table = np.stack([evaluator.start([p] * n) for p in axis.tolist()], axis=1)
    src = np.array([link[0] for link in evaluator.links], dtype=np.intp)
    links = np.arange(len(src))
    from_last = src == n - 1
    batch = np.arange(points_per_node)[:, None]
    best = None  # (objective, total_power, grid index)
    # The last node's grid values form one batch per index of the others, so
    # the points are visited in itertools.product order.
    for idx in itertools.product(range(points_per_node), repeat=n - 1):
        rows = np.where(from_last, batch, np.array(idx + (0,))[src])
        totals = zip(*(t.tolist() for t in _reduce(*table[:, rows, links])))
        total_power = (left_sum(axis[k] for k in idx) + axis).tolist()
        for k, (point, power) in enumerate(zip(totals, total_power)):
            objective, feasible, _penalized = evaluator._penalize(*point)
            # A NaN best objective compares false both ways: it stands.
            if feasible and (
                best is None or objective < best[0] or (objective == best[0] and power < best[1])
            ):
                best = (objective, power, idx + (k,))
    if best is None:
        raise NoFeasiblePointError("entire grid violates the constraints")
    powers = tuple(float(axis[k]) for k in best[2])
    evaluations = points_per_node**problem.n_nodes
    return _result(evaluator, powers, evaluator.totals(powers), evaluations, Solver.GRID_ORACLE)


def _reflect(value: float, lo: float, hi: float) -> float:
    while value < lo or value > hi:
        value = 2.0 * lo - value if value < lo else 2.0 * hi - value
    return value


# A candidate whose capacity overflows (p * |h|^2 past the float range) gets a
# non-finite objective and is never the best, so the overflow is not a defect.
@_quiet_overflow()
def optimize_sa(
    problem: PowerProblem,
    schedule: SaSchedule,
    rng: np.random.Generator | int = 0,
) -> OptResult:
    """Simulated annealing over the power box.

    Moves perturb one uniformly chosen node's power with a Gaussian step of
    sigma = 5% of the box width, reflected at the bounds. Infeasible
    candidates are penalized, not rejected, so the chain can cross infeasible
    valleys. Returns the best feasible allocation with a finite objective
    encountered; deterministic for a given seed.

    The chain holds its point's per-link terms. A move patches the moved
    node's links in place and is assessed from the totals of the terms; a
    rejected move writes the old terms and power back. The best point keeps
    its totals: a link's terms depend only on its source's power, so they
    are the totals ``_Evaluator.totals`` gives at its powers, bit for bit.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    evaluator = _Evaluator(problem)
    lo, hi = problem.p_min_w, problem.p_max_w
    sigma = 0.05 * (hi - lo)
    n = problem.n_nodes

    powers = rng.uniform(lo, hi, size=n).tolist()
    terms = evaluator.start(powers)
    totals = evaluator.reduce(terms)
    objective, feasible, penalized = evaluator._penalize(*totals)
    # Only a finite objective can be reported; a point whose energy or
    # latency overflows is never the best.
    best = (objective, tuple(powers), totals) if feasible and math.isfinite(objective) else None
    if schedule.t_initial is not None:
        temperature = schedule.t_initial
    else:
        temperature = abs(penalized) if math.isfinite(penalized) and penalized != 0 else 1.0

    for _ in range(schedule.iterations):
        j = int(rng.integers(n))
        previous = powers[j]
        powers[j] = _reflect(previous + rng.normal(0.0, sigma), lo, hi)
        old = evaluator.move(terms, j, powers[j])
        totals = evaluator.reduce(terms)
        cand_obj, cand_feasible, cand_pen = evaluator._penalize(*totals)
        if cand_feasible and cand_obj < (math.inf if best is None else best[0]):
            best = (cand_obj, tuple(powers), totals)
        # inf - inf is NaN: equal penalties, +inf included, are a level move.
        delta = 0.0 if cand_pen == penalized else cand_pen - penalized
        u = rng.random()
        if delta <= 0 or (temperature > 0 and u < math.exp(-delta / temperature)):
            penalized = cand_pen
        else:
            powers[j] = previous
            evaluator.undo(terms, old)
        temperature *= schedule.cooling

    if best is None:
        raise NoFeasiblePointError("no feasible allocation with a finite objective encountered")
    return _result(evaluator, *best[1:], schedule.iterations + 1, Solver.SIMULATED_ANNEALING)


@_quiet_overflow()
def kkt_residual(
    alloc: Allocation,
    problem: PowerProblem,
    multipliers: Sequence[float],
) -> KktDiagnostics:
    """First-order optimality diagnostics at an allocation.

    Multipliers are ordered [capacity, latency, lower bounds..., upper
    bounds...], one per constraint (2 + 2N in total), all written as g <= 0.
    The Lagrangian gradient is a finite difference with a relative step of
    1e-6: central, or one-sided where a central one would leave the power box.
    Raises ValueError when a diagnostic is not finite: it overflows, or a
    link has no capacity.
    """
    n = problem.n_nodes
    expected = 2 + 2 * n
    if len(multipliers) != expected:
        raise ValueError(f"expected {expected} multipliers, got {len(multipliers)}")
    for m in multipliers:
        check_real("multipliers", m, 0)
    _check_bounds(alloc, problem)
    evaluator = _Evaluator(problem)
    lam = tuple(float(m) for m in multipliers)

    def evaluate(powers):
        """The objective and the constraint values g at the allocation."""
        energy, latency, min_cap_trs = evaluator.totals(powers)
        g = [problem.r_min_bps - min_cap_trs, latency - problem.latency_max_s]
        g += [problem.p_min_w - p for p in powers]
        g += [p - problem.p_max_w for p in powers]
        return evaluator._penalize(energy, latency, min_cap_trs)[0], g

    def lagrangian(powers):
        value, g = evaluate(powers)
        for lam_k, g_k in zip(lam, g):
            if lam_k != 0.0:
                value += lam_k * g_k
        return value

    width = problem.p_max_w - problem.p_min_w
    grad = []
    base = list(alloc.powers_w)
    for i in range(n):
        # A narrow box shrinks the step; a power below 0 has no capacity.
        below, above = base[i] - problem.p_min_w, problem.p_max_w - base[i]
        step = min(1e-6 * max(abs(base[i]), width), max(below, above))
        fits_up, fits_down = above >= step, below >= step
        up, down = list(base), list(base)
        up[i] += step * fits_up
        down[i] -= step * fits_down
        grad.append((lagrangian(up) - lagrangian(down)) / ((fits_up + fits_down) * step))
    stationarity = math.sqrt(left_sum(g * g for g in grad))

    _objective, g_at_point = evaluate(base)
    primal_violation = max(0.0, max(g_at_point))
    complementary = max(
        (abs(lam_k * g_k) for lam_k, g_k in zip(lam, g_at_point) if lam_k != 0.0),
        default=0.0,
    )
    diagnostics = (stationarity, primal_violation, complementary)
    if not all(map(math.isfinite, diagnostics)):
        raise ValueError(f"KKT diagnostics {diagnostics} at allocation {alloc.powers_w}")
    return KktDiagnostics(*diagnostics)
