"""Link-level simulator and power optimizer for TRS-enhanced quantum
wireless sensor networks.

The package models each directed link with a Shannon capacity under noise,
interference, and Rayleigh/Rician fading; applies a multiplicative TRS gain
(capacity up by gamma, time/energy/latency down by gamma); aggregates chain,
star, and mesh topologies; evaluates QBER/QKD link budgets; and solves the
constrained non-convex power-allocation problem with simulated annealing
validated against an exhaustive grid oracle.
"""

from .channel import (
    TRS_OFF,
    FadingDraw,
    FadingKind,
    FadingSpec,
    LinkBudget,
    TrsGain,
    apply_trs,
    ergodic_capacity,
    faded_capacity,
    faded_capacity_samples,
    sample_fading,
    sample_h_squared,
    shannon_capacity,
)
from .mimo import (
    MimoChannel,
    hermitian_logdet,
    mimo_capacity,
    mimo_capacity_trs,
    multiuser_mimo_total,
)
from .network import (
    Link,
    LinkMetrics,
    NetworkReport,
    Node,
    Topology,
    TopologyKind,
    hybrid_total_capacity,
    multiuser_total_capacity,
    network_totals,
    path_capacity,
    path_latency,
)
from .optimizer import (
    Allocation,
    Deterministic,
    ErgodicMean,
    Feasibility,
    KktDiagnostics,
    OptResult,
    PowerProblem,
    SaSchedule,
    Solver,
    check_feasibility,
    energy_objective,
    grid_search_oracle,
    kkt_residual,
    optimize_sa,
    weighted_objective,
)
from .quantum_link import (
    QberCount,
    QkdLinkSpec,
    qber,
    qber_with_trs,
    qkd_received_power,
    qkd_received_power_trs,
)
from .scenario import (
    RunReport,
    ScenarioConfig,
    emit_report,
    gamma_sweep,
    link_metrics,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"
