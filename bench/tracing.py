"""Per-layer spans of the traced run, recorded from the benchmark's side.

Nothing is added to the package: ``install`` replaces each public name at the
place its caller looks it up (a module attribute) with a wrapper that records
``(span name, seconds, quantity)``. Span names are ``<module>.<name>`` of that
lookup site, so ``cli.run_scenario`` (called by the ``simulate`` command) and
``scenario.run_scenario`` (called by ``gamma_sweep``) never double count.

``numeric.stable_mean`` is not wrapped: its time counts inside its callers.
``quantum_link`` is scalar arithmetic on no hot path and is not traced.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np


def _one(args, result) -> float:
    return 1.0


def _size(args, result) -> float:
    return float(np.size(result))


def _evaluations(args, result) -> float:
    return float(result.evaluations)


def _cholesky_flops(args, result) -> float:
    # Real flops of the kernel's column loop for an n x n complex matrix:
    # column j does j * (n - j) complex multiply-adds at 8 real flops each.
    # Computed from n, not measured.
    n = np.shape(args[0])[0]
    return float(sum(8 * j * (n - j) for j in range(n)))


class _YamlProxy:
    """Stands in for the ``yaml`` module inside ``qwsnsim.scenario`` so that
    ``yaml.load`` (the parse stage of ``load_scenario``) gets its own span."""

    def __init__(self, module, load):
        self._module = module
        self.load = load

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans in memory; ``spans`` is cleared by the caller between
    invocations. Appends from the scenario thread pool are safe because
    ``list.append`` is atomic in CPython."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    def traced(self, name: str, function, quantity=_one):
        spans = self.spans

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            spans.append((name, time.perf_counter() - start, quantity(args, result)))
            return result

        return wrapper

    def wrap(self, module, attr: str, quantity=_one) -> None:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.traced(name, getattr(module, attr), quantity))


# (module, attribute, quantity per call) of every traced lookup site.
SITES = (
    ("cli", "main", _one),
    ("cli", "load_scenario", _one),
    ("cli", "run_scenario", _one),
    ("cli", "gamma_sweep", _one),
    ("cli", "emit_report", _one),
    ("cli", "optimize_sa", _evaluations),
    ("scenario", "run_scenario", _one),
    ("scenario", "simulate_link", _one),
    ("scenario", "network_totals", _one),
    ("scenario", "Topology", _one),
    ("scenario", "sample_h_squared", _size),
    ("scenario", "faded_capacity_samples", _size),
    ("optimizer", "sample_h_squared", _size),
    ("mimo", "hermitian_logdet", _cholesky_flops),
    ("mimo", "MimoChannel", _one),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced lookup site in the already-imported package, plus
    ``yaml.load`` as seen from ``qwsnsim.scenario``."""
    for module_name, attr, quantity in SITES:
        tracer.wrap(importlib.import_module(f"qwsnsim.{module_name}"), attr, quantity)
    scenario = importlib.import_module("qwsnsim.scenario")
    scenario.yaml = _YamlProxy(
        scenario.yaml, tracer.traced("scenario.yaml.load", scenario.yaml.load)
    )


# Spans whose caller is ``cli.main`` itself; main's self time excludes them.
_CLI_CHILDREN = (
    "cli.load_scenario",
    "cli.run_scenario",
    "cli.gamma_sweep",
    "cli.emit_report",
    "cli.optimize_sa",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans, report_bytes: int, input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one invocation from its spans.

    A layer the workload never reaches reports 0 time and 0 work. Under the
    thread pool, worker spans overlap: ``scenario.busy_s`` is their sum, to be
    read next to the wall time ``scenario.run_s``.
    """
    t: dict[str, float] = defaultdict(float)
    q: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, seconds, quantity in spans:
        t[name] += seconds
        q[name] += quantity
        calls[name] += 1

    load, parse = t["cli.load_scenario"], t["scenario.yaml.load"]
    sample = t["scenario.sample_h_squared"] + t["optimizer.sample_h_squared"]
    draws = q["scenario.sample_h_squared"] + q["optimizer.sample_h_squared"]
    sa, evaluations = t["cli.optimize_sa"], q["cli.optimize_sa"]
    logdet, logdets = t["mimo.hermitian_logdet"], calls["mimo.hermitian_logdet"]
    return {
        "cli.main_s": t["cli.main"],
        "cli.self_s": t["cli.main"] - sum(t[name] for name in _CLI_CHILDREN),
        "scenario.load_s": load,
        "scenario.parse_s": parse,
        "scenario.validate_s": load - parse,
        "scenario.load_mb_per_s": _ratio(input_bytes / 1e6, load),
        "scenario.run_s": t["cli.run_scenario"] + t["scenario.run_scenario"],
        "scenario.run_calls": float(calls["cli.run_scenario"] + calls["scenario.run_scenario"]),
        "scenario.busy_s": t["scenario.sample_h_squared"] + t["scenario.simulate_link"],
        "scenario.reduce_s": t["scenario.simulate_link"],
        "scenario.links_reduced": float(calls["scenario.simulate_link"]),
        "scenario.sweep_s": t["cli.gamma_sweep"],
        "scenario.emit_s": t["cli.emit_report"],
        "scenario.report_bytes": float(report_bytes),
        "channel.sample_s": sample,
        "channel.draws": draws,
        "channel.draws_per_s": _ratio(draws, sample),
        "channel.capacity_s": t["scenario.faded_capacity_samples"],
        "channel.capacity_evals": q["scenario.faded_capacity_samples"],
        "network.topology_s": t["scenario.Topology"],
        "network.totals_s": t["scenario.network_totals"],
        "optimizer.sa_s": sa,
        "optimizer.evaluations": evaluations,
        "optimizer.eval_us": _ratio(sa * 1e6, evaluations),
        "optimizer.frozen_draw_s": t["optimizer.sample_h_squared"],
        "mimo.logdet_s": logdet,
        "mimo.logdets": float(logdets),
        "mimo.logdet_us": _ratio(logdet * 1e6, logdets),
        "mimo.channel_s": t["mimo.MimoChannel"],
        "mimo.logdet_flops": q["mimo.hermitian_logdet"],
    }
