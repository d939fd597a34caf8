"""Command-line driver.

Subcommands:
  simulate  run the Monte-Carlo scenario and emit a CSV/JSON report
  optimize  solve the scenario's power-allocation problem
  sweep     rerun the scenario for several gamma values on identical seeded draws

Exit codes: 0 success, 1 validation/parse error, 2 runtime infeasibility
(no feasible allocation, or a link where every draw was an outage).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .channel import MAX_SAMPLES
from .errors import (
    AllSamplesOutageError,
    NoFeasiblePointError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .optimizer import optimize_sa
from .scenario import (
    ScenarioConfig,
    emit_report,
    gamma_sweep,
    load_scenario,
    optimization_tree,
    report_tree,
    run_scenario,
    sa_rng,
)


def _add_common_flags(parser: argparse.ArgumentParser, with_output: bool = True) -> None:
    parser.add_argument("--config", required=True, help="scenario file (YAML or JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override monte_carlo.seed")
    if with_output:
        parser.add_argument(
            "--samples", type=int, default=None, help="override monte_carlo.n_samples"
        )
        parser.add_argument("--out", default=None, help="output path (default: stdout)")
        parser.add_argument("--format", choices=("csv", "json"), default=None)
        parser.add_argument(
            "--threads", type=int, default=1, help="accepted and ignored (runs are single-threaded)"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsnsim",
        description="Link-level simulator and power optimizer for TRS-enhanced "
        "quantum wireless sensor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run the Monte-Carlo scenario")
    _add_common_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    optimize = sub.add_parser("optimize", help="solve the power-allocation problem")
    _add_common_flags(optimize, with_output=False)
    optimize.set_defaults(func=_cmd_optimize)

    sweep = sub.add_parser("sweep", help="gamma sweep over identical seeded fading draws")
    _add_common_flags(sweep)
    sweep.add_argument("--gamma", required=True, help="comma-separated gains, e.g. 1,2,4")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def _load_config(args) -> ScenarioConfig:
    config = load_scenario(Path(args.config).read_text())
    overrides = {}
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ScenarioValidationError(
                "monte_carlo.seed", f"--seed must fit in 64 unsigned bits, got {args.seed}"
            )
        overrides["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        if not 1 <= args.samples <= MAX_SAMPLES:
            raise ScenarioValidationError(
                "monte_carlo.n_samples",
                f"--samples must be between 1 and {MAX_SAMPLES}, got {args.samples}",
            )
        overrides["n_samples"] = args.samples
    if getattr(args, "out", None) is not None:
        overrides["output_path"] = args.out
    if getattr(args, "format", None) is not None:
        overrides["output_format"] = args.format
    return dataclasses.replace(config, **overrides) if overrides else config


def _write(config: ScenarioConfig, document: str) -> None:
    if config.output_path is None:
        sys.stdout.write(document)
    else:
        Path(config.output_path).write_text(document)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    report = run_scenario(config)
    _write(config, emit_report(report, config.output_format))
    return 0


def _cmd_optimize(args) -> int:
    config = _load_config(args)
    if config.optimizer is None:
        raise ScenarioValidationError("optimizer", "config has no optimizer section")
    problem = config.optimizer.to_problem(config.topology)
    result = optimize_sa(problem, config.optimizer.schedule, sa_rng(config.seed))
    sys.stdout.write(json.dumps(optimization_tree(result), indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        gammas = [float(v) for v in args.gamma.split(",") if v.strip()]
    except ValueError:
        raise ScenarioValidationError("--gamma", f"expected comma-separated numbers, got {args.gamma!r}")
    if not gammas:
        raise ScenarioValidationError("--gamma", "expected at least one value")
    results = gamma_sweep(config, gammas)
    if config.output_format == "json":
        tree = [{"gamma": g, "report": report_tree(r)} for g, r in results]
        _write(config, json.dumps(tree, indent=2, allow_nan=False) + "\n")
    else:
        lines = ["gamma,total_throughput_bps,total_energy_j,total_latency_s"]
        for g, r in results:
            lines.append(
                f"{g:.17g},{r.network.total_throughput_bps:.17g},"
                f"{r.network.total_energy_j:.17g},{r.network.total_latency_s:.17g}"
            )
        _write(config, "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # runtime infeasibility, so remap usage problems onto 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (NoFeasiblePointError, AllSamplesOutageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
