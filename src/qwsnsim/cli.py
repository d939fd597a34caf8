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
import sys
from pathlib import Path

from .channel import TrsGain
from .errors import AllSamplesOutageError, NoFeasiblePointError, ScenarioValidationError
from .optimizer import optimize_sa
from .scenario import (
    ScenarioConfig,
    dump_json,
    emit_report,
    emit_sweep,
    gamma_sweep,
    load_scenario,
    optimization_tree,
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
        parser.add_argument("--format", metavar="{csv,json}", default=None)
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
    config = load_scenario(Path(args.config).read_text(encoding="utf-8"))
    # The flags that set a field. ScenarioConfig checks them as it does the loader's.
    fields = dict(seed="seed", samples="n_samples", out="output_path", format="output_format")
    overrides = {fields[k]: v for k, v in vars(args).items() if k in fields and v is not None}
    return dataclasses.replace(config, **overrides) if overrides else config


def _write(config: ScenarioConfig, document: str) -> None:
    if config.output_path is None:
        sys.stdout.write(document)
    else:
        Path(config.output_path).write_text(document, encoding="utf-8")


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    report = run_scenario(config)
    _write(config, emit_report(report))
    return 0


def _cmd_optimize(args) -> int:
    config = _load_config(args)
    if config.optimizer is None:
        raise ScenarioValidationError("optimizer", "config has no optimizer section")
    problem = config.optimizer.to_problem(config.topology)
    result = optimize_sa(problem, config.optimizer.schedule, sa_rng(config.seed))
    _write(config, dump_json(optimization_tree(result)))
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        gammas = [float(v) for v in args.gamma.split(",") if v.strip()]
    except ValueError:
        raise ScenarioValidationError("--gamma", f"expected comma-separated numbers, got {args.gamma!r}")
    if not gammas:
        raise ScenarioValidationError("--gamma", "expected at least one value")
    for gamma in gammas:
        try:
            TrsGain(gamma)
        except ValueError as exc:
            raise ScenarioValidationError("--gamma", str(exc)) from None
    _write(config, emit_sweep(gamma_sweep(config, gammas)))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
