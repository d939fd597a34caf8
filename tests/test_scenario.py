import json
import math

import numpy as np
import pytest

from qwsnsim.channel import FadingKind
from qwsnsim.errors import (
    AllSamplesOutageError,
    ScenarioParseError,
    ScenarioValidationError,
)
from qwsnsim.scenario import (
    CSV_HEADER,
    emit_report,
    gamma_sweep,
    load_scenario,
    report_tree,
    run_scenario,
    simulate_link,
)

from oracles import gauss_laguerre_ergodic

MINIMAL = """
topology:
  kind: chain
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
  links:
    - {src: a, dst: b, bandwidth_hz: 1.0, signal_power_w: 1.0, noise_power_w: 1.0}
"""

RAYLEIGH = """
topology:
  kind: chain
  nodes:
    - {id: a, tx_power_w: 0.5, packet_length_bits: 1000}
    - {id: b, tx_power_w: 0.5, packet_length_bits: 1000}
  links:
    - src: a
      dst: b
      bandwidth_hz: 1.0e6
      signal_power_w: 10.0
      noise_power_w: 1.0
      fading: {kind: rayleigh}
      gamma: 2.0
monte_carlo: {n_samples: 100000, seed: 314}
"""

TWO_LINK_MESH = """
topology:
  kind: mesh
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 500}
    - {id: b, tx_power_w: 2.0, packet_length_bits: 800}
  links:
    - src: a
      dst: b
      bandwidth_hz: 1.0e6
      signal_power_w: 2.0e-6
      noise_power_w: 1.0e-9
      fading: {kind: rayleigh, mean_power: 1.0}
      gamma: 2.0
    - src: b
      dst: a
      bandwidth_hz: 2.0e6
      signal_power_w: 1.0e-6
      noise_power_w: 2.0e-9
      interference_power_w: 1.0e-10
      fading: {kind: rician, mean_power: 1.0, k_factor: 3.0}
      gamma: 4.0
monte_carlo: {n_samples: 2000, seed: 99}
"""

WITH_OPTIMIZER = """
topology:
  kind: mesh
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
  links:
    - {src: a, dst: b, bandwidth_hz: 1.0, signal_power_w: 1.0, noise_power_w: 1.0, gamma: 2.0}
monte_carlo: {n_samples: 10, seed: 5}
optimizer:
  p_min_w: 0.2
  p_max_w: 3.0
  weights: {alpha: 1.0, beta: 1.0}
  schedule: {iterations: 500}
"""


class TestLoadScenario:
    def test_minimal_config_gets_defaults(self):
        config = load_scenario(MINIMAL)
        assert config.n_samples == 1
        assert config.seed == 0
        assert config.optimizer is None
        assert config.output_format == "csv"
        link = config.topology.links[0]
        assert link.gain.gamma == 1.0
        assert link.budget.interference_power_w == 0.0
        assert link.fading.kind is FadingKind.AWGN

    def test_fading_mean_power_defaults_to_one(self):
        config = load_scenario(RAYLEIGH)
        assert config.topology.links[0].fading.mean_power == 1.0

    def test_gamma_below_one_names_link_and_rule(self):
        bad = MINIMAL.replace("noise_power_w: 1.0}", "noise_power_w: 1.0, gamma: 0.5}")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "topology.links[0]" in str(err.value)
        assert "gamma must be >= 1" in str(err.value)

    def test_dangling_node_reference(self):
        bad = MINIMAL.replace("src: a", "src: ghost")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "topology.links[0].src" in str(err.value)
        assert "ghost" in str(err.value)

    def test_unknown_key_rejected(self):
        bad = MINIMAL.replace("bandwidth_hz", "bandwidht_hz")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "unknown key" in str(err.value) or "required key" in str(err.value)

    def test_malformed_document(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("topology: [unclosed")

    def test_empty_document(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("")

    def test_non_mapping_root(self):
        with pytest.raises(ScenarioValidationError):
            load_scenario("- 1\n- 2\n")

    def test_wrong_scalar_type(self):
        bad = MINIMAL.replace("bandwidth_hz: 1.0", "bandwidth_hz: wide")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "bandwidth_hz" in str(err.value)

    def test_unsigned_exponent_parses_as_number(self):
        config = load_scenario(RAYLEIGH)
        assert config.topology.links[0].budget.bandwidth_hz == 1e6

    def test_optimizer_section(self):
        config = load_scenario(WITH_OPTIMIZER)
        assert config.optimizer is not None
        assert config.optimizer.schedule.iterations == 500
        assert config.optimizer.alpha == 1.0 and config.optimizer.beta == 1.0

    def test_explicit_null_means_default(self):
        text = WITH_OPTIMIZER.replace(
            "schedule: {iterations: 500}",
            "schedule: {t_initial: null, iterations: 500}",
        ) + "output: {path: null, format: json}\n"
        config = load_scenario(text)
        assert config.optimizer.schedule.t_initial is None
        assert config.output_path is None
        assert config.output_format == "json"

    def test_null_required_value_rejected(self):
        bad = MINIMAL.replace("bandwidth_hz: 1.0", "bandwidth_hz: null")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "bandwidth_hz" in str(err.value)

    def test_bad_optimizer_bounds_rejected_at_load(self):
        bad = WITH_OPTIMIZER.replace("p_max_w: 3.0", "p_max_w: 0.1")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "optimizer" in str(err.value)


class TestRunScenario:
    def test_awgn_reports_are_independent_of_sample_count(self):
        config = load_scenario(MINIMAL)
        import dataclasses

        single = run_scenario(config)
        many = run_scenario(dataclasses.replace(config, n_samples=777))
        assert single.links[0].metrics == many.links[0].metrics
        assert single.network.total_energy_j == many.network.total_energy_j

    def test_same_seed_is_byte_identical(self):
        config = load_scenario(TWO_LINK_MESH)
        a = emit_report(run_scenario(config), "json")
        b = emit_report(run_scenario(config), "json")
        assert a == b

    def test_thread_count_does_not_change_output(self):
        config = load_scenario(TWO_LINK_MESH)
        assert emit_report(run_scenario(config, threads=1), "json") == emit_report(
            run_scenario(config, threads=4), "json"
        )

    def test_rayleigh_mean_capacity_matches_quadrature_oracle(self):
        config = load_scenario(RAYLEIGH)
        report = run_scenario(config)
        oracle = gauss_laguerre_ergodic(10.0, bandwidth=1e6)
        assert report.links[0].metrics.capacity_bps == pytest.approx(oracle, rel=0.01)

    def test_outage_accounting(self):
        config = load_scenario(TWO_LINK_MESH)
        report = run_scenario(config)
        for summary in report.links:
            assert summary.outage_count + summary.samples_used == config.n_samples
            assert summary.outage_count == 0

    def test_gamma_ratios_in_report(self):
        config = load_scenario(TWO_LINK_MESH)
        report = run_scenario(config)
        for summary, link in zip(report.links, config.topology.links):
            for ratio in summary.trs_ratios.values():
                assert ratio == pytest.approx(link.gain.gamma, rel=1e-12)

    def test_chain_report_has_bottleneck(self):
        report = run_scenario(load_scenario(MINIMAL))
        assert report.network.bottleneck_capacity_bps == report.links[0].metrics.capacity_trs_bps

    def test_all_samples_outage(self):
        dead = MINIMAL.replace("signal_power_w: 1.0", "signal_power_w: 0.0")
        with pytest.raises(AllSamplesOutageError):
            run_scenario(load_scenario(dead))

    def test_linkless_scenario_rejected(self):
        config = load_scenario(
            """
topology:
  kind: mesh
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
"""
        )
        with pytest.raises(ScenarioValidationError):
            run_scenario(config)

    def test_optimizer_section_attaches_result(self):
        report = run_scenario(load_scenario(WITH_OPTIMIZER))
        assert report.optimization is not None
        assert report.optimization.feasible
        p_lo, p_hi = 0.2, 3.0
        for p in report.optimization.allocation.powers_w:
            assert p_lo <= p <= p_hi


class TestSimulateLink:
    def test_zero_draws_counted_as_outages(self):
        from qwsnsim.channel import FadingSpec, LinkBudget, TrsGain
        from qwsnsim.network import Link, Node

        node = Node("a", 1.0, 1.0)
        link = Link("a", "b", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(2.0))
        metrics, outages = simulate_link(node, link, np.array([1.0, 0.0, 1.0, 0.0]))
        assert outages == 2
        assert metrics.capacity_bps == 1.0
        assert metrics.capacity_trs_bps == 2.0

    def test_all_zero_draws_raise(self):
        from qwsnsim.channel import FadingSpec, LinkBudget, TrsGain
        from qwsnsim.network import Link, Node

        node = Node("a", 1.0, 1.0)
        link = Link("a", "b", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(1.0))
        with pytest.raises(AllSamplesOutageError):
            simulate_link(node, link, np.zeros(4))

    def test_underflowing_capacity_counted_as_outage(self):
        from qwsnsim.channel import FadingSpec, LinkBudget, TrsGain
        from qwsnsim.network import Link, Node

        # h2 = 1 leaves a subnormal capacity whose packet time overflows;
        # h2 = 1e300 brings the SNR to 1e-10 and a finite time.
        node = Node("a", 1.0, 100.0)
        budget = LinkBudget(1e-10, 1e-300, 1e10)
        link = Link("a", "b", budget, FadingSpec.rayleigh(), TrsGain(2.0))
        metrics, outages = simulate_link(node, link, np.array([1.0, 1e300]))
        assert outages == 1
        assert all(math.isfinite(getattr(metrics, f)) for f in ("tx_time_s", "energy_trs_j"))


class TestGammaSweep:
    def test_dyadic_sweep_scales_exactly(self):
        config = load_scenario(TWO_LINK_MESH)
        sweep = gamma_sweep(config, [1.0, 2.0])
        base, doubled = sweep[0][1], sweep[1][1]
        assert doubled.network.total_energy_j == base.network.total_energy_j / 2.0
        assert doubled.network.total_latency_s == base.network.total_latency_s / 2.0
        assert doubled.network.total_throughput_bps == 2.0 * base.network.total_throughput_bps

    def test_singleton_sweep(self):
        config = load_scenario(MINIMAL)
        sweep = gamma_sweep(config, [1.0])
        assert len(sweep) == 1 and sweep[0][0] == 1.0

    def test_draws_are_shared_across_entries(self):
        config = load_scenario(TWO_LINK_MESH)
        sweep = gamma_sweep(config, [1.0, 1.5, 2.0, 4.0])
        base_metrics = [s.metrics.capacity_bps for s in sweep[0][1].links]
        for _gamma, report in sweep[1:]:
            assert [s.metrics.capacity_bps for s in report.links] == base_metrics

    def test_throughput_proportional_to_gamma(self):
        config = load_scenario(TWO_LINK_MESH)
        sweep = gamma_sweep(config, [1.0, 1.5, 2.0, 4.0])
        base = sweep[0][1].network.total_throughput_bps
        for gamma, report in sweep:
            assert report.network.total_throughput_bps / base == pytest.approx(
                gamma, rel=1e-12
            )

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(load_scenario(MINIMAL), [])

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(load_scenario(MINIMAL), [0.5])


class TestEmitReport:
    def test_csv_shape_for_single_link(self):
        report = run_scenario(load_scenario(MINIMAL))
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("a->b,")
        assert lines[2].startswith("TOTALS,")

    def test_csv_totals_are_column_sums(self):
        report = run_scenario(load_scenario(TWO_LINK_MESH))
        lines = emit_report(report, "csv").splitlines()
        rows = [line.split(",") for line in lines[1:-1]]
        totals = lines[-1].split(",")
        for col in range(1, 9):
            assert float(totals[col]) == pytest.approx(
                math.fsum(float(r[col]) for r in rows), rel=1e-9
            )
        assert int(totals[9]) == sum(int(r[9]) for r in rows)

    def test_csv_floats_round_trip(self):
        report = run_scenario(load_scenario(TWO_LINK_MESH))
        lines = emit_report(report, "csv").splitlines()
        row = lines[1].split(",")
        m = report.links[0].metrics
        assert float(row[1]) == m.capacity_bps
        assert float(row[2]) == m.capacity_trs_bps
        assert float(row[5]) == m.energy_j

    def test_json_round_trip_is_exact(self):
        report = run_scenario(load_scenario(TWO_LINK_MESH))
        tree = json.loads(emit_report(report, "json"))
        for parsed, summary in zip(tree["links"], report.links):
            assert parsed["capacity_bps"] == summary.metrics.capacity_bps
            assert parsed["energy_trs_j"] == summary.metrics.energy_trs_j
            assert parsed["outages"] == summary.outage_count
        assert tree["totals"]["throughput_bps"] == report.network.total_throughput_bps

    def test_optimizer_keys_only_when_present(self):
        plain = json.loads(emit_report(run_scenario(load_scenario(MINIMAL)), "json"))
        assert "optimization" not in plain
        solved = json.loads(emit_report(run_scenario(load_scenario(WITH_OPTIMIZER)), "json"))
        assert "optimization" in solved
        assert solved["optimization"]["solver"] == "simulated_annealing"

    def test_config_echo_includes_defaults(self):
        tree = report_tree(run_scenario(load_scenario(MINIMAL)))
        assert tree["config"]["monte_carlo"] == {"n_samples": 1, "seed": 0}
        assert tree["config"]["topology"]["links"][0]["gamma"] == 1.0

    def test_unknown_format_rejected(self):
        report = run_scenario(load_scenario(MINIMAL))
        with pytest.raises(ValueError):
            emit_report(report, "xml")
