import copy
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.constructor import SafeConstructor

import qwsnsim
from qwsnsim.channel import FadingKind, FadingSpec, LinkBudget, TrsGain, sample_h_squared
from qwsnsim.errors import (
    AllSamplesOutageError,
    ScenarioParseError,
    ScenarioValidationError,
)
from qwsnsim.network import Link, Node
from qwsnsim.scenario import (
    CSV_HEADER,
    _ScenarioLoader,
    emit_report,
    gamma_sweep,
    load_scenario,
    report_tree,
    run_scenario,
    simulate_link,
)

from oracles import gauss_laguerre_ergodic, pivoted_mean

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

# A document that sets every key, and the keys it may leave out.
EVERY_KEY = {
    "topology": {
        "kind": "mesh",
        "nodes": [
            {"id": "a", "tx_power_w": 1.0, "packet_length_bits": 100},
            {"id": "b", "tx_power_w": 1.0, "packet_length_bits": 100},
        ],
        "links": [
            {
                "src": "a",
                "dst": "b",
                "bandwidth_hz": 1.0,
                "signal_power_w": 1.0,
                "noise_power_w": 1.0,
                "interference_power_w": 0.5,
                "fading": {"kind": "rician", "mean_power": 2.0, "k_factor": 3.0},
                "gamma": 2.0,
            }
        ],
    },
    "monte_carlo": {"n_samples": 10, "seed": 5},
    "optimizer": {
        "p_min_w": 0.2,
        "p_max_w": 3.0,
        "r_min_bps": 0.1,
        "latency_max_s": 100.0,
        "weights": {"alpha": 0.5, "beta": 1.0},
        "schedule": {"t_initial": 1.0, "cooling": 0.9, "iterations": 500},
        "fading": {"treatment": "ergodic", "n_samples": 20, "seed": 3},
    },
    "output": {"path": "report.json", "format": "json"},
}

OPTIONAL_KEYS = [
    ("topology", "links"),
    ("topology", "links", 0, "interference_power_w"),
    ("topology", "links", 0, "fading"),
    ("topology", "links", 0, "fading", "mean_power"),
    ("topology", "links", 0, "gamma"),
    ("monte_carlo",),
    ("monte_carlo", "n_samples"),
    ("monte_carlo", "seed"),
    ("optimizer",),
    ("optimizer", "r_min_bps"),
    ("optimizer", "latency_max_s"),
    ("optimizer", "weights"),
    ("optimizer", "weights", "alpha"),
    ("optimizer", "weights", "beta"),
    ("optimizer", "schedule"),
    ("optimizer", "schedule", "t_initial"),
    ("optimizer", "schedule", "cooling"),
    ("optimizer", "schedule", "iterations"),
    ("optimizer", "fading"),
    ("optimizer", "fading", "n_samples"),
    ("optimizer", "fading", "seed"),
    ("output",),
    ("output", "path"),
    ("output", "format"),
]


def _item(tree, path):
    for key in path:
        tree = tree[key]
    return tree


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

    def test_integer_too_big_for_a_float_names_its_path(self):
        bad = MINIMAL.replace("bandwidth_hz: 1.0", "bandwidth_hz: 1" + "0" * 400)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert err.value.path == "topology.links[0].bandwidth_hz"

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(MINIMAL + "monte_carlo: {1: x, zz: y}\n")
        assert err.value.path == "monte_carlo.1"
        assert "unknown key" in str(err.value)

    @pytest.mark.parametrize("path", OPTIONAL_KEYS, ids=lambda path: ".".join(map(str, path)))
    def test_null_means_the_default(self, path):
        nulled, omitted = copy.deepcopy(EVERY_KEY), copy.deepcopy(EVERY_KEY)
        *parents, key = path
        _item(nulled, parents)[key] = None
        del _item(omitted, parents)[key]
        assert load_scenario(json.dumps(nulled)) == load_scenario(json.dumps(omitted))

    def test_bad_optimizer_bounds_rejected_at_load(self):
        bad = WITH_OPTIMIZER.replace("p_max_w: 3.0", "p_max_w: 0.1")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert "optimizer" in str(err.value)


@pytest.fixture
def gc_state():
    """Puts the cyclic collector back as it was before the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestLoadPausesTheCollector:
    CASES = [
        pytest.param(MINIMAL, None, id="loaded"),
        pytest.param("topology: [unclosed", ScenarioParseError, id="malformed"),
        pytest.param(
            MINIMAL.replace("src: a", "src: ghost"), ScenarioValidationError, id="invalid"
        ),
    ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("text, error", CASES)
    def test_collector_left_as_found(self, gc_state, monkeypatch, enabled, text, error):
        (gc.enable if enabled else gc.disable)()
        during = []
        load = yaml.load

        def recording_load(*args, **kwargs):
            during.append(gc.isenabled())
            return load(*args, **kwargs)

        monkeypatch.setattr("qwsnsim.scenario.yaml.load", recording_load)
        if error is None:
            load_scenario(text)
        else:
            with pytest.raises(error):
                load_scenario(text)
        assert during == [False]
        assert gc.isenabled() is enabled


class _PyYamlBuilt(_ScenarioLoader):
    """The scenario loader with PyYAML's own document constructor. It keeps
    the loader's ``construct_object``, so a scalar a converter cannot read is
    the same ``ConstructorError``, at the same mark, on both sides."""

    construct_document = SafeConstructor.construct_document


def _shape(data):
    """``data`` as a flat token list. Unlike ``repr`` it records which
    containers are shared, and it walks any depth without recursion."""
    seen, tokens, stack = {}, [], [data]
    while stack:
        item = stack.pop()
        if not isinstance(item, (dict, list, tuple)):
            tokens.append((type(item).__name__, repr(item)))
        elif id(item) in seen:
            tokens.append(("alias", seen[id(item)]))
        else:
            seen[id(item)] = len(seen)
            tokens.append((type(item).__name__, len(item)))
            if isinstance(item, dict):
                item = [x for pair in item.items() for x in pair]
            stack.extend(reversed(item))
    return tokens


def _outcome(loader, text):
    try:
        return _shape(yaml.load(text, Loader=loader))
    except Exception as exc:
        return type(exc), str(exc)


# Plain nodes, which the scenario loader builds itself (``!!int x`` and
# ``!!bool maybe`` raise in PyYAML's converters), and tagged ones, which send
# the whole document to PyYAML's constructor. One draw in ten is tagged.
_SCALARS = [
    "1", "-2", "0x1f", "017", "1_000", "190:20:30", "1.5", "2.0e6", "-.inf", ".nan",
    "true", "no", "null", "~", "abc", '"q"', "''", "!!str 1", "!!int 7", "!!float 1",
    "!!bool yes", "!!null ''", "!!int x", "!!int y", "!!bool maybe",
]
_TAGGED_SCALARS = [
    "=", "<<", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "!!binary aGVsbG8=", "!foo bar"
]
_KEYS = ["a", "b", "1", "1.0", "true", "null", "=", "!!str <<"]
_TAGS = {"seq": ["", "!!seq "], "map": ["", "!!map "]}
_OTHER_TAGS = ["!!set ", "!!omap ", "!!str ", "!foo "]


@st.composite
def yaml_documents(draw, depth=3):
    """Flow-style YAML with anchors, aliases (recursive ones too), merge
    keys, explicit tags and container keys."""
    anchors = []

    def pick(plain, tagged):
        return draw(st.sampled_from(tagged if draw(st.integers(0, 9)) == 0 else plain))

    def node(depth):
        kind = draw(st.sampled_from(["scalar", "alias", "seq", "map"][: 4 if depth else 2]))
        if kind == "alias" and anchors:
            return f"*{draw(st.sampled_from(anchors))} "  # a colon may follow
        if kind in ("scalar", "alias"):
            return pick(_SCALARS, _TAGGED_SCALARS)
        prefix = pick(_TAGS[kind], _OTHER_TAGS)
        if draw(st.booleans()):
            anchors.append(f"a{len(anchors)}")  # before the children: they may refer to it
            prefix += f"&{anchors[-1]} "
        items = []
        for _ in range(draw(st.integers(0, 3))):
            if kind == "seq":
                items.append(node(depth - 1))
            elif draw(st.integers(0, 5)) == 0:
                merged = [node(depth - 1) for _ in range(draw(st.integers(1, 2)))]
                items.append("<<: " + (merged[0] if len(merged) == 1 else f"[{', '.join(merged)}]"))
            else:
                if draw(st.integers(0, 5)):
                    key = draw(st.sampled_from(_KEYS))
                else:
                    key = node(depth - 1)  # a list or mapping here is unhashable
                items.append(f"{key}: {node(depth - 1)}")
        brackets = "[]" if kind == "seq" else "{}"
        return f"{prefix}{brackets[0]}{', '.join(items)}{brackets[1]}"

    return node(depth)


_PYTHON_COMPOSER_RECURSES = "without libyaml, PyYAML composes one Python frame per nesting level"


class TestDocumentConstruction:
    """``_ScenarioLoader.construct_document`` against PyYAML's own."""

    @settings(max_examples=400, deadline=None)
    @given(yaml_documents())
    def test_same_document_or_error_as_pyyaml(self, text):
        assert _outcome(_ScenarioLoader, text) == _outcome(_PyYamlBuilt, text)

    @pytest.mark.parametrize(
        "text",
        [
            "&a [*a]",
            "&a {x: *a}",
            "{a: &x [1], b: *x, c: *x}",
            "{<<: {a: 1, b: 2}, b: 3}",
            "{<<: [{a: 1}, {a: 2, c: 3}], =: 4}",
            "{<<: 1}",
            "{[1]: 2, <<: 1}",
            "{{a: 1}: 2}",
            "{a: 1, a: 2}",
            "[!!int x, !!bool maybe]",
            "{a: [!!int x], b: !!set {c}}",
            "[[!!int x], [[!!int y]]]",
            "!!str {=: x}",
        ],
    )
    def test_edge_cases_match_pyyaml(self, text):
        assert _outcome(_ScenarioLoader, text) == _outcome(_PyYamlBuilt, text)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason=_PYTHON_COMPOSER_RECURSES)
    @pytest.mark.parametrize(
        "text",
        ["[" * 20000 + "]" * 20000, "{a: " * 2000 + "1" + "}" * 2000],
        ids=["list-20000", "map-2000"],
    )
    def test_nesting_deeper_than_the_recursion_limit(self, text):
        built = _outcome(_ScenarioLoader, text)
        assert isinstance(built, list)
        assert built == _outcome(_PyYamlBuilt, text)

    def test_aliases_share_one_object(self):
        doc = yaml.load("{a: &x {k: [1]}, b: *x, c: &y [*y]}", Loader=_ScenarioLoader)
        assert doc["a"] is doc["b"]
        assert doc["c"][0] is doc["c"]

    def test_only_tagged_documents_reach_pyyaml(self, monkeypatch):
        calls = []
        build = SafeConstructor.construct_document

        def recording(self, root):
            calls.append(root.tag)
            return build(self, root)

        monkeypatch.setattr(SafeConstructor, "construct_document", recording)
        explicit = RAYLEIGH.replace("seed: 314", "seed: !!int 314")
        assert load_scenario(explicit) == load_scenario(RAYLEIGH)
        assert calls == []
        assert yaml.load("{a: [!!set {b}]}", Loader=_ScenarioLoader) == {"a": [{"b"}]}
        assert calls == ["tag:yaml.org,2002:map"]


def _mesh_text(n_links):
    nodes = "".join(
        f"    - {{id: n{i}, tx_power_w: 1.5, packet_length_bits: 1000}}\n" for i in range(n_links)
    )
    links = "".join(
        f"    - {{src: n{i}, dst: n{(i + 1) % n_links}, bandwidth_hz: 1.0e6,"
        f" signal_power_w: 1.0e-6, noise_power_w: 1.0e-9, fading: {{kind: rayleigh}}}}\n"
        for i in range(n_links)
    )
    return f"topology:\n  kind: mesh\n  nodes:\n{nodes}  links:\n{links}"


def test_load_leaves_no_cyclic_garbage(gc_state):
    # Garbage in a cycle would keep the node graph alive until the next
    # collection and slow down everything allocated after the load.
    gc.disable()
    gc.collect()
    config = load_scenario(_mesh_text(250))
    assert len(config.topology.links) == 250
    assert gc.collect() == 0


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

    def test_link_draws_are_the_annealers_frozen_draws(self, monkeypatch):
        # Link i draws from PCG64(SeedSequence(seed, spawn_key=(i,))), in the
        # simulation and in the annealer's frozen ergodic draws alike.
        config = load_scenario(
            TWO_LINK_MESH
            + """
optimizer:
  p_min_w: 1.0e-7
  p_max_w: 1.0e-5
  schedule: {iterations: 3}
  fading: {treatment: ergodic, n_samples: 2000, seed: 99}
"""
        )
        draws = {"scenario": [], "optimizer": []}
        for module in draws:
            target = getattr(qwsnsim, module)
            original = target.sample_h_squared

            def record(*args, _original=original, _into=draws[module], **kwargs):
                result = _original(*args, **kwargs)
                _into.append(np.array(result))
                return result

            monkeypatch.setattr(target, "sample_h_squared", record)
        run_scenario(config)
        expected = [
            sample_h_squared(
                link.fading,
                np.random.Generator(np.random.PCG64(np.random.SeedSequence(99, spawn_key=(i,)))),
                size=2000,
            ).tobytes()
            for i, link in enumerate(config.topology.links)
        ]
        assert [d.tobytes() for d in draws["scenario"]] == expected
        assert [d.tobytes() for d in draws["optimizer"]] == expected

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

    @pytest.mark.parametrize(
        "budget, gamma",
        [((1e308, 1.0, 1e-300), 1.0), ((1e308, 1.0, 1.0), 2.0)],
        ids=["capacity", "gamma-times-capacity"],
    )
    def test_capacity_overflow_is_a_value_error(self, budget, gamma):
        node = Node("a", 1.0, 1.0)
        link = Link("a", "b", LinkBudget(*budget), FadingSpec.rayleigh(), TrsGain(gamma))
        with pytest.raises(ValueError, match="capacity overflows: mean TRS capacity is"):
            simulate_link(node, link, np.array([1.0, 2.0]))

    def test_run_names_the_overflowing_link(self):
        # The second link's capacity overflows; the run names its path.
        text = TWO_LINK_MESH.replace("bandwidth_hz: 2.0e6", "bandwidth_hz: 1.0e308")
        assert text != TWO_LINK_MESH
        with pytest.raises(ScenarioValidationError, match="capacity overflows") as excinfo:
            run_scenario(load_scenario(text))
        assert excinfo.value.path == "topology.links[1]"


def _reference_link(node, link, h2):
    """simulate_link's means and outages in its order of operations, with a
    fresh array for every step."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        snr = link.budget.signal_power_w * h2
        snr /= link.budget.noise_power_w + link.budget.interference_power_w
        caps = np.log1p(snr) * link.budget.bandwidth_hz / math.log(2.0)
        tx_times = node.packet_length_bits / caps
        energies = node.tx_power_w * tx_times
        usable = np.isfinite(energies)
        caps, tx_times, energies = caps[usable], tx_times[usable], energies[usable]
        gamma = link.gain.gamma
        scaled = (caps * gamma, tx_times / gamma, energies / gamma)
        means = [pivoted_mean(x) for pair in zip((caps, tx_times, energies), scaled) for x in pair]
    return means, h2.size - caps.size


def _means(metrics):
    names = ("capacity_bps", "capacity_trs_bps", "tx_time_s", "tx_time_trs_s", "energy_j",
             "energy_trs_j")
    return [getattr(metrics, name) for name in names]


WORKSPACE_LINKS = [
    Link("a", "b", LinkBudget(2e6, 1e-6, 4e-9, 1e-9), FadingSpec.rayleigh(), TrsGain(2.0)),
    Link("a", "b", LinkBudget(1e3, 2.0, 1.0, 0.1), FadingSpec.rician(3.0, 1.5), TrsGain(3.7)),
]


class TestSimulateLinkWorkspace:
    NODE = Node("a", 0.7, 1000.0)

    @pytest.mark.parametrize("size", [1, 2, 1000, 80_000])
    @pytest.mark.parametrize("link", WORKSPACE_LINKS, ids=["rayleigh", "rician"])
    def test_work_matches_fresh_arrays_bit_for_bit(self, link, size):
        h2 = sample_h_squared(link.fading, np.random.default_rng(size), size)
        expected = _reference_link(self.NODE, link, h2)
        metrics, outages = simulate_link(self.NODE, link, h2)
        assert (_means(metrics), outages) == expected
        work = np.full((6, size), np.nan)
        assert simulate_link(self.NODE, link, h2, work=work) == (metrics, outages)

    @pytest.mark.parametrize("row", range(6))
    def test_draws_may_alias_any_row(self, row):
        link = WORKSPACE_LINKS[1]
        h2 = sample_h_squared(link.fading, np.random.default_rng(8), 5000)
        expected = simulate_link(self.NODE, link, h2)
        work = np.full((6, h2.size), np.nan)
        work[row] = h2
        assert simulate_link(self.NODE, link, work[row], work=work) == expected

    def test_outage_path_in_the_workspace(self):
        # A zero draw has zero capacity, hence an infinite time: an outage,
        # dropped from every mean through the compressed rows.
        link = WORKSPACE_LINKS[0]
        h2 = sample_h_squared(link.fading, np.random.default_rng(9), 3000)
        h2[::7] = 0.0
        expected = _reference_link(self.NODE, link, h2)
        assert expected[1] == 429
        for row in (None, 0, 3, 5):
            work = np.full((6, h2.size), np.nan)
            draws = h2
            if row is not None:
                work[row] = h2
                draws = work[row]
            metrics, outages = simulate_link(self.NODE, link, draws, work=work)
            assert (_means(metrics), outages) == expected

    def test_work_of_the_wrong_shape_rejected(self):
        link = WORKSPACE_LINKS[0]
        for shape in ((4, 10), (6, 9), (3, 10), (6, 10, 1)):
            with pytest.raises(ValueError, match="work must have shape"):
                simulate_link(self.NODE, link, np.ones(10), work=np.empty(shape))
        for work in (np.empty((6, 10), order="F"), np.empty((6, 20))[:, ::2]):
            with pytest.raises(ValueError, match="C-contiguous"):
                simulate_link(self.NODE, link, np.ones(10), work=work)


# Row lengths around numpy's 8192-element buffer, its 128-element pairwise
# blocks and its 8-way unrolling, and magnitudes from near the bottom to near
# the top of the float range.
_ROW_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 16385, 80_000, 100_003]
_ROW_SCALES = [1e-300, 1e-10, 1.0, 1e10, 1e300]


@pytest.mark.parametrize("n", _ROW_SIZES)
def test_stacked_row_sums_equal_one_dimensional_sums(n):
    # simulate_link reduces its six rows in one np.add.reduce along axis 1;
    # its means equal stable_mean's only while that sums every row as the
    # 1-D np.sum does, which depends on numpy's reduction loops.
    rng = np.random.default_rng(n)
    for scale in _ROW_SCALES:
        rows = rng.standard_normal((6, n)) * scale
        rows[3:] = rng.exponential(scale, (3, n))
        assert rows.flags.c_contiguous
        stacked = np.add.reduce(rows, axis=1)
        for row, total in zip(rows, stacked):
            assert np.sum(row).tobytes() == total.tobytes(), (n, scale)


_FAULTS_SCRIPT = """
import json, resource
from qwsnsim.scenario import load_scenario, run_scenario

def chain(links):
    fading = ({"kind": "rician", "k_factor": 3.0}, {"kind": "rayleigh"})
    nodes = [{"id": f"n{i}", "tx_power_w": 1.0, "packet_length_bits": 1000} for i in range(links + 1)]
    edges = [
        {"src": f"n{i}", "dst": f"n{i + 1}", "bandwidth_hz": 1e6, "signal_power_w": 1e-6,
         "noise_power_w": 1e-9, "gamma": 2.0, "fading": fading[i % 2]}
        for i in range(links)
    ]
    return load_scenario(json.dumps({
        "topology": {"kind": "chain", "nodes": nodes, "links": edges},
        "monte_carlo": {"n_samples": 80000, "seed": 5},
    }))

def faults(config):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(config)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

short, long = chain(2), chain(16)
for _ in range(2):
    run_scenario(short)
    run_scenario(long)
print(faults(short), faults(long))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_links_reuse_the_workspace_pages():
    # A fresh process, so the allocator's thresholds are not those left by
    # earlier tests. Fresh per-link arrays fault in about 600 pages a link
    # at 80k samples; reused rows fault in none.
    env = {**os.environ, "PYTHONPATH": str(Path(qwsnsim.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    short, long = map(int, done.stdout.split())
    assert (long - short) / 14 < 16, (short, long)


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
