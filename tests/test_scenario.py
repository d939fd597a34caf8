import copy
import dataclasses
import gc
import json
import math
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

import qwsnsim
from qwsnsim.channel import (
    MAX_SAMPLES,
    FadingDraw,
    FadingKind,
    FadingSpec,
    LinkBudget,
    TrsGain,
    link_rng,
    sample_h_squared,
)
from qwsnsim.cli import main
from qwsnsim.errors import (
    AllSamplesOutageError,
    ScenarioParseError,
    ScenarioValidationError,
)
from qwsnsim.network import Link, Node
from qwsnsim.optimizer import ErgodicMean, PowerProblem
from qwsnsim.scenario import (
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    _CONVERTER_ERRORS,
    MAX_FLOW_DEPTH,
    ScenarioConfig,
    _EventLoader,
    _malformed,
    _ScenarioLoader,
    dump_json,
    emit_report,
    emit_sweep,
    gamma_sweep,
    link_metrics,
    load_scenario,
    report_tree,
    run_scenario,
    simulate_link,
)

from oracles import (
    capacity_reference,
    decimal_capacity,
    gauss_laguerre_ergodic,
    mgf_ergodic,
    pivoted_mean,
    rayleigh_ergodic,
)

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

# Appended to a fixture with no output section: its reports render as JSON.
JSON_OUTPUT = "output: {format: json}\n"

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

# Hop a-b carries 2 * log2(4) = 4 bit/s with TRS, hop b-c 3 * log2(2) = 3.
TWO_HOP_CHAIN = """
topology:
  kind: chain
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: c, tx_power_w: 1.0, packet_length_bits: 100}
  links:
    - {src: a, dst: b, bandwidth_hz: 1.0, signal_power_w: 3.0, noise_power_w: 1.0, gamma: 2.0}
    - {src: b, dst: c, bandwidth_hz: 1.0, signal_power_w: 1.0, noise_power_w: 1.0, gamma: 3.0}
"""

STAR = """
topology:
  kind: star
  nodes:
    - {id: hub, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
  links:
    - {src: hub, dst: a, bandwidth_hz: 1.0, signal_power_w: 3.0, noise_power_w: 1.0}
    - {src: b, dst: hub, bandwidth_hz: 1.0, signal_power_w: 1.0, noise_power_w: 1.0}
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

    @pytest.mark.parametrize("key", ["n_samples", "seed"])
    def test_deterministic_treatment_refuses_ergodic_keys(self, key):
        bad = WITH_OPTIMIZER + f"  fading: {{treatment: deterministic, {key}: 0}}\n"
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert str(err.value) == f"optimizer.fading: {key} is only valid for the ergodic treatment"


# Out-of-range run parameters, and the document path each error names.
_BAD_RUN_PARAMETERS = [
    ("n_samples", 0, "monte_carlo.n_samples"),
    ("n_samples", -1, "monte_carlo.n_samples"),
    ("n_samples", MAX_SAMPLES + 1, "monte_carlo.n_samples"),
    ("seed", -1, "monte_carlo.seed"),
    ("seed", 2**64, "monte_carlo.seed"),
]


class TestConfigRules:
    """ScenarioConfig refuses bad run parameters however it is built, with
    the loader's error."""

    @pytest.mark.parametrize("field, value, path", _BAD_RUN_PARAMETERS)
    def test_out_of_range_run_parameter_names_its_field(self, field, value, path):
        with pytest.raises(ScenarioValidationError) as loaded:
            load_scenario(MINIMAL + f"monte_carlo: {{{field}: {value}}}\n")
        config = load_scenario(MINIMAL)
        with pytest.raises(ScenarioValidationError) as built:
            ScenarioConfig(config.topology, **{field: value})
        with pytest.raises(ScenarioValidationError) as replaced:
            dataclasses.replace(config, **{field: value})
        assert loaded.value.path == built.value.path == replaced.value.path == path
        assert str(loaded.value) == str(built.value) == str(replaced.value)

    @pytest.mark.parametrize(
        "field, value, document",
        [("n_samples", 1.5, "1.5"), ("seed", 1.5, "1.5"), ("n_samples", True, "true")],
    )
    def test_non_integer_run_parameter_gets_the_loaders_error(self, field, value, document):
        with pytest.raises(ScenarioValidationError) as loaded:
            load_scenario(MINIMAL + f"monte_carlo: {{{field}: {document}}}\n")
        config = load_scenario(MINIMAL)
        with pytest.raises(ScenarioValidationError) as replaced:
            run_scenario(dataclasses.replace(config, **{field: value}))
        assert str(replaced.value) == f"monte_carlo.{field}: expected an integer, got {value}"
        assert str(loaded.value) == str(replaced.value)

    @pytest.mark.parametrize(
        "field, value, path, problem",
        [
            ("output_format", "xml", "output.format", "expected one of csv/json, got 'xml'"),
            ("output_path", 5, "output.path", "expected a string, got 5"),
        ],
    )
    def test_bad_output_field_gets_the_loaders_error(self, field, value, path, problem):
        key = field.removeprefix("output_")
        with pytest.raises(ScenarioValidationError) as loaded:
            load_scenario(MINIMAL + f"output: {{{key}: {json.dumps(value)}}}\n")
        config = load_scenario(MINIMAL)
        with pytest.raises(ScenarioValidationError) as built:
            ScenarioConfig(config.topology, **{field: value})
        with pytest.raises(ScenarioValidationError) as replaced:
            dataclasses.replace(config, **{field: value})
        assert loaded.value.path == built.value.path == replaced.value.path == path
        assert str(loaded.value) == str(built.value) == str(replaced.value) == f"{path}: {problem}"

    def test_a_format_is_required(self):
        # A document's `format: null` reads as the default; a record has no default to fall to.
        with pytest.raises(ScenarioValidationError) as replaced:
            dataclasses.replace(load_scenario(MINIMAL), output_format=None)
        assert str(replaced.value) == "output.format: expected one of csv/json, got None"
        assert dataclasses.replace(load_scenario(MINIMAL), output_path=None).output_path is None

    def test_the_range_ends_are_accepted(self):
        topology = load_scenario(MINIMAL).topology
        for n_samples, seed in ((1, 0), (MAX_SAMPLES, 2**64 - 1)):
            config = ScenarioConfig(topology, n_samples=n_samples, seed=seed)
            assert (config.n_samples, config.seed) == (n_samples, seed)

    def test_bad_optimizer_section_names_the_optimizer(self):
        config = load_scenario(WITH_OPTIMIZER)
        section = dataclasses.replace(config.optimizer, p_min_w=3.0)
        with pytest.raises(ScenarioValidationError) as built:
            ScenarioConfig(config.topology, optimizer=section)
        with pytest.raises(ScenarioValidationError) as replaced:
            dataclasses.replace(config, optimizer=section)
        assert built.value.path == replaced.value.path == "optimizer"
        assert str(built.value).startswith("optimizer: power bounds must be finite")


@pytest.fixture
def gc_state():
    """Puts the cyclic collector back as it was before the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


# The tags the scenario loader builds, by node kind.
_BUILT_TAGS = {
    ScalarNode: {
        f"tag:yaml.org,2002:{name}"
        for name in ("str", "int", "float", "bool", "null", "timestamp", "binary")
    },
    SequenceNode: {"tag:yaml.org,2002:seq"},
    MappingNode: {"tag:yaml.org,2002:map"},
}
_MERGE_TAG = "tag:yaml.org,2002:merge"


class _PyYamlBuilt(_ScenarioLoader):
    """The scenario loader with PyYAML's own document constructor, which
    builds every tag SafeLoader knows and keeps the last of a repeated key. A
    scalar a converter cannot read is the same ``ConstructorError``, at the
    same mark, as in the scenario loader. ``refusals`` lists, in the order
    PyYAML reached them, the errors the scenario loader adds: a node whose
    tag it does not build, and a mapping that repeats one of its own keys,
    those a ``<<`` merges in aside, the first such mapping in the text once
    PyYAML has built the document. It keeps the loader's ``resolve``:
    ``TestImplicitResolution`` checks that one against PyYAML's."""

    flatten_mapping = SafeConstructor.flatten_mapping

    def __init__(self, stream):
        super().__init__(stream)
        self.refusals = []

    def construct_document(self, node):
        # Each mapping's own keys, read before PyYAML merges into any of them.
        own_keys, seen, stack = {}, set(), [node]
        while stack:
            item = stack.pop()
            if isinstance(item, ScalarNode) or item in seen:
                continue
            seen.add(item)
            if isinstance(item, MappingNode):
                own_keys[item] = [key for key, _ in item.value if key.tag != _MERGE_TAG]
                stack.extend(child for pair in item.value for child in pair)
            else:
                stack.extend(item.value)
        built = self.constructed_objects
        data = SafeConstructor.construct_document(self, node)
        # Then the first mapping in the text that repeats an own key.
        for mapping in sorted(own_keys, key=lambda item: item.start_mark.index):
            keys = [built[key] for key in own_keys[mapping]]
            for index, key in enumerate(keys):
                if key in keys[:index]:
                    self.refusals.append(_repeated(mapping, own_keys[mapping][index], key))
                    return data
        return data

    def construct_object(self, node, deep=False):
        if node.tag not in _BUILT_TAGS[node.__class__]:
            self.refusals.append(_undefined(node))
        # Only scalar converters raise these: a container's children are
        # built by calls of their own.
        try:
            return SafeConstructor.construct_object(self, node, deep)
        except _CONVERTER_ERRORS:
            raise _malformed(node) from None


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


def _outcome(loader):
    """The document ``loader`` reads, as ``_shape`` tokens, or its error."""
    try:
        return _shape(loader.get_single_data())
    except Exception as exc:
        return type(exc), str(exc)
    finally:
        loader.dispose()


def _undefined(node):
    message = f"could not determine a constructor for the tag {node.tag!r}"
    return str(ConstructorError(None, None, message, node.start_mark))


def _repeated(mapping, key_node, key):
    message = f"found duplicate key {key!r}"
    context = "while constructing a mapping"
    return str(ConstructorError(context, mapping.start_mark, message, key_node.start_mark))


def _assert_as_pyyaml(text):
    """The scenario loader builds what PyYAML builds, or raises the error
    PyYAML raises, up to the first node whose tag it does not build or the
    first mapping that repeats an own key. There it raises PyYAML's error for
    an undefined tag, or its own for the repeat."""
    reference = _PyYamlBuilt(text)
    expected = _outcome(reference)
    if reference.refusals:
        expected = ConstructorError, reference.refusals[0]
    assert _outcome(_ScenarioLoader(text)) == expected


# Plain nodes, which the scenario loader builds itself (``!!int x``,
# ``!!bool maybe``, ``!!timestamp x`` and ``!!binary x`` raise in PyYAML's
# converters), and tagged ones, which it does not build. One draw in ten is
# tagged.
_SCALARS = [
    "1", "-2", "0x1f", "017", "1_000", "190:20:30", "1.5", "2.0e6", "-.inf", ".nan",
    "true", "no", "null", "~", "abc", '"q"', "''", "!!str 1", "!!int 7", "!!float 1",
    "!!bool yes", "!!null ''", "!!int x", "!!int y", "!!bool maybe", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "!!timestamp x", "!!binary aGVsbG8=", "!!binary x",
]
_TAGGED_SCALARS = ["=", "<<", "!foo bar", "!!seq x", "!!map x", "!!set x"]
_KEYS = ["a", "b", "1", "1.0", "true", "null", "=", "!!str <<", "2001-12-14"]
_TAGS = {"seq": ["", "!!seq "], "map": ["", "!!map "]}
_OTHER_TAGS = ["!!set ", "!!omap ", "!!pairs ", "!!str ", "!!int ", "!foo "]


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


class TestDocumentConstruction:
    """``_ScenarioLoader``'s tag and converter rules against PyYAML's own
    constructor."""

    @settings(max_examples=400, deadline=None)
    @given(yaml_documents())
    def test_same_document_or_error_as_pyyaml(self, text):
        _assert_as_pyyaml(text)

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
            "{a: [1, 2], b: {1: x, 1.0: y, true: z}}",
            "{<<: {a: 1, a: 2}, b: {b: 1, <<: {b: 2}, b: 3}}",
            "{<<: {a: 1, a: 2}}",  # a mapping that is only merged in, never built
            "{<<: [{b: 1}, {<<: {a: 1, a: 2}}], b: {b: 1, b: 2}}",
            "{<<: [&s {a: 1}, *s], c: {<<: *s}}",  # one mapping merged three times
            "{p: {q: &c {<<: {y: 1}, y: 2}}, r: {<<: *c}}",  # r flattens c before c is built
            "[!!int x, !!bool maybe]",
            "[[!!int x], [[!!int y]]]",
            "[2001-12-14, 2001-12-14 21:59:43.10 -5, !!binary aGVsbG8=, {2001-12-14: x}]",
            # Tags the scenario loader does not build.
            "{a: [!!int x], b: !!set {c}}",
            "{a: x, b: !!omap [c: 1]}",
            "[!!pairs [c: 1]]",
            "{a: !foo [x]}",
            "[!!str {a: 1}]",
            "!!str {=: x}",
            "[!!seq x]",
            "[=]",
            "{<<: {a: !!set {x}}, a: 1}",  # PyYAML built the set, then replaced it
        ],
    )
    def test_edge_cases_match_pyyaml(self, text):
        _assert_as_pyyaml(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * MAX_FLOW_DEPTH + "]" * MAX_FLOW_DEPTH,
            "{a: " * MAX_FLOW_DEPTH + "1" + "}" * MAX_FLOW_DEPTH,
        ],
        ids=["list", "map"],
    )
    def test_nesting_at_the_limit(self, text):
        built = _outcome(_ScenarioLoader(text))
        assert isinstance(built, list)
        assert built == _outcome(_PyYamlBuilt(text))

    def test_aliases_share_one_object(self):
        doc = yaml.load("{a: &x {k: [1]}, b: *x, c: &y [*y]}", Loader=_ScenarioLoader)
        assert doc["a"] is doc["b"]
        assert doc["c"][0] is doc["c"]


def _loader_of_load_scenario():
    """The loader class ``load_scenario`` passes to ``yaml.load``."""
    loaders = []
    load = yaml.load

    def recording(text, Loader):
        loaders.append(Loader)
        return load(text, Loader=Loader)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("qwsnsim.scenario.yaml.load", recording)
        load_scenario(MINIMAL)
    (loader,) = loaders
    return loader


def _outcome_and_reparses(loader_class, text):
    """``_outcome`` of ``loader_class`` on ``text``, and how many times a
    composing ``_ScenarioLoader`` parsed it again inside that load."""
    reparses = []
    get_single_data = _ScenarioLoader.get_single_data

    def recording(self):
        reparses.append(self)
        return get_single_data(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ScenarioLoader, "get_single_data", recording)
        outcome = _outcome(loader_class(text))
    return outcome, len(reparses)


# Scalars and keys the event path builds: no tag but "!", and every converter
# reads them. Of the keys, 1, 1.0 and true are one dict key.
_PLAIN_SCALARS = [s for s in _SCALARS if not s.startswith("!")] + ["! 1", "! x", "'2.0e6'"]
_PLAIN_KEYS = [k for k in _KEYS if k not in ("=", "!!str <<")]
_DICT_KEY = {"1.0": "1", "true": "1"}
# What the event path leaves to the composing loader, one draw in ten. "&"
# stands for an anchor.
_UNBUILT_SCALARS = ["&", "*nowhere ", "<<", "=", "!!str x", "!foo x", "0b_", "!!int x"]
_UNBUILT_KEYS = ["&", "[k]", "{k: v}", "<<", "=", "!!str k"]


@st.composite
def event_documents(draw, triggers, depth=3):
    """Plain flow-style YAML, which the event path builds itself: no tag but
    ``!``, no anchor, alias or merge key, and no key twice in one mapping.
    With ``triggers``, one scalar, key or collection in ten is one it leaves
    to the composing loader: an anchor, an alias (of an anchor before it, or
    of none), a tag or another ``_UNBUILT_*`` form, and one mapping in ten
    gets one more entry, a merge or a repeat of one of its keys."""
    anchors = []

    def unbuilt(choices):
        if not triggers or draw(st.integers(0, 9)):
            return None
        text = draw(st.sampled_from(choices + [f"*{name} " for name in anchors]))
        if text == "&":
            anchors.append(f"a{len(anchors)}")
            return f"&{anchors[-1]} {draw(st.sampled_from(_PLAIN_SCALARS))}"
        return text  # an alias may be a key: a space before its colon

    def node(depth):
        kind = draw(st.sampled_from(["scalar", "seq", "map"][: 3 if depth > 0 else 1]))
        if kind == "scalar":
            return unbuilt(_UNBUILT_SCALARS) or draw(st.sampled_from(_PLAIN_SCALARS))
        prefix = ""
        if triggers and draw(st.integers(0, 9)) == 0:
            prefix = draw(st.sampled_from([f"!!{kind} ", "!foo ", f"&a{len(anchors)} "]))
            if prefix.startswith("&"):
                anchors.append(prefix[1:-1])
        if kind == "seq":
            items = [node(depth - 1) for _ in range(draw(st.integers(0, 3)))]
        else:
            keys = draw(
                st.lists(
                    st.sampled_from(_PLAIN_KEYS),
                    max_size=3,
                    unique_by=lambda key: _DICT_KEY.get(key, key),
                )
            )
            items = [f"{unbuilt(_UNBUILT_KEYS) or key}: {node(depth - 1)}" for key in keys]
            extra = unbuilt(["<<", *keys])
            if extra:
                items.insert(draw(st.integers(0, len(items))), f"{extra}: {node(depth - 1)}")
        brackets = "[]" if kind == "seq" else "{}"
        return f"{prefix}{brackets[0]}{', '.join(items)}{brackets[1]}"

    return node(depth)


def _anchored_mesh_text(n_links):
    """``_mesh_text`` written as the README suggests: each node and link
    merges the settings of the first."""
    nodes = "    - &node {id: n0, tx_power_w: 1.5, packet_length_bits: 1000}\n" + "".join(
        f"    - {{<<: *node, id: n{i}}}\n" for i in range(1, n_links)
    )
    links = (
        "    - &link {src: n0, dst: n1, bandwidth_hz: 1.0e6, signal_power_w: 1.0e-6,"
        " noise_power_w: 1.0e-9, fading: {kind: rayleigh}}\n"
    ) + "".join(
        f"    - {{<<: *link, src: n{i}, dst: n{(i + 1) % n_links}}}\n" for i in range(1, n_links)
    )
    return f"topology:\n  kind: mesh\n  nodes:\n{nodes}  links:\n{links}"


def _merging_copy(text):
    """The scenario ``text`` written as the README suggests: every node and
    link after the first merges the first one's settings, and reads null,
    the default, for a key the first has and it lacks."""
    lines = []
    for key, value in yaml.load(text, Loader=_ScenarioLoader).items():
        if key != "topology":
            lines.append(f"{key}: {json.dumps(value)}")
            continue
        lines.append("topology:")
        for field, entries in value.items():
            if field not in ("nodes", "links"):
                lines.append(f"  {field}: {json.dumps(entries)}")
                continue
            first, *rest = entries
            lines += [f"  {field}:", f"    - &{field[:-1]} {json.dumps(first)}"]
            for entry in rest:
                own = {k: entry.get(k) for k in {**first, **entry} if entry.get(k) != first.get(k)}
                lines.append(f"    - {{<<: *{field[:-1]}, {json.dumps(own)[1:]}")
    return "\n".join(lines) + "\n"


class TestEventPath:
    """``load_scenario``'s loader builds plain documents from the parser's
    events and leaves anchors, aliases, merge keys, tags, repeated keys and
    failing documents to ``_ScenarioLoader``."""

    def test_load_scenario_uses_the_event_loader(self):
        assert _loader_of_load_scenario() is _EventLoader

    @settings(max_examples=300, deadline=None)
    @given(yaml_documents())
    def test_same_outcome_as_the_composing_loader(self, text):
        assert _outcome(_EventLoader(text)) == _outcome(_ScenarioLoader(text))

    @settings(max_examples=300, deadline=None)
    @given(event_documents(triggers=True))
    def test_same_outcome_on_mostly_untagged_documents(self, text):
        assert _outcome(_EventLoader(text)) == _outcome(_ScenarioLoader(text))

    @settings(max_examples=300, deadline=None)
    @given(event_documents(triggers=False))
    def test_untagged_documents_are_parsed_once(self, text):
        assert _outcome_and_reparses(_EventLoader, text) == (_outcome(_ScenarioLoader(text)), 0)

    @pytest.mark.parametrize(
        "text",
        [
            "[!!str 1]",
            "[!foo x]",
            "!!map {a: 1}",
            "{[1]: 2}",
            "{{a: 1}: 2}",
            "[&l [1], {*l : 2}]",
            "[*x]",
            "[&a 1, &a 2]",
            "{&m <<: {a: 1}}",
            "{&v =: 1}",
            "[<<]",
            "{a: =}",
            "&m {<<: *m}",
            "&l [{<<: *l}]",
            "&m {a: &l [*m], <<: *l}",
            "{<<: 1}",
            "{<<: [{a: 1}, 1]}",
            "{a: 0b_}",
            "[" * (MAX_FLOW_DEPTH + 2) + "]" * (MAX_FLOW_DEPTH + 2),
            "topology: [unclosed",
            "a: b: c",
            "a: 1\n---\nb: 2",
            "",
            "# only a comment",
            "{a: &x 1, b: *x, *x : 2}",
            "[&x [1], *x]",
            "&a [*a, {b: *a}]",
            "{<<: {a: 1, b: 2}, b: 3}",
            "{a: 1, <<: {a: 2, b: 3}}",
            "[&a {x: 1}, &b {x: 2, y: 2}, {<<: [*a, *b]}]",
            "[&a {x: 1}, &b {x: 2, y: 2}, &l [*a, *b], {<<: *l}]",
            "[&a {x: 1}, &b {<<: *a, y: 2}, {<<: *b, z: 3}]",
            "{<<: {a: 1}, <<: {a: 2, b: 2}}",
            "{<<: [], <<: {}, a: 1}",
            "[&a {1: x}, {<<: *a, true: y}]",
            "&m {x: &c {y: *m}, <<: *c}",
            "{=: 1, <<: {=: 2, a: 3}}",
            "[&k '<<', {*k : 1}]",
            "{a: 1, b: 2, a: 3}",
            "[{1: x, true: y}]",
            "{<<: {a: 1, a: 2}}",
        ],
        ids=[
            "core-tag", "local-tag", "collection-tag", "list-key", "mapping-key",
            "alias-to-collection-key", "undefined-alias", "repeated-anchor",
            "anchored-merge-key", "anchored-value-key", "merge-key-as-value",
            "value-key-as-value", "merge-of-open-mapping", "merge-of-open-list",
            "merge-of-list-holding-open-mapping", "merge-of-scalar",
            "merge-of-list-holding-scalar", "refused-scalar", "too-deep",
            "scanner-error", "parser-error", "second-document", "empty-stream",
            "comment-only", "scalar-alias", "list-alias", "recursive-alias",
            "merge-own-wins", "merge-before-own", "merge-list-earlier-wins",
            "merge-aliased-list", "nested-merge", "two-merge-keys", "empty-merges",
            "equal-keys", "merge-of-mapping-holding-open-one", "value-key",
            "quoted-merge-key", "repeated-key", "repeated-equal-key",
            "repeated-key-in-merged-mapping",
        ],
    )
    def test_each_fallback_is_one_reparse_with_the_same_outcome(self, text):
        assert _outcome_and_reparses(_EventLoader, text) == (_outcome(_ScenarioLoader(text)), 1)

    @pytest.mark.parametrize(
        "name",
        [
            "example_chain.yaml",
            "example_optimize.yaml",
            "json-chain",
            "yaml-mesh-400",
        ],
    )
    def test_scenarios_are_parsed_once(self, name):
        if name == "json-chain":
            text = json.dumps({**EVERY_KEY, "topology": {**EVERY_KEY["topology"], "kind": "chain"}})
        elif name == "yaml-mesh-400":
            text = _mesh_text(400)
        else:
            text = (Path(__file__).parents[1] / "configs" / name).read_text()
        outcome, reparses = _outcome_and_reparses(_EventLoader, text)
        assert reparses == 0
        assert outcome == _outcome(_ScenarioLoader(text))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("qwsnsim.scenario._EventLoader", _ScenarioLoader)
            composed = load_scenario(text)
        assert load_scenario(text) == composed

    def test_the_readme_form_is_one_reparse(self):
        text = _anchored_mesh_text(400)
        assert _outcome_and_reparses(_EventLoader, text) == (_outcome(_ScenarioLoader(text)), 1)
        assert load_scenario(text) == load_scenario(_mesh_text(400))

    @pytest.mark.parametrize("name", ["example_chain.yaml", "example_optimize.yaml"])
    def test_tagged_scenarios_take_the_composing_loader(self, name, tmp_path, capsys):
        # Tags, or the README's merge keys, send the whole document to
        # PyYAML's composer and constructor, which must read the same
        # scenario as the event path.
        text = (Path(__file__).parents[1] / "configs" / name).read_text()
        tagged = text.replace("bandwidth_hz: ", "bandwidth_hz: !!float ")
        tagged = tagged.replace("n_samples: ", "n_samples: !!int ")
        assert tagged.count("!!") == 3
        assert _outcome_and_reparses(_EventLoader, tagged) == (_outcome(_EventLoader(text)), 1)
        # The merging copy reads null where a default was left out, so only
        # the scenario it reads is the same.
        merging = _merging_copy(text)
        assert merging.count("<<: *") == 2 + (name == "example_chain.yaml")
        assert _outcome_and_reparses(_EventLoader, merging)[1] == 1
        reports = []
        for document in (tagged, merging, text):
            assert load_scenario(document) == load_scenario(text)
            path = tmp_path / name
            path.write_text(document)
            assert main(["simulate", "--config", str(path), "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] == reports[2]


# Pieces of plain scalars that the implicit resolvers tell apart: digits,
# signs, float and sexagesimal punctuation, the bool and null words, merge and
# value keys, and spaces.
_SCALAR_PIECES = list("0123456789+-.eE_: <=~") + [
    "yes", "No", "TRUE", "off", "On", "y", "n", "null", "Null", "NULL", "inf", "NaN", "x"
]
_IMPLICIT = [(True, False), (False, True), (False, False)]


class TestImplicitResolution:
    """``_ScenarioLoader.resolve``, which keeps each plain scalar's tag for the
    rest of the document, against PyYAML's ``resolve`` on the same class."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(_SCALAR_PIECES), max_size=6).map("".join),
                st.permutations(_IMPLICIT),
            ),
            max_size=20,
        )
    )
    def test_memo_equals_pyyaml(self, cases):
        loader = _ScenarioLoader("")
        # Twice over, so the second pass reads the memo.
        for value, flags in cases + cases:
            for implicit in flags:
                expected = yaml.resolver.BaseResolver.resolve(loader, ScalarNode, value, implicit)
                assert loader.resolve(ScalarNode, value, implicit) == expected, (value, implicit)

    def test_containers_take_pyyaml_tags(self):
        loader = _ScenarioLoader("")
        for kind in (SequenceNode, MappingNode):
            for implicit in (True, False):
                expected = yaml.resolver.BaseResolver.resolve(loader, kind, None, implicit)
                assert loader.resolve(kind, None, implicit) == expected

    def test_each_load_starts_with_an_empty_memo(self, monkeypatch):
        memos = []
        init = _ScenarioLoader.__init__

        def recording(self, stream):
            init(self, stream)
            memos.append((self._implicit_tags, len(self._implicit_tags)))

        monkeypatch.setattr(_ScenarioLoader, "__init__", recording)
        assert load_scenario(MINIMAL) == load_scenario(MINIMAL)
        (first, first_size), (second, second_size) = memos
        assert first_size == second_size == 0
        assert first is not second
        assert first["a"] == "tag:yaml.org,2002:str"  # the first load filled its own


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _via_loader(text: str):
    """``text`` as a scalar the event path resolved as a float, read by it."""
    return _EventLoader("").construct_plain_scalar(_FLOAT_TAG, text, None)


def _via_converter(text: str):
    loader = _ScenarioLoader("")
    return SafeConstructor.construct_yaml_float(loader, ScalarNode(_FLOAT_TAG, text))


_FLOAT_TAG = "tag:yaml.org,2002:float"
# Floats that ``float()`` refuses or reads as inf or nan, which PyYAML's
# converter reads its own way.
_CONVERTER_FLOATS = [
    ".inf", "-.inf", "+.Inf", ".nan", ".NaN", "1:30", "-1:30.5", "1__0", "_1", "1_", "-_1",
    "- 1", "-+1", "1e400", "-1e400", "inf", "nan", "1._5",
]


class TestFloatPath:
    """The event path reads a finite float with ``float()``, and leaves the
    rest to ``SafeConstructor.construct_yaml_float``; both must agree bit for
    bit."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False).map(repr),
            st.lists(st.sampled_from(list("0123456789+-.eE_: ") + ["١", "１"]), max_size=12).map(
                "".join
            ),
        )
    )
    def test_equals_the_converter_bit_for_bit(self, text):
        try:
            expected = _float_bits(_via_converter(text))
        except (LookupError, ValueError):
            with pytest.raises(_CONVERTER_ERRORS):
                _via_loader(text)
        else:
            assert _float_bits(_via_loader(text)) == expected

    @pytest.mark.parametrize("text", ["-0.0", "0.0", "-0e0", "1_000.5", "2.0e6", "5e-324", "1e308"])
    def test_signed_zero_and_extremes(self, text):
        assert _float_bits(_via_loader(text)) == _float_bits(_via_converter(text))

    def test_only_what_float_cannot_read_reaches_the_converter(self, monkeypatch):
        seen = []
        convert = SafeConstructor.construct_yaml_float

        def recording(loader, node):
            seen.append(node.value)
            return convert(loader, node)

        monkeypatch.setitem(_ScenarioLoader.yaml_constructors, _FLOAT_TAG, recording)
        plain = ["1.5", "-0.0", "2.0e6", "1_000.5", "17", "-3e-7"]
        for text in plain + _CONVERTER_FLOATS:
            _via_loader(text)
        assert seen == _CONVERTER_FLOATS

    def test_ints_stay_on_the_converter(self):
        # YAML 1.1 reads a leading zero as octal.
        assert yaml.load("[017, 0x1f, 1_000, 190:20:30]", Loader=_EventLoader) == [
            15, 31, 1000, 685230
        ]


# Each nests past the limit, or would if its brackets all counted.
_DEEP_DOCUMENTS = {
    "list": "topology: " + "[" * 20000 + "]" * 20000,
    "map": "topology: " + "{a: " * 20000 + "1" + "}" * 20000,
    "unclosed": "topology: " + "[" * 20000,
    "mismatched": "topology: " + "[" * 20000 + "}" * 20000,
    "closers-first": "# " + "]" * 20000 + "\ntopology: " + "[" * 20000 + "]" * 20000,
    "block-list": "topology:\n  " + "- " * 30000 + "a\n",
    "block-map": "topology:\n" + "".join(" " * i + "a:\n" for i in range(1, 3000)),
    # A quoted "]" and a commented one close nothing.
    "quoted-closers": "topology: " + '[ "]", ' * 10000 + "]" * 10000,
    "commented-closers": "topology: " + "[ # ]\n" * 10000 + "]" * 10000,
}

# The documents that open flow collections past the limit.
_DEEP_FLOW_DOCUMENTS = {
    name: text for name, text in _DEEP_DOCUMENTS.items() if not name.startswith("block-")
}

# Prints how long load_scenario takes to refuse each document of the JSON
# file argv[1], and its message, with libyaml hidden: PyYAML's pure-Python
# scanner and composer run.
_PURE_PYTHON_LOAD = """
import json, sys, time
import yaml
del yaml.CSafeLoader
from qwsnsim.scenario import load_scenario
refused = {}
for name, text in json.load(open(sys.argv[1])).items():
    start = time.perf_counter()
    try:
        load_scenario(text)
    except Exception as exc:
        refused[name] = [time.perf_counter() - start, str(exc)]
print(json.dumps(refused))
"""


def _refused_without_libyaml(tmp_path, documents: dict) -> dict:
    """Name -> [seconds, message] of each document load_scenario refuses,
    in a fresh process without libyaml."""
    path = tmp_path / "documents.json"
    path.write_text(json.dumps(documents))
    env = {**os.environ, "PYTHONPATH": str(Path(qwsnsim.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _PURE_PYTHON_LOAD, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestFlowDepth:
    """A node under more than MAX_FLOW_DEPTH collections, block or flow, stops
    the composer: both recurse once per level, and libyaml's time per token
    grows with the number of open flow levels. PyYAML's pure-Python scanner
    walks every open flow level on every token, so it stops past the limit
    too."""

    @pytest.mark.parametrize("text", _DEEP_DOCUMENTS.values(), ids=_DEEP_DOCUMENTS.keys())
    def test_deep_documents_are_refused_quickly(self, text):
        start = time.perf_counter()
        with pytest.raises(ScenarioParseError, match=f"deeper than {MAX_FLOW_DEPTH} levels"):
            load_scenario(text)
        assert time.perf_counter() - start < 0.1

    def test_flow_refused_quickly_without_libyaml_in_a_fresh_process(self, tmp_path):
        # The pure-Python scanner took 0.4 s to scan 20000 open "[" before the
        # composer saw the depth.
        refused = _refused_without_libyaml(tmp_path, _DEEP_FLOW_DOCUMENTS)
        assert refused.keys() == _DEEP_FLOW_DOCUMENTS.keys()
        for name, (seconds, message) in refused.items():
            assert f"deeper than {MAX_FLOW_DEPTH} levels" in message, (name, message)
            assert seconds < 0.1, (name, seconds)

    def test_scanner_stops_at_the_first_bracket_past_the_limit(self, tmp_path):
        # The composer alone would name the bracket before it, the parent of
        # the node too deep.
        levels = {"at": MAX_FLOW_DEPTH + 1, "past": MAX_FLOW_DEPTH + 2}
        refused = _refused_without_libyaml(
            tmp_path, {name: "[" * n + "]" * n for name, n in levels.items()}
        )
        assert refused["at"][1] == "<root>: expected a mapping, got list"
        assert f"line 1, column {MAX_FLOW_DEPTH + 2}:" in refused["past"][1], refused["past"]

    def test_limit_is_inclusive(self):
        text = "topology: " + "[" * MAX_FLOW_DEPTH + "]" * MAX_FLOW_DEPTH
        with pytest.raises(ScenarioValidationError, match="expected a mapping, got list"):
            load_scenario(text)
        with pytest.raises(ScenarioParseError, match="deeper than"):
            load_scenario("topology: [" + text[len("topology: ") :] + "]")

    @pytest.mark.parametrize("depth", [MAX_FLOW_DEPTH - 1, MAX_FLOW_DEPTH])
    def test_block_style_counts_as_flow_style(self, depth):
        # ``depth`` lists under the root mapping; the innermost holds a scalar.
        flow = "topology: " + "[" * depth + "x" + "]" * depth
        block = "topology:\n" + "".join("  " * i + "-\n" for i in range(1, depth))
        block += "  " * depth + "- x\n"
        outcomes = []
        for text in (flow, block):
            with pytest.raises((ScenarioParseError, ScenarioValidationError)) as caught:
                load_scenario(text)
            outcomes.append((caught.type, str(caught.value).split("\n")[0]))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is ScenarioParseError) == (depth == MAX_FLOW_DEPTH)

    def test_brackets_in_scalars_and_comments_do_not_count(self):
        text = "topology: {kind: '" + "[" * 100 + "'}  # " + "{" * 100
        with pytest.raises(ScenarioValidationError, match="topology.kind"):
            load_scenario(text)


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
        assert single.totals.energy_trs_j == many.totals.energy_trs_j

    def test_same_seed_is_byte_identical(self):
        config = load_scenario(TWO_LINK_MESH + JSON_OUTPUT)
        a = emit_report(run_scenario(config))
        b = emit_report(run_scenario(config))
        assert a == b

    def test_rayleigh_mean_capacity_matches_quadrature_oracle(self):
        config = load_scenario(RAYLEIGH)
        report = run_scenario(config)
        oracle = gauss_laguerre_ergodic(10.0, bandwidth=1e6)
        assert report.links[0].metrics.capacity_bps == pytest.approx(oracle, rel=0.01)

    def test_outage_accounting(self):
        config = load_scenario(TWO_LINK_MESH)
        report = run_scenario(config)
        for summary, row in zip(report.links, report_tree(report)["links"]):
            assert summary.outage_count + row["samples_used"] == config.n_samples
            assert summary.outage_count == 0

    def test_gamma_ratios_in_report(self):
        config = load_scenario(TWO_LINK_MESH)
        rows = report_tree(run_scenario(config))["links"]
        for row, link in zip(rows, config.topology.links):
            for ratio in row["trs_ratios"].values():
                assert ratio == pytest.approx(link.gain.gamma, rel=1e-12)

    # The index of the chain's weakest hop, or None where no bottleneck is reported.
    @pytest.mark.parametrize(
        "document, weakest",
        [(MINIMAL, 0), (TWO_HOP_CHAIN, 1), (TWO_LINK_MESH, None), (STAR, None)],
        ids=["one-hop-chain", "two-hop-chain", "mesh", "star"],
    )
    def test_chain_report_has_bottleneck(self, document, weakest):
        tree = report_tree(run_scenario(load_scenario(document)))
        capacities = [row["capacity_trs_bps"] for row in tree["links"]]
        if weakest is None:
            assert tree["totals"]["bottleneck_capacity_bps"] is None
        else:
            assert tree["totals"]["bottleneck_capacity_bps"] == capacities[weakest]
            assert capacities[weakest] == min(capacities)

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


class TestOutageBoundary:
    """simulate_link proves a link free of outages from its least capacity
    alone, and masks every draw only when that one is an outage."""

    AWGN = Link("a", "b", LinkBudget(1.0, 1.0, 1.0), FadingSpec.awgn(), TrsGain(2.0))

    def test_least_draw_alone_in_outage(self):
        node = Node("a", 1.0, 1.0)
        metrics, outages = simulate_link(node, self.AWGN, np.array([1.0, 0.0]))
        assert outages == 1
        assert metrics == link_metrics(node, self.AWGN, FadingDraw(1.0))

    @pytest.mark.parametrize("power, outages", [(1.0, 0), (4.0, 1)])
    def test_least_draw_tiny(self, power, outages):
        # h2 = 1e-308 gives a capacity of 1.44e-308 bit/s: a time of 6.9e307 s,
        # finite, and an energy that overflows only at 4 W.
        node = Node("a", power, 1.0)
        h2 = np.array([1.0, 1e-308, 3.0])
        expected = _reference_link(node, self.AWGN, h2)
        assert expected[1] == outages
        metrics, got = simulate_link(node, self.AWGN, h2)
        assert (_means(metrics), got) == expected

    def test_no_draws_is_an_outage_error(self):
        with pytest.raises(AllSamplesOutageError):
            simulate_link(Node("a", 1.0, 1.0), self.AWGN, np.array([]))

    @pytest.mark.parametrize("power", [1.0, 0.0])
    def test_one_draw_at_zero_is_an_outage_error(self, power):
        # L / 0 would raise ZeroDivisionError on Python floats.
        link = Link("a", "b", LinkBudget(1.0, 1.0, 1.0), FadingSpec.rayleigh(), TrsGain(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AllSamplesOutageError):
                link_metrics(Node("a", power, 1.0), link, FadingDraw(0.0))

    def test_outages_and_used_draws_add_up(self):
        # With L = 1.5e308 bit, a draw's time overflows below 0.83 bit/s, that
        # is for |h|^2 < 0.78: about half the Rayleigh draws.
        text = MINIMAL.replace("packet_length_bits: 100}", "packet_length_bits: 1.5e308}")
        text = text.replace("noise_power_w: 1.0}", "noise_power_w: 1.0, fading: {kind: rayleigh}}")
        text += "monte_carlo: {n_samples: 1000, seed: 3}\n"
        config = load_scenario(text)
        link = config.topology.links[0]
        h2 = sample_h_squared(link.fading, link_rng(3, 0), 1000)
        means, outages = _reference_link(config.topology.nodes[0], link, h2)
        assert 300 < outages < 700
        report = run_scenario(config)
        summary, row = report.links[0], report_tree(report)["links"][0]
        assert (summary.outage_count, row["samples_used"]) == (outages, 1000 - outages)
        assert _means(summary.metrics) == means


# The ergodic-rate gates. A faded link's reported capacity C_hat lies within Z
# standard errors, s_C / sqrt(n), of the exact ergodic capacity C, and its
# reported time L / C_hat within Z delta-method standard errors,
# L * s_C / (sqrt(n) * C^2), of L / C; s_C is recomputed from the link's own
# draws. A mean of the per-draw times L / C_i has no such bound: E[L / C_i]
# is infinite.
ERGODIC_Z = 5.0
ERGODIC_SEED = 2025

# The Rician (K, omega) pairs the gates cover; K = 0 is Rayleigh, drawn the Rician way.
RICIAN_GATE = [(k, omega) for k in (0.0, 1.0, 3.0, 10.0, 30.0) for omega in (1.0, 2.5)]


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
@pytest.mark.parametrize("snr_db", [0, 10, 23])
@pytest.mark.parametrize(
    "k, omega", [(None, 1.0), *RICIAN_GATE],
    ids=["rayleigh", *(f"rician-K{k:g}-omega{omega:g}" for k, omega in RICIAN_GATE)],
)
def test_faded_time_is_the_ergodic_rate_time(k, omega, snr_db, n):
    bandwidth, noise, length = 1e6, 1e-9, 1000.0
    signal = 10 ** (snr_db / 10) * noise
    if k is None:
        fading, spec = "{kind: rayleigh}", FadingSpec.rayleigh()
        exact = bandwidth * rayleigh_ergodic(signal / noise)
    else:
        fading = f"{{kind: rician, k_factor: {k}, mean_power: {omega}}}"
        spec = FadingSpec.rician(k, omega)
        exact = bandwidth * mgf_ergodic(signal / noise, k, omega)
    text = (
        RAYLEIGH.replace("signal_power_w: 10.0", f"signal_power_w: {signal:.17e}")
        .replace("noise_power_w: 1.0", f"noise_power_w: {noise:.17e}")
        .replace("{kind: rayleigh}", fading)
        .replace("{n_samples: 100000, seed: 314}", f"{{n_samples: {n}, seed: {ERGODIC_SEED}}}")
    )
    summary = run_scenario(load_scenario(text)).links[0]
    h2 = sample_h_squared(spec, link_rng(ERGODIC_SEED, 0), n)
    spread = np.std(capacity_reference(bandwidth, signal * h2, noise, 0.0), ddof=1)
    stderr = length * spread / (math.sqrt(n) * exact**2)
    assert abs(summary.metrics.tx_time_s - length / exact) <= ERGODIC_Z * stderr


def test_every_capacity_is_the_exact_ergodic_capacity():
    # One scenario, one link per fading law and SNR: AWGN without and with
    # interference, Rayleigh at two mean powers, and every Rician pair of the
    # gate, each from -10 to 40 dB.
    bandwidth, noise, n = 1e6, 1e-9, 20_000
    laws = [({"kind": "awgn"}, 0.0), ({"kind": "awgn"}, 0.5)]
    laws += [({"kind": "rayleigh", "mean_power": omega}, 0.0) for omega in (1.0, 2.5)]
    laws += [({"kind": "rician", "k_factor": k, "mean_power": omega}, 0.0) for k, omega in RICIAN_GATE]
    links = []
    for fading, share in laws:
        for snr_db in range(-10, 41, 10):
            denominator = noise * (1.0 + share)
            links.append({
                "src": f"s{len(links)}",
                "dst": "sink",
                "bandwidth_hz": bandwidth,
                "signal_power_w": 10 ** (snr_db / 10) * denominator,
                "noise_power_w": noise,
                "interference_power_w": noise * share,
                "fading": fading,
            })
    nodes = [{"id": link["src"], "tx_power_w": 1.0, "packet_length_bits": 1000} for link in links]
    nodes.append({"id": "sink", "tx_power_w": 1.0, "packet_length_bits": 1000})
    config = load_scenario(json.dumps({
        "topology": {"kind": "mesh", "nodes": nodes, "links": links},
        "monte_carlo": {"n_samples": n, "seed": ERGODIC_SEED},
    }))
    report = run_scenario(config)
    assert len(report.links) == 84
    for i, (link, summary) in enumerate(zip(config.topology.links, report.links)):
        budget, spec = link.budget, link.fading
        capacity = summary.metrics.capacity_bps
        assert summary.outage_count == 0
        bandwidth, signal, noise_w, interference = vars(budget).values()
        if spec.kind is FadingKind.AWGN:
            exact = decimal_capacity(bandwidth, signal, noise_w, interference)
            assert capacity == pytest.approx(exact, rel=1e-14), i
            continue
        snr = signal / (noise_w + interference)
        exact = bandwidth * mgf_ergodic(snr, spec.k_factor or 0.0, spec.mean_power)
        h2 = sample_h_squared(spec, link_rng(ERGODIC_SEED, i), n)
        caps = capacity_reference(bandwidth, signal * h2, noise_w, interference)
        z = abs(capacity - exact) / (np.std(caps, ddof=1) / math.sqrt(n))
        assert z <= ERGODIC_Z, (i, spec, z)


def _reference_link(node, link, h2):
    """simulate_link's metrics and outages by the ergodic-rate definition, in
    its order of operations, with a fresh array for every step: the mean
    capacity over the draws whose energy P * L / C is finite, then the
    time L / C, the energy P * L / C and their TRS copies."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        snr = link.budget.signal_power_w * h2
        snr /= link.budget.noise_power_w + link.budget.interference_power_w
        caps = np.log1p(snr) * link.budget.bandwidth_hz / math.log(2.0)
        usable = np.isfinite(node.tx_power_w * (node.packet_length_bits / caps))
        caps = caps[usable]
    mean_cap = pivoted_mean(caps)
    gamma = link.gain.gamma
    tx_time = node.packet_length_bits / mean_cap
    energy = node.tx_power_w * tx_time
    means = [mean_cap, gamma * mean_cap, tx_time, tx_time / gamma, energy, energy / gamma]
    return means, h2.size - caps.size


def _means(metrics):
    names = ("capacity_bps", "capacity_trs_bps", "tx_time_s", "tx_time_trs_s", "energy_j",
             "energy_trs_j")
    return [getattr(metrics, name) for name in names]


KERNEL_LINKS = [
    Link("a", "b", LinkBudget(2e6, 1e-6, 4e-9, 1e-9), FadingSpec.rayleigh(), TrsGain(2.0)),
    Link("a", "b", LinkBudget(1e3, 2.0, 1.0, 0.1), FadingSpec.rician(3.0, 1.5), TrsGain(3.7)),
]
_KERNEL_IDS = ["rayleigh", "rician"]


def _float32_exact_draws(link, size):
    # Draws a float32 holds exactly, so every input kind below is the same draws.
    draws = sample_h_squared(link.fading, np.random.default_rng(8), size)
    return draws.astype(np.float32).astype(float)


def _strided(draws):
    return np.repeat(draws, 2)[::2]


def _read_only(draws):
    kept = draws.copy()
    kept.flags.writeable = False
    return kept


class TestSimulateLinkInPlace:
    NODE = Node("a", 0.7, 1000.0)

    @pytest.mark.parametrize("size", [1, 2, 1000, 80_000])
    @pytest.mark.parametrize("link", KERNEL_LINKS, ids=_KERNEL_IDS)
    def test_in_place_matches_fresh_arrays_bit_for_bit(self, link, size):
        h2 = sample_h_squared(link.fading, np.random.default_rng(size), size)
        expected = _reference_link(self.NODE, link, h2)
        metrics, outages = simulate_link(self.NODE, link, h2)
        assert (_means(metrics), outages) == expected

    @pytest.mark.parametrize("link", KERNEL_LINKS, ids=_KERNEL_IDS)
    def test_outage_path_in_place(self, link):
        # A zero draw has zero capacity, hence an infinite time: an outage,
        # dropped from the mean capacity.
        h2 = sample_h_squared(link.fading, np.random.default_rng(9), 3000)
        h2[::7] = 0.0
        expected = _reference_link(self.NODE, link, h2)
        assert expected[1] == 429
        metrics, outages = simulate_link(self.NODE, link, h2)
        assert (_means(metrics), outages) == expected

    @pytest.mark.parametrize("row", range(2))
    def test_a_workspace_row_is_overwritten_alone(self, row):
        # run_scenario hands the kernel row 0 of its (2, n) workspace.
        link = KERNEL_LINKS[1]
        h2 = sample_h_squared(link.fading, np.random.default_rng(8), 5000)
        expected = _reference_link(self.NODE, link, h2)
        work = np.full((2, h2.size), 7.0)
        work[row] = h2
        metrics, outages = simulate_link(self.NODE, link, work[row])
        assert (_means(metrics), outages) == expected
        assert not np.array_equal(work[row], h2)
        assert (work[1 - row] == 7.0).all()

    @pytest.mark.parametrize("link", KERNEL_LINKS, ids=_KERNEL_IDS)
    def test_a_contiguous_writeable_float64_array_is_overwritten(self, link):
        draws = _float32_exact_draws(link, 5000)
        expected = _reference_link(self.NODE, link, draws)
        overwritten = draws.copy()
        metrics, outages = simulate_link(self.NODE, link, overwritten)
        assert (_means(metrics), outages) == expected
        assert not np.array_equal(overwritten, draws)

    @pytest.mark.parametrize(
        "kind",
        [np.ndarray.tolist, _strided, _read_only, lambda draws: draws.astype(np.float32)],
        ids=["list", "strided", "read-only", "float32"],
    )
    @pytest.mark.parametrize("link", KERNEL_LINKS, ids=_KERNEL_IDS)
    def test_any_other_input_is_copied(self, link, kind):
        draws = _float32_exact_draws(link, 5000)
        expected = simulate_link(self.NODE, link, draws.copy())
        kept = kind(draws)
        before = copy.deepcopy(kept)
        assert simulate_link(self.NODE, link, kept) == expected
        assert np.array_equal(kept, before)


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
    # earlier tests. MALLOC_MMAP_THRESHOLD_ also turns off glibc's dynamic
    # threshold: without it the warm-up runs raise the threshold and freed
    # 640 KB arrays come back from the heap, so a fresh array per link goes
    # unseen. Measured on Linux x86-64, glibc, numpy 2.4.6 (short/long run
    # faults, and their difference per link): 313/313 (0.0) as the code
    # stands; run_scenario drawing without out= 472/3769 (235.5), and
    # 313/470 (11.2) without the variable; simulate_link copying with
    # np.array(h_squared, float) 627/2825 (157.0), and 0/0 without it.
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(qwsnsim.__file__).resolve().parents[1]),
        "MALLOC_MMAP_THRESHOLD_": "131072",
    }
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    short, long = map(int, done.stdout.split())
    assert (long - short) / 14 < 16, (short, long)


_PEAK_SCRIPT = """
import json, resource, sys
from qwsnsim.scenario import load_scenario, run_scenario

node = {"tx_power_w": 1.0, "packet_length_bits": 100}
config = load_scenario(json.dumps({
    "topology": {"kind": "chain", "nodes": [{"id": "a", **node}, {"id": "b", **node}],
                 "links": [{"src": "a", "dst": "b", **json.loads(sys.argv[1])}]},
    "monte_carlo": {"n_samples": 10**7, "seed": 3},
}))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
outages = run_scenario(config).links[0].outage_count
print(outages, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
@pytest.mark.parametrize(
    "link, outages, bound_mib",
    [
        # The two workspace rows, 152.6 MiB at the ceiling. The peaks were
        # measured on Linux x86-64 with numpy 2.4.6: 159 MiB here.
        pytest.param(
            {"bandwidth_hz": 1e6, "signal_power_w": 1e-6, "noise_power_w": 1e-9,
             "fading": {"kind": "rician", "k_factor": 3.0}},
            0, 180, id="rician-no-outages",
        ),
        # Row 0 (Rayleigh leaves row 1 untouched), the temporary energies and
        # the usable capacities: measured 170 MiB.
        pytest.param(
            {"bandwidth_hz": 1e-10, "signal_power_w": 5.5e-287, "noise_power_w": 1e10,
             "fading": {"kind": "rayleigh"}},
            5_038_251, 190, id="rayleigh-half-outages",
        ),
    ],
)
def test_run_memory_at_the_sample_ceiling(link, outages, bound_mib):
    # A fresh process, so the peak is this run's alone. Each bound is the
    # measured peak plus 20 MiB; a fresh 76 MiB capacity array per link
    # exceeds either.
    env = {**os.environ, "PYTHONPATH": str(Path(qwsnsim.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, json.dumps(link)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got, peak = done.stdout.split()
    assert int(got) == outages
    assert float(peak) < bound_mib, peak


class TestGammaSweep:
    def test_dyadic_sweep_scales_exactly(self):
        config = load_scenario(TWO_LINK_MESH)
        sweep = gamma_sweep(config, [1.0, 2.0])
        base, doubled = sweep[0][1], sweep[1][1]
        assert doubled.totals.energy_trs_j == base.totals.energy_trs_j / 2.0
        assert doubled.totals.latency_trs_s == base.totals.latency_trs_s / 2.0
        assert doubled.totals.capacity_trs_bps == 2.0 * base.totals.capacity_trs_bps

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
        base = sweep[0][1].totals.capacity_trs_bps
        for gamma, report in sweep:
            assert report.totals.capacity_trs_bps / base == pytest.approx(
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
        lines = emit_report(report).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("a->b,")
        assert lines[2].startswith("TOTALS,")

    def test_csv_totals_are_column_sums(self):
        report = run_scenario(load_scenario(TWO_LINK_MESH))
        lines = emit_report(report).splitlines()
        rows = [line.split(",") for line in lines[1:-1]]
        totals = lines[-1].split(",")
        for col in range(1, 9):
            assert float(totals[col]) == pytest.approx(
                math.fsum(float(r[col]) for r in rows), rel=1e-9
            )
        assert int(totals[9]) == sum(int(r[9]) for r in rows)

    def test_csv_floats_round_trip(self):
        report = run_scenario(load_scenario(TWO_LINK_MESH))
        lines = emit_report(report).splitlines()
        row = lines[1].split(",")
        m = report.links[0].metrics
        assert float(row[1]) == m.capacity_bps
        assert float(row[2]) == m.capacity_trs_bps
        assert float(row[5]) == m.energy_j

    def test_json_round_trip_is_exact(self):
        report = run_scenario(load_scenario(TWO_LINK_MESH + JSON_OUTPUT))
        tree = json.loads(emit_report(report))
        for parsed, summary in zip(tree["links"], report.links):
            assert parsed["capacity_bps"] == summary.metrics.capacity_bps
            assert parsed["energy_trs_j"] == summary.metrics.energy_trs_j
            assert parsed["outages"] == summary.outage_count
        assert tree["totals"]["throughput_bps"] == report.totals.capacity_trs_bps

    def test_optimizer_keys_only_when_present(self):
        plain = json.loads(emit_report(run_scenario(load_scenario(MINIMAL + JSON_OUTPUT))))
        assert "optimization" not in plain
        solved = json.loads(emit_report(run_scenario(load_scenario(WITH_OPTIMIZER + JSON_OUTPUT))))
        assert "optimization" in solved
        assert solved["optimization"]["solver"] == "simulated_annealing"

    def test_config_echo_includes_defaults(self):
        tree = report_tree(run_scenario(load_scenario(MINIMAL)))
        assert tree["config"]["monte_carlo"] == {"n_samples": 1, "seed": 0}
        assert tree["config"]["topology"]["links"][0]["gamma"] == 1.0

    def test_each_emitter_renders_in_its_configs_format(self):
        config = load_scenario(MINIMAL)
        assert config.output_format == "csv"
        results = gamma_sweep(config, [1.0])
        assert emit_report(results[0][1]).startswith(CSV_HEADER + "\n")
        assert emit_sweep(results).startswith(SWEEP_CSV_HEADER + "\n")
        # The JSON echo names the format the report is rendered in.
        results = gamma_sweep(dataclasses.replace(config, output_format="json"), [1.0])
        assert json.loads(emit_report(results[0][1]))["config"]["output"]["format"] == "json"
        assert json.loads(emit_sweep(results))[0]["report"]["config"]["output"]["format"] == "json"


def _json_reference(tree) -> str:
    return json.dumps(tree, indent=2, allow_nan=False) + "\n"


# Quotes, backslashes, control characters, non-ASCII, a lone surrogate.
_JSON_STRINGS = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600') | st.characters(),
    max_size=6,
)
_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64 - 1, 2**64, -(2**64), 10**30]),
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]),
    _JSON_STRINGS,
)


def _json_trees(depth: int):
    """Scalars, lists, tuples and dicts (empty ones too) nested up to ``depth``."""
    if depth == 0:
        return _JSON_SCALARS
    children = _json_trees(depth - 1)
    return st.one_of(
        _JSON_SCALARS,
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=3),
    )


@st.composite
def _trees_with_a_non_finite_float(draw):
    non_finite = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]
    tree = draw(st.sampled_from(non_finite))
    for _ in range(draw(st.integers(0, 6))):
        siblings = draw(st.lists(_json_trees(1), max_size=2))
        at = draw(st.integers(0, len(siblings)))
        items = siblings[:at] + [tree] + siblings[at:]
        if draw(st.booleans()):
            tree = items
        else:
            n = len(items)
            keys = draw(st.lists(_JSON_STRINGS, min_size=n, max_size=n, unique=True))
            tree = dict(zip(keys, items))
    return tree


class TestDumpJson:
    """``dump_json`` emits the bytes of ``json.dumps(indent=2, allow_nan=False)``."""

    @settings(max_examples=400, deadline=None)
    @given(_json_trees(6))
    def test_same_text_as_json_dumps(self, tree):
        assert dump_json(tree) == _json_reference(tree)

    @settings(max_examples=200, deadline=None)
    @given(_trees_with_a_non_finite_float())
    def test_non_finite_float_anywhere_raises(self, tree):
        with pytest.raises(ValueError):
            _json_reference(tree)
        with pytest.raises(ValueError):
            dump_json(tree)

    @pytest.mark.parametrize(
        "tree", [{1: 2.0}, {None: 0}, np.int64(3), [np.bool_(True)], {"a": object()}]
    )
    def test_non_str_key_or_unknown_type_raises(self, tree):
        with pytest.raises(TypeError):
            dump_json(tree)

    def test_report_of_a_mesh_with_every_fading_kind(self):
        fading = (
            {"kind": "awgn"},
            {"kind": "rayleigh", "mean_power": 2.0},
            {"kind": "rician", "mean_power": 0.5, "k_factor": 3.0},
        )
        nodes = [
            {"id": f"n{i}", "tx_power_w": 0.25 + i / 8, "packet_length_bits": 1000 + i}
            for i in range(20)
        ]
        links = [
            {
                "src": f"n{i % 20}",
                "dst": f"n{(i % 20 + 1 + i // 20) % 20}",
                "bandwidth_hz": 1e6 * (1 + i % 7),
                "signal_power_w": 1e-6,
                "noise_power_w": 1e-9,
                "interference_power_w": 1e-10 * (i % 3),
                "fading": fading[i % 3],
                "gamma": 1.0 + i / 16,
            }
            for i in range(60)
        ]
        config = load_scenario(json.dumps({
            "topology": {"kind": "mesh", "nodes": nodes, "links": links},
            "monte_carlo": {"n_samples": 200, "seed": 11},
            "output": {"format": "json"},
        }))
        report = run_scenario(config)
        tree = report_tree(report)
        assert len(tree["links"]) == 60
        assert dump_json(tree) == _json_reference(tree)
        assert emit_report(report) == _json_reference(tree)


ROOT = Path(__file__).resolve().parent.parent

# AWGN, Rayleigh and Rician links; no optimizer, the deterministic treatment
# with an unlimited latency_max_s, and the ergodic treatment with every key.
ECHO_DOCUMENTS = {
    "minimal": MINIMAL,
    "rayleigh": RAYLEIGH,
    "two_link_mesh": TWO_LINK_MESH,
    "with_optimizer": WITH_OPTIMIZER,
    "every_key": json.dumps(EVERY_KEY),
    "example_chain": (ROOT / "configs" / "example_chain.yaml").read_text(),
    "example_optimize": (ROOT / "configs" / "example_optimize.yaml").read_text(),
}


def _key_paths(tree, prefix=()):
    """Every mapping key of ``tree`` as a path, in iteration order."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _key_paths(value, prefix + (i,))


class TestConfigEcho:
    @pytest.mark.parametrize("name", ECHO_DOCUMENTS)
    def test_echo_reads_back_as_itself(self, name):
        config = load_scenario(ECHO_DOCUMENTS[name])
        echo = config.echo()
        assert load_scenario(json.dumps(echo, allow_nan=False)).echo() == echo

    def test_echo_of_a_full_document_keeps_its_keys_in_order(self):
        echo = load_scenario(json.dumps(EVERY_KEY)).echo()
        assert echo == EVERY_KEY
        assert list(echo) == ["topology", "monte_carlo", "output", "optimizer"]
        for section in echo:
            assert list(_key_paths(echo[section])) == list(_key_paths(EVERY_KEY[section]))

    def test_mutating_the_echo_leaves_the_config_unchanged(self):
        config = load_scenario(json.dumps(EVERY_KEY))
        echo = config.echo()
        before = copy.deepcopy(echo)
        stack = [echo]
        while stack:
            item = stack.pop()
            children = item.values() if isinstance(item, dict) else item
            stack.extend(c for c in children if isinstance(c, (dict, list)))
            item.clear()
        assert config.echo() == before
        assert config.topology.nodes[0].tx_power_w == 1.0
        assert config.topology.links[0].budget.interference_power_w == 0.5
        assert config.optimizer.schedule.iterations == 500
        assert config.optimizer.fading.n_samples == 20

    def test_to_problem_passes_every_optimizer_field(self):
        config = load_scenario(json.dumps(EVERY_KEY))
        section = config.optimizer
        expected = PowerProblem(
            topology=config.topology,
            p_min_w=0.2,
            p_max_w=3.0,
            r_min_bps=0.1,
            latency_max_s=100.0,
            alpha=0.5,
            beta=1.0,
            fading=ErgodicMean(n_samples=20, seed=3),
        )
        assert section.to_problem(config.topology) == expected

    @pytest.mark.parametrize(
        "first, header", [("link_id,", CSV_HEADER), ("gamma,", SWEEP_CSV_HEADER)]
    )
    def test_csv_header_is_the_readme_contract(self, first, header):
        readme = (ROOT / "README.md").read_text().splitlines()
        assert [line for line in readme if line.startswith(first)] == [header]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert names["boosted"] == 2 * names["base"]
    assert math.isfinite(names["mean"])
