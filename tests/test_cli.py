import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qwsnsim
from qwsnsim.channel import MAX_SAMPLES
from qwsnsim.cli import main
from qwsnsim.optimizer import MAX_ITERATIONS, OptResult
from qwsnsim.network import network_totals
from qwsnsim.scenario import emit_report, load_scenario, run_scenario

GOOD = """
topology:
  kind: chain
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
  links:
    - src: a
      dst: b
      bandwidth_hz: 1.0e3
      signal_power_w: 2.0
      noise_power_w: 1.0
      fading: {kind: rayleigh}
      gamma: 2.0
monte_carlo: {n_samples: 200, seed: 1}
"""

OPTIMIZABLE = """
topology:
  kind: mesh
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
  links:
    - {src: a, dst: b, bandwidth_hz: 1.0, signal_power_w: 1.0, noise_power_w: 1.0, gamma: 2.0}
optimizer:
  p_min_w: 0.2
  p_max_w: 3.0
  weights: {alpha: 1.0, beta: 1.0}
  schedule: {iterations: 300}
"""


@pytest.fixture
def config_file(tmp_path):
    def write(text, name="scenario.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestSimulate:
    def test_writes_csv_file(self, config_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["simulate", "--config", config_file(GOOD), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("link_id,capacity_bps")
        assert lines[-1].startswith("TOTALS,")

    def test_stdout_json(self, config_file, capsys):
        code = main(["simulate", "--config", config_file(GOOD), "--format", "json"])
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["seed"] == 1
        assert tree["links"][0]["link_id"] == "a->b"

    def test_flag_overrides(self, config_file, capsys):
        code = main(
            [
                "simulate",
                "--config",
                config_file(GOOD),
                "--seed",
                "9",
                "--samples",
                "50",
                "--format",
                "json",
            ]
        )
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["seed"] == 9
        assert tree["n_samples"] == 50

    def test_seed_changes_fading_output(self, config_file, capsys):
        main(["simulate", "--config", config_file(GOOD), "--format", "json"])
        first = capsys.readouterr().out
        main(["simulate", "--config", config_file(GOOD), "--format", "json", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_threads_do_not_change_bytes(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = config_file(GOOD)
        assert main(["simulate", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validation_error_exits_1(self, config_file, capsys):
        bad = GOOD.replace("gamma: 2.0", "gamma: 0.5")
        assert main(["simulate", "--config", config_file(bad)]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_empty_node_list_exits_1(self, config_file, capsys):
        doc = "topology: {kind: mesh, nodes: []}\n"
        assert main(["simulate", "--config", config_file(doc)]) == 1
        err = capsys.readouterr().err
        assert err == "error: topology.nodes: expected a non-empty list\n"

    def test_csv_reads_back_ids_holding_commas_quotes_and_line_breaks(self, config_file, capsys):
        ids = ["s,1", 'r"2\nx', "c\r", '"', "a\r\nb", "plain"]
        nodes = [{"id": i, "tx_power_w": 1.0, "packet_length_bits": 100} for i in ids]
        links = [
            {"src": a, "dst": b, "bandwidth_hz": 1.0, "signal_power_w": 1.0, "noise_power_w": 1.0}
            for a, b in zip(ids, ids[1:])
        ]
        doc = json.dumps({"topology": {"kind": "chain", "nodes": nodes, "links": links}})
        assert main(["simulate", "--config", config_file(doc, "ids.json")]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
        assert [len(row) for row in rows] == [10] * (len(links) + 2)
        labels = [f"{a}->{b}" for a, b in zip(ids, ids[1:])]
        assert [row[0] for row in rows] == ["link_id", *labels, "TOTALS"]

    def test_parse_error_exits_1(self, config_file):
        assert main(["simulate", "--config", config_file("topology: [oops")]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_all_outage_exits_2(self, config_file):
        dead = GOOD.replace("signal_power_w: 2.0", "signal_power_w: 0.0")
        assert main(["simulate", "--config", config_file(dead)]) == 2

    def test_usage_error_exits_1(self):
        assert main(["simulate"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0


class TestOptimize:
    def test_prints_result_json(self, config_file, capsys):
        code = main(["optimize", "--config", config_file(OPTIMIZABLE)])
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["solver"] == "simulated_annealing"
        assert tree["feasible"] is True
        assert len(tree["powers_w"]) == 2

    def test_keys_are_the_result_fields_in_order(self, config_file, capsys):
        assert main(["optimize", "--config", config_file(OPTIMIZABLE)]) == 0
        tree = json.loads(capsys.readouterr().out)
        fields = [f.name for f in dataclasses.fields(OptResult)]
        assert list(tree) == ["powers_w" if f == "allocation" else f for f in fields]

    def test_deterministic_given_seed(self, config_file, capsys):
        cfg = config_file(OPTIMIZABLE)
        main(["optimize", "--config", cfg, "--seed", "4"])
        first = capsys.readouterr().out
        main(["optimize", "--config", cfg, "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_prints_the_optimization_subtree_of_the_json_report(self, capsys):
        # `optimize` and `run_scenario` each anneal the optimizer section on
        # the seed's reserved stream; the two results must be the same.
        config = str(CONFIGS / "example_optimize.yaml")
        assert main(["optimize", "--config", config]) == 0
        printed = capsys.readouterr().out
        assert main(["simulate", "--config", config, "--format", "json"]) == 0
        subtree = json.loads(capsys.readouterr().out)["optimization"]
        assert printed == json.dumps(subtree, indent=2, allow_nan=False) + "\n"

    def test_missing_section_exits_1(self, config_file, capsys):
        assert main(["optimize", "--config", config_file(GOOD)]) == 1
        assert "optimizer" in capsys.readouterr().err

    def test_infeasible_exits_2(self, config_file):
        impossible = OPTIMIZABLE.replace("p_max_w: 3.0", "p_max_w: 3.0\n  r_min_bps: 1.0e9")
        assert main(["optimize", "--config", config_file(impossible)]) == 2

    def test_infeasible_section_fails_every_report(self, config_file, capsys):
        # Every run anneals its optimizer section, so CSV fails as JSON does,
        # before writing anything.
        impossible = OPTIMIZABLE.replace("p_max_w: 3.0", "p_max_w: 3.0\n  r_min_bps: 1.0e9")
        cfg = config_file(impossible)
        for command in (["simulate"], ["sweep", "--gamma", "1,2"]):
            for fmt in ("csv", "json"):
                assert main([*command, "--config", cfg, "--format", fmt]) == 2
                assert capsys.readouterr().out == ""

    # The result is JSON whatever the format says; a document without an
    # output section reads as csv.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writes_the_documents_output_path(self, config_file, tmp_path, capsys, fmt):
        assert main(["optimize", "--config", config_file(OPTIMIZABLE)]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "result.json"
        document = OPTIMIZABLE + f"output: {{path: {out}, format: {fmt}}}\n"
        assert main(["optimize", "--config", config_file(document)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


class TestSweep:
    def test_csv_summary(self, config_file, capsys):
        code = main(["sweep", "--config", config_file(GOOD), "--gamma", "1,2,4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gamma,total_throughput_bps,total_energy_j,total_latency_s"
        assert len(lines) == 4
        base = [float(v) for v in lines[1].split(",")]
        doubled = [float(v) for v in lines[2].split(",")]
        assert doubled[1] == 2.0 * base[1]
        assert doubled[2] == base[2] / 2.0

    def test_json_tree(self, config_file, capsys):
        code = main(
            ["sweep", "--config", config_file(GOOD), "--gamma", "1,2", "--format", "json"]
        )
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert [entry["gamma"] for entry in tree] == [1.0, 2.0]

    def test_bad_gamma_exits_1(self, config_file):
        assert main(["sweep", "--config", config_file(GOOD), "--gamma", "abc"]) == 1
        assert main(["sweep", "--config", config_file(GOOD), "--gamma", "0.5"]) == 1
        assert main(["sweep", "--config", config_file(GOOD), "--gamma", ","]) == 1

    @pytest.mark.parametrize("value", ["0.5", "nan", "inf"])
    def test_out_of_range_gamma_names_the_flag(self, config_file, capsys, value):
        assert main(["sweep", "--config", config_file(GOOD), "--gamma", f"1,{value}"]) == 1
        assert capsys.readouterr().err == (
            f"error: --gamma: gamma must be >= 1 and finite, got {float(value)}\n"
        )


def _full_mesh(n_nodes: int, gamma: float) -> str:
    nodes = "".join(
        f"    - {{id: n{i}, tx_power_w: {0.1 + 0.37 * i:g}, packet_length_bits: {100 + 37 * i}}}\n"
        for i in range(n_nodes)
    )
    links = "".join(
        f"    - {{src: n{i}, dst: n{j}, bandwidth_hz: {1.0e3 * (1 + i):g},"
        f" signal_power_w: {0.3 + 0.1 * j:g}, noise_power_w: 1.0e-3,"
        f" fading: {{kind: rayleigh}}, gamma: {gamma}}}\n"
        for i in range(n_nodes)
        for j in range(n_nodes)
        if i != j
    )
    return f"topology:\n  kind: mesh\n  nodes:\n{nodes}  links:\n{links}" + (
        "monte_carlo: {n_samples: 20, seed: 5}\n"
    )


def test_every_total_is_the_left_fold_of_the_link_rows(config_file, capsys):
    text = _full_mesh(7, gamma=3.0)  # 42 links
    report = run_scenario(load_scenario(text))
    lines = emit_report(report, "csv").splitlines()
    names = lines[0].split(",")[1:-1]
    columns = list(zip(*([float(v) for v in line.split(",")[1:-1]] for line in lines[1:-1])))
    assert len(columns[0]) == 42
    folds = []
    for column in columns:
        total = 0.0
        for value in column:
            total += value
        folds.append(total)
    trs_names = ("capacity_trs_bps", "energy_trs_j", "latency_trs_s")
    trs = [folds[names.index(name)] for name in trs_names]
    # Here a compensated or a pairwise sum rounds differently from the fold
    # in a TRS column, so either one in any emitter below fails the test.
    trs_columns = [columns[names.index(name)] for name in trs_names]
    assert any(math.fsum(c) != total for c, total in zip(trs_columns, trs))
    assert any(float(np.sum(c)) != total for c, total in zip(trs_columns, trs))

    assert [float(v) for v in lines[-1].split(",")[1:-1]] == folds
    assert list(vars(report.totals).values()) == folds
    json_totals = json.loads(emit_report(report, "json"))["totals"]
    assert [json_totals[key] for key in ("throughput_bps", "energy_j", "latency_s")] == trs
    assert list(vars(network_totals([s.metrics for s in report.links])).values()) == folds
    assert main(["sweep", "--config", config_file(text), "--gamma", "3"]) == 0
    assert [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")[1:]] == trs


# One chain written out in full, and the same chain through anchors, aliases
# and merge keys.
EXPANDED = """
topology:
  kind: chain
  nodes:
    - {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: b, tx_power_w: 1.0, packet_length_bits: 100}
    - {id: c, tx_power_w: 2.0, packet_length_bits: 100}
    - {id: d, tx_power_w: 1.0, packet_length_bits: 300}
  links:
    - {src: a, dst: b, bandwidth_hz: 1.0e3, signal_power_w: 2.0, noise_power_w: 1.0,
       fading: {kind: rician, k_factor: 2.0}, gamma: 2.0}
    - {src: b, dst: c, bandwidth_hz: 1.0e3, signal_power_w: 2.0, noise_power_w: 1.0,
       fading: {kind: rician, k_factor: 2.0}, gamma: 4.0}
    - {src: c, dst: d, bandwidth_hz: 2.0e3, signal_power_w: 1.0, noise_power_w: 1.0,
       fading: {kind: rician, k_factor: 2.0}}
monte_carlo: {n_samples: 200, seed: 1}
"""

ANCHORED = """
topology:
  kind: chain
  nodes:
    - &n {id: a, tx_power_w: 1.0, packet_length_bits: 100}
    - {<<: *n, id: b}
    - {<<: *n, id: c, tx_power_w: 2.0}
    - {<<: *n, id: d, packet_length_bits: 300}
  links:
    - &l
      src: a
      dst: b
      bandwidth_hz: 1.0e3
      signal_power_w: 2.0
      noise_power_w: 1.0
      fading: &f {kind: rician, k_factor: 2.0}
      gamma: 2.0
    - {<<: *l, src: b, dst: c, gamma: 4.0}
    - {src: c, dst: d, bandwidth_hz: 2.0e3, signal_power_w: 1.0, noise_power_w: 1.0, fading: *f}
monte_carlo: {n_samples: 200, seed: 1}
"""


class TestYamlFeatures:
    def test_anchors_and_merge_keys_give_the_expanded_report(self, config_file, capsys):
        reports = []
        for text in (EXPANDED, ANCHORED):
            assert main(["simulate", "--config", config_file(text), "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert len(json.loads(reports[0])["links"]) == 3

    def test_recursive_alias_names_the_unknown_key(self, config_file, capsys):
        assert main(["simulate", "--config", config_file("&a {topology: *a}\n")]) == 1
        assert capsys.readouterr().err == "error: topology.topology: unknown key (strict mode)\n"

    def test_list_nested_20000_deep_names_the_limit(self, config_file, capsys):
        text = "topology: " + "[" * 20000 + "]" * 20000 + "\n"
        assert main(["simulate", "--config", config_file(text)]) == 1
        assert capsys.readouterr().err.startswith(_TOO_DEEP)


_TOO_DEEP = "error: malformed scenario document: collections nest deeper than 64 levels\n"

# Exits with the CLI's code; argv[1] is the scenario file, and a second
# argument hides libyaml, so PyYAML's pure-Python composer runs.
_CLI_SCRIPT = """
import sys
import yaml
if len(sys.argv) > 2:
    del yaml.CSafeLoader
from qwsnsim.cli import main
sys.exit(main(["simulate", "--config", sys.argv[1]]))
"""


class TestNestingLimit:
    @pytest.mark.parametrize("composer", ["libyaml", "python"])
    def test_block_list_30000_deep_exits_1_in_a_fresh_process(self, config_file, composer):
        # libyaml's composer recursed 30000 C frames deep here and crashed;
        # PyYAML's ran out of Python frames at about 500 levels.
        path = config_file("topology:\n  " + "- " * 30000 + "a\n")
        env = {**os.environ, "PYTHONPATH": str(Path(qwsnsim.__file__).resolve().parents[1])}
        argv = [sys.executable, "-c", _CLI_SCRIPT, path]
        if composer == "python":
            argv.append("hide libyaml")
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith(_TOO_DEEP)
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("style", ["block", "flow"])
    @pytest.mark.parametrize("place", ["topology", "fading", "schedule"])
    def test_deep_value_anywhere_exits_1(self, config_file, capsys, place, style):
        value = "x"
        for level in range(70):
            value = [value] if level % 2 else {"k": value}
        doc = copy.deepcopy(MUTABLE)
        owner = {
            "topology": doc["topology"],
            "fading": doc["topology"]["links"][0]["fading"],
            "schedule": doc["optimizer"]["schedule"],
        }[place]
        owner["zz"] = value
        text = yaml.safe_dump(doc, default_flow_style=style == "flow")
        assert main(["simulate", "--config", config_file(text)]) == 1
        assert capsys.readouterr().err.startswith(_TOO_DEEP)


# Each raised a bare KeyError, IndexError, AttributeError or ValueError out of
# PyYAML's scalar converters.
_UNREADABLE_SCALARS = ["!!bool maybe", "!!float ''", "!!int ''", "!!timestamp x", "!!int x"]
# Tags the scenario loader does not build, a collection tag on a scalar and
# a scalar tag on a collection among them.
_UNBUILT_TAGS = [
    "!!set {a}", "!!omap [a: 1]", "!!pairs [a: 1]", "!foo [a]", "!!str {a: 1}", "!!seq a"
]
_SCALAR_TAGS = ["bool", "int", "float", "null", "timestamp", "binary", "str", "set", "omap"]


class TestMalformedScalars:
    @pytest.mark.parametrize("value", _UNREADABLE_SCALARS)
    def test_converter_error_exits_1_with_its_mark(self, config_file, capsys, value):
        assert main(["simulate", "--config", config_file(f"topology: {value}\n")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario document: cannot read "), err
        # libyaml's mark ends the message; PyYAML's pure-Python one is
        # followed by the source line and a caret.
        assert "line 1, column 11" in err, err

    @pytest.mark.parametrize("value", _UNREADABLE_SCALARS)
    def test_tagged_document_names_the_same_mark(self, config_file, capsys, value):
        # The timestamp before it is converted, and the bad value is still
        # named at its own mark.
        text = f"created: 2001-12-14\ntopology: {value}\n"
        assert main(["simulate", "--config", config_file(text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario document: cannot read "), err
        assert "line 2, column 11" in err, err

    @pytest.mark.parametrize("value", _UNBUILT_TAGS)
    def test_unbuilt_tag_exits_1_with_its_mark(self, config_file, capsys, value):
        assert main(["simulate", "--config", config_file(f"topology: {value}\n")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: malformed scenario document: could not determine a constructor for the tag "
        ), err
        assert "line 1, column 11" in err, err

    def test_timestamp_id_names_its_field(self, config_file, capsys):
        text = GOOD.replace("{id: a,", "{id: 2001-12-14,")
        assert main(["simulate", "--config", config_file(text)]) == 1
        assert capsys.readouterr().err == (
            "error: topology.nodes[0].id: expected a string, got datetime.date(2001, 12, 14)\n"
        )

    def test_unbuilt_tag_under_an_overridden_merge_value_exits_1(self, config_file, capsys):
        # PyYAML built the set and dropped it for the node's own id.
        node = "{<<: {id: !!set {x}}, id: a, tx_power_w: 1.0, packet_length_bits: 10}"
        text = GOOD.replace("{id: a, tx_power_w: 1.0, packet_length_bits: 100}", node)
        assert main(["simulate", "--config", config_file(text)]) == 1
        err = capsys.readouterr().err
        assert "could not determine a constructor for the tag 'tag:yaml.org,2002:set'" in err
        assert "line 5, column 17" in err, err

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.sampled_from(_SCALAR_TAGS),
        st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\t"), max_size=12),
    )
    def test_any_tagged_scalar_exits_1_with_an_error_line(self, config_file, capsys, tag, text):
        # A traceback would escape main() and fail the test.
        code = main(["simulate", "--config", config_file(f"topology: !!{tag} {text}\n")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of the CLI's stdout on the example configs, recorded before the SA
# optimizer evaluated moves incrementally, before the per-link reduction
# reused one scratch buffer, and before `scenario.dump_json` replaced
# `json.dumps(indent=2)` as the JSON emitter. All three changes must leave
# every byte as it was. The four `example_chain` hashes were recorded again
# when faded links came to report the time and energy of their mean capacity
# (the ergodic rate); its capacities are pinned below, and did not move.
PINNED = {
    ("simulate", "example_chain", "csv"): "87e0e4b544b289647b6a122018ec006d7a97b12bef1fd492a41057edddf8e617",
    ("simulate", "example_chain", "json"): "0b1e36d804f4053fab2ef8cb619dea671fc2101dd9ab5e77d8315aa288aa3c94",
    ("simulate", "example_optimize", "csv"): "20b63a16e066e582509032ce5af16b0cfcef22b14d78fd2a316d3dcefe09744f",
    ("simulate", "example_optimize", "json"): "6d460b02b21b8559b29e8b48f2a577f4ce6bfcf2b91f031d21f7cd4df06fae0d",
    ("sweep", "example_chain", "csv"): "950c46cdb01e42c2acf7bb3e23508151b6e133257275a126a152176363012adc",
    ("sweep", "example_chain", "json"): "027ca1952f840cf2a562f9cd6cf46a766cada0d089ea2ed06a8602a2d48c5bd2",
    ("sweep", "example_optimize", "csv"): "1f4eb01b8b8a22d1978fe9b1ddda8097f211070abdba9f2c1a9ec5f7d0753f50",
    ("sweep", "example_optimize", "json"): "6d46ea376d3f602a7d46fb59be3bb27a7d9f5aee0cb5216c50cd915a292d4215",
    ("optimize", "example_optimize", None): "d7affafcd067e68bd96fc7cfcbe6e3ff3609fce3127e9df3b63cf609353e0759",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("command,config,fmt", sorted(PINNED, key=str))
    def test_output_bytes_unchanged(self, command, config, fmt, capsys):
        argv = [command, "--config", str(CONFIGS / f"{config}.yaml")]
        if command == "sweep":
            argv += ["--gamma", "1,1.5,3,8"]
        if fmt is not None:
            argv += ["--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[(command, config, fmt)]
        if command == "optimize":
            assert json.loads(out)["evaluations"] == 8000 + 1

    def test_example_chain_capacities(self, capsys):
        # The mean capacities of the Rayleigh and Rician links at the file's
        # seed 7. Every other metric derives from them, so the capacity kernel
        # must reproduce them bit for bit.
        argv = ["simulate", "--config", str(CONFIGS / "example_chain.yaml"), "--format", "json"]
        assert main(argv) == 0
        links = json.loads(capsys.readouterr().out)["links"]
        assert {link["link_id"]: link["capacity_bps"] for link in links} == {
            "sensor->relay": 13793505.466767671,
            "relay->sink": 14812304.941704374,
        }


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "old,new,path",
        [
            pytest.param(
                "tx_power_w: 1.0, packet_length_bits: 100}\n    - {id: b",
                "tx_power_w: .nan, packet_length_bits: 100}\n    - {id: b",
                "topology.nodes[0]",
                id="tx_power_w",
            ),
            pytest.param(
                "signal_power_w: 1.0,", "signal_power_w: .nan,", "topology.links[0]",
                id="signal_power_w",
            ),
            pytest.param(
                "noise_power_w: 1.0,",
                "noise_power_w: 1.0, interference_power_w: .nan,",
                "topology.links[0]",
                id="interference_power_w",
            ),
            pytest.param(
                "gamma: 2.0}",
                "gamma: 2.0, fading: {kind: rician, k_factor: .nan}}",
                "topology.links[0].fading",
                id="k_factor",
            ),
            pytest.param(
                "p_max_w: 3.0", "p_max_w: 3.0\n  r_min_bps: .nan", "optimizer", id="r_min_bps"
            ),
            pytest.param("alpha: 1.0", "alpha: .nan", "optimizer", id="alpha"),
            pytest.param("beta: 1.0", "beta: .nan", "optimizer", id="beta"),
        ],
    )
    def test_nan_field_exits_1_with_path(self, config_file, capsys, old, new, path):
        assert old in OPTIMIZABLE
        cfg = config_file(OPTIMIZABLE.replace(old, new))
        assert main(["simulate", "--config", cfg]) == 1
        assert f"error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,path",
        [
            # Unused by any link, so only the config echo would carry it.
            pytest.param(
                "{id: b, tx_power_w: 1.0", "{id: b, tx_power_w: .inf", "topology.nodes[1]",
                id="tx_power_w",
            ),
            pytest.param("p_max_w: 3.0", "p_max_w: .inf", "optimizer", id="p_max_w"),
            pytest.param("alpha: 1.0", "alpha: .inf", "optimizer", id="alpha"),
            pytest.param(
                "{iterations: 300}", "{iterations: 300, t_initial: .inf}", "optimizer.schedule",
                id="t_initial",
            ),
        ],
    )
    def test_infinite_field_exits_1_with_path(self, config_file, capsys, old, new, path):
        assert old in OPTIMIZABLE
        cfg = config_file(OPTIMIZABLE.replace(old, new))
        assert main(["simulate", "--config", cfg, "--format", "json"]) == 1
        assert f"error: {path}:" in capsys.readouterr().err

    def test_underflowing_capacity_is_an_outage(self, config_file, capsys):
        # The signal survives h2 * S > 0, but B * log2(1 + S h2 / N) is
        # subnormal and the packet time overflows to inf.
        text = (
            GOOD.replace("bandwidth_hz: 1.0e3", "bandwidth_hz: 1.0e-10")
            .replace("signal_power_w: 2.0", "signal_power_w: 1.0e-300")
            .replace("noise_power_w: 1.0", "noise_power_w: 1.0e10")
        )
        assert main(["simulate", "--config", config_file(text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "all samples were outages" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_capacity_exits_1_with_path(self, config_file, capsys):
        # B log2(1 + S/N) overflows to inf, so the tx times are 0 and the
        # time reduction ratio would be 0/0.
        text = GOOD.replace("bandwidth_hz: 1.0e3", "bandwidth_hz: 1.0e308").replace(
            "signal_power_w: 2.0", "signal_power_w: 1.0e6"
        )
        assert main(["simulate", "--config", config_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: topology.links[0]: capacity overflows" in captured.err

    @pytest.mark.parametrize(
        "old,new",
        [
            # Every energy is 0, so the energy ratio would be 0/0.
            pytest.param("{id: a, tx_power_w: 1.0", "{id: a, tx_power_w: 0.0", id="zero-power"),
            # Every packet time underflows to 0 once divided by gamma.
            pytest.param(
                "{id: a, tx_power_w: 1.0, packet_length_bits: 100}",
                "{id: a, tx_power_w: 1.0, packet_length_bits: 5.0e-324}",
                id="underflowing-time",
            ),
        ],
    )
    def test_zero_trs_time_or_energy_exits_1_with_path(self, config_file, capsys, old, new):
        text = GOOD.replace(old, new).replace("gamma: 2.0", "gamma: 8")
        assert text.count("gamma: 8") == 1 and new in text
        assert main(["simulate", "--config", config_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: topology.links[0]: TRS ratios undefined" in captured.err

    def test_overflowing_total_exits_1_with_path(self, config_file, capsys):
        # Each link's energy is 1e308 J; their sum overflows.
        node = "tx_power_w: 1.0, packet_length_bits: 100"
        back = "{src: b, dst: a, bandwidth_hz: 1.0, signal_power_w: 1.0, noise_power_w: 1.0}"
        text = (
            OPTIMIZABLE.split("optimizer:")[0]
            .replace(node, "tx_power_w: 1.0e300, packet_length_bits: 1.0e8")
            .replace("gamma: 2.0}", f"gamma: 1.0}}\n    - {back}")
        )
        assert text.count("1.0e300") == 2 and "src: b" in text
        assert main(["simulate", "--config", config_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: topology.links: the total of energy_j overflows" in captured.err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestStrictJson:
    def test_unlimited_latency_echoes_null(self, config_file, capsys):
        # OPTIMIZABLE omits latency_max_s, which defaults to inf.
        assert "latency_max_s" not in OPTIMIZABLE
        cfg = config_file(OPTIMIZABLE)
        assert main(["simulate", "--config", cfg, "--format", "json"]) == 0
        tree = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert tree["config"]["optimizer"]["latency_max_s"] is None

    def test_null_echo_reads_back_as_no_limit(self):
        config = load_scenario(OPTIMIZABLE)
        echoed = load_scenario(json.dumps(config.echo(), allow_nan=False))
        assert echoed.optimizer.latency_max_s == math.inf
        assert echoed.echo() == config.echo()


class TestAwgnMeanPower:
    def test_a_mean_power_on_an_awgn_link_exits_1(self, config_file, capsys):
        text = GOOD.replace("{kind: rayleigh}", "{kind: awgn, mean_power: 7.0}")
        assert main(["simulate", "--config", config_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: topology.links[0].fading: mean_power must be 1 for AWGN fading, got 7.0\n"
        )

    def test_the_unit_mean_power_is_the_awgn_link(self):
        awgn = load_scenario(GOOD.replace("{kind: rayleigh}", "{kind: awgn}"))
        text = GOOD.replace("{kind: rayleigh}", "{kind: awgn, mean_power: 1}")
        assert load_scenario(text) == awgn


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_seed_flag_out_of_range_exits_1(self, config_file, capsys, command, seed):
        cfg = config_file(OPTIMIZABLE)
        assert main([command, "--config", cfg, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: monte_carlo.seed: must fit in 64 unsigned bits, got {seed}\n"
        )

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_ergodic_seed_out_of_range_exits_1(self, config_file, capsys, seed):
        text = OPTIMIZABLE.replace(
            "schedule: {iterations: 300}",
            f"schedule: {{iterations: 300}}\n  fading: {{treatment: ergodic, seed: {seed}}}",
        ).replace("gamma: 2.0}", "gamma: 2.0, fading: {kind: rayleigh}}")
        assert main(["optimize", "--config", config_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: optimizer.fading: seed must fit in 64 unsigned bits, got {seed}\n"
        )

    def test_seed_flag_at_the_top_of_the_range_runs(self, config_file, capsys):
        cfg = config_file(OPTIMIZABLE)
        assert main(["optimize", "--config", cfg, "--seed", str(2**64 - 1)]) == 0
        assert capsys.readouterr().err == ""


def _ergodic_optimizer(n_samples) -> str:
    return (
        "optimizer:\n  p_min_w: 0.2\n  p_max_w: 3.0\n"
        f"  fading: {{treatment: ergodic, n_samples: {n_samples}}}\n"
    )


class TestSampleCeiling:
    @pytest.mark.parametrize(
        "count", [2**64, 10**400, MAX_SAMPLES + 1], ids=["2**64", "10**400", "ceiling+1"]
    )
    @pytest.mark.parametrize(
        "place, error",
        [
            ("monte_carlo", "monte_carlo.n_samples: must be between 1 and"),
            ("flag", "monte_carlo.n_samples: must be between 1 and"),
            ("optimizer", "optimizer.fading: n_samples must be between 1 and"),
        ],
    )
    def test_count_above_ceiling_exits_1(self, config_file, capsys, place, error, count):
        text, flags = GOOD, []
        if place == "monte_carlo":
            text = GOOD.replace("n_samples: 200", f"n_samples: {count}")
        elif place == "flag":
            flags = ["--samples", str(count)]
        else:
            text = GOOD + _ergodic_optimizer(count)
        assert main(["simulate", "--config", config_file(text), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error} {MAX_SAMPLES}, got {count}")

    @pytest.mark.parametrize("count", [0, -1])
    def test_samples_flag_below_one_exits_1(self, config_file, capsys, count):
        assert main(["simulate", "--config", config_file(GOOD), "--samples", str(count)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: monte_carlo.n_samples: must be between 1 and {MAX_SAMPLES}, got {count}\n"
        )

    def test_ceiling_itself_loads(self):
        text = GOOD.replace("n_samples: 200", f"n_samples: {MAX_SAMPLES}")
        text += _ergodic_optimizer(MAX_SAMPLES)
        config = load_scenario(text)
        assert config.n_samples == config.optimizer.fading.n_samples == MAX_SAMPLES


class TestIterationCeiling:
    @pytest.mark.parametrize(
        "count", [2**64, 10**400, MAX_ITERATIONS + 1], ids=["2**64", "10**400", "ceiling+1"]
    )
    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_count_above_ceiling_exits_1(self, config_file, capsys, command, count):
        text = OPTIMIZABLE.replace("iterations: 300", f"iterations: {count}")
        assert main([command, "--config", config_file(text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: optimizer.schedule: iterations must be between 1 and {MAX_ITERATIONS}, "
            f"got {count}"
        )

    def test_ceiling_itself_loads(self):
        text = OPTIMIZABLE.replace("iterations: 300", f"iterations: {MAX_ITERATIONS}")
        assert load_scenario(text).optimizer.schedule.iterations == MAX_ITERATIONS


# A document that simulates in milliseconds with every section present.
MUTABLE = {
    "topology": {
        "kind": "mesh",
        "nodes": [
            {"id": "a", "tx_power_w": 1.0, "packet_length_bits": 100},
            {"id": "b", "tx_power_w": 2.0, "packet_length_bits": 300.0},
        ],
        "links": [
            {
                "src": "a",
                "dst": "b",
                "bandwidth_hz": 1.0e3,
                "signal_power_w": 2.0,
                "noise_power_w": 1.0,
                "interference_power_w": 0.1,
                "fading": {"kind": "rician", "mean_power": 1.0, "k_factor": 2.0},
                "gamma": 2.0,
            },
            {
                "src": "b",
                "dst": "a",
                "bandwidth_hz": 1.0e3,
                "signal_power_w": 2.0,
                "noise_power_w": 1.0,
                "fading": {"kind": "rayleigh"},
            },
        ],
    },
    "monte_carlo": {"n_samples": 20, "seed": 3},
    "optimizer": {
        "p_min_w": 0.1,
        "p_max_w": 2.0,
        "r_min_bps": 1.0,
        "latency_max_s": 100.0,
        "weights": {"alpha": 1.0, "beta": 0.5},
        "schedule": {"t_initial": 1.0, "cooling": 0.9, "iterations": 20},
        "fading": {"treatment": "ergodic", "n_samples": 10, "seed": 4},
    },
    "output": {"format": "json"},
}

_VALUES = st.sampled_from(
    [None, True, "x", "a", "rayleigh", "ergodic", "chain", "star", [], {}, {"zz": 1}, [{}],
     -1, 0, 1, 3, 0.0, -0.0, 0.5, 2.0, 5e-324, 1e-300, 1e300, 1e308,
     math.nan, math.inf, -math.inf, 2**64, 10**400]
)
# Sample and iteration counts set the work a run does, so they only take
# small values or values above their ceiling: a count in the millions is a
# long run, not a malformed document, and one above the ceiling must exit 1.
_SIZES = [None, True, "x", 1.5, -1, 0, 1, 2, 7, 2**64, 10**400]
_COUNTS = {
    "n_samples": st.sampled_from(_SIZES + [MAX_SAMPLES + 1]),
    "iterations": st.sampled_from(_SIZES + [MAX_ITERATIONS + 1]),
}


def _places(tree, path=()):
    """Every (container, key) of the tree, outermost first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield tree, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(MUTABLE)
    for _ in range(draw(st.integers(1, 3))):
        places = list(_places(doc))
        if not places:
            break
        container, key, _path = draw(st.sampled_from(places))
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "delete":
            del container[key]
        elif action == "add" and isinstance(container[key], dict):
            container[key][draw(st.sampled_from(("zz", 1)))] = "y"
        else:
            # A copy: a later mutation must not change the shared sample.
            container[key] = copy.deepcopy(draw(_COUNTS.get(key, _VALUES)))
    return doc


def _finite_numbers(tree) -> bool:
    if isinstance(tree, dict):
        return all(_finite_numbers(v) for v in tree.values())
    if isinstance(tree, list):
        return all(_finite_numbers(v) for v in tree)
    return not isinstance(tree, float) or math.isfinite(tree)


class TestMutatedDocuments:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mutated_documents())
    def test_simulate_ends_in_one_of_three_ways(self, config_file, capsys, doc):
        cfg = config_file(yaml.safe_dump(doc))
        code = main(["simulate", "--config", cfg, "--format", "json"])
        captured = capsys.readouterr()
        if code == 0:
            tree = json.loads(captured.out, parse_constant=_reject_constant)
            assert _finite_numbers(tree)
        elif code == 1:
            assert captured.out == ""
            path = r"(<root>|topology|monte_carlo|optimizer|output|zz|1)[\w.\[\]]*"
            assert re.match(f"error: {path}: ", captured.err), captured.err
        else:
            assert code == 2 and captured.err.startswith("error: ")

    def test_annealer_capacity_overflow_is_infeasible_not_a_warning(self, config_file, capsys):
        # Near p_max_w = 1e308, p * |h|^2 overflows for a faded draw above 1;
        # found by the test above. RuntimeWarnings are errors in this suite.
        doc = copy.deepcopy(MUTABLE)
        doc["optimizer"]["p_max_w"] = 1e308
        assert main(["simulate", "--config", config_file(yaml.safe_dump(doc))]) == 2
        assert capsys.readouterr().err == (
            "error: no feasible allocation with a finite objective encountered\n"
        )
