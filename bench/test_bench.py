"""Self-test of the benchmark: checks pass on correct output, catch corrupted
output, tracing keeps the output bytes, and the run honours its contract.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "mesh_simulate": {"nodes": 6, "links": 15, "samples": 50},
    "chain_sweep": {"links": 3, "samples": 300},
    "mesh_optimize": {"nodes": 6, "links": 9, "draws": 20, "iterations": 40},
    "mimo_ergodic": {"cells": 5},
}
SEEDS = (0, 1, 2, 977, 2**40 + 3)


def produce(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    case = workloads.generate(name, seed, workdir, TINY[name])
    code, text = child.make_invoke(case.child_spec())()
    assert code == 0
    return case, text


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.NAMES)
def test_checks_pass_on_every_seed(name, seed, tmp_path):
    case, text = produce(name, seed, tmp_path)
    assert checks.check(case, text) == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generation_is_deterministic(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.generate(name, 5, tmp_path / "a", TINY[name])
    b = workloads.generate(name, 5, tmp_path / "b", TINY[name])
    assert a.expect == b.expect and a.work == b.work
    if a.argv:
        assert Path(a.argv[2]).read_bytes() == Path(b.argv[2]).read_bytes()


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


def _scale(path: tuple, factor: float):
    def edit(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] *= factor

    return edit


MESH_CORRUPTIONS = {
    "capacity_trs": lambda t: _edit_json(t, _scale(("links", 0, "capacity_trs_bps"), 1 + 1e-9)),
    "tx_time_trs": lambda t: _edit_json(t, _scale(("links", 1, "tx_time_trs_s"), 1 + 1e-9)),
    "energy_trs": lambda t: _edit_json(t, _scale(("links", 2, "energy_trs_j"), 1 + 1e-9)),
    "latency_trs": lambda t: _edit_json(t, _scale(("links", 3, "latency_trs_s"), 1 + 1e-9)),
    "trs_ratio": lambda t: _edit_json(
        t, _scale(("links", 4, "trs_ratios", "energy_reduction"), 1 + 1e-9)
    ),
    "total": lambda t: _edit_json(t, _scale(("totals", "energy_j"), 1 + 1e-9)),
    "infinity_token": lambda t: re.sub(r'"energy_j": [^,]+,', '"energy_j": Infinity,', t, count=1),
    "nan_token": lambda t: re.sub(r'"capacity_bps": [^,]+,', '"capacity_bps": NaN,', t, count=1),
    "overflow": lambda t: re.sub(r'"tx_time_s": [^,]+,', '"tx_time_s": 1e999,', t, count=1),
    "outage_count": lambda t: _edit_json(t, lambda d: d["links"][0].update(outages=1)),
    "link_order": lambda t: _edit_json(t, lambda d: d["links"].reverse()),
    "truncated": lambda t: t[: len(t) // 2],
}

SWEEP_CORRUPTIONS = {
    "dropped_row": lambda t: "\n".join(t.split("\n")[:2] + t.split("\n")[3:]),
    "scaled_throughput": lambda t: t.replace(
        t.split("\n")[2].split(",")[1], repr(float(t.split("\n")[2].split(",")[1]) * (1 + 1e-9))
    ),
    "inf_cell": lambda t: t.replace(t.split("\n")[3].split(",")[2], "inf"),
    "header": lambda t: t.replace("total_energy_j", "energy_j"),
}

OPTIMIZE_CORRUPTIONS = {
    "power_outside_box": lambda t: _edit_json(t, lambda d: d["powers_w"].__setitem__(0, 0.2)),
    "power_below_box": lambda t: _edit_json(t, lambda d: d["powers_w"].__setitem__(1, 5e-4)),
    "objective": lambda t: _edit_json(t, _scale(("objective",), 1 + 1e-9)),
    "evaluations": lambda t: _edit_json(t, lambda d: d.update(evaluations=d["evaluations"] - 1)),
    "infeasible": lambda t: _edit_json(t, lambda d: d.update(feasible=False)),
    "infinity_token": lambda t: re.sub(r'"objective": [^,]+,', '"objective": Infinity,', t),
}

MIMO_CORRUPTIONS = {
    "scaled_total": lambda t: "\n".join(
        [repr(float(t.split("\n")[0]) * (1 + 1e-8))] + t.split("\n")[1:]
    ),
    "dropped_cell": lambda t: "\n".join(t.split("\n")[1:]),
}

CORRUPTIONS = [
    (name, label, corrupt)
    for name, table in (
        ("mesh_simulate", MESH_CORRUPTIONS),
        ("chain_sweep", SWEEP_CORRUPTIONS),
        ("mesh_optimize", OPTIMIZE_CORRUPTIONS),
        ("mimo_ergodic", MIMO_CORRUPTIONS),
    )
    for label, corrupt in table.items()
]


@pytest.mark.parametrize("name,label,corrupt", CORRUPTIONS, ids=[f"{n}-{l}" for n, l, _ in CORRUPTIONS])
def test_checks_catch_corrupted_output(name, label, corrupt, tmp_path):
    case, text = produce(name, 3, tmp_path)
    corrupted = corrupt(text)
    assert corrupted != text
    assert checks.check(case, corrupted), f"{label} not caught"


def test_differing_bytes_fail_the_invocation():
    outputs = iter(["ref"] * 5 + ["other"] + ["ref"] * 100)
    samples = child.closed_loop(lambda: (0, next(outputs)), 0.0, "ref", [])
    assert len(samples) == child.MIN_SAMPLES
    assert [s["ok"] for s in samples].count(False) == 1


def test_crashing_invocation_fails_and_loop_survives():
    def invoke():
        raise ZeroDivisionError("boom")

    errors = []
    samples = child.closed_loop(invoke, 0.0, "ref", errors)
    assert not any(s["ok"] for s in samples)
    assert "ZeroDivisionError" in errors[0]


def _expected_layers(name: str) -> dict:
    size = TINY[name]
    if name == "mesh_simulate":
        draws = size["links"] * size["samples"]
        return {"scenario.links_reduced": size["links"], "channel.draws": draws, "scenario.run_calls": 1}
    if name == "chain_sweep":
        gammas = len(workloads.SWEEP_GAMMAS)
        return {
            "scenario.run_calls": gammas,
            "scenario.links_reduced": size["links"] * gammas,
            "channel.draws": size["links"] * size["samples"] * gammas,
        }
    if name == "mesh_optimize":
        faded = sum(1 for i in range(size["links"]) if i % 3)
        return {
            "optimizer.evaluations": size["iterations"] + 1,
            "channel.draws": faded * size["draws"],
            "scenario.run_calls": 0,
        }
    flops = sum(8 * j * (n - j) for n in workloads.MIMO_ANTENNAS for j in range(n))
    return {
        "mimo.logdets": size["cells"] * len(workloads.MIMO_ANTENNAS),
        "mimo.logdet_flops": size["cells"] * flops,
        "cli.main_s": 0.0,
    }


def test_tracing_keeps_bytes_and_counts_work(tmp_path, monkeypatch):
    untraced = {name: produce(name, 11, tmp_path / name) for name in workloads.NAMES}
    for module_name, attr, _ in tracing.SITES:
        monkeypatch.setattr(f"qwsnsim.{module_name}.{attr}", getattr(sys.modules[f"qwsnsim.{module_name}"], attr))
    monkeypatch.setattr("qwsnsim.scenario.yaml", sys.modules["qwsnsim.scenario"].yaml)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for name, (case, reference) in untraced.items():
        tracer.spans.clear()
        code, text = child.make_invoke(case.child_spec())()
        assert code == 0 and text == reference, name
        layers = tracing.layer_metrics(tracer.spans, len(text.encode()), case.input_bytes)
        assert set(layers) | {"trace.overhead_ratio", "host.factor"} == {
            m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        }
        for metric, value in _expected_layers(name).items():
            assert layers[metric] == value, (name, metric)
        if case.argv:
            assert layers["cli.main_s"] >= layers["cli.self_s"] >= 0
            assert layers["scenario.load_s"] >= layers["scenario.parse_s"] > 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ("0", "1"))
def test_run_prints_every_metric_of_its_mode(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "mimo_ergodic", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 12
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "mesh_simulate", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
