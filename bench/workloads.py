"""Seeded inputs, invocations and work units of the benchmark workloads.

Every workload is generated from the benchmark seed alone: the same seed gives
the same scenario files, the same command line and the same expected values
for the output checks. The program under test only ever sees the generated
files and argv.

Numbers are written at six significant digits, as a hand-written scenario
would be, so the YAML/JSON documents keep a realistic size per link.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("mesh_simulate", "chain_sweep", "mesh_optimize", "mimo_ergodic")

# Sizes tuned so one invocation takes 0.4 to 0.8 s on a 2-core x86 host, which
# gives every run 25 to 50 timed invocations in a 20 s window.
SIZES = {
    "mesh_simulate": {"nodes": 100, "links": 400, "samples": 1000},
    "chain_sweep": {"links": 16, "samples": 80_000},
    "mesh_optimize": {"nodes": 100, "links": 150, "draws": 200, "iterations": 400},
    "mimo_ergodic": {"cells": 1500},
}

SWEEP_GAMMAS = (1.0, 2.0, 4.0, 8.0)
SWEEP_HEADER = "gamma,total_throughput_bps,total_energy_j,total_latency_s"

# mimo_ergodic: one user per antenna configuration in each cell, 10 dB SNR
# (unit noise, so the total power is 10 W) and a TRS gain of 2.
MIMO_ANTENNAS = (2, 4, 8)
MIMO_POWER_W = 10.0
MIMO_GAMMA = 2.0

_FADING_KINDS = ("awgn", "rayleigh", "rician")


@dataclass
class Case:
    """One generated workload instance.

    ``argv`` is the CLI command line (empty for the library loop), ``work`` the
    work units one invocation does, and ``expect`` what the output checks
    compare against.
    """

    name: str
    seed: int
    work: float
    work_unit: str
    argv: list = field(default_factory=list)
    input_bytes: int = 0
    expect: dict = field(default_factory=dict)

    def child_spec(self) -> dict:
        if self.argv:
            return {"kind": "cli", "argv": self.argv}
        return {"kind": "mimo", "seed": self.seed, "cells": self.expect["cells"]}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(NAMES.index(name),)))


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def _nodes(rng, count: int) -> list[dict]:
    return [
        {
            "id": f"n{i:03d}",
            "tx_power_w": _sig(rng.uniform(0.05, 2.0)),
            "packet_length_bits": int(rng.choice((512, 1024, 2048, 4096, 8192))),
        }
        for i in range(count)
    ]


def _link(rng, src: str, dst: str, kind: str) -> dict:
    noise = _sig(10 ** rng.uniform(-10, -9))
    link = {
        "src": src,
        "dst": dst,
        "bandwidth_hz": _sig(10 ** rng.uniform(5, 7)),
        "signal_power_w": _sig(10 ** rng.uniform(-7, -5)),
        "noise_power_w": noise,
        "interference_power_w": _sig(rng.uniform(0.0, 0.5) * noise),
        "fading": {"kind": kind},
        "gamma": _sig(rng.uniform(1.0, 4.0)),
    }
    if kind != "awgn":
        link["fading"]["mean_power"] = _sig(rng.uniform(0.5, 2.0))
    if kind == "rician":
        link["fading"]["k_factor"] = _sig(rng.uniform(0.0, 10.0))
    return link


def _mesh_links(rng, nodes: list[dict], count: int) -> list[dict]:
    """``count`` distinct directed pairs, fading kinds in equal shares."""
    n = len(nodes)
    picks = rng.choice(n * (n - 1), size=count, replace=False)
    links = []
    for i, pick in enumerate(picks):
        src, off = divmod(int(pick), n - 1)
        dst = off + (off >= src)
        links.append(_link(rng, nodes[src]["id"], nodes[dst]["id"], _FADING_KINDS[i % 3]))
    return links


def _yaml_scalar(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _yaml_flow(mapping: dict) -> str:
    parts = []
    for key, value in mapping.items():
        text = _yaml_flow(value) if isinstance(value, dict) else _yaml_scalar(value)
        parts.append(f"{key}: {text}")
    return "{" + ", ".join(parts) + "}"


def _yaml_document(doc: dict) -> str:
    """Block-style top level with one flow mapping per node and per link."""
    topo = doc["topology"]
    lines = ["topology:", f"  kind: {topo['kind']}", "  nodes:"]
    lines += [f"    - {_yaml_flow(node)}" for node in topo["nodes"]]
    lines.append("  links:")
    lines += [f"    - {_yaml_flow(link)}" for link in topo["links"]]
    for section in ("monte_carlo", "optimizer"):
        if section in doc:
            lines.append(f"{section}:")
            for key, value in doc[section].items():
                text = _yaml_flow(value) if isinstance(value, dict) else _yaml_scalar(value)
                lines.append(f"  {key}: {text}")
    return "\n".join(lines) + "\n"


def _write(workdir: Path, filename: str, text: str) -> tuple[str, int]:
    path = workdir / filename
    path.write_text(text)
    return str(path), len(text.encode())


def _mesh_simulate(seed: int, workdir: Path, size: dict) -> Case:
    rng = _rng("mesh_simulate", seed)
    nodes = _nodes(rng, size["nodes"])
    links = _mesh_links(rng, nodes, size["links"])
    doc = {
        "topology": {"kind": "mesh", "nodes": nodes, "links": links},
        "monte_carlo": {"n_samples": size["samples"], "seed": seed},
    }
    path, nbytes = _write(workdir, "mesh_simulate.yaml", _yaml_document(doc))
    return Case(
        name="mesh_simulate",
        seed=seed,
        work=float(size["links"] * size["samples"]),
        work_unit="link-samples",
        argv=["simulate", "--config", path, "--format", "json", "--threads", "2"],
        input_bytes=nbytes,
        expect={"seed": seed, "n_samples": size["samples"], "links": links},
    )


def _chain_sweep(seed: int, workdir: Path, size: dict) -> Case:
    rng = _rng("chain_sweep", seed)
    nodes = _nodes(rng, size["links"] + 1)
    links = [
        _link(rng, a["id"], b["id"], ("rayleigh", "rician")[i % 2])
        for i, (a, b) in enumerate(zip(nodes, nodes[1:]))
    ]
    doc = {
        "topology": {"kind": "chain", "nodes": nodes, "links": links},
        "monte_carlo": {"n_samples": size["samples"], "seed": seed},
    }
    path, nbytes = _write(workdir, "chain_sweep.json", json.dumps(doc, indent=1) + "\n")
    gammas = ",".join(f"{g:g}" for g in SWEEP_GAMMAS)
    return Case(
        name="chain_sweep",
        seed=seed,
        work=float(size["links"] * size["samples"] * len(SWEEP_GAMMAS)),
        work_unit="link-samples x gammas",
        argv=["sweep", "--config", path, "--gamma", gammas, "--format", "csv", "--threads", "1"],
        input_bytes=nbytes,
        expect={"gammas": list(SWEEP_GAMMAS)},
    )


def _mesh_optimize(seed: int, workdir: Path, size: dict) -> Case:
    rng = _rng("mesh_optimize", seed)
    nodes = _nodes(rng, size["nodes"])
    links = _mesh_links(rng, nodes, size["links"])
    # Node powers are the decision variables and act as each link's signal
    # power. With noise + interference below 1.5e-9 W, every link's SNR is
    # above 50 dB at p_min, so capacities exceed ~1e6 bit/s everywhere in the
    # box: a 1 bit/s rate floor and a 1e4 s latency cap are finite but never
    # bind.
    optimizer = {
        "p_min_w": 1.0e-3,
        "p_max_w": 0.1,
        "r_min_bps": 1.0,
        "latency_max_s": 1.0e4,
        "weights": {"alpha": 1.0, "beta": 0.01},
        "schedule": {"cooling": 0.95, "iterations": size["iterations"]},
        "fading": {"treatment": "ergodic", "n_samples": size["draws"], "seed": seed},
    }
    doc = {
        "topology": {"kind": "mesh", "nodes": nodes, "links": links},
        "monte_carlo": {"n_samples": 1, "seed": seed},
        "optimizer": optimizer,
    }
    path, nbytes = _write(workdir, "mesh_optimize.yaml", _yaml_document(doc))
    return Case(
        name="mesh_optimize",
        seed=seed,
        work=float(size["iterations"] + 1),
        work_unit="SA evaluations",
        argv=["optimize", "--config", path],
        input_bytes=nbytes,
        expect={"nodes": nodes, "links": links, "optimizer": optimizer},
    )


def _mimo_ergodic(seed: int, workdir: Path, size: dict) -> Case:
    return Case(
        name="mimo_ergodic",
        seed=seed,
        work=float(size["cells"] * len(MIMO_ANTENNAS)),
        work_unit="log-dets",
        expect={"cells": size["cells"]},
    )


_GENERATORS = {
    "mesh_simulate": _mesh_simulate,
    "chain_sweep": _chain_sweep,
    "mesh_optimize": _mesh_optimize,
    "mimo_ergodic": _mimo_ergodic,
}


def generate(name: str, seed: int, workdir: Path, size: dict | None = None) -> Case:
    """Write the workload's inputs under ``workdir`` and describe the run."""
    return _GENERATORS[name](seed, Path(workdir), size or SIZES[name])


def rayleigh_users(seed: int, cells: int):
    """Yield, cell by cell, one i.i.d. CN(0, 1) channel matrix per antenna size."""
    rng = _rng("mimo_ergodic", seed)
    scale = 1.0 / math.sqrt(2.0)
    for _ in range(cells):
        yield [
            scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for n in MIMO_ANTENNAS
        ]


def mimo_loop(seed: int, cells: int) -> str:
    """The mimo_ergodic invocation: draw every cell's users, then sum their
    TRS capacities with ``multiuser_mimo_total``. One total per line."""
    from qwsnsim import mimo
    from qwsnsim.channel import TrsGain

    gain = TrsGain(MIMO_GAMMA)
    lines = []
    for hs in rayleigh_users(seed, cells):
        channels = [mimo.MimoChannel(h, MIMO_POWER_W) for h in hs]
        lines.append(repr(mimo.multiuser_mimo_total(channels, gain)))
    return "\n".join(lines) + "\n"
