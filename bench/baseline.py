"""Repeat the benchmark over several seeds and summarize every end-to-end metric.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 101-110 [--workloads a,b] [--label set1] [--out FILE]

Runs ``BENCHMARK.json``'s command once per workload and seed, untraced, with
its ``run_seconds``, seed by seed so that drift in host speed reaches every
workload alike. For each workload and metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound.
With ``--out`` the summary is stored in FILE under ``--label``, keeping the
other labels already there, and each median is compared with the same
median under every other label: the share by which it is worse, next to the
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def host() -> dict:
    """The hardware and software the runs were made on."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_sets(bench: dict, names: list[str], seeds: list[int]):
    """Per workload: every metric's values, and the attempted and failed
    invocation counts summed over the runs; plus the failed runs."""
    metrics = [m["name"] for m in bench["end_to_end"]]
    values = {name: {metric: [] for metric in metrics} for name in names}
    counts = {name: {"attempted": 0, "failed": 0} for name in names}
    failures = []
    for seed in seeds:
        for name in names:
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{name} seed {seed}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failures.append(f"{name} seed {seed}: incorrect: {done.stdout[-800:]}")
            for metric in metrics:
                values[name][metric].append(result["metrics"][metric]["value"])
            for key in counts[name]:
                counts[name][key] += result[key]
            print(
                f"{name} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.4f}, "
                f"attempted {result['attempted']}, failed {result['failed']}",
                flush=True,
            )
    return values, counts, failures


def compare(summary: dict, label: str, stored: dict, bench: dict) -> None:
    """Print how much worse each median is than under every other label."""
    for other_label, other in stored.items():
        if other_label == label:
            continue
        for name, workload in summary["workloads"].items():
            if name not in other["workloads"]:
                continue
            for m in bench["end_to_end"]:
                new = workload["metrics"][m["name"]]["median"]
                old = other["workloads"][name]["metrics"][m["name"]]["median"]
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                flag = "" if worse <= m["bound"] else "  <-- worse than the bound"
                print(
                    f"{name:14s} {m['name']:14s} {label} vs {other_label}: "
                    f"worse by {worse:+.4f} (bound {m['bound']}){flag}"
                )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 101-110")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--label", default="runs")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    values, counts, failures = run_sets(bench, names, seed_range(args.seeds))

    summary = {"seeds": args.seeds, "host": host(), "workloads": {}}
    for name in names:
        summary["workloads"][name] = {
            **counts[name],
            "metrics": {m: summarize(v) for m, v in values[name].items()},
        }
        print(f"{name}: attempted {counts[name]['attempted']}, failed {counts[name]['failed']}")
        for metric, stats in summary["workloads"][name]["metrics"].items():
            flag = "" if stats["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(
                f"{name:14s} {metric:14s} median {stats['median']:.6g}  "
                f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                f"spread {stats['spread']:.4f} (bound {bounds[metric]}){flag}"
            )
    for line in failures:
        print(f"FAILED {line}")
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        compare(summary, args.label, stored, bench)
        stored[args.label] = summary
        path.write_text(json.dumps(stored, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
