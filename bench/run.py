"""qwsnsim benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed, measures the set-up
time (fresh-process ``import qwsnsim.cli``), then starts a measuring child
(``child.py``) that has already imported the package and runs the workload as
a closed loop: one caller, one invocation at a time, for S seconds. The
reference output is checked here, outside any timed region, and every timed
invocation must reproduce its bytes.

The host is shared, and its speed drifts by 10-25% over minutes. Every
end-to-end time is therefore reported at a reference host speed: each
invocation's time is scaled by REFERENCE_PROBE_S over the ``child.host_probe``
time taken just before it. ``setup_s`` is divided by the run's host factor,
the probe's median over REFERENCE_PROBE_S. The summary lines print the raw
medians and the factor.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced loop (see ``tracing.py``). Lines before it are a readable
summary of every metric with its unit, and of ``fail_ratio``, failed over
attempted invocations. The JSON carries ``success_ratio``, which is
1 - fail_ratio, because a reported metric must never read 0. Without the
package sources next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Fresh-process imports timed for setup_s, after one untimed import that
# writes the bytecode caches.
SETUP_RUNS = 21
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import qwsnsim.cli; "
    "print(repr(time.perf_counter() - t))"
)
# host_probe's time on the reference host; a factor of 1 reports raw seconds.
REFERENCE_PROBE_S = 0.0035
# The whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS/OpenMP thread: the only parallelism measured is the program's own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> float:
    command = [sys.executable, "-c", SETUP_PROBE]
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            command, env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def run_child(case, seconds: int, trace: bool, workdir: Path, env: dict) -> dict:
    spec = {
        "invocation": case.child_spec(),
        "package_dir": str(SRC / "qwsnsim"),
        "seconds": seconds,
        "trace": trace,
        "input_bytes": case.input_bytes,
        "reference_path": str(workdir / "reference.out"),
        "result_path": str(workdir / "result.json"),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"measuring child exited {done.returncode}:\n{done.stderr}")
    return json.loads((workdir / "result.json").read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it, and its
    percentile rank. Needs at least 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_factor(samples: list[dict]) -> float:
    return statistics.median(s["probe"] for s in samples) / REFERENCE_PROBE_S


def at_reference_speed(samples: list[dict], key: str) -> list[float]:
    """Each invocation's time scaled by the probe taken just before it."""
    return [s[key] * REFERENCE_PROBE_S / s["probe"] for s in samples]


def end_to_end(case, result: dict, setup_s: float, failed: int, attempted: int) -> dict:
    timed = result["timed"]
    factor = host_factor(timed)
    walls = at_reference_speed(timed, "wall")
    wall_s = statistics.median(walls)
    tail_s, tail_pct = tail(walls)
    print(
        f"host factor {factor:.4f}; raw medians: wall_s "
        f"{statistics.median(s['wall'] for s in timed):.6f}, cpu_s "
        f"{statistics.median(s['cpu'] for s in timed):.6f}, setup_s {setup_s:.6f}"
    )
    print(
        f"wall_tail_s is p{tail_pct:.1f} of {len(walls)} timed invocations "
        f"(10 beyond it); work unit: {case.work_unit}, {case.work:g} per invocation"
    )
    # Completed work per second at the median invocation.
    completed = sum(s["ok"] for s in timed) / len(timed)
    return {
        "setup_s": metric(setup_s / factor, "s"),
        "wall_s": metric(wall_s, "s"),
        "wall_tail_s": metric(tail_s, "s"),
        "cpu_s": metric(statistics.median(at_reference_speed(timed, "cpu")), "s"),
        "work_per_s": metric(case.work * completed / wall_s, "work/s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
        "success_ratio": metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(result: dict, layer_units: dict) -> dict:
    """Medians over the traced invocations, in raw seconds, of every metric
    ``layer_units`` names. The overhead ratio compares the traced and
    untraced halves at reference speed."""
    traced, untraced = result["traced"], result["untraced"]
    traced_wall = statistics.median(at_reference_speed(traced, "wall"))
    untraced_wall = statistics.median(at_reference_speed(untraced, "wall"))
    print(
        f"traced {len(traced)} and untraced {len(untraced)} invocations; median wall "
        f"{traced_wall:.6f} s traced, {untraced_wall:.6f} s untraced at reference speed"
    )
    metrics = {
        "trace.overhead_ratio": metric(traced_wall / untraced_wall, "ratio"),
        "host.factor": metric(host_factor(traced), "ratio"),
    }
    for name, unit in layer_units.items():
        if name not in metrics:
            metrics[name] = metric(statistics.median(s["layers"][name] for s in traced), unit)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qwsnsim benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwsnsim" / "cli.py").is_file():
        print(f"error: package sources not found at {SRC / 'qwsnsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = child_env()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        case = workloads.generate(args.workload, args.seed, workdir)
        setup_s = None if args.trace else measure_setup(env)
        result = run_child(case, args.seconds, bool(args.trace), workdir, env)
        reference = (workdir / "reference.out").read_bytes().decode()
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            WORK_ROOT.rmdir()

    if result["reference_exit"] != 0:
        problems = [f"reference invocation exited {result['reference_exit']}"]
    else:
        problems = checks.check(case, reference)
    samples = [s for key in ("timed", "untraced", "traced") for s in result.get(key, [])]
    attempted = 1 + len(samples)
    failed = (1 if problems else 0) + sum(not (s["ok"] and not problems) for s in samples)
    print(
        f"workload {case.name}, seed {case.seed}: attempted {attempted}, failed {failed}, "
        f"fail_ratio {failed / attempted:.6g} ratio"
    )
    for line in problems[:5] + result["errors"][:1]:
        print(f"  problem: {line}")
    if args.trace:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = per_layer(result, {m["name"]: m["unit"] for m in declared})
    else:
        metrics = end_to_end(case, result, setup_s, failed, attempted)
    for name, value in metrics.items():
        print(f"  {name:24s} {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
