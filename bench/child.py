"""Measuring child: one caller running one workload as a closed loop.

Usage: ``python3 child.py SPEC.json`` with the package's ``src`` directory on
PYTHONPATH. The spec names the invocation, the seconds to measure, whether to
trace, and where to write the reference output and the result.

The package is imported before anything is timed. The first invocation is an
untimed warm-up whose output becomes the reference; the parent checks it.
Every timed invocation must return exit code 0 and the reference bytes, or it
counts as failed. Its output is compared outside its timed interval.

With tracing on, the loop first runs untraced for half the time, then with the
layer spans installed for the other half; the traced outputs must equal the
untraced reference too, since tracing may never change output.

Before each invocation, outside its timed interval, the loop times
``host_probe``, a fixed piece of pure-Python work. The parent divides the
run's times by the probe's median relative to its reference value, so that
runs made while the shared host is slower or faster compare alike.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import qwsnsim.cli

import tracing
import workloads

# wall_tail_s needs ten samples beyond the reported one.
MIN_SAMPLES = 11
# A run stops at the deadline once it has MIN_SAMPLES, and at the deadline
# plus this many seconds regardless.
OVERRUN_S = 60.0


def host_probe() -> float:
    """Seconds taken by fixed pure-Python work: integer arithmetic, string
    and dict building, and a keyed sort (about 3.5 ms on a 2.1 GHz x86-64 core)."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    table = {str(i): i for i in range(3_000)}
    sorted(table, key=table.get, reverse=True)
    return time.perf_counter() - start


def make_invoke(spec: dict):
    if spec["kind"] == "cli":
        argv = spec["argv"]

        def invoke() -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = qwsnsim.cli.main(argv)
            return code, out.getvalue()

    else:
        seed, cells = spec["seed"], spec["cells"]

        def invoke() -> tuple[int, str]:
            return 0, workloads.mimo_loop(seed, cells)

    return invoke


def run_once(invoke, errors: list) -> tuple[int, str]:
    # The loop must survive a crashing invocation: it counts as failed.
    try:
        return invoke()
    except Exception:
        if not errors:
            errors.append(traceback.format_exc())
        return -1, ""


def closed_loop(invoke, seconds, reference, errors, tracer=None, input_bytes=0):
    samples = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.spans.clear()
        gc.collect()
        probe = host_probe()
        w0 = time.perf_counter()
        c0 = time.process_time()
        code, out = run_once(invoke, errors)
        c1 = time.process_time()
        w1 = time.perf_counter()
        sample = {
            "wall": w1 - w0,
            "cpu": c1 - c0,
            "probe": probe,
            "ok": code == 0 and out == reference,
        }
        if tracer is not None:
            sample["layers"] = tracing.layer_metrics(
                tracer.spans, len(out.encode()), input_bytes
            )
        samples.append(sample)
        elapsed = w1 - start
        if (elapsed >= seconds and len(samples) >= MIN_SAMPLES) or elapsed >= seconds + OVERRUN_S:
            return samples


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    package_dir = Path(qwsnsim.cli.__file__).resolve().parent
    if package_dir != Path(spec["package_dir"]).resolve():
        print(f"error: imported qwsnsim from {package_dir}", file=sys.stderr)
        return 1
    invoke = make_invoke(spec["invocation"])
    errors: list = []
    code, reference = run_once(invoke, errors)
    Path(spec["reference_path"]).write_bytes(reference.encode())
    result = {"reference_exit": code}
    seconds = spec["seconds"]
    if spec["trace"]:
        result["untraced"] = closed_loop(invoke, seconds / 2, reference, errors)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result["traced"] = closed_loop(
            invoke, seconds / 2, reference, errors, tracer, spec["input_bytes"]
        )
    else:
        result["timed"] = closed_loop(invoke, seconds, reference, errors)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["errors"] = errors
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
