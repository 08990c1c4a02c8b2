#!/usr/bin/env python3
"""Layered wall-clock benchmark of the Cricket-over-ONC-RPC stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload small-calls --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` measures the per-layer metrics (an untraced and a traced
loop of half the time each, plus the call-counting pass).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check prints
``"correct": false`` and exits with code 1.  Without ``src/repro`` beside
this directory the benchmark exits with code 2 and prints no result.

Everything the benchmark writes goes under ``.perfbench/`` in the
checkout: the span dump of a traced run, and the simulator's checkpoint
files (removed at exit).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: set-up is measured in this many fresh processes; the median is reported
SETUP_PROBES = 3

#: end-to-end metrics: name -> unit
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "h2d_MiBps": "MiB/s",
    "d2h_MiBps": "MiB/s",
    "py_calls_per_call": "count",
    "h2d_peak_alloc_per_byte": "B/B",
    "d2h_peak_alloc_per_byte": "B/B",
}

#: per-layer metrics: name -> unit
PER_LAYER: dict[str, str] = {
    "cricket.client.self_us": "us",
    "rpcl.self_us": "us",
    "oncrpc.client.self_us": "us",
    "oncrpc.client.retries": "count",
    "oncrpc.record.self_us": "us",
    "oncrpc.record.fragments": "count",
    "oncrpc.transport.self_us": "us",
    "oncrpc.server.self_us": "us",
    "oncrpc.server.reply_cache_hits": "count",
    "oncrpc.server.sheds": "count",
    "cricket.server.self_us": "us",
    "gpu.self_us": "us",
    "gpu.bytes": "B",
    "unikernel.self_us": "us",
    "unikernel.virtual_us": "us",
    "cricket.replication.self_us": "us",
    "cricket.replication.records": "count",
    "resilience.failover.self_us": "us",
    "resilience.simulation.checker_ms": "ms",
    "resilience.simulation.schedule_ms": "ms",
    "resilience.simulation.non_ok_share": "ratio",
    "xdr.py_calls": "count",
    "oncrpc.py_calls": "count",
    "rpcl.py_calls": "count",
    "cricket.py_calls": "count",
    "gpu.py_calls": "count",
    "unikernel.py_calls": "count",
    "net.py_calls": "count",
    "resilience.py_calls": "count",
    "cuda.py_calls": "count",
    "core.py_calls": "count",
    "other.py_calls": "count",
    "trace.root_us": "us",
    "trace.untraced_calls_per_s": "1/s",
    "trace.traced_calls_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def window_rates(windows: list[tuple[int, ...]]) -> dict[str, float]:
    """Median over the loop's windows of calls/s and per-direction MiB/s."""
    return {
        "calls_per_s": statistics.median(w[1] / (w[0] / 1e9) for w in windows),
        "h2d_MiBps": statistics.median(w[2] / (1 << 20) / (w[3] / 1e9) for w in windows if w[3]),
        "d2h_MiBps": statistics.median(w[4] / (1 << 20) / (w[5] / 1e9) for w in windows if w[5]),
    }


# -- measurements --------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the first timed op, per fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic_ns()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        ready = [line for line in probe.stdout.splitlines() if line.startswith("READY ")]
        if probe.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        samples.append((int(ready[-1].split()[1]) - started) / 1e9)
    return samples


def fresh(name: str, seed: int) -> Any:
    """A built and warmed-up workload."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.build()
    workload.warm_up()
    return workload


def counting_pass(name: str, seed: int) -> tuple[dict[str, int], int]:
    """Python calls per layer over the workload's seed-free call sequence."""
    from perfbench.passes import count_calls

    workload = fresh(name, seed)
    try:
        return count_calls(workload.canonical())
    finally:
        workload.close()


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict[str, float], Any, list[str]]:
    """Every end-to-end metric, measured with tracing off."""
    from perfbench.passes import count_calls, peak_alloc_per_byte

    setup = measure_setup(name, seed)
    workload = fresh(name, seed)
    result = workload.run(seconds)
    workload.check(result)
    workload.close()

    passes = fresh(name, seed)
    counts, api_calls = count_calls(passes.canonical())
    alloc = {
        direction: peak_alloc_per_byte(call, payload)
        for direction, (call, payload) in passes.alloc_probes().items()
    }
    passes.close()

    lat = result.latencies
    metrics = {
        "setup_s": statistics.median(setup),
        **window_rates(result.windows),
        "call_p50_us": percentile(lat, 0.50) / 1e3,
        "call_p99_us": percentile(lat, 0.99) / 1e3,
        "py_calls_per_call": sum(counts.values()) / api_calls,
        "h2d_peak_alloc_per_byte": alloc["h2d"],
        "d2h_peak_alloc_per_byte": alloc["d2h"],
    }
    notes = [
        f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setup)}",
        f"timed loop: {result.calls} calls in {result.wall_ns / 1e9:.3f} s, "
        f"{len(result.windows)} windows; call_p99_us over {len(lat)} samples",
        f"counting pass: {sum(counts.values())} Python calls over {api_calls} calls",
    ]
    if result.simulations:
        notes.append(f"simulations: {result.simulations}; outcomes {result.outcomes}")
    return metrics, result, notes


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict[str, float], list[Any], list[str]]:
    """Every per-layer metric: untraced and traced loops plus the counting pass."""
    from perfbench.passes import SHED_FIELDS, StatsCapture
    from perfbench.spans import SpanRecorder, installed, layer_totals, write_spans

    def loop(workload: Any) -> Any:
        if name == "nemesis":
            return workload.run(0, blocks=1)
        return workload.run(seconds / 2)

    workload = fresh(name, seed)
    untraced = loop(workload)
    workload.check(untraced)
    workload.close()

    recorder = SpanRecorder()
    capture = StatsCapture()
    with installed(recorder) as tracing:
        capture.install(tracing.patches)
        workload = fresh(name, seed)
        capture.mark()
        recorder.clear()
        traced = loop(workload)
        spans = list(recorder.spans)
        virtual_ns = recorder.virtual_ns
        gpu_bytes, fragments = recorder.gpu_bytes, recorder.fragments
        counters = {
            "retries": capture.delta("retries"),
            "reply_cache_hits": capture.delta("reply_cache_hits"),
            "sheds": sum(capture.delta(field) for field in SHED_FIELDS),
            "records": capture.delta("replication_ops_applied"),
        }
        workload.check(traced)
        workload.close()

    inside, outside, root_ns, ops = layer_totals(spans)
    ops = max(ops, 1)
    sims = max(traced.simulations, 1)
    counts, api_calls = counting_pass(name, seed)
    untraced_rate = window_rates(untraced.windows)["calls_per_s"]
    traced_rate = window_rates(traced.windows)["calls_per_s"]

    metrics: dict[str, float] = {}
    for layer in ("cricket.client", "rpcl", "oncrpc.client", "oncrpc.record",
                  "oncrpc.transport", "oncrpc.server", "cricket.server", "gpu",
                  "unikernel", "cricket.replication", "resilience.failover"):
        metrics[f"{layer}.self_us"] = inside[layer] / ops / 1e3
    metrics.update({
        "oncrpc.client.retries": counters["retries"] / ops,
        "oncrpc.record.fragments": fragments / ops,
        "oncrpc.server.reply_cache_hits": counters["reply_cache_hits"] / ops,
        "oncrpc.server.sheds": counters["sheds"] / ops,
        "gpu.bytes": gpu_bytes / ops,
        "unikernel.virtual_us": virtual_ns / ops / 1e3,
        "cricket.replication.records": counters["records"] / ops,
        "resilience.simulation.checker_ms": outside["resilience.simulation.checker"] / sims / 1e6,
        "resilience.simulation.schedule_ms": outside["resilience.simulation.schedule"] / sims / 1e6,
        "resilience.simulation.non_ok_share":
            (sum(untraced.outcomes.values()) - untraced.outcomes.get("ok", 0)) / untraced.calls,
        "trace.root_us": root_ns / ops / 1e3,
        "trace.untraced_calls_per_s": untraced_rate,
        "trace.traced_calls_per_s": traced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate,
    })
    for layer, count in counts.items():
        metrics[f"{layer}.py_calls"] = count / api_calls

    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(OUT, f"spans-{name}.json")
    write_spans(dump, spans)
    in_ops = sum(v for k, v in metrics.items() if k.endswith(".self_us"))
    notes = [
        f"untraced loop: {untraced.calls} calls in {untraced.wall_ns / 1e9:.3f} s",
        f"traced loop: {traced.calls} calls, {ops} root spans, {len(spans)} spans "
        f"in {traced.wall_ns / 1e9:.3f} s (written to {os.path.relpath(dump, ROOT)})",
        f"per-op self times sum to {in_ops:.2f} us; root span {metrics['trace.root_us']:.2f} us; "
        f"untraced mean call {untraced.wall_ns / max(untraced.calls, 1) / 1e3:.2f} us",
        f"counting pass: {sum(counts.values())} Python calls over {api_calls} calls",
    ]
    return metrics, [untraced, traced], notes


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("small-calls", "bulk-copy", "nemesis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload, print READY <monotonic ns> and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    try:
        if args.setup_probe:
            from perfbench.workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed)
            workload.build()
            print(f"READY {time.monotonic_ns()}", flush=True)
            workload.close()
            return 0
        if args.trace:
            metrics, loops, notes = per_layer(args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, loop, notes = end_to_end(args.workload, args.seed, args.seconds)
            loops = [loop]
            units = END_TO_END
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    attempted = sum(loop.calls for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for loop in loops:
        for error in loop.errors:
            print(f"  CHECK FAILED: {error}")
    for key in units:
        print(f"  {key:40s} {metrics[key]:16.6f} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
