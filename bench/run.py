#!/usr/bin/env python3
"""knrange benchmark: one workload, one seed, one run.

Usage, from the root of a knrange checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and bench/NOTES.md): sweep, classify, ranges,
cli. Each is a closed loop, one op at a time in one worker process, on inputs
generated from the seed. ``--trace 0`` measures the end-to-end metrics, with
times scaled to the reference host speed (worker.REF_S); ``--trace 1``
runs a fixed number of ops, each once untraced and once with every public
knrange function wrapped in a span, and reports the per-layer metrics.

This script imports neither numpy nor knrange, so that the set-up it measures
(a fresh worker process until its inputs are generated and its warm-up is done)
is the worker's alone. It takes the median of SETUP_RUNS such set-ups, scaled
by the measured run's median reference time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exits 2 when the checkout has no knrange
sources, 1 when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER  # stdlib only: this process stays free of numpy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "classify", "ranges", "cli")
SETUP_RUNS = 5
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _worker(args, env: dict, deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="knrange benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "knrange", "__init__.py")):
        print("error: no knrange sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # One op runs at a time, so BLAS threads only add contention on a small
    # shared box (a verify sweep measured 1.4x its wall time in CPU with two).
    # A caller's own setting wins; the worker records what was in effect.
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            setups = [_worker(args, env, deadline, True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = _worker(args, env, deadline, False)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if os.path.realpath(result["knrange"]) != os.path.realpath(os.path.join(src, "knrange")):
        print(f"error: imported knrange from {result['knrange']}, not ./src", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups

    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in result["per_layer"].items()}
    else:
        result["raw"]["setup_s"] = statistics.median(setups)
        result["setup_s"] = result["raw"]["setup_s"] * result["speed_factor"]
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted, failed = result["attempted"], result["failed"]

    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    report_path = os.path.join(
        BENCH_DIR, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), **result}, fh, indent=2)

    _summary(args, result, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _summary(args, result: dict, metrics: dict) -> None:
    """Human-readable lines before the result line; never parsed."""
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"machine {json.dumps(result['machine'])}")
    if not args.trace:
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"  error_rate = {result['error_rate']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} ops failed)")
        print(f"  op_tail_ms is p{result['op_tail_pct']:.2f} of {result['op_samples']} ops")
        print(f"  time metrics are scaled to a reference kernel time of 10 ms; it took a median "
              f"{result['ref_ms']:.4g} ms over {result['ref_samples']} timings. Unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in result["raw"].items()))
    else:
        print(f"  {result['spans']} spans in {result['spans_file']}; "
              f"trace overhead {metrics['trace.overhead_pct']['value']:.3g} %")
        if result["support_share_of_verify_pct"]:
            print(f"  support_values_batch share of verify_preserver by op: "
                  f"{json.dumps(result['support_share_of_verify_pct'])}")
    print(f"  info {json.dumps(result['info'])}")
    for error in result["errors"]:
        print(f"  FAILED {error}")


if __name__ == "__main__":
    sys.exit(main())
