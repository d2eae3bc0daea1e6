"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py, never by hand. ``--t0`` is the parent's time.monotonic()
just before it started this process (the clock is system-wide), so set-up
time covers interpreter start, the knrange import, input generation and the
warm-up. With ``--setup-only`` the process stops there. Otherwise it prints
one JSON line with the measured loop.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Host speed. On the shared 2-vCPU host this benchmark was tuned on, a fixed
# numpy kernel ran anywhere between 930 and 1790 times a second within five
# minutes, in CPU time as much as in wall time, so raw op times measure the
# host as much as knrange. The untraced loop therefore times a reference
# kernel that calls no knrange code every REF_EVERY_S seconds, between ops,
# and scales each op's wall and CPU time by REF_S over the median reference
# time within REF_WINDOW_S of the op. Time metrics then read as on a host
# where the kernel takes REF_S.
REF_S = 0.010
REF_EVERY_S = 0.25
REF_WINDOW_S = 2.0


def _cpu_s() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Reference:
    """A fixed numpy kernel, independent of knrange and of the seed, of the
    kinds of work the ops do: batched eigvalsh on a 500×12×12 Hermitian stack,
    one 64×64 eigh and a Python loop of small products. It took 8 to 13 ms
    on the host the benchmark was tuned on."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def hermitian(d: int, count: int) -> np.ndarray:
            a = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
            return a + a.conj().transpose(0, 2, 1)

        self.stack, self.big, self.small = hermitian(12, 500), hermitian(64, 1)[0], hermitian(4, 100)

    def _once(self) -> float:
        t0 = time.perf_counter()
        np.linalg.eigvalsh(self.stack)
        np.linalg.eigh(self.big)
        for m in self.small:
            np.trace(m @ m.conj().T)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """The faster of two back-to-back runs, so that the second starts with
        warm caches whatever the op before it left behind."""
        return min(self._once(), self._once())


def run_ops(workload, indices, seconds: float = float("inf"), tracer=None,
            reference: Reference | None = None) -> dict:
    """Run the ops numbered by `indices` one at a time, stopping early once
    `seconds` have passed, and time `reference` between ops every REF_EVERY_S.

    Only `run` is timed; preparing an op and checking its output are not, and
    open no span in the traced run.
    """
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    latencies, cpu, mids, labels, errors = [], [], [], [], []
    refs = []  # (time, reference seconds)
    start = time.perf_counter()
    for i in indices:
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if reference is not None and (not refs or now - refs[-1][0] >= REF_EVERY_S):
            refs.append((now, reference.seconds()))
        with quiet():
            op = workload.op(i)
        if tracer is not None:
            tracer.op = i
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
        if tracer is not None:
            tracer.op = -1
        if error is None:
            with quiet():
                try:
                    error = op.check(out)
                except Exception as exc:  # malformed output fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
        latencies.append(t1 - t0)
        cpu.append(cpu1 - cpu0)
        mids.append((t0 + t1) / 2)
        labels.append(op.label)
        if error is not None:
            errors.append(f"op {i} {op.label}: {error}")
    return {"latencies": latencies, "cpu": cpu, "mids": mids, "refs": refs,
            "labels": labels, "errors": errors}


def _speed_factors(loop: dict) -> list[float]:
    """REF_S over the median reference time within REF_WINDOW_S of each op
    (of the whole run when none is that close)."""
    times = np.array([t for t, _ in loop["refs"]])
    secs = np.array([s for _, s in loop["refs"]])
    factors = []
    for mid in loop["mids"]:
        near = secs[np.abs(times - mid) <= REF_WINDOW_S]
        factors.append(REF_S / float(np.median(near if near.size else secs)))
    return factors


def end_to_end(loop: dict, peak_rss_kb: int, tail_pct: float) -> dict:
    """Time metrics scaled to the reference host speed (see REF_S), plus the
    raw ones as information."""
    factors = _speed_factors(loop)
    lat = sorted(t * f for t, f in zip(loop["latencies"], factors))
    cpu_s = sum(c * f for c, f in zip(loop["cpu"], factors))
    raw = sorted(loop["latencies"])
    n, failed = len(lat), len(loop["errors"])
    # The workload's tail percentile (nearest rank), which sits inside one
    # cluster of op costs. When the run is too short for ten samples above it,
    # the highest percentile that has ten (the maximum below eleven samples).
    tail_index = max(math.ceil(n * tail_pct / 100.0) - 1, 0)
    if n - 1 - tail_index < 10:
        tail_index = n - 11 if n > 10 else n - 1
    return {
        "ops_per_s": (n - failed) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "op_tail_pct": 100.0 * (tail_index + 1) / n,
        "op_samples": n,
        "cpu_ms_per_op": cpu_s / n * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "error_rate": failed / n,
        "raw": {
            "ops_per_s": (n - failed) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": raw[tail_index] * 1e3,
            "cpu_ms_per_op": sum(loop["cpu"]) / n * 1e3,
        },
        "ref_ms": statistics.median(s for _, s in loop["refs"]) * 1e3,
        # For set-up time, which runs before the loop and is too short to
        # time the reference around it.
        "speed_factor": REF_S / statistics.median(s for _, s in loop["refs"]),
        "ref_samples": len(loop["refs"]),
        "p50_ms_by_kind": _p50_by_kind(loop),
        "attempted": n,
        "failed": failed,
        "errors": loop["errors"][:5],
    }


def _p50_by_kind(loop: dict) -> dict[str, float]:
    """Median latency per op kind: the label up to its first ':'."""
    kinds: dict[str, list[float]] = {}
    for label, latency in zip(loop["labels"], loop["latencies"]):
        kinds.setdefault(label.split(":")[0], []).append(latency)
    return {kind: statistics.median(lat) * 1e3 for kind, lat in sorted(kinds.items())}


def _git_commit(root: str) -> str | None:
    """HEAD read from the checkout's own .git, without searching above it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: str) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: deps.get("blas", {}).get(key) for key in ("name", "version")},
        "lapack": {key: deps.get("lapack", {}).get(key) for key in ("name", "version")},
        "env": {var: os.environ.get(var) for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import knrange

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "cli":
        workdir = os.path.join(OUT_DIR, f"cli-{args.seed}-{os.getpid()}")
        workload = workloads.Cli(knrange, args.seed, workdir, os.path.join(BENCH_DIR, "cli_child.py"))
    else:
        kinds = {"sweep": workloads.Sweep, "classify": workloads.Classify,
                 "ranges": workloads.Ranges}
        workload = kinds[args.workload](knrange, args.seed)
    try:
        workload.warm_up()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "knrange": os.path.dirname(knrange.__file__)}
        if args.trace:
            result.update(_traced(workload, args))
        else:
            reference = Reference()
            reference.seconds()  # first LAPACK calls on its inputs
            loop = run_ops(workload, itertools.count(), seconds=args.seconds, reference=reference)
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result.update(end_to_end(loop, resource.getrusage(usage).ru_maxrss, workload.TAIL_PCT))
        result["info"] = workload.info()
        result["machine"] = machine(os.getcwd())
    finally:
        if args.workload == "cli":
            workload.close()
    print(json.dumps(result))
    return 0


def _traced(workload, args) -> dict:
    """The workload's first `trace_ops` ops (whole passes or rounds), each run
    once untraced and then once under the tracer.

    A fixed op count, not --seconds, sets the traced run's length, so the
    computed counts repeat exactly for a given seed. Pairing each op with its
    untraced twin keeps drift in machine speed out of the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    if args.workload == "cli":
        workload.tracer = tracer
    plain = {"latencies": [], "errors": []}
    traced = {"latencies": [], "labels": [], "errors": []}
    for i in range(workload.trace_ops):
        with tracer.paused():
            loop = run_ops(workload, [i])
        for key in plain:
            plain[key] += loop[key]
        loop = run_ops(workload, [i], tracer=tracer)
        for key in traced:
            traced[key] += loop[key]
    overhead = 100.0 * (sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0)
    extra = {"trace.overhead_pct": overhead}
    if args.workload == "classify":
        extra["classify.classify_preserver.cold_ms"] = workload.cold_ms
        extra["classify.classify_preserver.warm_ms"] = workload.warm_ms
    if args.workload == "cli":
        extra["cli.import_ms"] = statistics.median(workload.import_ms)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, extra)
    labels = dict(enumerate(traced["labels"]))
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    tracer.dump(spans_path, labels=labels)
    return {
        "per_layer": metrics,
        "attempted": 2 * workload.trace_ops,
        "failed": len(plain["errors"]) + len(traced["errors"]),
        "errors": (plain["errors"] + traced["errors"])[:5],
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path),
        "support_share_of_verify_pct": tracing.share_by_op(
            tracer.spans, labels, "ranges.support_values_batch", "classify.verify_preserver"
        ),
    }


if __name__ == "__main__":
    sys.exit(main())
