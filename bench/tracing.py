"""Span tracer for the traced benchmark run.

`install` wraps knrange's public functions where the package's modules bind
them (for example ``knrange.classify.support_values_batch``), so every call
into a layer, from the benchmark or from another layer, opens a span. Spans
(name, start, end, parent, op id) stay in memory until the run ends. Nothing
under ``src/`` changes, and the untraced run installs nothing.

Counts that are computed from a call's inputs or result, not measured, are
kept next to the spans: they repeat exactly for a given seed and op sequence.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

MODULES = (
    "knrange",
    "knrange.matcore",
    "knrange.ranges",
    "knrange.maps",
    "knrange.classify",
    "knrange.checks",
    "knrange.cli",
)

# Defining module -> {public function: span name}. The three random samplers
# share one span, as do the two directions of the matrix JSON format.
TRACED = {
    "matcore": {
        "random_hermitian": "matcore.random",
        "random_complex": "matcore.random",
        "random_haar_unitary": "matcore.random",
        "kron": "matcore.kron",
        "matrix_from_payload": "matcore.payload",
        "matrix_to_payload": "matcore.payload",
    },
    "ranges": {
        name: f"ranges.{name}"
        for name in (
            "support_values_batch",
            "krange_profile",
            "support_values",
            "boundary_point",
            "k_numerical_radius",
            "krange_hermitian",
            "sample_points",
        )
    },
    "maps": {
        name: f"maps.{name}"
        for name in (
            "build_canonical",
            "varphi_map",
            "reflect_map",
            "compose",
            "choi_matrix",
            "map_from_choi",
            "apply_map_batch",
            "map_from_payload",
        )
    },
    "classify": {
        name: f"classify.{name}"
        for name in ("verify_preserver", "classify_preserver", "falsify_random")
    },
    "checks": {name: f"checks.{name}" for name in ("preserver_suite", "check_counterexample")},
    "cli": {"main": "cli.main"},
}

# Spans that can have traced children, so their self time is reported.
WITH_CHILDREN = (
    "ranges.k_numerical_radius",
    "maps.map_from_payload",
    "classify.verify_preserver",
    "classify.classify_preserver",
    "classify.falsify_random",
    "checks.preserver_suite",
    "checks.check_counterexample",
    "cli.main",
)

# The per-layer metrics every traced run prints, with their units. Spans that
# a workload never enters report 0.
PER_LAYER: dict[str, str] = {}
for _names in TRACED.values():
    for _span in dict.fromkeys(_names.values()):
        PER_LAYER[f"{_span}.calls"] = "count"
        PER_LAYER[f"{_span}.ms"] = "ms"
        if _span in WITH_CHILDREN:
            PER_LAYER[f"{_span}.self_ms"] = "ms"
PER_LAYER.update({
    "ranges.support_values_batch.rows": "count",
    "ranges.support_values_batch.matrix_angles": "count",
    "ranges.support_values_batch.herm_rows": "count",
    "ranges.support_values_batch.verify_share_pct": "%",
    "maps.apply_map_batch.rows": "count",
    "maps.dense_bytes": "B",
    "matcore.payload.entries": "count",
    "classify.falsify_random.draws": "count",
    "classify.falsify_random.accept_ratio": "ratio",
    "classify.classify_preserver.cold_ms": "ms",
    "classify.classify_preserver.warm_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
})


def _counter(span: str, fn, knrange_matcore, linear_map_type):
    """Computed counts for one call, or None when the span counts nothing."""
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        return sig.bind(*args, **kwargs).arguments

    if span == "ranges.support_values_batch":
        def count(args, kwargs, result):
            a = bound(args, kwargs)
            stack = a["stack"]
            rows = len(stack)
            return {
                "rows": rows,
                "matrix_angles": rows * len(a["angles"]),
                # The benchmark's own Hermitian classification, not the
                # kernel's fast-path gate.
                "herm_rows": sum(bool(knrange_matcore.is_hermitian(x)) for x in stack),
            }
        return count
    if span == "maps.apply_map_batch":
        return lambda args, kwargs, result: {"rows": len(bound(args, kwargs)["stack"])}
    if span == "matcore.payload":
        def count(args, kwargs, result):
            payload = result if isinstance(result, dict) else bound(args, kwargs)["payload"]
            return {"entries": len(payload["entries"])}
        return count
    if span.startswith("maps."):
        def count(args, kwargs, result):
            if isinstance(result, linear_map_type):
                return {"dense_bytes": 16 * result.shape.dim ** 4}
            return None
        return count
    return None


class Tracer:
    """In-memory spans of one process, plus the computed counts per span name."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.counts: dict[str, dict[str, int]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._paused = False

    @property
    def active(self) -> bool:
        return not self._paused

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) open no span."""
        self._paused, previous = True, self._paused
        try:
            yield
        finally:
            self._paused = previous

    def wrap(self, span: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent, self.op)
            if count is not None:
                extra = count(args, kwargs, result)
                if extra:
                    totals = self.counts.setdefault(span, {})
                    for key, value in extra.items():
                        totals[key] = totals.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every knrange module that binds it."""
        modules = [importlib.import_module(name) for name in MODULES]
        matcore = importlib.import_module("knrange.matcore")
        linear_map = importlib.import_module("knrange.maps").LinearMapMatrix
        for layer, names in TRACED.items():
            home = importlib.import_module(f"knrange.{layer}")
            for func, span in names.items():
                original = getattr(home, func)
                wrapper = self.wrap(span, original, _counter(span, original, matcore, linear_map))
                for module in modules:
                    if getattr(module, func, None) is original:
                        setattr(module, func, wrapper)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def merge(spans: list, counts: dict, other_spans: list, other_counts: dict) -> None:
    """Append another process's spans (same monotonic clock) and counts."""
    offset = len(spans)
    for name, start, end, parent, op in other_spans:
        spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
    for span, totals in other_counts.items():
        mine = counts.setdefault(span, {})
        for key, value in totals.items():
            mine[key] = mine.get(key, 0) + value


def layer_metrics(spans: list, counts: dict, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the spans, the counts and measured extras.

    Self time is a span's duration minus the time its child spans cover;
    calls are sequential, so children never overlap.
    """
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    child_ns: dict[str, int] = {}
    svb_in_verify_ns = 0
    draws = accepted = 0
    names = [s[0] for s in spans]

    def inside(idx: int, ancestor: str) -> bool:
        parent = spans[idx][3]
        while parent >= 0:
            if names[parent] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    for idx, (name, start, end, parent, _op) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + duration
        if parent >= 0:
            pname = names[parent]
            child_ns[pname] = child_ns.get(pname, 0) + duration
        if name == "ranges.support_values_batch" and inside(idx, "classify.verify_preserver"):
            svb_in_verify_ns += duration
        if name == "classify.classify_preserver" and inside(idx, "classify.falsify_random"):
            draws += 1
        if name == "classify.verify_preserver" and inside(idx, "classify.falsify_random"):
            accepted += 1

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(span, 0)
        elif field == "ms":
            out[metric] = total_ns.get(span, 0) / 1e6
        elif field == "self_ms":
            out[metric] = (total_ns.get(span, 0) - child_ns.get(span, 0)) / 1e6
    for span, totals in counts.items():
        for key, value in totals.items():
            metric = "maps.dense_bytes" if key == "dense_bytes" else f"{span}.{key}"
            out[metric] = out.get(metric, 0) + value
    verify_ns = total_ns.get("classify.verify_preserver", 0)
    out["ranges.support_values_batch.verify_share_pct"] = (
        100.0 * svb_in_verify_ns / verify_ns if verify_ns else 0.0
    )
    out["classify.falsify_random.draws"] = draws
    out["classify.falsify_random.accept_ratio"] = accepted / draws if draws else 0.0
    out.update(extra)
    return {metric: out.get(metric, 0) for metric in PER_LAYER}


def share_by_op(spans: list, labels: dict[int, str], child: str, parent: str) -> dict[str, float]:
    """Per op kind (the op label up to its first colon, for example
    ``verify(2,4,4)``): percent of `parent` span time spent in `child` spans."""
    parent_ns: dict[str, int] = {}
    child_ns: dict[str, int] = {}
    for name, start, end, _parent, op in spans:
        if op not in labels:
            continue
        label = labels[op].split(":")[0]
        if name == parent:
            parent_ns[label] = parent_ns.get(label, 0) + end - start
        elif name == child:
            child_ns[label] = child_ns.get(label, 0) + end - start
    return {
        label: round(100.0 * child_ns.get(label, 0) / ns, 2)
        for label, ns in sorted(parent_ns.items())
        if ns
    }
