"""The four benchmark workloads. Each is a closed loop of ops run one at a time.

A workload is built from a seed; ``op(i)`` prepares op number i (untimed) and
returns its timed ``run`` and its untimed ``check``. Op i depends only on the
seed and i, so the traced run can replay exactly the ops its untraced half
ran. The program sees only the generated matrices and files.

Workloads call knrange through module attributes looked up at call time
(``knr.verify_preserver``), so the tracer's wrappers see those calls too.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tracing import merge

TOL = 1e-8

# Criterion 5's shape battery (tests/test_acceptance.py, SWEEP_SHAPES).
SWEEP_SHAPES = (
    [(2, 2, k) for k in range(1, 4)]
    + [(2, 3, k) for k in range(1, 6)]
    + [(3, 3, k) for k in range(1, 9)]
    + [(2, 4, k) for k in range(1, 8)]
    + [(3, 4, 6)]
)
# d = 16, above the largest verified shape (d = 12): dense maps are 1 MiB.
LARGE_SHAPE = (4, 4, 8)
# Criterion 6's falsifier shapes, plus the large one.
FALSIFY_SHAPES = [(2, 2, 2), (2, 3, 3), (3, 3, 4), (2, 4, 4), (3, 4, 6), LARGE_SHAPE]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct


def stratified_order(groups: list, rng: np.random.Generator) -> list[int]:
    """A seeded permutation of range(len(groups)) whose every prefix holds each
    group in about its overall share.

    Item r (in shuffled order) of a group of c items gets the key (r + u) / c
    with u uniform in [0, 1); sorting by key interleaves the groups. A run that
    stops part-way through a pass then still sees the pass's mix of op costs,
    which keeps ops per second steady across seeds.
    """
    keys = np.empty(len(groups))
    for group in dict.fromkeys(groups):
        members = [i for i, g in enumerate(groups) if g == group]
        rng.shuffle(members)
        for rank, i in enumerate(members):
            keys[i] = (rank + rng.random()) / len(members)
    return [int(i) for i in np.argsort(keys, kind="stable")]


class _Passes:
    """Items cycled in passes, each pass in its own seeded stratified order."""

    def __init__(self, items: list, groups: list, seed: int, stream: int):
        self.items, self.groups, self.seed, self.stream = items, groups, seed, stream
        self._orders: dict[int, list[int]] = {}

    def __getitem__(self, i: int):
        p, j = divmod(i, len(self.items))
        if p not in self._orders:
            rng = np.random.default_rng([self.seed, self.stream, p])
            self._orders[p] = stratified_order(self.groups, rng)
        return self.items[self._orders[p][j]]


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


class Sweep:
    """Criterion 5's battery: Haar U + build_canonical + verify_preserver."""

    # The 16 d = 9 pairs and 4 d = 12 pairs are the slowest 22% of a pass, so
    # p90 lies inside the d = 9 cluster of op costs.
    TAIL_PCT = 90.0

    def __init__(self, knr, seed: int):
        self.knr, self.seed = knr, seed
        items = []
        for m, n, k in SWEEP_SHAPES:
            shape = knr.BipartiteShape(m, n, k)
            items += [(shape, tag, affine) for tag, affine in knr.checks._valid_forms(shape)]
        self.passes = _Passes(items, [shape.dim for shape, _, _ in items], seed, 1)
        self.trace_ops = len(items)
        self.worst_defect_ratio = 0.0

    def op(self, i: int) -> Op:
        shape, tag, affine = self.passes[i]
        return self._verify_op(shape, tag, affine, np.random.default_rng([self.seed, 11, i]))

    def _verify_op(self, shape, tag: str, affine: bool, rng: np.random.Generator) -> Op:
        knr = self.knr

        def run():
            u = knr.random_haar_unitary(shape.dim, rng)
            phi = knr.build_canonical(knr.CanonicalFormSpec(tag, u, affine, shape))
            return knr.verify_preserver(
                phi, trials=50, num_angles=360, tol=TOL, seed=rng.integers(2**63)
            )

        def check(report):
            self.worst_defect_ratio = max(self.worst_defect_ratio, report.max_support_defect / TOL)
            if report.verdict != "pass":
                return f"verdict {report.verdict}, defect {report.max_support_defect:.3e}"
            return None

        label = f"verify({shape.m},{shape.n},{shape.k}):{tag}{'+affine' if affine else ''}"
        return Op(label, run, check)

    def warm_up(self) -> None:
        """One op at the largest shape, whatever the seed, so set-up time and the
        allocator's state do not depend on which op comes first."""
        shape = self.knr.BipartiteShape(*SWEEP_SHAPES[-1])
        op = self._verify_op(shape, "id", False, np.random.default_rng([self.seed, 10]))
        op.check(op.run())
        self.worst_defect_ratio = 0.0

    def info(self) -> dict:
        return {"pass_size": self.trace_ops, "worst_defect_over_tol": self.worst_defect_ratio}


class Classify:
    """Criterion 7 round trips interleaved with one-map falsifier runs."""

    # The two (4,4,8) ops are the slowest 6.5% of a pass.
    TAIL_PCT = 97.5

    def __init__(self, knr, seed: int):
        self.knr, self.seed = knr, seed
        items = [("classify", knr.BipartiteShape(*s)) for s in SWEEP_SHAPES + [LARGE_SHAPE]]
        items += [("falsify", knr.BipartiteShape(*s)) for s in FALSIFY_SHAPES]
        self.passes = _Passes(items, [(kind, s.dim) for kind, s in items], seed, 2)
        self.trace_ops = 2 * len(items)
        self.cold_ms = self.warm_ms = 0.0

    def op(self, i: int) -> Op:
        kind, shape = self.passes[i]
        rng = np.random.default_rng([self.seed, 12, i])
        if kind == "falsify":
            return self._falsify_op(shape, int(rng.integers(2**63)))
        forms = [(tag, False) for tag in self.knr.maps.VARPHI_TAGS]
        if shape.is_half:
            forms += [(tag, True) for tag in self.knr.maps.VARPHI_TAGS]
        tag, affine = forms[int(rng.integers(len(forms)))]
        u = self.knr.random_haar_unitary(shape.dim, rng)
        return self._classify_op(shape, tag, affine, u)

    def _classify_op(self, shape, tag: str, affine: bool, u: np.ndarray) -> Op:
        knr = self.knr

        def run():
            phi = knr.build_canonical(knr.CanonicalFormSpec(tag, u, affine, shape))
            return phi, knr.classify_preserver(phi, tol=TOL)

        def check(out):
            phi, report = out
            if report.verdict != "classified":
                return f"verdict {report.verdict}"
            match = report.matched
            if (match.varphi, match.affine) != (tag, affine):
                return f"classified as {match.varphi}, affine={match.affine}"
            rebuilt = knr.build_canonical(
                knr.CanonicalFormSpec(match.varphi, match.unitary, match.affine, shape)
            )
            residual = _max_abs(rebuilt.matrix - phi.matrix)
            if residual > TOL:
                return f"rebuild residual {residual:.3e}"
            phase = np.trace(match.unitary @ u.conj().T)
            u_error = _max_abs(match.unitary - phase / abs(phase) * u)
            if u_error > TOL:
                return f"unitary error {u_error:.3e}"
            return None

        label = f"classify({shape.m},{shape.n},{shape.k}):{tag}{'+affine' if affine else ''}"
        return Op(label, run, check)

    def _falsify_op(self, shape, seed: int) -> Op:
        def run():
            return self.knr.falsify_random(shape, count=1, seed=seed, tol=TOL)

        def check(summary):
            return f"{summary.passes} random map(s) passed" if summary.passes else None

        return Op(f"falsify({shape.m},{shape.n},{shape.k})", run, check)

    def warm_up(self) -> None:
        """Times the process's first classify_preserver call (cold) at (3,3,4)
        against the median of five more (warm), then classifies at the largest
        shape and runs one falsifier op."""
        knr = self.knr
        shape = knr.BipartiteShape(3, 3, 4)
        rng = np.random.default_rng([self.seed, 13])
        times = []
        for _ in range(6):
            op = self._classify_op(shape, "id", False, knr.random_haar_unitary(shape.dim, rng))
            phi, _ = op.run()
            t0 = time.perf_counter()
            knr.classify_preserver(phi, tol=TOL)
            times.append(time.perf_counter() - t0)
        self.cold_ms = times[0] * 1e3
        self.warm_ms = float(np.median(times[1:])) * 1e3
        large = knr.BipartiteShape(*LARGE_SHAPE)
        for op in (self._classify_op(large, "t", True, knr.random_haar_unitary(large.dim, rng)),
                   self._falsify_op(knr.BipartiteShape(2, 2, 2), 1)):
            op.check(op.run())

    def info(self) -> dict:
        return {"classify_334_cold_ms": self.cold_ms, "classify_334_warm_ms": self.warm_ms}


class Ranges:
    """Single-matrix range computations, Hermitian and Ginibre, d in 2..16,
    cycling through a pool of 240 seeded matrices."""

    DIMS = range(2, 17)
    SAMPLES = 64
    # The d = 16 ops are the slowest 1/15 of the pool.
    TAIL_PCT = 99.0

    def __init__(self, knr, seed: int):
        self.knr, self.seed = knr, seed
        rng = np.random.default_rng([seed, 14])
        # Each (d, Hermitian or Ginibre, default 360-angle grid or odd 361-angle
        # grid) appears four times, so the pool's cost does not depend on the
        # seed: the seed picks k, the matrices and a stratified order. The odd
        # grid has no antipodal pairs.
        combos = [(d, herm, n) for d in self.DIMS for herm in (True, False)
                  for n in (360, 361)] * 4
        entries = [self._entry(d, herm, n, rng) for d, herm, n in combos]
        order = stratified_order([d for d, _, _ in combos], rng)
        self.pool = [entries[i] for i in order]
        self.trace_ops = len(self.pool)

    def _entry(self, d: int, herm: bool, num_angles: int, rng: np.random.Generator) -> tuple:
        k = int(rng.integers(1, d))
        a = self.knr.random_hermitian(d, rng) if herm else self.knr.random_complex(d, rng)
        return a, k, herm, num_angles, int(rng.integers(num_angles)), int(rng.integers(2**63))

    def op(self, i: int) -> Op:
        return self._range_op(*self.pool[i % len(self.pool)])

    def _range_op(self, a, k, herm, num_angles, theta_index, sample_seed) -> Op:
        knr = self.knr

        def run():
            profile = knr.krange_profile(a, k, num_angles)
            theta = float(profile.angles[theta_index])
            out = {
                "profile": profile,
                "support": knr.ranges.support_values(a, k, profile.angles),
                "point": knr.boundary_point(a, k, theta),
                "radius": knr.k_numerical_radius(a, k, num_angles),
            }
            if herm:
                out["interval"] = knr.krange_hermitian(a, k)
                out["samples"] = knr.sample_points(a, k, self.SAMPLES, sample_seed)
            return out

        def check(out):
            profile = out["profile"]
            h, angles = profile.support, profile.angles
            slack = TOL * (1.0 + _max_abs(h))
            rot = np.exp(-1j * angles)
            if _max_abs(out["support"] - h) > slack:
                return "support_values disagrees with krange_profile"
            if _max_abs((rot * profile.boundary).real - h) > slack:
                return "profile boundary point off its supporting line"
            if abs((rot[theta_index] * out["point"]).real - h[theta_index]) > slack:
                return "boundary_point off its supporting line"
            if abs(out["radius"] - float(np.max(h))) > slack:
                return "k_numerical_radius differs from the support maximum"
            if not herm:
                return None
            if max(_max_abs(profile.boundary.imag), abs(out["point"].imag)) > slack:
                return "Hermitian input gave a non-real boundary point"
            w = np.linalg.eigvalsh(a)
            interval = out["interval"]
            if max(abs(interval.lo - w[:k].mean()), abs(interval.hi - w[-k:].mean())) > slack:
                return "krange_hermitian differs from the eigenvalue means"
            pts = out["samples"]
            if float(np.max((rot[:, None] * pts[None, :]).real - h[:, None])) > slack:
                return "a sampled point lies outside the support function"
            return None

        grid = "even" if num_angles % 2 == 0 else "odd"
        label = f"range(d={a.shape[0]},k={k},{'herm' if herm else 'ginibre'},{grid})"
        return Op(label, run, check)

    def warm_up(self) -> None:
        """One Hermitian and one Ginibre op at d = 16, whatever the seed."""
        rng = np.random.default_rng([self.seed, 17])
        for herm in (True, False):
            op = self._range_op(*self._entry(16, herm, 360, rng))
            op.check(op.run())

    def info(self) -> dict:
        return {"pool": len(self.pool)}


class Cli:
    """One `knrange` subprocess per op. Each round of five runs, in a seeded
    order, range twice and once each verify on a map file, verify on a
    descriptor and suite. Range is the cheap interactive command; running it
    twice puts the median op inside the verify-descriptor cluster instead of
    on the edge between two clusters of op costs."""

    RANGE_ANGLES = 361
    # verify on the map file and suite are the slowest 40% of a round.
    TAIL_PCT = 75.0
    SHAPE = (3, 4, 6)
    ROUND = (0, 0, 1, 2, 3)  # indices into self.commands

    def __init__(self, knr, seed: int, workdir: str, child_script: str):
        self.knr, self.seed = knr, seed
        self.workdir, self.child_script = workdir, child_script
        # Set by the traced run: ops then run the CLI under the tracer and
        # merge the child's spans.
        self.tracer = None
        self.trace_ops = 2 * len(self.ROUND)
        self.import_ms: list[float] = []
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng([seed, 15])
        matrix = knr.random_complex(12, rng)
        k = int(rng.integers(1, 12))
        self.reference = knr.krange_profile(matrix, k, self.RANGE_ANGLES).support
        knr.matcore.save_matrix(matrix, self._path("matrix.json"))

        shape = knr.BipartiteShape(*self.SHAPE)
        forms = knr.checks._valid_forms(shape)
        specs = []
        for _ in range(2):
            tag, affine = forms[int(rng.integers(len(forms)))]
            u = knr.random_haar_unitary(shape.dim, rng)
            specs.append(knr.CanonicalFormSpec(tag, u, affine, shape))
        self._dump(knr.maps.map_to_payload(knr.build_canonical(specs[0])), "map.json")
        self._dump(knr.maps.descriptor_to_payload(specs[1]), "descriptor.json")
        run_seed = str(int(rng.integers(2**31)))
        m, n, kk = (str(x) for x in self.SHAPE)
        self.commands = [
            ("range", ["range", self._path("matrix.json"), "--k", str(k),
                       "--angles", str(self.RANGE_ANGLES), "--format", "csv"], self._check_range),
            ("verify-map", ["verify", self._path("map.json"), "--seed", run_seed],
             self._check_verify),
            ("verify-descriptor", ["verify", self._path("descriptor.json"), "--m", m, "--n", n,
                                   "--k", kk, "--seed", run_seed], self._check_verify),
            ("suite", ["suite", "--m", "3", "--n", "3", "--k", "2", "--seed", run_seed,
                       "--out", self._path("suite")], self._check_suite),
        ]

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _dump(self, payload: dict, name: str) -> None:
        with open(self._path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def op(self, i: int) -> Op:
        rnd, j = divmod(i, len(self.ROUND))
        order = np.random.default_rng([self.seed, 16, rnd]).permutation(len(self.ROUND))
        return self._command_op(self.ROUND[order[j]], i)

    def _command_op(self, command: int, i: int) -> Op:
        label, args, check_output = self.commands[command]
        spans_path = self._path(f"spans-{i}.json")

        def run():
            # Decided when the op runs: the traced run pauses the tracer while
            # it prepares ops and while it runs their untraced twins.
            traced = self.tracer is not None and self.tracer.active
            argv = [sys.executable, "-m", "knrange.cli", *args]
            if traced:
                argv[1:3] = [self.child_script, spans_path, str(i)]
            return traced, subprocess.run(argv, capture_output=True, text=True, timeout=120)

        def check(out):
            traced, proc = out
            if traced:
                self._collect(spans_path)
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
            return check_output(proc.stdout)

        return Op(f"cli-{label}", run, check)

    def _collect(self, spans_path: str) -> None:
        with open(spans_path, "r", encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(spans_path)
        merge(self.tracer.spans, self.tracer.counts, child["spans"], child["counts"])
        self.import_ms.append(child["import_ms"])

    def _check_range(self, stdout: str) -> str | None:
        lines = stdout.strip().splitlines()
        if lines[0] != "theta,support,boundary_re,boundary_im":
            return "range CSV header missing"
        support = np.array([float(line.split(",")[1]) for line in lines[1:]])
        if support.shape != self.reference.shape:
            return f"range CSV has {support.size} rows, expected {self.reference.size}"
        if _max_abs(support - self.reference) > 1e-12 * (1.0 + _max_abs(self.reference)):
            return "range CSV support differs from the in-process profile"
        return None

    @staticmethod
    def _check_verify(stdout: str) -> str | None:
        report = json.loads(stdout)
        if report["verification"]["verdict"] != "pass":
            return f"verification verdict {report['verification']['verdict']}"
        if report["classification"]["verdict"] != "classified":
            return f"classification verdict {report['classification']['verdict']}"
        return None

    def _check_suite(self, stdout: str) -> str | None:
        with open(self._path(os.path.join("suite", "suite_summary.json")), encoding="utf-8") as fh:
            items = json.load(fh)
        failing = [item["item"] for item in items if not item["pass"]]
        return f"suite items failed: {failing}" if failing else None

    def warm_up(self) -> None:
        op = self._command_op(0, -1)
        error = op.check(op.run())
        if error:
            raise RuntimeError(f"cli warm-up failed: {error}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def info(self) -> dict:
        return {"commands": [label for label, _, _ in self.commands]}

