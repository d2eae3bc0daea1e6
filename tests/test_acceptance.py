"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The sufficiency sweep (criterion 5) is the heavy item; the whole module is
sized to finish comfortably inside its stated five-minute budget on a laptop.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from knrange.checks import (
    check_block_split,
    check_counterexample,
    check_orthogonality_criterion,
    counterexample_matrices,
    _valid_forms,
)
from knrange.classify import classify_preserver, falsify_random, verify_preserver
from knrange.maps import CanonicalFormSpec, VARPHI_TAGS, build_canonical
from knrange.matcore import (
    BipartiteShape,
    hermitian_part,
    kron,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from knrange.ranges import (
    boundary_point,
    krange_hermitian,
    krange_profile,
    ranges_equal,
    sample_points,
    support_values,
)

SWEEP_SHAPES = (
    [(2, 2, k) for k in range(1, 4)]
    + [(2, 3, k) for k in range(1, 6)]
    + [(3, 3, k) for k in range(1, 9)]
    + [(2, 4, k) for k in range(1, 8)]
    + [(3, 4, 6)]
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_counterexample_spectra():
    t0 = time.perf_counter()
    report = check_counterexample(3, 3)
    elapsed = time.perf_counter() - t0
    defect_ab = float(np.max(np.abs(report.spectrum_ab - report.expected_ab)))
    defect_abt = float(np.max(np.abs(report.spectrum_abt - report.expected_abt)))
    ok = defect_ab <= 1e-10 and defect_abt <= 1e-10 and elapsed < 1.0
    _report(
        1,
        ok,
        f"spectra defects {defect_ab:.2e}/{defect_abt:.2e} in {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_counterexample_gaps():
    min_gap = np.inf
    for m, n in [(3, 3), (3, 4), (4, 4)]:
        report = check_counterexample(m, n)
        assert set(report.gap_per_k) == set(range(1, m * n))
        min_gap = min(min_gap, min(report.gap_per_k.values()))
    _report(2, min_gap > 1e-6, f"min |hi gap| + |lo gap| over all shapes/k = {min_gap:.3e}")


@pytest.mark.slow
def test_criterion_3_range_property_suite():
    rng = np.random.default_rng(314159)
    worst = {
        "containment": 0.0,
        "attainment": 0.0,
        "affine": 0.0,
        "unitary": True,
        "compression": 0.0,
    }
    misclassified = 0
    for i in range(100):
        d = 2 + i % 9  # dims 2..10
        h = random_hermitian(d, rng)
        c = random_complex(d, rng)
        herm_tol = 1e-9 * (1 + np.max(np.abs(h)))
        if np.max(np.abs(krange_profile(h, max(1, d // 2), 360).boundary.imag)) > herm_tol:
            misclassified += 1
        nonherm_tol = 1e-9 * (1 + np.max(np.abs(c)))
        if np.max(np.abs(krange_profile(c, max(1, d // 2), 360).boundary.imag)) <= nonherm_tol:
            misclassified += 1
        for k in range(1, d):
            interval = krange_hermitian(h, k)
            pts = sample_points(h, k, 100, rng)
            worst["containment"] = max(
                worst["containment"],
                float(np.max(pts.real) - interval.hi),
                float(interval.lo - np.min(pts.real)),
                float(np.max(np.abs(pts.imag))),
            )
            worst["attainment"] = max(
                worst["attainment"],
                abs(boundary_point(h, k, 0.0).real - interval.hi),
                abs(boundary_point(h, k, np.pi).real - interval.lo),
            )
            alpha, beta = float(rng.normal()), float(rng.normal())
            shifted = krange_hermitian(alpha * np.eye(d) + beta * h, k)
            lo, hi = sorted((alpha + beta * interval.lo, alpha + beta * interval.hi))
            worst["affine"] = max(worst["affine"], abs(shifted.lo - lo), abs(shifted.hi - hi))
            u = random_haar_unitary(d, rng)
            p1 = krange_profile(c, k, 360)
            p2 = krange_profile(u @ c @ u.conj().T, k, 360)
            worst["unitary"] = worst["unitary"] and ranges_equal(p1, p2, 1e-8)
            if k < d:
                s = int(rng.integers(k + 1, d + 1))
                v = random_haar_unitary(d, rng)[:s, :]
                hs = support_values(v @ c @ v.conj().T, k, p1.angles)
                worst["compression"] = max(worst["compression"], float(np.max(hs - p1.support)))
    ok = (
        worst["containment"] <= 1e-9
        and worst["attainment"] <= 1e-9
        and worst["affine"] <= 1e-10
        and worst["unitary"]
        and worst["compression"] <= 1e-9
        and misclassified == 0
    )
    _report(
        3,
        ok,
        "containment {containment:.1e}, attainment {attainment:.1e}, affine {affine:.1e}, "
        "compression {compression:.1e}".format(**{k: v for k, v in worst.items() if k != "unitary"})
        + f", misclassified {misclassified}",
    )


def test_criterion_4_complement_identity():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for i in range(100):
        d = 2 + i % 9
        h = random_hermitian(d, rng)
        tr = float(np.trace(h).real)
        for k in range(1, d):
            left = krange_hermitian(h, d - k)
            right = krange_hermitian(h, k)
            worst = max(
                worst,
                abs((d - k) * left.hi - (tr - k * right.lo)),
                abs((d - k) * left.lo - (tr - k * right.hi)),
            )
    _report(4, worst <= 1e-10, f"worst endpoint mismatch {worst:.3e}")


@pytest.mark.slow
def test_criterion_5_sufficiency_sweep():
    rng = np.random.default_rng(161803)
    t0 = time.perf_counter()
    worst_defect = 0.0
    runs = spectral = 0
    for m, n, k in SWEEP_SHAPES:
        shape = BipartiteShape(m, n, k)
        for tag, affine in _valid_forms(shape):
            for _ in range(20):
                u = random_haar_unitary(shape.dim, rng)
                phi = build_canonical(CanonicalFormSpec(tag, u, affine, shape))
                report = verify_preserver(
                    phi, trials=50, num_angles=360, tol=1e-8, seed=rng.integers(2**63)
                )
                runs += 1
                spectral += report.decided_by == "spectra"
                worst_defect = max(worst_defect, report.max_support_defect)
                assert report.passed, (m, n, k, tag, affine)
    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-8 and elapsed < 300.0
    _report(
        5,
        ok,
        f"{runs} verifications ({spectral} decided by the spectra), "
        f"worst defect {worst_defect:.2e}, {elapsed:.0f} s",
    )


@pytest.mark.slow
def test_criterion_6_necessity():
    # partial transposes fail deterministically whenever both factors are >= 3
    failing_ok = True
    for m, n, k in SWEEP_SHAPES:
        if m < 3 or n < 3:
            continue
        shape = BipartiteShape(m, n, k)
        for tag in ("pt_right", "pt_left"):
            u = random_haar_unitary(shape.dim, seed=k * 31 + (tag == "pt_left"))
            phi = build_canonical(CanonicalFormSpec(tag, u, False, shape))
            report = verify_preserver(phi, trials=5, num_angles=120, tol=1e-8, seed=1)
            failing_ok = failing_ok and not report.passed

    # affine forms unbuildable whenever mn != 2k
    rejected_ok = True
    for m, n, k in SWEEP_SHAPES:
        shape = BipartiteShape(m, n, k)
        if shape.is_half:
            continue
        try:
            build_canonical(
                CanonicalFormSpec("id", np.eye(shape.dim, dtype=complex), True, shape)
            )
            rejected_ok = False
        except ValueError:
            pass

    # random constrained maps never pass
    total_passes = 0
    for m, n, k in [(2, 2, 2), (2, 3, 3), (3, 3, 4), (2, 4, 4), (3, 4, 6)]:
        summary = falsify_random(BipartiteShape(m, n, k), count=100, seed=1000 + m * n + k)
        total_passes += summary.passes
    ok = failing_ok and rejected_ok and total_passes == 0
    _report(
        6,
        ok,
        f"pt forms fail: {failing_ok}, affine rejected: {rejected_ok}, "
        f"falsify passes: {total_passes}/500",
    )


@pytest.mark.slow
def test_criterion_7_classifier_round_trip():
    rng = np.random.default_rng(577215)
    worst_residual = 0.0
    worst_u_error = 0.0
    for m, n, k in SWEEP_SHAPES:
        shape = BipartiteShape(m, n, k)
        forms = [(tag, False) for tag in VARPHI_TAGS]
        if shape.is_half:
            forms += [(tag, True) for tag in VARPHI_TAGS]
        for i in range(20):
            tag, affine = forms[int(rng.integers(len(forms)))]
            u = random_haar_unitary(shape.dim, rng)
            phi = build_canonical(CanonicalFormSpec(tag, u, affine, shape))
            report = classify_preserver(phi, tol=1e-8)
            assert report.verdict == "classified", (m, n, k, tag, affine)
            match = report.matched
            rebuilt = build_canonical(
                CanonicalFormSpec(match.varphi, match.unitary, match.affine, shape)
            )
            worst_residual = max(
                worst_residual, float(np.max(np.abs(rebuilt.matrix - phi.matrix)))
            )
            if match.varphi == tag and match.affine == affine:
                phase = np.trace(match.unitary @ u.conj().T)
                phase /= abs(phase)
                worst_u_error = max(
                    worst_u_error, float(np.max(np.abs(match.unitary - phase * u)))
                )
    ok = worst_residual <= 1e-8 and worst_u_error <= 1e-8
    _report(
        7,
        ok,
        f"worst rebuild residual {worst_residual:.2e}, worst unitary error {worst_u_error:.2e}",
    )


def test_criterion_8_implication_instance_suites():
    rng = np.random.default_rng(141421)
    split_failures = 0
    for _ in range(1000):
        d = int(rng.integers(3, 11))
        k = int(rng.integers(1, d))
        top = np.sort(rng.uniform(1.0, 2.0, size=k))[::-1]
        rest = np.sort(rng.uniform(-1.0, 0.0, size=d - k))[::-1]
        w1 = random_haar_unitary(k, rng)
        w2 = random_haar_unitary(d - k, rng)
        h = np.zeros((d, d), dtype=complex)
        h[:k, :k] = w1 @ np.diag(top) @ w1.conj().T
        h[k:, k:] = w2 @ np.diag(rest) @ w2.conj().T
        result = check_block_split(hermitian_part(h), k)
        if result.vacuous or not result.ok:
            split_failures += 1

    orth_failures = 0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        rest = int(rng.integers(1, 4))
        d = k + rest
        w1 = random_haar_unitary(k, rng)
        p1 = w1 @ np.diag(rng.uniform(0.2, 2.0, size=k)) @ w1.conj().T
        w2 = random_haar_unitary(rest, rng)
        p2 = w2 @ np.diag(rng.uniform(0.2, 2.0, size=rest)) @ w2.conj().T
        a = np.zeros((d, d), dtype=complex)
        b = np.zeros((d, d), dtype=complex)
        a[:k, :k] = p1
        b[k:, k:] = p2
        u = random_haar_unitary(d, rng)
        result = check_orthogonality_criterion(
            hermitian_part(u @ a @ u.conj().T), hermitian_part(u @ b @ u.conj().T), k
        )
        if result.vacuous or not result.ok:
            orth_failures += 1
    ok = split_failures == 0 and orth_failures == 0
    _report(
        8,
        ok,
        f"block-split failures {split_failures}/1000, orthogonality failures {orth_failures}/1000",
    )
