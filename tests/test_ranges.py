import os
import subprocess
import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knrange
from knrange import ranges
from knrange.matcore import (
    HERMITICITY_RTOL,
    BipartiteShape,
    hermitian_part,
    is_hermitian,
    kron,
    max_abs,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from knrange.classify import counterexample_matrices
from knrange.ranges import (
    MAX_NUM_ANGLES,
    MAX_SAMPLES,
    _angle_grid,
    _check_angles,
    _rotated_eigs,
    boundary_point,
    k_numerical_radius,
    krange_hermitian,
    krange_profile,
    profile_csv,
    profile_svg,
    ranges_equal,
    sample_points,
    support_values,
    support_values_batch,
)

from conftest import (
    SQRT_41_OVER_2,
    SQRT_9_OVER_2,
    frame_trace,
    peak_alloc,
    shift3,
    solver_log,
    unit_matrix,
)


def interval_by_enumeration(diag_values, k):
    """Independent oracle for diagonal Hermitian matrices.

    W_k endpoints are attained on coordinate subspaces, so enumerating the
    means of all k-subsets of diagonal entries recovers the exact interval.
    No eigendecomposition involved.
    """
    means = [sum(c) / k for c in combinations(diag_values, k)]
    return min(means), max(means)


def direct_eigh(a, angles):
    """Reference for the rotated-eigensolve kernel: one eigh per angle of the
    Hermitian part of e^{-i theta} A, with no antipodal reuse."""
    pairs = [np.linalg.eigh(hermitian_part(np.exp(-1j * theta) * a)) for theta in angles]
    return np.array([w for w, _ in pairs]), np.array([v for _, v in pairs])


def direct_support_and_boundary(a, k, angles):
    w, v = direct_eigh(a, angles)
    return w[:, -k:].sum(axis=1) / k, frame_trace(a, v[:, :, -k:], k)


class TestHermitianInterval:
    def test_against_enumeration_oracle(self):
        lo, hi = interval_by_enumeration([3.0, 1.0, 0.0, -1.0], 2)
        assert (lo, hi) == (-0.5, 2.0)  # frozen from the oracle
        interval = krange_hermitian(np.diag([3.0, 1.0, 0.0, -1.0]), 2)
        assert interval.lo == pytest.approx(-0.5, abs=1e-12)
        assert interval.hi == pytest.approx(2.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_random_diagonals_match_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(5)
        lo, hi = interval_by_enumeration(d.tolist(), k)
        interval = krange_hermitian(np.diag(d), k)
        assert interval.lo == pytest.approx(lo, abs=1e-12)
        assert interval.hi == pytest.approx(hi, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unit_tensor(self, k):
        interval = krange_hermitian(kron(unit_matrix(2, 0, 0), unit_matrix(2, 0, 0)), k)
        assert (interval.lo, interval.hi) == (0.0, pytest.approx(1 / k, abs=1e-15))

    def test_identity_singleton(self):
        for k in (1, 3, 5):
            interval = krange_hermitian(np.eye(6), k)
            assert interval.lo == interval.hi == pytest.approx(1.0)

    def test_sampling_oracle_containment(self):
        a = np.diag([3.0, 1.0, 0.0, -1.0])
        pts = sample_points(a, 2, 100_000, seed=5)
        assert np.max(np.abs(pts.imag)) <= 1e-12
        assert pts.real.max() <= 2.0 + 1e-9  # never exceeds the interval
        assert pts.real.min() >= -0.5 - 1e-9

    def test_rejects(self, rng):
        with pytest.raises(ValueError):
            krange_hermitian(random_complex(4, rng), 2)
        for bad_k in (0, 4, 5):
            with pytest.raises(ValueError):
                krange_hermitian(np.eye(4), bad_k)


class TestSupportValue:
    def test_skew_rotation(self):
        assert support_values(np.diag([1j, -1j]), 1, [np.pi / 2])[0] == pytest.approx(1.0)

    def test_hermitian_consistency(self, rng):
        h = random_hermitian(5, rng)
        interval = krange_hermitian(h, 2)
        assert support_values(h, 2, [0.0])[0] == pytest.approx(interval.hi, abs=1e-12)
        assert support_values(h, 2, [np.pi])[0] == pytest.approx(-interval.lo, abs=1e-12)

    def test_counterexample_top(self):
        x = shift3()
        assert support_values(kron(x, x), 1, [0.0])[0] == pytest.approx(SQRT_41_OVER_2, abs=1e-10)

    def test_fast_path_matches_generic(self, rng):
        # Hermitian input must give the same grid through either code path.
        h = random_hermitian(6, rng)
        angles = 2 * np.pi * np.arange(48) / 48
        fast = support_values(h, 2, angles)
        generic = support_values(h + 1e-30j * unit_matrix(6, 0, 1), 2, angles)
        np.testing.assert_allclose(fast, generic, atol=1e-12)

    def test_batch_matches_scalar(self, rng):
        stack = np.stack([random_complex(5, rng) for _ in range(4)])
        angles = 2 * np.pi * np.arange(36) / 36
        batch = support_values_batch(stack, 2, angles)
        for t in range(4):
            np.testing.assert_allclose(batch[t], support_values(stack[t], 2, angles), atol=1e-12)

    @pytest.mark.parametrize(
        "stack,angles,match",
        [
            (np.zeros((2, 3, 3)), 0.5, "angles"),
            (np.eye(3), np.zeros(8), "stack"),
            (np.zeros((2, 3, 4)), np.zeros(8), "stack"),
        ],
        ids=["scalar-angles", "single-matrix", "non-square-stack"],
    )
    def test_batch_rejects_malformed_input(self, stack, angles, match):
        with pytest.raises(ValueError, match=match):
            support_values_batch(stack, 1, angles)

    @pytest.mark.parametrize(
        "angles",
        [np.nan, np.inf, np.array([0.0, -np.inf]), np.array([]), np.zeros((2, 2))],
        ids=["nan", "inf", "minus-inf-entry", "empty", "2-d"],
    )
    def test_malformed_angles_rejected(self, angles):
        a = shift3()
        for call in (lambda: support_values(a, 1, angles),
                     lambda: support_values_batch(a[None], 1, angles)):
            with pytest.raises(ValueError, match="angles"):
                call()

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_boundary_point_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="angles must be finite"):
            boundary_point(shift3(), 1, theta)

    def test_scalar_angle_accepted(self):
        a = shift3()
        assert support_values(a, 1, 0.5).shape == (1,)
        assert support_values(a, 1, 0.5)[0] == support_values(a, 1, [0.5])[0]


class TestBoundaryPoint:
    def test_hermitian_endpoint(self, rng):
        h = random_hermitian(5, rng)
        interval = krange_hermitian(h, 2)
        b = boundary_point(h, 2, 0.0)
        assert abs(b.imag) <= 1e-12
        assert b.real == pytest.approx(interval.hi, abs=1e-10)

    def test_scalar_matrix(self):
        alpha = 1.5 - 0.5j
        for theta in np.linspace(0, 2 * np.pi, 9):
            assert boundary_point(alpha * np.eye(4), 2, theta) == pytest.approx(alpha, abs=1e-12)

    def test_on_supporting_line_and_inside(self, rng):
        a = random_complex(5, rng)
        profile = krange_profile(a, 2, 90)
        for theta in (0.0, 0.7, 2.3, 4.0):
            b = boundary_point(a, 2, theta)
            h = support_values(a, 2, [theta])[0]
            assert (np.exp(-1j * theta) * b).real == pytest.approx(h, abs=1e-9)
            # member of every supporting half-plane
            proj = (np.exp(-1j * profile.angles) * b).real
            assert np.all(proj <= profile.support + 1e-9 * (1 + np.max(np.abs(profile.support))))


class TestProfile:
    def test_scalar_matrix_profile(self):
        profile = krange_profile(2 * np.eye(4), 2, 16)
        np.testing.assert_allclose(profile.support, 2 * np.cos(profile.angles), atol=1e-12)
        np.testing.assert_allclose(profile.boundary, np.full(16, 2.0 + 0j), atol=1e-12)

    def test_hermitian_collapse(self, rng):
        h = random_hermitian(6, rng)
        interval = krange_hermitian(h, 3)
        profile = krange_profile(h, 3, 360)
        assert np.max(np.abs(profile.boundary.imag)) <= 1e-9 * (1 + np.max(np.abs(h)))
        assert profile.boundary.real.max() == pytest.approx(interval.hi, abs=1e-9)
        assert profile.boundary.real.min() == pytest.approx(interval.lo, abs=1e-9)

    def test_profile_invariants(self, rng):
        a = random_complex(6, rng)
        profile = krange_profile(a, 2, 120)
        scale = 1e-9 * (1 + np.max(np.abs(profile.support)))
        rotated = (np.exp(-1j * profile.angles) * profile.boundary).real
        np.testing.assert_allclose(rotated, profile.support, atol=scale)
        proj = (np.exp(-1j * profile.angles[:, None]) * profile.boundary[None, :]).real
        assert np.all(proj <= profile.support[:, None] + scale)

    def test_min_angles(self):
        with pytest.raises(ValueError):
            krange_profile(np.eye(4), 2, 7)

    def test_counterexample_profiles_differ(self):
        x = shift3()
        p1 = krange_profile(kron(x, x), 2, 360)
        p2 = krange_profile(kron(x, x.T), 2, 360)
        gap = abs(p1.support[0] - p2.support[0])
        expected = abs((SQRT_41_OVER_2 + 1.5) - (4.5 + SQRT_9_OVER_2)) / 2
        assert gap == pytest.approx(expected, abs=1e-10)
        assert gap > 0.1
        assert not ranges_equal(p1, p2, 1e-6)


class TestRangesEqual:
    def test_reflexive(self, rng):
        p = krange_profile(random_complex(4, rng), 2, 90)
        assert ranges_equal(p, p, 1e-12)

    def test_unitary_invariance(self, rng):
        a = random_complex(5, rng)
        u = random_haar_unitary(5, rng)
        p1 = krange_profile(a, 2, 360)
        p2 = krange_profile(u @ a @ u.conj().T, 2, 360)
        assert ranges_equal(p1, p2, 1e-8)

    def test_grid_mismatch(self, rng):
        a = random_complex(4, rng)
        with pytest.raises(ValueError):
            ranges_equal(krange_profile(a, 1, 90), krange_profile(a, 1, 180))
        with pytest.raises(ValueError):
            ranges_equal(krange_profile(a, 1, 90), krange_profile(a, 2, 90))


class TestRadius:
    def test_identity(self):
        assert k_numerical_radius(np.eye(5), 2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        # interval is [-0.5, 2.0]; theta = 0 lies on the grid so this is exact
        assert k_numerical_radius(np.diag([3.0, 1.0, 0.0, -1.0]), 2) == pytest.approx(2.0, abs=1e-12)

    def test_hermitian_consistency(self, rng):
        h = random_hermitian(6, rng)
        interval = krange_hermitian(h, 2)
        expected = max(abs(interval.lo), abs(interval.hi))
        assert k_numerical_radius(h, 2) == pytest.approx(expected, abs=1e-9)


def radius_families(d: int, rng) -> dict:
    """Matrices for the radius's skip bound: a generic W_k, one far below the
    rounding slack's floor, one far from 0, a polygon, a disk (a constant
    support function), a point, a segment through 0, and a badly scaled
    matrix."""
    g = random_complex(d, rng)
    q = random_haar_unitary(d, rng)
    cols = random_complex(d, rng)
    cols[:, : d // 2] *= 1e6
    return {
        "ginibre": g,
        "tiny": 1e-9 * g,
        "shifted": g + 50 * np.eye(d),
        "normal": q @ np.diag(np.exp(2j * np.pi * np.arange(d) / d)) @ q.conj().T,
        "shift": np.eye(d, k=1, dtype=complex),
        "scalar": (1 + 2j) * np.eye(d),
        "i-hermitian": 1j * random_hermitian(d, rng),
        "columns-1e6": cols,
    }


RADIUS_GRIDS = (8, 9, 10, 17, 90, 359, 360, 361, 720)

# Prints, for each radius_families matrix at d = 12 and 16, each of
# RADIUS_GRIDS and k = d/2, the bytes of k_numerical_radius and of the
# full-grid maximum.
RADIUS_BYTES_SCRIPT = """
import numpy as np
from test_ranges import RADIUS_GRIDS, radius_families
from knrange.ranges import _angle_grid, k_numerical_radius, support_values
for d in (12, 16):
    for a in radius_families(d, np.random.default_rng(d)).values():
        for n in RADIUS_GRIDS:
            got = np.float64(k_numerical_radius(a, d // 2, n)).tobytes().hex()
            ref = np.max(support_values(a, d // 2, _angle_grid(n))).tobytes().hex()
            print(got, ref)
"""


class TestRadiusSkip:
    """k_numerical_radius solves a non-Hermitian matrix only at the angles
    its disk and half-plane bound cannot rule out, and returns the bytes of
    the full-grid maximum."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_bitwise_the_full_grid_max(self, d):
        for name, a in radius_families(d, np.random.default_rng(300 + d)).items():
            for num_angles in RADIUS_GRIDS:
                angles = _angle_grid(num_angles)
                for k in sorted({1, d // 2, d - 1}):
                    got = np.float64(k_numerical_radius(a, k, num_angles))
                    reference = np.max(support_values(a, k, angles))
                    assert got.tobytes() == reference.tobytes(), (name, num_angles, k)

    @pytest.mark.parametrize("num_angles,kernel_solves", [(360, 180), (361, 361)])
    def test_solves_at_most_a_third_of_the_grid(self, rng, num_angles, kernel_solves):
        a = random_complex(16, rng)
        for k in (1, 8, 15):
            with solver_log() as solved:
                k_numerical_radius(a, k, num_angles)
            assert 0 < solved.matrices() <= kernel_solves // 3, k

    def test_hermitian_takes_one_solve(self, rng):
        h = random_hermitian(16, rng)
        for num_angles in (360, 361):
            with solver_log() as solved:
                k_numerical_radius(h, 8, num_angles)
            assert list(solved) == [("eigvalsh", 1, 16)]

    def test_bitwise_at_one_and_two_blas_threads(self):
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(knrange.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, here, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", RADIUS_BYTES_SCRIPT], env=env,
                                 check=True, capture_output=True, text=True, timeout=300)
            pairs = [line.split() for line in run.stdout.splitlines()]
            assert len(pairs) == 2 * 8 * len(RADIUS_GRIDS)
            assert all(got == ref for got, ref in pairs)
            outputs.append(pairs)
        assert outputs[0] == outputs[1]


class TestSamplePoints:
    def test_scalar(self):
        pts = sample_points((0.5 + 2j) * np.eye(4), 2, 50, seed=0)
        np.testing.assert_allclose(pts, np.full(50, 0.5 + 2j), atol=1e-12)

    def test_hermitian_containment(self, rng):
        h = random_hermitian(6, rng)
        interval = krange_hermitian(h, 2)
        pts = sample_points(h, 2, 500, rng)
        assert np.all(pts.real <= interval.hi + 1e-9)
        assert np.all(pts.real >= interval.lo - 1e-9)

    def test_half_plane_containment(self, rng):
        a = random_complex(6, rng)
        profile = krange_profile(a, 2, 90)
        pts = sample_points(a, 2, 300, rng)
        proj = (np.exp(-1j * profile.angles[:, None]) * pts[None, :]).real
        assert np.all(proj <= profile.support[:, None] + 1e-9 * (1 + np.max(np.abs(profile.support))))

    def test_determinism(self, rng):
        a = random_complex(4, 3)
        assert np.array_equal(sample_points(a, 1, 10, seed=7), sample_points(a, 1, 10, seed=7))

    @pytest.mark.parametrize("d,k", [(3, 2), (5, 3), (5, 4), (9, 5), (9, 8), (16, 9), (16, 15)])
    def test_complement_identity(self, d, k):
        """For k > d/2 a point is the complement of the (d - k)-point drawn
        from the same seed: k W_k = tr A - (d - k) W_{d-k}."""
        a = random_complex(d, d + k)
        got = sample_points(a, k, 50, 4)
        expected = (np.trace(a) - (d - k) * sample_points(a, d - k, 50, 4)) / k
        bound = 4 * d * np.finfo(float).eps * np.linalg.norm(a, 2)
        assert np.max(np.abs(got - expected)) <= bound

    @pytest.mark.parametrize("d", [5, 16])
    def test_mean_is_normalised_trace(self, d):
        """E tr(X* A X)/k = tr(A)/d, since E XX* = (k/d) I for a Haar
        isometry X; 20 000 points keep their mean within 5 standard errors.
        A wrong complement (a missing trace, a wrong divisor) moves the mean
        by O(|tr A|/d) or more."""
        a = random_complex(d, d) + 2.0 * np.eye(d)
        for k in sorted({1, d // 2, d - 1}):
            pts = sample_points(a, k, 20_000, k)
            stderr = np.sqrt((pts.real.var() + pts.imag.var()) / len(pts))
            assert abs(pts.mean() - np.trace(a) / d) <= 5 * stderr, k

    def test_memory_is_the_smaller_side(self):
        """At d = 16, k = 15 the draw is one column per point: a (4096, 16, 1)
        stack of 1 MiB, where drawing the full (4096, 16, 16) stack would
        alone take 16 MiB."""
        a = random_complex(16, 0)
        sample_points(a, 15, 4096, 0)  # warm-up
        with peak_alloc() as peak:
            sample_points(a, 15, 4096, 0)
        assert peak.bytes < 6 * 2**20, peak.bytes


class TestStructuralProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_affine_covariance_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(5, rng)
        alpha, beta = rng.normal(), rng.normal()
        base = krange_hermitian(h, 2)
        shifted = krange_hermitian(alpha * np.eye(5) + beta * h, 2)
        lo, hi = sorted((alpha + beta * base.lo, alpha + beta * base.hi))
        assert shifted.lo == pytest.approx(lo, abs=1e-10)
        assert shifted.hi == pytest.approx(hi, abs=1e-10)

    def test_affine_covariance_profile(self, rng):
        # even grid: negating the matrix shifts the support grid by half a turn
        a = random_complex(5, rng)
        alpha, beta = 0.7, -1.3
        n = 72
        p = krange_profile(a, 2, n)
        q = krange_profile(alpha * np.eye(5) + beta * a, 2, n)
        rolled = np.roll(p.support, n // 2)
        expected_support = (alpha * np.exp(-1j * q.angles)).real + abs(beta) * rolled
        np.testing.assert_allclose(q.support, expected_support, atol=1e-10)
        np.testing.assert_allclose(
            q.boundary, alpha + beta * np.roll(p.boundary, n // 2), atol=1e-9
        )

    def test_compression_monotonicity(self, rng):
        a = random_complex(7, rng)
        angles = 2 * np.pi * np.arange(90) / 90
        h_full = support_values(a, 2, angles)
        for s in (3, 5, 7):
            v = random_haar_unitary(7, rng)[:s, :]
            h_comp = support_values(v @ a @ v.conj().T, 2, angles)
            assert np.all(h_comp <= h_full + 1e-9)

    def test_complement_identity(self, rng):
        h = random_hermitian(7, rng)
        tr = np.trace(h).real
        for k in range(1, 7):
            left = krange_hermitian(h, 7 - k)
            right = krange_hermitian(h, k)
            assert (7 - k) * left.hi == pytest.approx(tr - k * right.lo, abs=1e-10)
            assert (7 - k) * left.lo == pytest.approx(tr - k * right.hi, abs=1e-10)

    def test_hermitian_detection(self, rng):
        for _ in range(5):
            h = random_hermitian(5, rng)
            tol = 1e-9 * (1 + np.max(np.abs(h)))
            assert np.max(np.abs(krange_profile(h, 2, 90).boundary.imag)) <= tol
            c = random_complex(5, rng)
            tol = 1e-9 * (1 + np.max(np.abs(c)))
            assert np.max(np.abs(krange_profile(c, 2, 90).boundary.imag)) > tol


class TestExport:
    def test_csv_format(self, rng):
        profile = krange_profile(random_hermitian(4, rng), 2, 16)
        lines = profile_csv(profile).splitlines()
        assert lines[0] == "theta,support,boundary_re,boundary_im"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(profile.support[0], abs=0)

    def test_csv_round_trip_precision(self, rng):
        profile = krange_profile(random_complex(4, rng), 2, 16)
        lines = profile_csv(profile).splitlines()[1:]
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_array_equal(parsed[:, 1], profile.support)  # 17 sig digits round-trip

    def test_svg_is_wellformed(self, rng):
        svg = profile_svg(krange_profile(random_complex(4, rng), 2, 16))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polygon" in svg


class TestRotatedEigs:
    @pytest.mark.parametrize("num_angles", [8, 360])
    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_even_grid_matches_direct_solve(self, rng, d, num_angles):
        angles = _angle_grid(num_angles)
        stack = np.stack([random_complex(d, rng), random_hermitian(d, rng)])
        w = full_grid_eigs(stack, angles)
        for row, a in enumerate(stack):
            tol = 1e-12 * (1 + max_abs(a))
            ref_w, _ = direct_eigh(a, angles)
            np.testing.assert_allclose(w[row], ref_w, rtol=0, atol=tol)
            for k in sorted({1, d // 2, d - 1}):
                ref_support = ref_w[:, -k:].sum(axis=1) / k
                batch = support_values_batch(stack, k, angles)[row]
                np.testing.assert_allclose(batch, ref_support, rtol=0, atol=tol)
                np.testing.assert_allclose(support_values(a, k, angles), ref_support, rtol=0, atol=tol)
        # Boundary points are unique only off degenerate directions, which a
        # Hermitian row has at cos(theta) = 0; compare them on the complex row.
        a = stack[0]
        tol = 1e-12 * (1 + max_abs(a))
        for k in sorted({1, d // 2, d - 1}):
            ref_support, ref_boundary = direct_support_and_boundary(a, k, angles)
            profile = krange_profile(a, k, num_angles)
            np.testing.assert_allclose(profile.support, ref_support, rtol=0, atol=tol)
            np.testing.assert_allclose(profile.boundary, ref_boundary, rtol=0, atol=tol)

    @pytest.mark.parametrize("d", [5, 12])
    def test_antipodal_boundary_on_supporting_line(self, rng, d):
        a = random_complex(d, rng)
        tol = 1e-12 * (1 + max_abs(a))
        for k in (1, d // 2):
            profile = krange_profile(a, k, 360)
            second = slice(180, None)
            rotated = (np.exp(-1j * profile.angles[second]) * profile.boundary[second]).real
            np.testing.assert_allclose(rotated, profile.support[second], rtol=0, atol=tol)

    def test_odd_and_custom_grids_match_direct_solve(self, rng):
        a = random_complex(6, rng)
        tol = 1e-12 * (1 + max_abs(a))
        custom = np.sort(rng.uniform(0.0, 2 * np.pi, 50))
        for angles in (_angle_grid(361), custom):
            ref_w, _ = direct_eigh(a, angles)
            np.testing.assert_allclose(_rotated_eigs(a[None], angles)[0], ref_w, rtol=0, atol=tol)
            ref_support, ref_boundary = direct_support_and_boundary(a, 2, angles)
            np.testing.assert_allclose(support_values(a, 2, angles), ref_support, rtol=0, atol=tol)
            points = [boundary_point(a, 2, theta) for theta in angles[:10]]
            np.testing.assert_allclose(points, ref_boundary[:10], rtol=0, atol=tol)
        ref_support, ref_boundary = direct_support_and_boundary(a, 2, _angle_grid(361))
        profile = krange_profile(a, 2, 361)
        np.testing.assert_allclose(profile.support, ref_support, rtol=0, atol=tol)
        np.testing.assert_allclose(profile.boundary, ref_boundary, rtol=0, atol=tol)

    def test_general_row_solves_half_of_an_even_grid(self, rng):
        general, herm = random_complex(4, rng), random_hermitian(4, rng)
        for num_angles, general_solves in ((360, 180), (8, 4), (361, 361), (9, 9)):
            angles = _angle_grid(num_angles)
            with solver_log() as solved:
                support_values_batch(np.stack([general, herm]), 2, angles)
            assert solved.matrices() == general_solves + 1  # the Hermitian row: one solve
            for call in (lambda: krange_profile(general, 2, num_angles),
                         lambda: support_values(general, 2, angles)):
                with solver_log() as solved:
                    call()
                assert solved.matrices() == general_solves
            # The radius skips the angles its bound rules out, but for a grid
            # too coarse for the bound (8 and 9 angles), which it solves whole.
            with solver_log() as solved:
                k_numerical_radius(general, 2, num_angles)
            if num_angles < 10:
                assert solved.matrices() == general_solves
            else:
                assert 0 < solved.matrices() <= general_solves // 3

    @pytest.mark.parametrize("bad", [True, 8.5, 360.0, np.int64(8)],
                             ids=["bool", "fraction", "whole-float", "numpy-int"])
    def test_rejects_non_integer_num_angles(self, bad):
        a = random_complex(3, np.random.default_rng(0))
        for call in (lambda: krange_profile(a, 1, bad),
                     lambda: k_numerical_radius(a, 1, bad),
                     lambda: _angle_grid(bad)):
            with pytest.raises(ValueError, match="num_angles must be an integer"):
                call()

    def test_num_angles_has_an_inclusive_maximum(self):
        assert len(_angle_grid(MAX_NUM_ANGLES)) == MAX_NUM_ANGLES
        a = random_complex(3, np.random.default_rng(0))
        for call in (lambda: krange_profile(a, 1, MAX_NUM_ANGLES + 1),
                     lambda: k_numerical_radius(a, 1, 10**12),
                     lambda: _angle_grid(10**12)):
            with pytest.raises(ValueError, match=f"num_angles must be <= {MAX_NUM_ANGLES}, got "):
                call()

    def test_angle_array_length_has_an_inclusive_maximum(self):
        """A caller's angle array is bounded under its own name, before any
        solve, not through the grid's num_angles."""
        assert len(_check_angles(np.zeros(MAX_NUM_ANGLES))) == MAX_NUM_ANGLES
        a = random_complex(3, np.random.default_rng(0))
        angles = np.linspace(0.0, 1.0, MAX_NUM_ANGLES + 2)
        message = f"angles must hold <= {MAX_NUM_ANGLES} values, got {MAX_NUM_ANGLES + 2}"
        with solver_log() as solved:
            for call in (lambda: support_values(a, 1, angles),
                         lambda: support_values_batch(a[None], 1, angles),
                         lambda: _check_angles(angles)):
                with pytest.raises(ValueError, match=message):
                    call()
        assert list(solved) == []

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_sample_points_rejects_non_integer_count(self, bad):
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_points(shift3(), 1, bad, 0)

    def test_sample_count_has_an_inclusive_maximum(self):
        """count is bounded by MAX_SAMPLES before anything is drawn."""
        assert len(sample_points(np.diag([1.0, -1.0]), 1, MAX_SAMPLES, 0)) == MAX_SAMPLES
        a = shift3()
        with mock.patch.object(ranges, "_ginibre") as draw, peak_alloc() as peak:
            for bad in (MAX_SAMPLES + 1, 10**12):
                with pytest.raises(ValueError, match=f"count must be <= {MAX_SAMPLES}, got {bad}"):
                    sample_points(a, 1, bad, 0)
        draw.assert_not_called()
        assert peak.bytes < 2**16, peak.bytes

    def test_rejects_bool_k(self):
        a = np.diag([1.0, 2.0, 3.0]) + 0.5j * unit_matrix(3, 0, 1)
        for call in (lambda: support_values(a, True, _angle_grid(8)),
                     lambda: support_values_batch(a[None], True, _angle_grid(8)),
                     lambda: krange_profile(a, True, 8),
                     lambda: boundary_point(a, True, 0.0)):
            with pytest.raises(ValueError, match="integer"):
                call()


def broadcast_rotated_eigs(stack, angles, vectors=False):
    """Oracle: the kernel as a whole-stack broadcast, every non-Hermitian row's
    rotated family built at once and solved in one call."""
    count, d = stack.shape[0], stack.shape[1]
    n = len(angles)
    even = n >= 8 and n % 2 == 0 and np.array_equal(angles, _angle_grid(n))
    half = n // 2 if even else n
    cos, sin = np.cos(angles[:half]), np.sin(angles[:half])
    adj = stack.conj().transpose(0, 2, 1)
    h = (stack + adj) / 2
    kk = -0.5j * (stack - adj)
    herm = is_hermitian(stack)
    w = np.empty((count, half, d))
    v = np.empty((count, half, d, d), dtype=complex) if vectors else None
    if herm.any():
        hw, hv = np.linalg.eigh(h[herm]) if vectors else (np.linalg.eigvalsh(h[herm]), None)
        flip = cos < 0.0
        hw = cos[None, :, None] * hw[:, None, :]
        hw[:, flip] = hw[:, flip, ::-1]
        w[herm] = hw
        if vectors:
            hv = np.repeat(hv[:, None], half, axis=1)
            hv[:, flip] = hv[:, flip, :, ::-1]
            v[herm] = hv
    if not herm.all():
        rot = cos[None, :, None, None] * h[~herm][:, None]
        rot += sin[None, :, None, None] * kk[~herm][:, None]
        if vectors:
            w[~herm], v[~herm] = np.linalg.eigh(rot)
        else:
            w[~herm] = np.linalg.eigvalsh(rot)
    if half < n:
        w = np.concatenate([w, -w[..., ::-1]], axis=1)
        if vectors:
            v = np.concatenate([v, v[..., ::-1]], axis=1)
    return (w, v) if vectors else w


def full_grid_eigs(stack, angles, vectors=False):
    """_rotated_eigs on every angle of the grid, in the full-grid layout of
    broadcast_rotated_eigs: the antipodal half read by the index rule of the
    ranges module docstring (spectra -w[..., ::-1], frames v[..., ::-1]), and
    with vectors=True every angle's frame written out, one matrix at a time."""
    n = len(angles)
    if not vectors:
        w = _rotated_eigs(stack, angles)
        return w if w.shape[1] == n else np.concatenate([w, -w[..., ::-1]], axis=1)
    ws, vs = [], []
    for a in stack:
        w, v, flip = _rotated_eigs(a[None], angles, vectors=True)
        v = np.repeat(v, len(flip), axis=0) if len(v) < len(flip) else v
        v[flip] = v[flip, :, ::-1]
        if len(flip) < n:
            w = np.concatenate([w, -w[..., ::-1]], axis=1)
            v = np.concatenate([v, v[..., ::-1]])
        ws.append(w[0])
        vs.append(v)
    return np.stack(ws), np.stack(vs)


def kernel_stacks(d, rng):
    """A stack mixing Hermitian and non-Hermitian rows, an all-Hermitian and
    an all-Ginibre stack. At d = 12 and 16 the mixed stack holds the
    counterexample product A x B^t: its exact zeros carry signs that a build
    of the rotated family in other arithmetic changes, and that shows in its
    spectra."""
    rows = [random_complex(d, rng), random_hermitian(d, rng),
            np.diag(np.arange(1.0, d), 1).astype(complex), np.diag(np.arange(float(d))).astype(complex)]
    if d in (12, 16):
        a, b = counterexample_matrices(d // 4, 4)
        rows.append(kron(a, b.T))
    herm = np.stack([random_hermitian(d, rng), np.eye(d, dtype=complex), random_hermitian(d, rng)])
    ginibre = np.stack([random_complex(d, rng) for _ in range(3)])
    return {"mixed": np.stack(rows), "hermitian": herm, "ginibre": ginibre}


class TestStreamedKernel:
    """_rotated_eigs solves one matrix's angle family at a time; its spectra
    and frames are bitwise those of the whole-stack broadcast."""

    @pytest.mark.parametrize("grid", ["even", "odd", "custom"])
    @pytest.mark.parametrize("d", [2, 5, 12, 16])
    def test_bitwise_equal_to_broadcast(self, d, grid):
        rng = np.random.default_rng(100 + d)
        angles = {"even": _angle_grid(360), "odd": _angle_grid(361),
                  "custom": np.sort(rng.uniform(0.0, 2 * np.pi, 37))}[grid]
        for kind, stack in kernel_stacks(d, rng).items():
            assert is_hermitian(stack).all() == (kind == "hermitian")
            assert is_hermitian(stack).any() == (kind != "ginibre")
            w = full_grid_eigs(stack, angles)
            assert w.tobytes() == broadcast_rotated_eigs(stack, angles).tobytes(), kind
            w, v = full_grid_eigs(stack, angles, vectors=True)
            ref_w, ref_v = broadcast_rotated_eigs(stack, angles, vectors=True)
            assert w.tobytes() == ref_w.tobytes(), kind
            assert v.tobytes() == ref_v.tobytes(), kind

    def test_support_values_batch_memory_is_one_family(self):
        """A (25, 12, 12) Ginibre stack at 360 angles: two (180, 12, 12)
        complex buffers (0.8 MiB) instead of two (25, 180, 12, 12) ones
        (20 MiB); the spectra (1.3 MiB with their antipodal half) dominate."""
        rng = np.random.default_rng(8)
        stack = np.stack([random_complex(12, rng) for _ in range(25)])
        angles = _angle_grid(360)
        support_values_batch(stack, 6, angles)  # warm-up
        with peak_alloc() as peak:
            support_values_batch(stack, 6, angles)
        assert peak.bytes < 4 * 2**20, peak.bytes


def reference_support(stack, k, angles):
    """Oracle: the top-k means of the full-grid spectra of the broadcast."""
    return broadcast_rotated_eigs(stack, angles)[:, :, -k:].sum(axis=2) / k


def reference_profile(a, k, angles):
    """Oracle: support and boundary points from the full-grid spectra and
    frames of the broadcast, every angle's top-k frame traced at once."""
    w, v = broadcast_rotated_eigs(a[None], angles, vectors=True)
    return w[0, :, -k:].sum(axis=1) / k, frame_trace(a, v[0, :, :, -k:], k)


def reference_boundary_point(a, k, theta):
    """Oracle: the trace of the top-k frame of the broadcast at theta alone."""
    _, v = broadcast_rotated_eigs(a[None], np.array([theta]), vectors=True)
    return complex(frame_trace(a, v[0, :, :, -k:], k)[0])


class TestSolvedAnglesOnly:
    """The kernel returns the solved angles only, and a Hermitian matrix one
    eigenbasis; every caller's output is bitwise that of the full-grid
    spectra and frames."""

    @pytest.mark.parametrize("grid", [8, 360, 361, "custom"])
    @pytest.mark.parametrize("d", [2, 5, 12, 16])
    def test_bitwise_equal_to_full_grid(self, d, grid):
        rng = np.random.default_rng(200 + d)
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, 37)) if grid == "custom" else _angle_grid(grid)
        thetas = [float(t) for t in angles[:: max(1, len(angles) // 7)]] + [0.0, np.pi / 2, np.pi]
        for kind, stack in kernel_stacks(d, rng).items():
            for k in sorted({1, d // 2, d - 1}):
                got = support_values_batch(stack, k, angles)
                assert got.tobytes() == reference_support(stack, k, angles).tobytes(), (kind, k)
                for a in stack:
                    ref_support = reference_support(a[None], k, angles)[0]
                    assert support_values(a, k, angles).tobytes() == ref_support.tobytes()
                    for theta in thetas:
                        point = np.complex128(boundary_point(a, k, theta))
                        assert point.tobytes() == np.complex128(
                            reference_boundary_point(a, k, theta)).tobytes(), (kind, k, theta)
                    if grid == "custom":
                        continue
                    profile = krange_profile(a, k, grid)
                    ref_support, ref_boundary = reference_profile(a, k, angles)
                    assert profile.support.tobytes() == ref_support.tobytes(), (kind, k)
                    assert profile.boundary.tobytes() == ref_boundary.tobytes(), (kind, k)
                    radius = np.float64(k_numerical_radius(a, k, grid))
                    assert radius.tobytes() == np.max(reference_support(a[None], k, angles)).tobytes()

    @pytest.mark.parametrize("num_angles", [8, 360, 361])
    @pytest.mark.parametrize("d", [2, 5, 12, 16])
    def test_boundary_point_is_the_profile_point(self, d, num_angles):
        """At every solved angle (the first half of an even grid, all of an
        odd one) boundary_point traces the profile's frame through the same
        kernel, so it returns the profile's point, byte for byte."""
        rng = np.random.default_rng(300 + d)
        matrices = {"ginibre": random_complex(d, rng), "hermitian": random_hermitian(d, rng),
                    "shift": np.eye(d, k=1, dtype=complex)}
        solved = num_angles // 2 if num_angles % 2 == 0 else num_angles
        for kind, a in matrices.items():
            for k in sorted({1, d // 2, d - 1}):
                profile = krange_profile(a, k, num_angles)
                points = np.array([boundary_point(a, k, float(theta))
                                   for theta in profile.angles[:solved]])
                assert points.tobytes() == profile.boundary[:solved].tobytes(), (kind, k)

    @pytest.mark.parametrize("d", [2, 9, 16])
    def test_hermitian_profile_solves_once(self, d):
        a = random_hermitian(d, np.random.default_rng(d))
        with solver_log() as solved:
            krange_profile(a, d // 2, 360)
        assert list(solved) == [("eigh", 1, d)]

    def test_hermitian_profile_memory(self):
        """One eigenbasis and two boundary points instead of a (360, 16, 16)
        stack of frames (2.9 MiB at d = 16)."""
        a = random_hermitian(16, np.random.default_rng(16))
        krange_profile(a, 8, 360)  # warm-up
        with peak_alloc() as peak:
            krange_profile(a, 8, 360)
        assert peak.bytes < 0.25 * 2**20, peak.bytes


def near_hermitian(seed: int, d: int, factor: float) -> np.ndarray:
    """A Hermitian matrix plus a skew-Hermitian part whose defect max|A - A*|
    is `factor` times the threshold HERMITICITY_RTOL * (1 + max|A|)."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(d, rng)
    g = random_complex(d, rng)
    skew = (g - g.conj().T) / max_abs(g - g.conj().T)  # max|skew - skew*| = 2
    return h + (factor * HERMITICITY_RTOL * (1 + max_abs(h)) / 2) * skew


class TestHermiticityThreshold:
    """`matcore.is_hermitian` is the kernel's fast-path gate; probe it just
    inside (0.5x) and just outside (2x) its threshold."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_is_hermitian_at_the_threshold(self, seed, d):
        inside, outside = near_hermitian(seed, d, 0.5), near_hermitian(seed, d, 2.0)
        assert is_hermitian(inside) is True
        assert is_hermitian(outside) is False
        np.testing.assert_array_equal(is_hermitian(np.stack([inside, outside])), [True, False])

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
           num_angles=st.sampled_from([8, 90, 360]))
    @settings(max_examples=25, deadline=None)
    def test_fast_path_follows_is_hermitian(self, seed, d, num_angles):
        angles = _angle_grid(num_angles)
        for factor, solves in ((0.5, 1), (2.0, num_angles // 2)):
            with solver_log() as solved:
                _rotated_eigs(near_hermitian(seed, d, factor)[None], angles)
            assert solved.matrices() == solves

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_fast_path_support_within_threshold(self, seed, d):
        a = near_hermitian(seed, d, 0.5)
        angles = _angle_grid(90)
        ref_w, _ = direct_eigh(a, angles)
        tol = d * HERMITICITY_RTOL * (1 + max_abs(a))
        for k in range(1, d):
            ref_support = ref_w[:, -k:].sum(axis=1) / k
            np.testing.assert_allclose(support_values(a, k, angles), ref_support, rtol=0, atol=tol)
