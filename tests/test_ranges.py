from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knrange.matcore import (
    BipartiteShape,
    hermitian_part,
    kron,
    max_abs,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from knrange.ranges import (
    _angle_grid,
    _rotated_eigs,
    boundary_point,
    k_numerical_radius,
    krange_hermitian,
    krange_profile,
    profile_csv,
    profile_svg,
    ranges_equal,
    sample_points,
    support_value,
    support_values,
    support_values_batch,
)

from conftest import SQRT_41_OVER_2, SQRT_9_OVER_2, shift3, unit_matrix


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
    vk = v[:, :, -k:]
    return w[:, -k:].sum(axis=1) / k, np.einsum("jis,jis->j", vk.conj(), a @ vk) / k


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
        assert support_value(np.diag([1j, -1j]), 1, np.pi / 2) == pytest.approx(1.0)

    def test_hermitian_consistency(self, rng):
        h = random_hermitian(5, rng)
        interval = krange_hermitian(h, 2)
        assert support_value(h, 2, 0.0) == pytest.approx(interval.hi, abs=1e-12)
        assert support_value(h, 2, np.pi) == pytest.approx(-interval.lo, abs=1e-12)

    def test_counterexample_top(self):
        x = shift3()
        assert support_value(kron(x, x), 1, 0.0) == pytest.approx(SQRT_41_OVER_2, abs=1e-10)

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
        assert support_values(a, 1, 0.5)[0] == support_value(a, 1, 0.5)


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
            h = support_value(a, 2, theta)
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
        w = _rotated_eigs(stack, angles)
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

    def test_general_row_solves_half_of_an_even_grid(self, rng, monkeypatch):
        solved = []

        def counting(solver):
            def wrapper(x, *args, **kwargs):
                solved.append(int(np.prod(np.shape(x)[:-2])))
                return solver(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        general, herm = random_complex(4, rng), random_hermitian(4, rng)
        for num_angles, general_solves in ((360, 180), (8, 4), (361, 361), (9, 9)):
            angles = _angle_grid(num_angles)
            solved.clear()
            support_values_batch(np.stack([general, herm]), 2, angles)
            assert sum(solved) == general_solves + 1  # the Hermitian row: one solve
            for call in (lambda: krange_profile(general, 2, num_angles),
                         lambda: support_values(general, 2, angles),
                         lambda: k_numerical_radius(general, 2, num_angles)):
                solved.clear()
                call()
                assert sum(solved) == general_solves

    @pytest.mark.parametrize("bad", [True, 8.5, 360.0, np.int64(8)],
                             ids=["bool", "fraction", "whole-float", "numpy-int"])
    def test_rejects_non_integer_num_angles(self, bad):
        a = random_complex(3, np.random.default_rng(0))
        for call in (lambda: krange_profile(a, 1, bad),
                     lambda: k_numerical_radius(a, 1, bad),
                     lambda: _angle_grid(bad)):
            with pytest.raises(ValueError, match="num_angles must be an integer"):
                call()

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_sample_points_rejects_non_integer_count(self, bad):
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_points(shift3(), 1, bad, 0)

    def test_rejects_bool_k(self):
        a = np.diag([1.0, 2.0, 3.0]) + 0.5j * unit_matrix(3, 0, 1)
        for call in (lambda: support_values(a, True, _angle_grid(8)),
                     lambda: support_values_batch(a[None], True, _angle_grid(8)),
                     lambda: krange_profile(a, True, 8),
                     lambda: boundary_point(a, True, 0.0)):
            with pytest.raises(ValueError, match="integer"):
                call()
