from unittest import mock

import numpy as np
import pytest

from knrange import checks
from knrange.checks import (
    check_block_split,
    check_counterexample,
    check_orthogonality_criterion,
    counterexample_matrices,
    preserver_suite,
    suite_json,
    suite_passed,
)
from knrange.matcore import BipartiteShape, random_haar_unitary

from conftest import SQRT_41_OVER_2, unit_matrix


class TestCounterexampleMatrices:
    def test_3x3_entries(self):
        a, b = counterexample_matrices(3, 3)
        assert a[0, 1] == 3 and a[1, 2] == 1
        assert np.count_nonzero(a) == 2
        np.testing.assert_array_equal(a, b)

    def test_padding(self):
        a, _ = counterexample_matrices(4, 3)
        assert a.shape == (4, 4)
        assert np.count_nonzero(a[3, :]) == 0 and np.count_nonzero(a[:, 3]) == 0

    def test_rejects_small_factors(self):
        with pytest.raises(ValueError):
            counterexample_matrices(2, 3)

    @pytest.mark.parametrize("m,n", [(3.5, 3), (4.0, 3), (3, 4.0), ("3", 3), (True, 3),
                                     (np.int64(3), 3), (3, 2)])
    def test_rejects_non_integer_sizes(self, m, n):
        with pytest.raises(ValueError):
            counterexample_matrices(m, n)


class TestCounterexampleReport:
    def test_3x3_passes(self):
        report = check_counterexample(3, 3)
        assert report.passed
        assert report.spectrum_ab[-1] == pytest.approx(SQRT_41_OVER_2, abs=1e-10)
        assert report.spectrum_ab[-1] == pytest.approx(4.52769256906871, abs=1e-10)

    def test_k1_gap_value(self):
        report = check_counterexample(3, 3)
        # |hi - hi'| + |lo - lo'|; both terms equal sqrt(41/2) - 9/2 by symmetry
        expected = 2 * (SQRT_41_OVER_2 - 4.5)
        assert report.gap_per_k[1] == pytest.approx(expected, abs=1e-10)
        assert all(g > 1e-6 for g in report.gap_per_k.values())

    def test_4x4_has_ten_zeros(self):
        report = check_counterexample(4, 4)
        assert report.passed
        assert np.count_nonzero(np.abs(report.expected_ab) < 1e-14) == 10
        assert np.count_nonzero(np.abs(report.spectrum_ab) < 1e-9) == 10

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3)])
    def test_rectangular_factor_sizes(self, m, n):
        assert check_counterexample(m, n).passed

    def test_each_hermitian_part_is_taken_once(self):
        """One Hermitian part per side, shared by the spectra and every k."""
        with mock.patch.object(checks, "hermitian_part", wraps=checks.hermitian_part) as herm:
            report = check_counterexample(3, 4)
        assert herm.call_count == 2
        assert len(report.gap_per_k) == 11


class TestBlockSplit:
    def test_diagonal_positive_instance(self):
        result = check_block_split(np.diag([5.0, 4.0, 1.0, 0.0]), 2)
        assert result.hypothesis_holds and result.ok and not result.vacuous

    def test_constructed_positive_instance(self, rng):
        w = random_haar_unitary(2, rng)
        a1 = w @ np.diag([5.0, 4.0]) @ w.conj().T
        v = random_haar_unitary(2, rng)
        a2 = v @ np.diag([1.0, 0.0]) @ v.conj().T
        h = np.block([[a1, np.zeros((2, 2))], [np.zeros((2, 2)), a2]])
        result = check_block_split(h, 2)
        assert result.hypothesis_holds and result.conclusion_holds

    def test_generic_matrix_is_vacuous(self, rng):
        from knrange.matcore import random_hermitian

        result = check_block_split(random_hermitian(5, rng), 2)
        assert result.vacuous and result.ok and result.conclusion_holds is None

    def test_rejects_non_hermitian(self, rng):
        from knrange.matcore import random_complex

        with pytest.raises(ValueError):
            check_block_split(random_complex(4, rng), 2)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True, np.int64(2), 0, 5])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k must"):
            check_block_split(np.diag([5.0, 4.0, 1.0, 0.0]), k)


class TestOrthogonalityCriterion:
    def test_unit_matrices(self):
        # tr(A)/2 = 1/2 = top of W_2(E11 - E22) in M_4: hypothesis holds
        result = check_orthogonality_criterion(unit_matrix(4, 0, 0), unit_matrix(4, 1, 1), 2)
        assert result.hypothesis_holds and result.conclusion_holds

    def test_block_construction(self, rng):
        k, rest = 2, 3
        w = random_haar_unitary(k, rng)
        p1 = w @ np.diag(rng.uniform(0.5, 2.0, size=k)) @ w.conj().T
        v = random_haar_unitary(rest, rng)
        p2 = v @ np.diag(rng.uniform(0.5, 2.0, size=rest)) @ v.conj().T
        d = k + rest
        a = np.zeros((d, d), dtype=complex)
        b = np.zeros((d, d), dtype=complex)
        a[:k, :k] = p1
        b[k:, k:] = p2
        u = random_haar_unitary(d, rng)
        result = check_orthogonality_criterion(u @ a @ u.conj().T, u @ b @ u.conj().T, k)
        assert result.hypothesis_holds and result.conclusion_holds

    def test_vacuous_case(self):
        # A = B = E11, k = 1: top of W_1(0) = 0 != 1 = tr(A)
        result = check_orthogonality_criterion(unit_matrix(4, 0, 0), unit_matrix(4, 0, 0), 1)
        assert result.vacuous and result.ok

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="semidefinite"):
            check_orthogonality_criterion(-np.eye(3), np.eye(3), 1)


class TestRangePropertyItems:
    def test_detection_errors_count_the_misread_draws(self, monkeypatch):
        """The draws pass with no detection error. With a Hermiticity
        tolerance no profile exceeds, every Ginibre draw reads as Hermitian:
        each draw is one detection error, and the item fails on them alone."""
        shape = BipartiteShape(2, 3, 3)
        (item,) = checks._range_property_items(shape, np.random.default_rng(4))
        assert item.passed
        assert item.detail["detection_errors"] == 0.0 and item.detail["detection_ok"] is True
        monkeypatch.setattr(checks, "HERMITICITY_RTOL", 1e300)
        (item,) = checks._range_property_items(shape, np.random.default_rng(4))
        assert item.detail["detection_errors"] == checks.PROPERTY_DRAWS
        assert item.detail["detection_ok"] is False and not item.passed


def complement_worst(shape, rng):
    """Oracle: the complement item's worst gap with both intervals of each
    k solved afresh, W_{d-k} and W_k for k = 1..d-1."""
    from knrange.matcore import random_hermitian
    from knrange.ranges import krange_hermitian

    d, worst = shape.dim, 0.0
    for _ in range(checks.PROPERTY_DRAWS):
        h = random_hermitian(d, rng)
        tr = float(np.trace(h).real)
        for k in range(1, d):
            left, right = krange_hermitian(h, d - k), krange_hermitian(h, k)
            worst = max(worst, abs((d - k) * left.hi - (tr - k * right.lo)),
                        abs((d - k) * left.lo - (tr - k * right.hi)))
    return worst


class TestComplementItem:
    @pytest.mark.parametrize("mnk", [(2, 2, 1), (3, 3, 2), (3, 4, 6)])
    def test_each_interval_once_per_draw(self, mnk):
        """d - 1 intervals per draw, W_1 to W_{d-1}, and the worst gap of
        solving both intervals of each k, bit for bit."""
        shape = BipartiteShape(*mnk)
        with mock.patch.object(checks, "krange_hermitian", wraps=checks.krange_hermitian) as solve:
            item = checks._complement_item(shape, np.random.default_rng(6))
        d = shape.dim
        assert [c.args[1] for c in solve.call_args_list] == list(range(1, d)) * checks.PROPERTY_DRAWS
        assert item.passed
        assert item.detail["worst"] == complement_worst(shape, np.random.default_rng(6))


class TestPreserverSuite:
    def test_2x2_half_all_pass(self):
        items = preserver_suite(BipartiteShape(2, 2, 2), seed=3, trials=8, num_angles=120)
        assert suite_passed(items)
        names = [it.name for it in items]
        # all four varphi forms are valid at min(m,n) <= 2, plus affine at mn = 2k
        assert "sufficiency:pt_right" in names
        assert "sufficiency:pt_right+affine" in names
        assert "counterexample" not in names

    def test_3x3_partial_transposes_fail(self):
        items = preserver_suite(BipartiteShape(3, 3, 2), seed=3, trials=8, num_angles=120)
        assert suite_passed(items)
        by_name = {it.name: it for it in items}
        assert "necessity:pt_right" in by_name and "necessity:pt_left" in by_name
        assert "necessity:affine-rejected" in by_name
        assert "counterexample" in by_name
        assert "sufficiency:pt_right" not in by_name

    def test_3x4_half_affine_included(self):
        items = preserver_suite(BipartiteShape(3, 4, 6), seed=3, trials=6, num_angles=90)
        assert suite_passed(items)
        names = [it.name for it in items]
        assert "sufficiency:id+affine" in names and "sufficiency:t+affine" in names
        assert "necessity:pt_right+affine" in names

    def test_deterministic_bytes(self):
        shape = BipartiteShape(2, 3, 3)
        a = suite_json(preserver_suite(shape, seed=77, trials=6, num_angles=90))
        b = suite_json(preserver_suite(shape, seed=77, trials=6, num_angles=90))
        assert a == b
