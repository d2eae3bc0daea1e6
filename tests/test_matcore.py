import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knrange import matcore
from knrange.matcore import (
    BipartiteShape,
    hermitian_part,
    is_hermitian,
    is_orthogonal_pair,
    kron,
    matrix_from_payload,
    matrix_to_payload,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from knrange.maps import apply_map_batch, varphi_map

from conftest import (
    SQRT_41_OVER_2,
    SQRT_9_OVER_2,
    apply_map,
    frame_trace,
    shift3,
    unit_matrix,
    vec,
)


class TestKron:
    def test_unit_block(self):
        e11 = unit_matrix(2, 0, 0)
        out = kron(e11, e11)
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out, unit_matrix(4, 0, 0))

    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(3), np.eye(4)), np.eye(12))

    def test_block_structure(self, rng):
        a = random_complex(3, rng)
        b = random_complex(4, rng)
        out = kron(a, b)
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(out[4 * i:4 * i + 4, 4 * j:4 * j + 4], a[i, j] * b)

    def test_counterexample_product_spectrum(self):
        # Herm(A x B) for the shift pair has closed-form eigenvalues.
        x = shift3()
        w = np.linalg.eigvalsh(hermitian_part(kron(x, x)))
        expected = np.sort([SQRT_41_OVER_2, 1.5, 1.5, 0, 0, 0, -1.5, -1.5, -SQRT_41_OVER_2])
        np.testing.assert_allclose(w, expected, atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bilinear_and_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a, a2, c = (random_complex(3, rng) for _ in range(3))
        b, d = (random_complex(2, rng) for _ in range(2))
        alpha = complex(rng.normal(), rng.normal())
        np.testing.assert_allclose(
            kron(alpha * a + a2, b), alpha * kron(a, b) + kron(a2, b), atol=1e-12
        )
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_transpose_distributes(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_complex(2, rng), random_complex(3, rng)
        np.testing.assert_allclose(kron(a, b).T, kron(a.T, b.T), atol=0)


class TestTranspositionVariants:
    def test_hermitian_part_of_skew(self):
        np.testing.assert_array_equal(
            hermitian_part(np.diag([1j, -1j])), np.zeros((2, 2))
        )

    def test_hermitian_part_exact(self, rng):
        h = hermitian_part(random_complex(5, rng))
        assert np.array_equal(h, h.conj().T)  # exact, not approximate


def partial_transpose(x, shape, side):
    """The partial transpose of one tensor factor, as maps.varphi_map builds it."""
    return apply_map(varphi_map(shape, f"pt_{side}"), x)


class TestPartialTranspose:
    def test_right_single_block(self):
        x = kron(unit_matrix(2, 0, 0), unit_matrix(2, 0, 1))
        out = partial_transpose(x, BipartiteShape(2, 2, 1), "right")
        np.testing.assert_array_equal(out, kron(unit_matrix(2, 0, 0), unit_matrix(2, 1, 0)))

    def test_left_right_compose_to_transpose(self, rng):
        shape = BipartiteShape(3, 4, 2)
        x = random_complex(12, rng)
        out = partial_transpose(partial_transpose(x, shape, "right"), shape, "left")
        np.testing.assert_array_equal(out, x.T)

    def test_on_tensor_products(self, rng):
        shape = BipartiteShape(3, 2, 2)
        a, b = random_complex(3, rng), random_complex(2, rng)
        np.testing.assert_allclose(
            partial_transpose(kron(a, b), shape, "right"), kron(a, b.T), atol=1e-13
        )
        np.testing.assert_allclose(
            partial_transpose(kron(a, b), shape, "left"), kron(a.T, b), atol=1e-13
        )

    def test_counterexample_pt_spectrum(self):
        x = shift3()
        pt = partial_transpose(kron(x, x), BipartiteShape(3, 3, 2), "right")
        w = np.linalg.eigvalsh(hermitian_part(pt))
        expected = np.sort([4.5, SQRT_9_OVER_2, 0.5, 0, 0, 0, -0.5, -SQRT_9_OVER_2, -4.5])
        np.testing.assert_allclose(w, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        phi = varphi_map(BipartiteShape(2, 3, 2), "pt_right")
        with pytest.raises(ValueError):
            apply_map_batch(phi, np.eye(5)[None])


class TestEigHermitian:
    def test_counterexample_pt(self):
        x = shift3()
        h = hermitian_part(kron(x, x.T))
        expected = [4.5, SQRT_9_OVER_2, 0.5, 0, 0, 0, -0.5, -SQRT_9_OVER_2, -4.5]
        np.testing.assert_allclose(np.linalg.eigvalsh(h)[::-1], expected, atol=1e-10)


class TestIsHermitian:
    def test_stack_is_decided_per_matrix(self, rng):
        stack = np.stack([random_hermitian(4, rng), random_complex(4, rng), np.eye(4)])
        np.testing.assert_array_equal(is_hermitian(stack), [True, False, True])
        assert [is_hermitian(x) for x in stack] == [True, False, True]

    def test_scale_is_one_plus_max_entry(self):
        big = np.diag([1e6, -1e6]).astype(complex)
        big[0, 1] = 1e-5  # defect 1e-5 <= 1e-10 * (1 + 1e6)
        assert is_hermitian(big)
        big[0, 1] = 1e-3
        assert not is_hermitian(big)


class TestRandomSampling:
    def test_haar_unitarity(self):
        u = random_haar_unitary(4, 99)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_hermitian_exact(self):
        h = random_hermitian(5, 4)
        assert np.array_equal(h, h.conj().T)

    def test_determinism(self):
        for fn in (random_haar_unitary, random_hermitian, random_complex):
            assert np.array_equal(fn(4, 123), fn(4, 123))

    def test_seeds_differ(self):
        assert not np.array_equal(random_complex(4, 0), random_complex(4, 1))


def inline_ginibre(rng, shape):
    """The expression each sampler once wrote out for itself."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestOneGinibreDraw:
    """Every sampler draws through matcore._ginibre, bitwise the inline
    expressions it replaced."""

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (3, 4, 4), (16, 16), (12, 12), (200, 9, 9),
                                       (64, 16, 16), (256, 256)])
    def test_ginibre(self, shape):
        got = matcore._ginibre(shape, np.random.default_rng(8))
        assert got.tobytes() == inline_ginibre(np.random.default_rng(8), shape).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 16])
    def test_random_matrices(self, dim):
        g = inline_ginibre(np.random.default_rng(dim), (dim, dim))
        assert random_complex(dim, dim).tobytes() == g.tobytes()
        assert random_hermitian(dim, dim).tobytes() == ((g + g.conj().T) / 2).tobytes()
        q, r = np.linalg.qr(g)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        assert random_haar_unitary(dim, dim).tobytes() == (q * phases).tobytes()

    @pytest.mark.parametrize("d,k", [(3, 1), (6, 2), (12, 5)]
                             + [(d, k) for d in (2, 9, 16) for k in sorted({1, d // 2, d - 1})])
    def test_sample_points(self, d, k):
        """Q of the QR of a (40, d, min(k, d - k)) draw, with no phase fix,
        traced as the points themselves for k <= d/2 and as their complement
        (tr A - tr(Q* A Q))/k for k > d/2."""
        from knrange.ranges import sample_points

        a = random_complex(d, 1)
        j = min(k, d - k)
        q = np.linalg.qr(inline_ginibre(np.random.default_rng(2), (40, d, j)))[0]
        if j == k:
            expected = frame_trace(a, q, k)
        else:
            expected = (np.trace(a) - frame_trace(a, q, 1)) / k
        assert sample_points(a, k, 40, 2).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mnk", [(2, 2, 1), (2, 3, 3), (3, 4, 6)])
    def test_trial_pairs(self, mnk):
        from knrange.classify import _trial_pairs

        shape = BipartiteShape(*mnk)
        a, b, _ = _trial_pairs(shape, 7, seed=11)
        rng = np.random.default_rng(11)
        for t in range(1, 7):
            fa, fb = inline_ginibre(rng, (shape.m, shape.m)), inline_ginibre(rng, (shape.n, shape.n))
            if t % 2 == 1:
                fa, fb = (fa + fa.conj().T) / 2, (fb + fb.conj().T) / 2
            assert a[t].tobytes() == fa.tobytes() and b[t].tobytes() == fb.tobytes(), t


class TestOrthogonalPair:
    def test_disjoint_supports(self):
        assert is_orthogonal_pair(unit_matrix(3, 0, 0), unit_matrix(3, 1, 1))

    def test_one_sided_failure(self):
        # E11 E12* = 0 but E11* E12 = E12 != 0
        assert not is_orthogonal_pair(unit_matrix(3, 0, 0), unit_matrix(3, 0, 1))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_disjoint_diagonal_generator(self, seed):
        # U D1 V and U D2 V with disjoint nonnegative diagonals are orthogonal.
        rng = np.random.default_rng(seed)
        u, v = random_haar_unitary(4, rng), random_haar_unitary(4, rng)
        d1 = np.diag([rng.uniform(0.5, 2), rng.uniform(0.5, 2), 0, 0])
        d2 = np.diag([0, 0, rng.uniform(0.5, 2), 0])
        assert is_orthogonal_pair(u @ d1 @ v, u @ d2 @ v)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            is_orthogonal_pair(np.eye(2), np.eye(3))


class TestVecConvention:
    def test_column_stacking(self):
        # vec(E_pq)[q*d + p] == 1 under the declared convention
        d = 3
        for p in range(d):
            for q in range(d):
                v = vec(unit_matrix(d, p, q))
                assert v[q * d + p] == 1.0 and v.sum() == 1.0


class TestShape:
    def test_valid(self):
        s = BipartiteShape(3, 4, 6)
        assert s.dim == 12 and s.is_half

    @pytest.mark.parametrize("m,n,k", [(1, 2, 1), (2, 2, 0), (2, 2, 4), (2, 3, 6)])
    def test_invalid(self, m, n, k):
        with pytest.raises(ValueError):
            BipartiteShape(m, n, k)

    @pytest.mark.parametrize("m,n,k", [(True, 2, 1), (2, True, 1), (2, 2, True), (3, 3, False)])
    def test_rejects_bool(self, m, n, k):
        with pytest.raises(ValueError, match="must be an integer, got (True|False)"):
            BipartiteShape(m, n, k)


class TestMatrixFile:
    def test_exact_round_trip(self, rng):
        a = random_complex(5, rng)
        payload = json.loads(json.dumps(matrix_to_payload(a)))
        np.testing.assert_array_equal(matrix_from_payload(payload), a)

    def test_save_load(self, tmp_path, rng):
        a = random_hermitian(3, rng)
        path = tmp_path / "m.json"
        matcore.save_matrix(a, path)
        np.testing.assert_array_equal(matcore.load_matrix(path), a)

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            matrix_from_payload({"dim": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("payload", [
        {"dim": True, "entries": [[1.0, 0.0]]},
        {"entries": [[1.0, 0.0]]},
        {"dim": 1, "entries": 5},
        {"dim": 1, "entries": [["1", 0.0]]},
        [1, 2, 3],
        {"dim": 2, "entries": [[True, False], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
        {"dim": 1, "entries": [[1.0, np.True_]]},
    ])
    def test_malformed_payload_is_value_error(self, payload):
        with pytest.raises(ValueError):
            matrix_from_payload(payload)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matcore.as_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matcore.as_matrix(np.array([[np.inf, 0], [0, 1]]))

    def test_entry_bound(self):
        """|Re| and |Im| up to MAX_ENTRY pass; one ulp beyond, in either part
        and either sign, is rejected with the bound named; nan stays a
        finiteness error, wherever it sits."""
        bound, beyond = matcore.MAX_ENTRY, np.nextafter(matcore.MAX_ENTRY, np.inf)
        matcore.as_matrix(np.array([[bound - 1j * bound, 0], [0, -bound + 1j * bound]]))
        for z in (beyond, -beyond, 1j * beyond, -1j * beyond):
            with pytest.raises(ValueError, match=r"at most 1e\+150"):
                matcore.as_matrix(np.array([[1, 0], [0, z]]))
        for z in (np.nan, 1j * np.nan, complex(beyond, np.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                matcore.as_matrix(np.array([[1, 0], [z, 1]]))
