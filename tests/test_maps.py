import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knrange.matcore import (
    BipartiteShape,
    hermitian_part,
    kron,
    matrix_from_payload,
    matrix_to_payload,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from knrange.checks import _invalid_forms, _valid_forms
from knrange.classify import (
    classification_to_payload,
    classify_preserver,
    verification_to_payload,
    verify_preserver,
)
from knrange.maps import (
    CanonicalFormSpec,
    LinearMapMatrix,
    VARPHI_TAGS,
    affine_reflect,
    apply_map_batch,
    build_canonical,
    choi_matrix,
    compose,
    descriptor_from_payload,
    descriptor_to_payload,
    map_from_choi,
    map_from_payload,
    map_to_payload,
    preserves_on_tensors,
    reflect_map,
    varphi_map,
)

from conftest import (
    SQRT_9_OVER_2,
    apply_map,
    apply_varphi,
    peak_alloc,
    shift3,
    unit_matrix,
    varphi_perm,
    vec,
)


def spec_for(shape, tag="id", seed=0, affine=False):
    return CanonicalFormSpec(
        varphi=tag,
        unitary=random_haar_unitary(shape.dim, seed),
        affine=affine,
        shape=shape,
    )


def all_buildable_forms(shape):
    forms = [(tag, False) for tag in VARPHI_TAGS]
    if shape.is_half:
        forms += [(tag, True) for tag in VARPHI_TAGS]
    return forms


class TestFormSpec:
    def test_bad_tag(self):
        with pytest.raises(ValueError, match="varphi"):
            CanonicalFormSpec("pt", np.eye(4, dtype=complex), False, BipartiteShape(2, 2, 2))

    def test_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            CanonicalFormSpec("id", 2 * np.eye(4, dtype=complex), False, BipartiteShape(2, 2, 2))

    def test_affine_gate(self):
        with pytest.raises(ValueError, match="2k"):
            CanonicalFormSpec("id", np.eye(4, dtype=complex), True, BipartiteShape(2, 2, 1))

    @pytest.mark.parametrize(
        "m,n,tag,expected",
        [
            (3, 3, "id", True),
            (3, 3, "t", True),
            (3, 3, "pt_right", False),
            (3, 3, "pt_left", False),
            (2, 3, "pt_right", True),
            (3, 2, "pt_left", True),
        ],
    )
    def test_preserver_form_flag(self, m, n, tag, expected):
        assert preserves_on_tensors(tag, BipartiteShape(m, n, 2)) is expected


class TestBuildCanonical:
    def test_identity(self):
        shape = BipartiteShape(2, 2, 1)
        phi = build_canonical(CanonicalFormSpec("id", np.eye(4, dtype=complex), False, shape))
        np.testing.assert_array_equal(phi.matrix, np.eye(16))

    def test_affine_unit_image(self):
        shape = BipartiteShape(2, 2, 2)
        phi = build_canonical(CanonicalFormSpec("id", np.eye(4, dtype=complex), True, shape))
        image = apply_map(phi, unit_matrix(4, 0, 0))
        np.testing.assert_allclose(image, np.diag([-0.5, 0.5, 0.5, 0.5]), atol=1e-15)

    def test_transpose_on_tensor_unit(self):
        shape = BipartiteShape(2, 2, 1)
        phi = build_canonical(CanonicalFormSpec("t", np.eye(4, dtype=complex), False, shape))
        x = kron(unit_matrix(2, 0, 1), unit_matrix(2, 0, 0))
        np.testing.assert_array_equal(apply_map(phi, x), kron(unit_matrix(2, 1, 0), unit_matrix(2, 0, 0)))

    def test_pt_right_spectrum_with_unitary(self):
        x = shift3()
        shape = BipartiteShape(3, 3, 2)
        phi = build_canonical(spec_for(shape, "pt_right", seed=21))
        w = np.linalg.eigvalsh(hermitian_part(apply_map(phi, kron(x, x))))
        expected = np.sort([4.5, SQRT_9_OVER_2, 0.5, 0, 0, 0, -0.5, -SQRT_9_OVER_2, -4.5])
        np.testing.assert_allclose(w, expected, atol=1e-10)

    @pytest.mark.parametrize(
        "shape",
        [
            BipartiteShape(2, 2, 2),
            BipartiteShape(3, 2, 3),
            BipartiteShape(3, 3, 4),
            BipartiteShape(2, 4, 4),
        ],
    )
    def test_matches_direct_evaluation_on_matrix_units(self, shape):
        for tag, affine in all_buildable_forms(shape):
            spec = spec_for(shape, tag, seed=hash((tag, affine)) % 2**32, affine=affine)
            phi = build_canonical(spec)
            u = spec.unitary
            for a in range(shape.m):
                for b in range(shape.m):
                    for c in range(shape.n):
                        for d in range(shape.n):
                            x = kron(unit_matrix(shape.m, a, b), unit_matrix(shape.n, c, d))
                            direct = u @ apply_varphi(x, tag, shape) @ u.conj().T
                            if affine:
                                direct = (np.trace(x) / shape.k) * np.eye(shape.dim) - direct
                            assert np.max(np.abs(apply_map(phi, x) - direct)) <= 1e-12

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 3, 3), BipartiteShape(3, 4, 6)])
    def test_varphi_perm_moves_vec_entries(self, shape):
        """vec(varphi(X)) = vec(X)[pi], and pi is an involution."""
        x = random_complex(shape.dim, np.random.default_rng(shape.dim))
        for tag in VARPHI_TAGS:
            pi = varphi_perm(shape, tag)
            assert pi.dtype == np.intp
            assert np.array_equal(vec(apply_varphi(x, tag, shape)), vec(x)[pi]), tag
            assert np.array_equal(pi[pi], np.arange(shape.dim ** 2)), tag

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3),
                                       BipartiteShape(3, 3, 4), BipartiteShape(2, 4, 4),
                                       BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)])
    def test_bitwise_equal_to_kron_then_permute(self, shape):
        """The product written through the Choi view is np.kron(conj U,
        U)[:, pi], with pi from the test-side oracle (negated, plus
        vec(I) vec(I)^T / k, if affine), byte for byte, and C-ordered like
        it."""
        for i, (tag, affine) in enumerate(all_buildable_forms(shape)):
            spec = spec_for(shape, tag, seed=i, affine=affine)
            ref = np.kron(spec.unitary.conj(), spec.unitary)[:, varphi_perm(shape, tag)]
            if affine:
                ref = -ref
                diag = np.arange(shape.dim) * (shape.dim + 1)
                ref[np.ix_(diag, diag)] += 1.0 / shape.k
            got = build_canonical(spec).matrix
            assert got.flags.c_contiguous, (tag, affine)
            assert got.tobytes() == ref.tobytes(), (tag, affine)

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 3, 2), BipartiteShape(3, 3, 4)])
    def test_bare_maps_match_direct_evaluation_on_matrix_units(self, shape):
        d = shape.dim
        reflect = reflect_map(shape)
        bare = {tag: varphi_map(shape, tag) for tag in VARPHI_TAGS}
        for p in range(d):
            for q in range(d):
                x = unit_matrix(d, p, q)
                np.testing.assert_array_equal(apply_map(reflect, x), affine_reflect(x, shape.k))
                for tag, phi in bare.items():
                    np.testing.assert_array_equal(apply_map(phi, x), apply_varphi(x, tag, shape))


def blockwise_partial_transposes(x, shape):
    """x as an m x m grid of n x n blocks: each block transposed in place
    (A x B -> A x B^t), and block (i, j) swapped with block (j, i)
    (A x B -> A^t x B)."""
    n = shape.n
    block = [[x[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(shape.m)]
             for i in range(shape.m)]
    right = np.block([[b.T for b in row] for row in block])
    left = np.block([[block[j][i] for j in range(shape.m)] for i in range(shape.m)])
    return right, left


class TestApplyVarphi:
    """The test-side apply_varphi against the plain transpose and the
    blockwise partial transposes."""

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 3, 2), BipartiteShape(3, 2, 2),
                                       BipartiteShape(3, 4, 6)])
    def test_bitwise_equal_to_reference(self, shape, rng):
        x = random_complex(shape.dim, rng)
        right, left = blockwise_partial_transposes(x, shape)
        reference = {"id": x, "t": x.T, "pt_right": right, "pt_left": left}
        for tag in VARPHI_TAGS:
            got = apply_varphi(x, tag, shape)
            assert got.tobytes() == np.ascontiguousarray(reference[tag]).tobytes(), tag
            assert not np.shares_memory(got, x), tag

    def test_rejects_bad_input(self):
        shape = BipartiteShape(2, 3, 2)
        with pytest.raises(ValueError, match="unknown varphi tag"):
            apply_varphi(np.eye(6), "middle", shape)
        with pytest.raises(ValueError, match=r"X must be 6 x 6, got shape \(5, 5\)"):
            apply_varphi(np.eye(5), "t", shape)


class TestFormLists:
    """The checks battery's split of the constructible forms, in order."""

    @pytest.mark.parametrize(
        "shape,valid,invalid",
        [
            (
                BipartiteShape(3, 3, 4),
                [("id", False), ("t", False)],
                [("pt_right", False), ("pt_left", False)],
            ),
            (
                BipartiteShape(2, 4, 4),
                [("id", False), ("t", False), ("pt_right", False), ("pt_left", False),
                 ("id", True), ("t", True), ("pt_right", True), ("pt_left", True)],
                [],
            ),
            (
                BipartiteShape(2, 3, 3),
                [("id", False), ("t", False), ("pt_right", False), ("pt_left", False),
                 ("id", True), ("t", True), ("pt_right", True), ("pt_left", True)],
                [],
            ),
            (
                BipartiteShape(3, 4, 6),
                [("id", False), ("t", False), ("id", True), ("t", True)],
                [("pt_right", False), ("pt_left", False), ("pt_right", True), ("pt_left", True)],
            ),
        ],
    )
    def test_valid_and_invalid_forms(self, shape, valid, invalid):
        assert _valid_forms(shape) == valid
        assert _invalid_forms(shape) == invalid


class TestApply:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        shape = BipartiteShape(2, 2, 2)
        phi = LinearMapMatrix(shape, random_complex(16, rng))
        x, y = random_complex(4, rng), random_complex(4, rng)
        alpha = complex(rng.normal(), rng.normal())
        np.testing.assert_allclose(
            apply_map(phi, alpha * x + y),
            alpha * apply_map(phi, x) + apply_map(phi, y),
            atol=1e-10,
        )

    def test_batch_matches_single(self, rng):
        shape = BipartiteShape(2, 3, 2)
        phi = LinearMapMatrix(shape, random_complex(36, rng))
        stack = np.stack([random_complex(6, rng) for _ in range(5)])
        batch = apply_map_batch(phi, stack)
        for t in range(5):
            np.testing.assert_allclose(batch[t], apply_map(phi, stack[t]), atol=1e-13)

    @pytest.mark.parametrize("mnk", [(2, 2, 2), (3, 4, 6), (4, 4, 8)])
    def test_images_do_not_depend_on_the_stack_length(self, mnk):
        """Each image has the same bits in a stack of 1, 2, 3 or 8, the one
        the single-row product would round differently included, and as the
        image of that matrix alone in a stack of one."""
        shape = BipartiteShape(*mnk)
        rng = np.random.default_rng(shape.dim)
        phi = LinearMapMatrix(shape, random_complex(shape.dim ** 2, rng))
        stack = np.stack([random_complex(shape.dim, rng) for _ in range(8)])
        full = apply_map_batch(phi, stack)
        for count in (1, 2, 3):
            assert apply_map_batch(phi, stack[:count]).tobytes() == full[:count].tobytes(), count
        for t in range(8):
            assert apply_map_batch(phi, stack[t:t + 1])[0].tobytes() == full[t].tobytes(), t

    def test_dim_mismatch(self, rng):
        phi = LinearMapMatrix(BipartiteShape(2, 2, 2), np.eye(16, dtype=complex))
        with pytest.raises(ValueError):
            apply_map_batch(phi, np.eye(5)[None])


class TestAffineReflect:
    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(affine_reflect(np.eye(4), 2), np.eye(4))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_involution_at_half(self, seed):
        x = random_complex(6, seed)  # dim 6 = 2k with k = 3
        assert np.trace(affine_reflect(x, 3)) == pytest.approx(np.trace(x), abs=1e-12)
        np.testing.assert_allclose(affine_reflect(affine_reflect(x, 3), 3), x, atol=1e-12)

    def test_spectral_shift(self, rng):
        h = random_hermitian(6, rng)
        shifted = np.linalg.eigvalsh(affine_reflect(h, 3))
        expected = np.sort(np.trace(h).real / 3 - np.linalg.eigvalsh(h))
        np.testing.assert_allclose(shifted, expected, atol=1e-10)


class TestCanonicalMapProperties:
    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(3, 3, 2)])
    def test_trace_unitality_hermiticity(self, shape, rng):
        for tag, affine in all_buildable_forms(shape):
            phi = build_canonical(spec_for(shape, tag, seed=11, affine=affine))
            x = random_complex(shape.dim, rng)
            assert np.trace(apply_map(phi, x)) == pytest.approx(np.trace(x), abs=1e-10)
            np.testing.assert_allclose(apply_map(phi, np.eye(shape.dim)), np.eye(shape.dim), atol=1e-10)
            h = random_hermitian(shape.dim, rng)
            image = apply_map(phi, h)
            assert np.max(np.abs(image - image.conj().T)) <= 1e-10

    def test_inverse_composition(self):
        shape = BipartiteShape(2, 3, 2)
        u = random_haar_unitary(6, 5)
        fwd = build_canonical(CanonicalFormSpec("id", u, False, shape))
        bwd = build_canonical(CanonicalFormSpec("id", u.conj().T, False, shape))
        np.testing.assert_allclose(compose(bwd, fwd).matrix, np.eye(36), atol=1e-10)


def choi_by_explicit_sum(phi):
    """Oracle: assemble sum E_pq x Phi(E_pq) with np.kron, block by block."""
    d = phi.shape.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            out += np.kron(unit_matrix(d, p, q), apply_map(phi, unit_matrix(d, p, q)))
    return out


class TestChoi:
    def test_identity_is_rank_one(self):
        shape = BipartiteShape(2, 2, 2)
        phi = build_canonical(CanonicalFormSpec("id", np.eye(4, dtype=complex), False, shape))
        w = np.linalg.eigvalsh(choi_matrix(phi))
        np.testing.assert_allclose(w[:-1], 0, atol=1e-12)
        assert w[-1] == pytest.approx(4.0, abs=1e-12)

    def test_unitary_conjugation_recovery(self):
        shape = BipartiteShape(2, 2, 2)
        u = random_haar_unitary(4, 17)
        phi = build_canonical(CanonicalFormSpec("id", u, False, shape))
        choi = choi_matrix(phi)
        np.testing.assert_allclose(choi, np.outer(vec(u), vec(u).conj()), atol=1e-12)
        w, v = np.linalg.eigh(choi)
        recovered = v[:, -1].reshape(4, 4, order="F") * np.sqrt(4.0)
        assert np.max(np.abs(recovered @ recovered.conj().T - np.eye(4))) <= 1e-9
        phase = np.trace(recovered @ u.conj().T)
        phase /= abs(phase)
        np.testing.assert_allclose(recovered, phase * u, atol=1e-9)

    def test_transpose_map_choi_is_swap(self):
        # transpose on M_2 by direct 4x4 computation: sum E_pq x E_pq^t is the
        # swap, eigenvalues {-1, 1, 1, 1} (not PSD)
        swap = np.zeros((4, 4), dtype=complex)
        for p in range(2):
            for q in range(2):
                swap += np.kron(unit_matrix(2, p, q), unit_matrix(2, q, p))
        np.testing.assert_allclose(np.linalg.eigvalsh(swap), [-1, 1, 1, 1], atol=1e-12)
        # the machinery agrees at bipartite size: the transpose map on M_4 has
        # the 16x16 swap as its Choi, eigenvalues -1 (x6) and +1 (x10)
        shape = BipartiteShape(2, 2, 1)
        phi = build_canonical(CanonicalFormSpec("t", np.eye(4, dtype=complex), False, shape))
        choi = choi_matrix(phi)
        np.testing.assert_allclose(choi, choi_by_explicit_sum(phi), atol=1e-13)
        w = np.linalg.eigvalsh(choi)
        np.testing.assert_allclose(w, [-1] * 6 + [1] * 10, atol=1e-12)

    def test_reshuffle_matches_explicit_sum(self, rng):
        shape = BipartiteShape(2, 2, 2)
        phi = LinearMapMatrix(shape, random_complex(16, rng))
        np.testing.assert_allclose(choi_matrix(phi), choi_by_explicit_sum(phi), atol=1e-13)

    def test_choi_round_trip(self, rng):
        shape = BipartiteShape(2, 3, 3)
        phi = LinearMapMatrix(shape, random_complex(36, rng))
        back = map_from_choi(choi_matrix(phi), shape)
        np.testing.assert_array_equal(back.matrix, phi.matrix)

    def test_results_own_their_memory(self, rng):
        shape = BipartiteShape(2, 3, 3)
        phi = LinearMapMatrix(shape, random_complex(36, rng))
        choi = choi_matrix(phi)
        assert not np.shares_memory(choi, phi.matrix)
        assert not np.shares_memory(map_from_choi(choi, shape).matrix, choi)

    def test_one_copy_per_reshuffle(self, rng):
        """(4, 4, 8): a 1 MiB Choi matrix is allocated once, not copied twice."""
        shape = BipartiteShape(4, 4, 8)
        phi = LinearMapMatrix(shape, random_complex(256, rng))
        choi_matrix(phi)  # warm-up
        with peak_alloc() as peak:
            choi_matrix(phi)
        assert peak.bytes < 1.5 * 2**20, peak.bytes


class TestMapIO:
    def test_map_payload_round_trip(self, rng):
        shape = BipartiteShape(2, 2, 2)
        phi = LinearMapMatrix(shape, random_complex(16, rng))
        payload = json.loads(json.dumps(map_to_payload(phi)))
        back = map_from_payload(payload)
        assert back.shape == shape
        np.testing.assert_array_equal(back.matrix, phi.matrix)

    @pytest.mark.parametrize("build", [LinearMapMatrix, lambda shape, c: map_from_choi(c, shape)],
                             ids=["map-matrix", "map-from-choi"])
    def test_wrong_size_rejected(self, build):
        with pytest.raises(ValueError, match="must be 16 x 16"):
            build(BipartiteShape(2, 2, 1), np.eye(9))

    def test_map_payload_dim_check(self):
        with pytest.raises(ValueError, match="dim"):
            map_from_payload({"m": 2, "n": 2, "k": 1, "dim": 9, "entries": [[0.0, 0.0]] * 81})

    def test_descriptor_round_trip(self):
        shape = BipartiteShape(2, 2, 2)
        spec = spec_for(shape, "pt_left", seed=3, affine=True)
        payload = json.loads(json.dumps(descriptor_to_payload(spec)))
        back = descriptor_from_payload(payload, shape)
        assert back.varphi == "pt_left" and back.affine
        np.testing.assert_array_equal(back.unitary, spec.unitary)

    def test_descriptor_identity_unitary(self):
        shape = BipartiteShape(2, 3, 2)
        spec = descriptor_from_payload({"varphi": "id", "affine": False, "unitary": "identity"}, shape)
        np.testing.assert_array_equal(spec.unitary, np.eye(6))

    @pytest.mark.parametrize("affine", ["false", "true", 0, 1, None])
    def test_descriptor_affine_must_be_a_bool(self, affine):
        payload = {"varphi": "id", "affine": affine, "unitary": "identity"}
        with pytest.raises(ValueError, match="affine"):
            descriptor_from_payload(payload, BipartiteShape(2, 2, 2))

    def test_nested_list_map_matches_its_array(self):
        shape = BipartiteShape(2, 2, 2)
        phi = build_canonical(spec_for(shape, "pt_left", seed=5, affine=True))
        listed = LinearMapMatrix(shape, phi.matrix.tolist())
        assert isinstance(listed.matrix, np.ndarray)
        np.testing.assert_array_equal(listed.matrix, phi.matrix)
        reports = [verify_preserver(m, trials=6, num_angles=90, seed=2) for m in (phi, listed)]
        assert verification_to_payload(reports[0]) == verification_to_payload(reports[1])
        classes = [classification_to_payload(classify_preserver(m)) for m in (phi, listed)]
        assert classes[0] == classes[1]
        assert classes[0]["verdict"] == "classified"


class TestPayloadErrors:
    """The three payload readers name what is wrong, not a Python exception."""

    @pytest.mark.parametrize("read,payload,message", [
        (matrix_from_payload, {"entries": []},
         "matrix payload is missing 'dim'; it needs 'dim', 'entries'"),
        (map_from_payload, {"dim": 1, "entries": [[1.0, 0.0]]},
         "map payload is missing 'm', 'n', 'k'; it needs 'm', 'n', 'k', 'dim', 'entries'"),
        (lambda p: descriptor_from_payload(p, BipartiteShape(2, 2, 2)), {"varphi": "id"},
         "canonical descriptor is missing 'affine', 'unitary'; "
         "it needs 'varphi', 'affine', 'unitary'"),
        (map_from_payload, [1, 2], "map payload must be a JSON object, got \\[1, 2\\]"),
    ], ids=["matrix", "map", "descriptor", "not-an-object"])
    def test_missing_keys_are_named(self, read, payload, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(payload)

    @pytest.mark.parametrize("bad,message", [
        ([1.0], r"entries\[2\] must be a \[re, im\] pair of numbers, got \[1.0\]"),
        ([1.0, 2.0, 3.0],
         r"entries\[2\] must be a \[re, im\] pair of numbers, got \[1.0, 2.0, 3.0\]"),
        ([True, 0.0], r"entries\[2\] must be a \[re, im\] pair of numbers, got \[True, 0.0\]"),
        (["1", 0.0], r"entries\[2\] must be a \[re, im\] pair of numbers, got \['1', 0.0\]"),
        (None, r"entries\[2\] must be a \[re, im\] pair of numbers, got None"),
        ({"re": 1.0, "im": 0.0}, r"entries\[2\] must be a \[re, im\] pair of numbers, got \{"),
        ([10**400, 0], r"entries\[2\] is out of the float range: \[1000"),
    ], ids=["one", "three", "bool", "string", "null", "object", "huge-int"])
    def test_first_bad_entry_is_named(self, bad, message):
        payload = matrix_to_payload(np.eye(2))
        payload["entries"][2] = bad
        payload["entries"][3] = None  # only the first bad entry is reported
        with pytest.raises(ValueError, match=message):
            matrix_from_payload(payload)
        phi = map_to_payload(build_canonical(spec_for(BipartiteShape(2, 2, 2))))
        phi["entries"][2] = bad
        with pytest.raises(ValueError, match=message):
            map_from_payload(phi)

    @pytest.mark.parametrize("raw", [[1], 5, None, "eye"])
    def test_descriptor_unitary_must_be_identity_or_a_matrix(self, raw):
        payload = {"varphi": "id", "affine": False, "unitary": raw}
        with pytest.raises(ValueError, match="'unitary' must be \"identity\" or a matrix payload"):
            descriptor_from_payload(payload, BipartiteShape(2, 2, 2))


# Arbitrary JSON values: null, bools, numbers (huge, nan and inf included, as
# json.load reads them), strings, and nested arrays and objects of these.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400)
               | st.floats() | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)


@st.composite
def entry_lists(draw, count):
    """count [re, im] pairs, or one fewer or more, with at most one replaced
    by an arbitrary JSON value or a short list of numbers."""
    entries = [[0.5, -0.5] for _ in range(count + draw(st.sampled_from([0, 0, 0, -1, 1])))]
    if draw(st.booleans()):
        bad = JSON_VALUES | st.lists(st.integers() | st.floats() | st.booleans(), max_size=3)
        entries[draw(st.integers(0, len(entries) - 1))] = draw(bad)
    return entries


@st.composite
def payloads(draw, fields):
    """Now and then an arbitrary JSON value; otherwise a JSON object whose
    keys hold their fields' valid values, but for at most one that holds an
    arbitrary JSON value or is missing, beside arbitrary extra keys."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    payload = draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2))
    payload.update({key: draw(valid) for key, valid in fields.items()})
    broken = draw(st.sampled_from([None, *fields]))
    if broken is not None:
        if draw(st.booleans()):
            del payload[broken]
        else:
            payload[broken] = draw(JSON_VALUES)
    return payload


def assert_returns_or_value_error(read, payload):
    try:
        read(payload)
    except ValueError as exc:
        assert "Error(" not in str(exc), str(exc)


class TestPayloadFuzz:
    """Whatever JSON a file holds, a payload reader returns or raises
    ValueError with a message of its own."""

    @given(payload=payloads({"dim": st.just(2), "entries": entry_lists(4)}))
    @settings(max_examples=80, deadline=None)
    def test_matrix_payload(self, payload):
        assert_returns_or_value_error(matrix_from_payload, payload)

    @given(payload=payloads({"m": st.just(2), "n": st.just(2), "k": st.integers(1, 3),
                             "dim": st.just(16), "entries": entry_lists(256)}))
    @settings(max_examples=80, deadline=None)
    def test_map_payload(self, payload):
        assert_returns_or_value_error(map_from_payload, payload)

    @given(payload=payloads({
        "varphi": st.sampled_from(VARPHI_TAGS),
        "affine": st.booleans(),
        "unitary": st.just("identity") | payloads({"dim": st.just(4), "entries": st.builds(
            lambda perm: matrix_to_payload(np.eye(4)[list(perm)])["entries"],
            st.permutations(range(4))) | entry_lists(16)}),
    }))
    @settings(max_examples=80, deadline=None)
    def test_descriptor_payload(self, payload):
        assert_returns_or_value_error(
            lambda p: descriptor_from_payload(p, BipartiteShape(2, 2, 2)), payload)
