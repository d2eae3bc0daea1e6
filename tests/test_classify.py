import json

import numpy as np
import pytest

from knrange.classify import (
    _random_constrained_map,
    classification_to_payload,
    classify_preserver,
    falsify_random,
    falsify_to_payload,
    verification_to_payload,
    verify_preserver,
)
from knrange.matcore import BipartiteShape, random_haar_unitary
from knrange.maps import (
    CanonicalFormSpec,
    LinearMapMatrix,
    VARPHI_TAGS,
    build_canonical,
    canonical_forms,
    varphi_map,
)
from knrange.checks import counterexample_matrices


def canonical(shape, tag, seed, affine=False):
    u = random_haar_unitary(shape.dim, seed)
    return build_canonical(CanonicalFormSpec(tag, u, affine, shape)), u


def counting_solvers(monkeypatch):
    """Patch numpy's Hermitian eigensolvers to record how often each runs."""
    calls = {"eigvalsh": 0, "eigh": 0}

    def counting(name):
        solver = getattr(np.linalg, name)

        def wrapper(x, *args, **kwargs):
            calls[name] += 1
            return solver(x, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def buildable_forms(shape):
    forms = [(tag, False) for tag in VARPHI_TAGS]
    if shape.is_half:
        forms += [(tag, True) for tag in VARPHI_TAGS]
    return forms


class TestVerify:
    def test_identity_passes_exactly(self):
        shape = BipartiteShape(2, 3, 2)
        report = verify_preserver(varphi_map(shape, "id"), trials=10, num_angles=90, seed=1)
        assert report.passed
        assert report.max_support_defect <= 1e-12
        assert report.witnesses == []

    def test_transpose_form_passes(self):
        shape = BipartiteShape(3, 3, 2)
        phi, _ = canonical(shape, "t", seed=4)
        report = verify_preserver(phi, trials=50, num_angles=360, tol=1e-8, seed=2)
        assert report.passed

    def test_partial_transpose_fails_with_seeded_witness(self):
        shape = BipartiteShape(3, 3, 2)
        phi, _ = canonical(shape, "pt_right", seed=4)
        report = verify_preserver(phi, trials=50, num_angles=360, tol=1e-8, seed=2)
        assert not report.passed
        a, b = counterexample_matrices(3, 3)
        assert np.array_equal(report.witnesses[0].a, a)
        assert np.array_equal(report.witnesses[0].b, b)

    def test_affine_passes_at_half(self):
        shape = BipartiteShape(2, 4, 4)
        phi, _ = canonical(shape, "pt_left", seed=9, affine=True)
        report = verify_preserver(phi, trials=30, num_angles=180, seed=6)
        assert report.passed

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            verify_preserver(varphi_map(BipartiteShape(2, 2, 1), "id"), trials=0)

    @pytest.mark.parametrize("trials", [True, 2.0])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            verify_preserver(varphi_map(BipartiteShape(2, 2, 1), "id"), trials=trials)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
    def test_tol_must_be_finite_and_positive(self, tol):
        phi = varphi_map(BipartiteShape(2, 2, 1), "id")
        for call in (lambda: verify_preserver(phi, trials=2, num_angles=8, tol=tol),
                     lambda: classify_preserver(phi, tol=tol),
                     lambda: falsify_random(phi.shape, 1, tol=tol)):
            with pytest.raises(ValueError, match="tol must be finite and > 0"):
                call()

    @pytest.mark.parametrize("num_angles", [3, 0])
    def test_num_angles_validation(self, num_angles):
        with pytest.raises(ValueError, match="num_angles must be >= 8"):
            verify_preserver(varphi_map(BipartiteShape(2, 2, 1), "id"), num_angles=num_angles)

    def test_determinism(self):
        shape = BipartiteShape(2, 2, 2)
        phi, _ = canonical(shape, "t", seed=1)
        r1 = verify_preserver(phi, trials=10, num_angles=90, seed=42)
        r2 = verify_preserver(phi, trials=10, num_angles=90, seed=42)
        assert r1.max_support_defect == r2.max_support_defect

    def test_report_payload(self):
        shape = BipartiteShape(3, 3, 2)
        phi, _ = canonical(shape, "pt_left", seed=0)
        report = verify_preserver(phi, trials=3, num_angles=90, seed=0)
        payload = verification_to_payload(report)
        assert payload["verdict"] == "fail"
        assert payload["witnesses"][0]["a"]["dim"] == 3
        json.dumps(payload)  # serializable


class TestClassify:
    def test_round_trip_identity_form(self):
        shape = BipartiteShape(3, 3, 2)
        phi, u = canonical(shape, "id", seed=13)
        report = classify_preserver(phi)
        assert report.verdict == "classified"
        match = report.matched
        assert match.varphi == "id" and not match.affine
        assert match.residual <= 1e-9
        phase = np.trace(match.unitary @ u.conj().T)
        phase /= abs(phase)
        assert np.max(np.abs(match.unitary - phase * u)) <= 1e-9

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3), BipartiteShape(3, 3, 2)])
    def test_round_trip_all_buildable_forms(self, shape):
        for i, (tag, affine) in enumerate(buildable_forms(shape)):
            phi, _ = canonical(shape, tag, seed=100 + i, affine=affine)
            report = classify_preserver(phi)
            assert report.verdict == "classified", (tag, affine)
            rebuilt = build_canonical(
                CanonicalFormSpec(
                    report.matched.varphi, report.matched.unitary, report.matched.affine, shape
                )
            )
            assert np.max(np.abs(rebuilt.matrix - phi.matrix)) <= 1e-8

    def test_affine_flag_recovered(self):
        shape = BipartiteShape(2, 2, 2)
        phi = build_canonical(
            CanonicalFormSpec("id", np.eye(4, dtype=complex), True, shape)
        )
        report = classify_preserver(phi)
        assert report.verdict == "classified"
        assert report.matched.affine

    def test_perturbed_map_rejected(self):
        shape = BipartiteShape(2, 2, 2)
        matrix = np.eye(16, dtype=complex)
        matrix[3, 5] += 1e-3
        phi = LinearMapMatrix(shape, matrix)
        assert classify_preserver(phi).verdict == "not_a_preserver"
        assert not verify_preserver(phi, trials=20, num_angles=90, seed=1).passed

    def test_choi_gaps_recorded(self):
        shape = BipartiteShape(3, 3, 2)
        phi, _ = canonical(shape, "t", seed=7)
        report = classify_preserver(phi)
        assert set(report.choi_gaps) == {"id", "t", "pt_right", "pt_left"}
        assert report.choi_gaps["t"] <= 1e-12
        assert report.choi_gaps["id"] > 1e-3  # transpose composed wrong is far from rank one
        json.dumps(classification_to_payload(report))


class TestChoiSolves:
    """The Choi gates read eigenvalues only; eigenvectors are computed for a
    candidate only once it has passed every gate."""

    @pytest.mark.parametrize(
        "shape,tag,affine",
        [(BipartiteShape(3, 3, 4), "t", False), (BipartiteShape(2, 2, 2), "pt_left", True)],
    )
    def test_one_eigh_for_a_canonical_map(self, monkeypatch, shape, tag, affine):
        phi, _ = canonical(shape, tag, seed=3, affine=affine)
        calls = counting_solvers(monkeypatch)
        report = classify_preserver(phi)
        assert report.verdict == "classified"
        assert (report.matched.varphi, report.matched.affine) == (tag, affine)
        assert calls == {"eigvalsh": len(canonical_forms(shape)), "eigh": 1}

    def test_no_eigh_for_a_random_map(self, monkeypatch):
        shape = BipartiteShape(2, 3, 3)
        phi = _random_constrained_map(shape, np.random.default_rng(5))
        calls = counting_solvers(monkeypatch)
        assert classify_preserver(phi).verdict == "not_a_preserver"
        assert calls == {"eigvalsh": len(canonical_forms(shape)), "eigh": 0}

    @pytest.mark.parametrize(
        "shape",
        [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3), BipartiteShape(3, 3, 4),
         BipartiteShape(2, 4, 4)],
    )
    def test_matches_full_eigh_reference(self, monkeypatch, shape):
        maps = [canonical(shape, tag, seed=40 + i, affine=affine)[0]
                for i, (tag, affine) in enumerate(canonical_forms(shape))]
        maps.append(_random_constrained_map(shape, np.random.default_rng(6)))
        fast = [classify_preserver(phi) for phi in maps]
        # Reference: gate on the eigenvalues of a full eigh, as a classifier
        # that decomposes every candidate would.
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: eigh(x)[0])
        reference = [classify_preserver(phi) for phi in maps]
        for got, ref in zip(fast, reference):
            assert got.verdict == ref.verdict
            assert ([(m.varphi, m.affine) for m in got.all_matches]
                    == [(r.varphi, r.affine) for r in ref.all_matches])
            for m, r in zip(got.all_matches, ref.all_matches):
                assert m.unitary.tobytes() == r.unitary.tobytes()
                assert m.residual == r.residual
            assert got.choi_gaps.keys() == ref.choi_gaps.keys()
            for k in got.choi_gaps:
                assert abs(got.choi_gaps[k] - ref.choi_gaps[k]) <= 1e-12
        assert [r.verdict for r in fast] == ["classified"] * (len(maps) - 1) + ["not_a_preserver"]


class TestFalsify:
    def test_zero_passes(self):
        summary = falsify_random(BipartiteShape(2, 2, 2), count=20, seed=8)
        assert summary.passes == 0
        assert len(summary.results) == 20
        assert all(r.verdict == "fail" for r in summary.results)
        assert min(r.defect for r in summary.results) > 1e-3

    def test_generated_maps_share_coarse_properties(self):
        from knrange.classify import _random_constrained_map
        from knrange.maps import apply_map
        from knrange.matcore import random_complex, random_hermitian

        shape = BipartiteShape(2, 3, 3)
        rng = np.random.default_rng(3)
        phi = _random_constrained_map(shape, rng)
        assert np.max(np.abs(apply_map(phi, np.eye(6)) - np.eye(6))) <= 1e-12  # unital
        x = random_complex(6, rng)
        assert abs(np.trace(apply_map(phi, x)) - np.trace(x)) <= 1e-12  # trace-preserving
        h = random_hermitian(6, rng)
        image = apply_map(phi, h)
        assert np.max(np.abs(image - image.conj().T)) <= 1e-12  # Hermiticity-preserving

    def test_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="count must be an integer"):
            falsify_random(BipartiteShape(2, 2, 2), True)

    def test_empty_summary(self):
        summary = falsify_random(BipartiteShape(2, 2, 2), count=0, seed=0)
        assert summary.count == 0 and summary.passes == 0 and summary.results == []

    def test_determinism(self):
        s1 = falsify_random(BipartiteShape(2, 2, 1), count=3, seed=5)
        s2 = falsify_random(BipartiteShape(2, 2, 1), count=3, seed=5)
        assert json.dumps(falsify_to_payload(s1)) == json.dumps(falsify_to_payload(s2))
