import json
import os
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from knrange import classify, ranges
from knrange.classify import (
    FALSIFY_NUM_ANGLES,
    FALSIFY_REJECT_TOL,
    FALSIFY_TRIALS,
    _admitted_tags,
    _hermitian_choi,
    _project_marginals,
    _rank_one_fit,
    _rebuild_residual,
    _spectral_defects,
    _trial_pairs,
    _witness_pair,
    classification_to_payload,
    classify_preserver,
    falsify_random,
    falsify_to_payload,
    verification_to_payload,
    verify_preserver,
)
from knrange.matcore import (
    BipartiteShape,
    hermitian_part,
    hermiticity_defect,
    max_abs,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from knrange.maps import (
    UNITARITY_TOL,
    CanonicalFormSpec,
    LinearMapMatrix,
    VARPHI_TAGS,
    _choi_view,
    _unitarity_defect,
    apply_map_batch,
    build_canonical,
    canonical_forms,
    choi_matrix,
    compose,
    map_from_choi,
    preserves_on_tensors,
    reflect_map,
    varphi_map,
)
from knrange.checks import (
    _invalid_forms,
    _valid_forms,
    counterexample_matrices,
    preserver_suite,
)

from knrange.ranges import DEFAULT_NUM_ANGLES, DEFAULT_RTOL, MAX_NUM_ANGLES

from conftest import apply_map, peak_alloc, random_constrained_map, solver_log, varphi_perm, vec
from test_acceptance import SWEEP_SHAPES


@contextmanager
def spy(module, name):
    """Record (args, result) of every call of module.name in the block."""
    calls, original = [], getattr(module, name)

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]
    with mock.patch.object(module, name, side_effect=recording):
        yield calls


def canonical(shape, tag, seed, affine=False):
    u = random_haar_unitary(shape.dim, seed)
    return build_canonical(CanonicalFormSpec(tag, u, affine, shape)), u


def buildable_forms(shape):
    forms = [(tag, False) for tag in VARPHI_TAGS]
    if shape.is_half:
        forms += [(tag, True) for tag in VARPHI_TAGS]
    return forms


def admitted_keys(phi, tol=1e-8):
    """The choi_gap_bounds keys of the candidates that the probe admits."""
    return {f"{tag}+affine" if affine else tag for tag, affine in _admitted_tags(phi, tol)}


def admit_all(phi, tol):
    """Stand-in for the probe that admits every candidate of every kind: the
    full loop."""
    return canonical_forms(phi.shape)


@contextmanager
def hermitised_copies():
    """Record (tag, affine, H) for every classify._hermitian_choi call in the
    block, H copied before the rank-one fit overwrites it."""
    builds, original = [], classify._hermitian_choi

    def recording(phi, tag, affine):
        herm = original(phi, tag, affine)
        builds.append((tag, affine, herm.copy()))
        return herm
    with mock.patch.object(classify, "_hermitian_choi", side_effect=recording):
        yield builds


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

    def test_counts_have_an_inclusive_maximum(self):
        phi = varphi_map(BipartiteShape(2, 2, 1), "id")
        with pytest.raises(ValueError, match=f"trials must be <= {classify.MAX_TRIALS}, got "):
            verify_preserver(phi, trials=classify.MAX_TRIALS + 1)
        with pytest.raises(ValueError, match=f"num_angles must be <= {MAX_NUM_ANGLES}, got "):
            verify_preserver(phi, num_angles=MAX_NUM_ANGLES + 1)
        # The maxima themselves are accepted (no trial is drawn: the grid
        # is checked after the count).
        with pytest.raises(ValueError, match="num_angles must be >= 8"):
            verify_preserver(phi, trials=classify.MAX_TRIALS, num_angles=7)

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


EPS = float(np.finfo(float).eps)


def shape_id(shape):
    return f"{shape.m}x{shape.n}k{shape.k}"


def grid_report(phi, **kwargs):
    """verify_preserver's report with the spectra kept from deciding: the grid's."""
    with mock.patch.object(classify, "_spectral_defects",
                           side_effect=lambda xs, *args: np.full(len(xs), np.inf)):
        return verify_preserver(phi, **kwargs)


def assert_grid_decides(phi, **kwargs):
    """The report is not certified and is the grid's, byte for byte."""
    report = verify_preserver(phi, **kwargs)
    assert report.decided_by == "grid"
    ref = grid_report(phi, **kwargs)
    assert json.dumps(verification_to_payload(report)) == json.dumps(verification_to_payload(ref))
    return report


def grid_oracle(phi, trials=classify.DEFAULT_TRIALS, num_angles=DEFAULT_NUM_ANGLES,
                tol=DEFAULT_RTOL, seed=0):
    """Oracle: every trial's grid defect, both sides of verify's trial stack,
    trial 0 included, solved by support_values_batch on the uniform grid."""
    shape = phi.shape
    _, _, xs = _trial_pairs(shape, trials, seed)
    grid = ranges._uniform_grid(num_angles)
    hx, hy = (ranges.support_values_batch(s, shape.k, grid) for s in (xs, apply_map_batch(phi, xs)))
    scale = 1.0 + np.maximum(np.abs(hx).max(axis=1), np.abs(hy).max(axis=1))
    return np.abs(hx - hy).max(axis=1) / scale


def assert_witness_decides(phi, **kwargs):
    """A fail decided on trial 0 at theta = 0 or pi with one solve, its
    image's at theta = 0, and no trial stack drawn; the grid oracle fails it
    too, and the defect is at most trial 0's on any even grid, which holds 0
    and pi."""
    settings = dict(trials=classify.DEFAULT_TRIALS, num_angles=DEFAULT_NUM_ANGLES,
                    tol=DEFAULT_RTOL, seed=0) | kwargs
    shape = phi.shape
    with mock.patch.object(ranges, "_rotated_eigs", wraps=ranges._rotated_eigs) as kernel, \
            mock.patch.object(classify, "_trial_pairs", wraps=_trial_pairs) as draws, \
            solver_log() as log:
        report = verify_preserver(phi, **settings)
    assert (report.decided_by, report.verdict) == ("witness", "fail")
    assert draws.call_count == 0
    assert log.matrices() == log.matrices(order=shape.dim) == 1
    [((stack, angles), _)] = kernel.call_args_list
    assert stack.shape == (1, shape.dim, shape.dim) and list(angles) == [0.0]
    oracle = grid_oracle(phi, **settings)
    assert oracle.max() > settings["tol"]
    [w] = report.witnesses
    a, b = _witness_pair(shape)
    assert w.a.tobytes() == a.tobytes() and w.b.tobytes() == b.tobytes()
    assert w.theta in (0.0, np.pi) and w.defect == report.max_support_defect
    assert settings["tol"] < report.max_support_defect
    if settings["num_angles"] % 2 == 0:
        assert report.max_support_defect <= oracle[0] + 1e-14
    return report


def assert_not_certified(phi, **kwargs):
    """A fail that trial 0 shows at theta = 0 or pi is decided there
    (assert_witness_decides); any other report is the grid's."""
    if verify_preserver(phi, **kwargs).decided_by == "witness":
        return assert_witness_decides(phi, **kwargs)
    return assert_grid_decides(phi, **kwargs)


def witness_fixing_map(shape, seed):
    """Identity plus noise in every map-matrix column that vec of the witness
    product does not use: the map fixes trial 0's image and moves the rest."""
    d = shape.dim
    used = vec(np.kron(*_witness_pair(shape))) != 0
    noise = random_complex(d * d, np.random.default_rng(seed))
    noise[:, used] = 0.0
    return LinearMapMatrix(shape, np.eye(d * d) + 0.1 * noise)


def witness_blind_map(shape):
    """X -> X + X_11 E_22 / 2 at k = 1, where the witness pair is E_11 x E_11:
    its image E_11 + E_22 / 2 has another spectrum at theta = 0, but the
    same largest and smallest eigenvalue, so the same supports at 0 and pi."""
    d = shape.dim
    matrix = np.eye(d * d, dtype=complex)
    matrix[d + 1, 0] = 0.5  # vec index of E_22 (0-based (1, 1)) from that of E_11
    return LinearMapMatrix(shape, matrix)


def constrained_direction(shape, seed):
    """E with max|E| = 1, a Hermitian Choi matrix and zero marginals, so that
    Phi0 + eps E stays unital, trace- and Hermiticity-preserving."""
    d = shape.dim
    choi = random_hermitian(d * d, np.random.default_rng(seed))
    e = map_from_choi(_project_marginals(choi, d) - _project_marginals(np.zeros_like(choi), d),
                      shape).matrix
    return e / max_abs(e)


def near_canonical(shape, tag, affine, eps, seed):
    phi, _ = canonical(shape, tag, seed=seed, affine=affine)
    return LinearMapMatrix(shape, phi.matrix + eps * constrained_direction(shape, seed))


HALF_SHAPES = [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3), BipartiteShape(2, 4, 4),
               BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)]


class TestSpectralCertificate:
    """A pass is decided by the spectra at the d + 1 nodes when every trial
    agrees to rounding, on the plain or (at mn = 2k) the reflected branch; a
    fail that trial 0 shows at theta = 0 or pi is decided there, with one
    solve; every other report is the grid's."""

    @pytest.mark.parametrize(
        "shape", [BipartiteShape(*mnk) for mnk in SWEEP_SHAPES + [(4, 4, 8), (2, 8, 8)]], ids=shape_id)
    def test_valid_forms_are_decided_by_the_spectra(self, shape):
        for i, (tag, affine) in enumerate(_valid_forms(shape)):
            phi, _ = canonical(shape, tag, seed=i, affine=affine)
            report = verify_preserver(phi, seed=i)
            assert report.decided_by == "spectra", (tag, affine)
            assert report.passed and report.witnesses == []
            assert report.max_support_defect <= classify._SPECTRAL_SLACK * shape.dim * EPS

    @pytest.mark.parametrize("mnk, calls, matrices", [((2, 2, 2), 5, 292), ((3, 3, 4), 9, 541),
                                                      ((3, 4, 6), 16, 688)])
    def test_certified_verify_solves_in_batches(self, mnk, calls, matrices):
        """The witness image, then each side's Hermitian rows in one call and
        its complex rows' families at the d + 1 nodes in batches of whole
        rows: at (3, 4, 6), four rows of 13 nodes each, so 16 eigvalsh calls
        for 688 matrices, where one call per row made 52."""
        shape = BipartiteShape(*mnk)
        phi, _ = canonical(shape, "t", seed=1)
        with solver_log() as log:
            report = verify_preserver(phi)
        assert (report.decided_by, report.verdict) == ("spectra", "pass")
        assert log.calls()["eigvalsh"] == len(log) == calls
        assert log.matrices() == log.matrices(order=shape.dim) == matrices

    @pytest.mark.parametrize("shape", HALF_SHAPES, ids=shape_id)
    def test_affine_forms_match_on_the_reflected_branch_alone(self, shape):
        plain_only = BipartiteShape(shape.m, shape.n, 1)  # mn != 2k: no reflected branch
        cap = classify._SPECTRAL_SLACK * shape.dim * EPS
        for i, (tag, affine) in enumerate(_valid_forms(shape)):
            phi, _ = canonical(shape, tag, seed=i, affine=affine)
            _, _, xs = _trial_pairs(shape, 20, seed=i)
            ys = apply_map_batch(phi, xs)
            plain = _spectral_defects(xs, ys, plain_only)
            assert _spectral_defects(xs, ys, shape).max() <= cap, (tag, affine)
            if affine:  # some trials match the reflected branch alone
                assert plain.max() > 1e-2, tag
            else:
                assert plain.max() <= cap, tag

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 1), BipartiteShape(2, 3, 2),
                                       BipartiteShape(3, 3, 4), BipartiteShape(2, 4, 3)],
                             ids=shape_id)
    def test_trace_reflection_off_half_is_not_certified(self, shape):
        """X -> (tr X / k) I - X, hand-built at mn != 2k, where the reflected
        branch is not compared."""
        assert not assert_grid_decides(reflect_map(shape), trials=20, num_angles=90, seed=3).passed

    @pytest.mark.parametrize("shape", [BipartiteShape(3, 3, 2), BipartiteShape(3, 3, 4),
                                       BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)],
                             ids=shape_id)
    def test_invalid_partial_transposes_are_not_certified(self, shape):
        """Each fails on trial 0 at theta = 0, with one solve. Its image is a
        disk about 0 like W_k(A x B), so the gap does not depend on theta:
        the defect is trial 0's on the whole grid, and theta is 0, the least
        angle of the tie."""
        for i, (tag, affine) in enumerate(_invalid_forms(shape)):
            phi, _ = canonical(shape, tag, seed=i, affine=affine)
            report = assert_witness_decides(phi, trials=10, num_angles=120, seed=i)
            trial0 = grid_oracle(phi, trials=1, num_angles=360)[0]
            assert abs(report.max_support_defect - trial0) <= 1e-10 * trial0, (tag, affine)
            assert report.witnesses[0].theta == 0.0, (tag, affine)

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3),
                                       BipartiteShape(3, 3, 4), BipartiteShape(4, 4, 8)],
                             ids=shape_id)
    def test_falsifier_draws_solve_one_matrix(self, shape):
        """The witness trial at theta = 0 and pi rejects a random draw: the
        image's spectrum at theta = 0 is the one solve, since the witness
        side is in closed form (classify._witness_spectra)."""
        rng = np.random.default_rng(shape.dim)
        for _ in range(5):
            assert_witness_decides(random_constrained_map(shape, rng),
                                   trials=FALSIFY_TRIALS, num_angles=FALSIFY_NUM_ANGLES,
                                   seed=int(rng.integers(2**63)))

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 3, 1), BipartiteShape(2, 3, 3),
                                       BipartiteShape(3, 3, 4), BipartiteShape(3, 4, 6)],
                             ids=shape_id)
    def test_a_witness_that_agrees_leaves_the_fail_to_the_grid(self, shape):
        """A non-preserver whose trial 0 has the same supports at theta = 0
        and pi still fails, on the grid: one that fixes trial 0's image, so
        its spectra agree and the nodes decide that the grid runs, and at
        k = 1 one whose trial-0 spectra differ at theta = 0 with the same
        extreme eigenvalues."""
        maps = [(witness_fixing_map(shape, shape.dim), 0.0)]
        if shape.k == 1:
            maps.append((witness_blind_map(shape), 0.5))
        for phi, spectral_gap in maps:  # the theta = 0 spectra's largest gap
            defect, theta, wx, wy = classify._witness_defect(phi)
            assert (defect, theta) == (0.0, 0.0)
            assert abs(max_abs(wx - wy) - spectral_gap) <= 8 * shape.dim * EPS
            report = assert_grid_decides(phi, trials=10, num_angles=120, seed=3)
            assert not report.passed
            assert grid_oracle(phi, trials=10, num_angles=120, seed=3).max() > DEFAULT_RTOL
            assert report.witnesses and all(w.defect > DEFAULT_RTOL for w in report.witnesses)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 3e-7, 1e-4])
    @pytest.mark.parametrize("shape,tag,affine", [
        (BipartiteShape(2, 2, 2), "t", False), (BipartiteShape(2, 3, 3), "pt_right", True),
        (BipartiteShape(3, 3, 4), "id", False), (BipartiteShape(4, 4, 8), "t", True)],
        ids=["2x2k2-t", "2x3k3-pt_right+affine", "3x3k4-id", "4x4k8-t+affine"])
    def test_near_canonical_maps_are_not_certified(self, shape, tag, affine, eps):
        assert_not_certified(near_canonical(shape, tag, affine, eps, seed=5), trials=20, seed=2)

    def test_certificate_is_capped_at_rounding_not_tol(self):
        """A canonical map plus 1e-3 noise: its trials' spectra agree at the
        nodes within tol = 0.1, which proves nothing between them, so the
        grid decides."""
        shape = BipartiteShape(3, 3, 2)
        phi = near_canonical(shape, "t", False, 1e-3, seed=4)
        _, _, xs = _trial_pairs(shape, 20, seed=1)
        defect = _spectral_defects(xs, apply_map_batch(phi, xs), shape).max()
        assert classify._SPECTRAL_SLACK * shape.dim * EPS < defect <= 0.1
        assert assert_grid_decides(phi, trials=20, tol=0.1, seed=1).passed

    @pytest.mark.parametrize("shape", [BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)],
                             ids=shape_id)
    def test_a_trace_zero_tie_reports_theta_zero(self, shape):
        """At k = mn/2 a trace-0 image has W_k symmetric about 0 (the
        complement identity), as the witness product has: trial 0's gaps at
        0 and pi tie, and theta is 0 whether trial 0's A x B side is in
        closed form or solved, whose rounding differs."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            phi = random_constrained_map(shape, rng)
            for context in (nullcontext(), solved_witness()):
                with context:
                    report = verify_preserver(phi, trials=2, num_angles=120, seed=1)
                assert report.decided_by == "witness"
                assert report.witnesses[0].theta == 0.0

    def test_support_defect_ties_pick_the_least_angle(self):
        """A gap within rounding (_SPECTRAL_SLACK d eps, relative) of the row's
        largest ties with it; one a 1e-9 above it does not."""
        d = 4
        rounding = classify._SPECTRAL_SLACK * d * EPS
        hy = np.array([[0.3, 0.1, 0.3 * (1 + rounding / 4), 0.2],
                       [0.3, 0.1, 0.3 + 1e-9, 0.2],
                       [0.1, 0.3, 0.2, 0.3]])
        defects, first = classify._support_defects(np.zeros_like(hy), hy, d)
        assert list(first) == [0, 2, 1]
        assert list(defects) == list(hy.max(axis=1) / (1 + hy.max(axis=1)))

    def test_payload_keys_are_unchanged(self):
        phi, _ = canonical(BipartiteShape(2, 3, 3), "t", seed=1)
        report = verify_preserver(phi, trials=4, num_angles=8)
        assert report.decided_by == "spectra"
        assert list(verification_to_payload(report)) == [
            "trials", "num_angles", "tol", "max_support_defect", "verdict", "witnesses"]


def per_trial_pairs(shape, trials, seed):
    """Oracle: the witness pair, then per-trial random_hermitian (odd trials)
    and random_complex (even trials) calls on one generator, and np.kron."""
    rng = np.random.default_rng(seed)
    pairs = [_witness_pair(shape)]
    for t in range(1, trials):
        draw = random_hermitian if t % 2 == 1 else random_complex
        pairs.append((draw(shape.m, rng), draw(shape.n, rng)))
    a, b = (np.stack(f) for f in zip(*pairs))
    return a, b, np.stack([np.kron(x, y) for x, y in pairs])


class TestTrialStack:
    """_trial_pairs draws the whole stack in one call: the same stream and
    the same arithmetic as the per-trial draws, so the same bytes."""

    @pytest.mark.parametrize("trials", [1, 2, 3, 50])
    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 1), BipartiteShape(2, 3, 3),
                                       BipartiteShape(3, 3, 4), BipartiteShape(3, 4, 6)])
    def test_bitwise_equal_to_per_trial_draws(self, shape, trials):
        got = _trial_pairs(shape, trials, seed=trials + shape.dim)
        ref = per_trial_pairs(shape, trials, seed=trials + shape.dim)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()

    def test_witness_factors_are_copies(self):
        """On both fail paths: a random dense map, which the witness trial
        decides, and one that fixes trial 0's image, whose five other trials
        fail on the grid."""
        shape = BipartiteShape(2, 3, 3)
        dense = LinearMapMatrix(shape, random_complex(shape.dim ** 2, np.random.default_rng(4)))
        for phi, decided_by, count in ((dense, "witness", 1),
                                       (witness_fixing_map(shape, 4), "grid", 5)):
            report = verify_preserver(phi, trials=6, num_angles=90, seed=1)
            assert (report.decided_by, len(report.witnesses)) == (decided_by, count)
            factors = [f for w in report.witnesses for f in (w.a, w.b)]
            for i, j in combinations(range(len(factors)), 2):
                assert not np.shares_memory(factors[i], factors[j]), (i, j)

    def test_verify_memory_is_bounded(self):
        """(3, 4, 6) with 50 trials at 360 angles, on every path: the spectra
        at 13 nodes, the witness trial, and the grid, in batches of rotated
        families of at most _FAMILY_BYTES, instead of a (50, 180, 12, 12)
        stack per side."""
        shape = BipartiteShape(3, 4, 6)
        maps = [("t", canonical(shape, "t", seed=1)[0], "spectra"),
                ("pt_right", canonical(shape, "pt_right", seed=1)[0], "witness"),
                ("fixing", witness_fixing_map(shape, 1), "grid")]
        for tag, phi, decided_by in maps:
            verify_preserver(phi, trials=3, num_angles=360, seed=0)  # warm-up
            with peak_alloc() as peak:
                report = verify_preserver(phi, trials=50, num_angles=360, seed=0)
            assert report.decided_by == decided_by, tag
            assert report.passed == (decided_by == "spectra"), tag
            assert peak.bytes < 8 * 2**20, (tag, peak.bytes)


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
        """A bound per admitted candidate: the match's alone at (3, 3, 2); at
        (2, 2, 2) also the other kind's candidate that the probe cannot tell
        apart, whose bound is far from rank one and above its gap."""
        phi, _ = canonical(BipartiteShape(3, 3, 2), "t", seed=7)
        report = classify_preserver(phi)
        assert set(report.choi_gap_bounds) == {"t"}
        assert report.choi_gap_bounds["t"] <= 1e-12
        phi, _ = canonical(BipartiteShape(2, 2, 2), "t", seed=7)
        report = classify_preserver(phi)
        assert set(report.choi_gap_bounds) == {"t", "id+affine"}
        assert report.choi_gap_bounds["t"] <= 1e-12
        gaps, _ = eigh_classifier(phi)
        assert report.choi_gap_bounds["id+affine"] >= gaps["id+affine"] > 1e-3
        payload = classification_to_payload(report)
        assert list(payload["choi_gap_bounds"]) == sorted(report.choi_gap_bounds)
        json.dumps(payload)

    def test_zero_map(self):
        """A zero column under the largest diagonal entry: the read-off takes
        that unit vector, and every bound is the exact gap, 0."""
        shape = BipartiteShape(2, 2, 2)
        with np.errstate(all="raise"):
            report = classify_preserver(LinearMapMatrix(shape, np.zeros((16, 16))))
        assert report.verdict == "not_a_preserver"
        assert set(report.choi_gap_bounds.values()) == {0.0}


CHOI_SHAPES = [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3), BipartiteShape(3, 3, 4),
               BipartiteShape(2, 4, 4)]
# Every canonical form at each of CHOI_SHAPES, (3, 4, 6) and (4, 4, 8). The
# two leading cases keep the test ids [shape0-t-False] and
# [shape1-pt_left-True] stable, and the larger shapes come last.
_FIRST_CASES = [(BipartiteShape(3, 3, 4), "t", False), (BipartiteShape(2, 2, 2), "pt_left", True)]
ONE_EIGH_CASES = _FIRST_CASES + [
    (shape, tag, affine)
    for shape in CHOI_SHAPES + [BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)]
    for tag, affine in canonical_forms(shape)
    if (shape, tag, affine) not in _FIRST_CASES
]


class TestChoiSolves:
    """No Choi matrix is solved when the Weyl certificate decides, and for a
    canonical map, a falsifier draw or a dense map it always does: no
    eigvalsh, eigh, eig, eigvals or svd at all."""

    @pytest.mark.parametrize("shape,tag,affine", ONE_EIGH_CASES)
    def test_one_eigh_for_a_canonical_map(self, shape, tag, affine):
        """Exactly one candidate's bound is within tol, and the match is the
        form that was built: the classifier never meets a second match."""
        phi, _ = canonical(shape, tag, seed=3, affine=affine)
        with solver_log() as log:
            report = classify_preserver(phi)
        assert report.verdict == "classified"
        assert (report.matched.varphi, report.matched.affine) == (tag, affine)
        assert sum(bound <= 1e-8 for bound in report.choi_gap_bounds.values()) == 1
        assert not log, log

    def test_no_eigh_for_a_random_map(self):
        shape = BipartiteShape(2, 3, 3)
        phi = random_constrained_map(shape, np.random.default_rng(5))
        with solver_log() as log:
            assert classify_preserver(phi).verdict == "not_a_preserver"
        assert not log, log

    @pytest.mark.parametrize("shape", CHOI_SHAPES)
    def test_matches_full_eigh_reference(self, monkeypatch, shape):
        maps = [canonical(shape, tag, seed=40 + i, affine=affine)[0]
                for i, (tag, affine) in enumerate(canonical_forms(shape))]
        maps.append(random_constrained_map(shape, np.random.default_rng(6)))
        fast = [classify_preserver(phi) for phi in maps]
        # Reference: a certificate that never decides, so every candidate that
        # passes the read-off and the rebuild is gated on the eigenvalues of a
        # full eigh of its Hermitised Choi matrix.
        fit, eigh = classify._rank_one_fit, np.linalg.eigh
        monkeypatch.setattr(classify, "_rank_one_fit", lambda herm: (*fit(herm)[:2], np.inf))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: eigh(x)[0])
        with solver_log() as log:
            reference = [classify_preserver(phi) for phi in maps]
        assert log.calls()["eigvalsh"] == len(maps) - 1  # the match of each canonical map
        for got, ref in zip(fast, reference):
            assert got.verdict == ref.verdict
            assert (got.matched is None) == (ref.matched is None)
            if got.matched is not None:
                m, r = got.matched, ref.matched
                assert (m.varphi, m.affine) == (r.varphi, r.affine)
                assert m.unitary.tobytes() == r.unitary.tobytes()
                assert m.residual == r.residual
                key = f"{m.varphi}+affine" if m.affine else m.varphi
                assert ref.choi_gap_bounds[key] <= got.choi_gap_bounds[key] + 1e-15
        assert [r.verdict for r in fast] == ["classified"] * (len(maps) - 1) + ["not_a_preserver"]

    def test_rank_one_fit_is_the_direct_difference(self):
        rng = np.random.default_rng(8)
        d = 5
        unit = random_complex(d * d, rng)[:, 0]
        unit /= np.linalg.norm(unit)
        herm = d * np.outer(unit, unit.conj()) + 1e-9 * random_hermitian(d * d, rng)
        v, lam, spread = _rank_one_fit(herm.copy())
        assert lam == float(np.vdot(v, herm @ v).real)
        expected = np.linalg.norm(herm - lam * np.outer(v, v.conj()))
        assert abs(spread - expected) <= 1e-6 * expected
        assert 1e-9 < expected < 1e-7  # far below what sqrt(||H||^2 - lam^2) resolves


def eigh_classifier(phi, tol=1e-8):
    """Oracle: every candidate composed by dense map products and its Choi
    matrix solved with eigh; the unitary is the top eigenvector. Same gates,
    phase rule and rebuild check as classify_preserver."""
    shape, d = phi.shape, phi.shape.dim
    gaps, matched = {}, None
    for tag, affine in canonical_forms(shape):
        psi = compose(phi, varphi_map(shape, tag))
        if affine:
            psi = LinearMapMatrix(shape, input_reflected(psi.matrix, shape))
        choi = choi_matrix(psi)
        herm = (choi + choi.conj().T) / 2
        w, v = np.linalg.eigh(herm)
        gap = max(abs(w[-2]), abs(w[0])) / d
        gaps[f"{tag}+affine" if affine else tag] = gap
        if max_abs(choi - choi.conj().T) > tol * d or gap > tol or abs(w[-1] - d) > tol * d:
            continue
        u = v[:, -1].reshape(d, d, order="F") * np.sqrt(d)
        pivot = u.flat[np.argmax(np.abs(u))]
        u = u * (abs(pivot) / pivot)
        try:
            rebuilt = build_canonical(CanonicalFormSpec(tag, u, affine, shape))
        except ValueError:
            continue
        if max_abs(rebuilt.matrix - phi.matrix) <= tol:
            matched = (tag, affine, u)
    return gaps, matched


def oracle_maps(shape):
    rng = np.random.default_rng(shape.dim)
    maps = [canonical(shape, tag, seed=70 + i, affine=affine)[0]
            for i, (tag, affine) in enumerate(canonical_forms(shape))]
    maps.append(random_constrained_map(shape, rng))  # a falsifier draw
    maps.append(LinearMapMatrix(shape, random_complex(shape.dim ** 2, rng)))
    return maps


class TestAgainstEighOracle:
    @pytest.mark.parametrize("shape", CHOI_SHAPES + [BipartiteShape(3, 4, 6)])
    def test_same_verdicts_gaps_and_unitaries(self, shape):
        """Same verdict and unitary as the oracle, which solves every
        candidate. A bound per admitted candidate, at least the oracle's gap,
        and the match's within tol: a canonical form admits its own
        candidate, plus one of the other kind at m = n = 2; the random maps
        admit none."""
        verdicts = []
        for phi in oracle_maps(shape):
            report = classify_preserver(phi)
            verdicts.append(report.verdict)
            gaps, matched = eigh_classifier(phi)
            assert report.verdict == ("not_a_preserver" if matched is None else "classified")
            assert report.choi_gap_bounds.keys() == admitted_keys(phi)
            expected = 0 if matched is None else 2 if shape.m == shape.n == 2 else 1
            assert len(report.choi_gap_bounds) == expected
            for key, bound in report.choi_gap_bounds.items():
                assert bound >= gaps[key] - 1e-12, key
            if matched is not None:
                got = report.matched
                assert (got.varphi, got.affine) == matched[:2]
                assert max_abs(got.unitary - matched[2]) <= 1e-12
                key = f"{got.varphi}+affine" if got.affine else got.varphi
                assert report.choi_gap_bounds[key] <= 1e-8
        forms = len(canonical_forms(shape))
        assert verdicts == ["classified"] * forms + ["not_a_preserver"] * 2

    @pytest.mark.parametrize("shape,tag,affine", [(BipartiteShape(2, 4, 4), "t", True),
                                                  (BipartiteShape(3, 3, 4), "id", False)])
    def test_read_off_matches_eigh_near_rank_one(self, shape, tag, affine):
        """Noise of 1e-10 on the map: the power step still agrees with eigh's
        top eigenvector to rounding (the bare column would be off by ~3e-10
        and fail the unitarity check)."""
        phi, _ = canonical(shape, tag, seed=5, affine=affine)
        noise = random_complex(shape.dim ** 2, np.random.default_rng(2))
        noisy = LinearMapMatrix(shape, phi.matrix + 1e-10 * noise)
        report = classify_preserver(noisy)
        _, matched = eigh_classifier(noisy)
        assert report.verdict == "classified" and matched is not None
        assert max_abs(report.matched.unitary - matched[2]) <= 1e-12

    def test_random_dense_map_solves_nothing(self):
        """A map that does not preserve traces: the probe admits none of the
        eight candidates, so no Choi matrix is built, and nothing is
        solved."""
        shape = BipartiteShape(2, 4, 4)
        phi = LinearMapMatrix(shape, random_complex(64, np.random.default_rng(1)))
        with solver_log() as log, \
                mock.patch.object(classify, "_hermitian_choi", wraps=classify._hermitian_choi) as built:
            report = classify_preserver(phi)
        assert report.verdict == "not_a_preserver"
        assert report.choi_gap_bounds == {}
        assert built.call_count == 0
        assert not log, log

    @staticmethod
    def near_rank_one_map(noise_max):
        """At (4,4,8): Choi(Phi) = d uu* + N, u = vec(U) / sqrt(d), with N
        Hermitian, N u = 0 and max|N| = noise_max."""
        shape = BipartiteShape(4, 4, 8)
        d = shape.dim
        u = random_haar_unitary(d, 12)
        unit = u.ravel(order="F") / np.sqrt(d)  # vec(U) / sqrt(d)
        noise = random_hermitian(d * d, np.random.default_rng(12))
        project = np.eye(d * d) - np.outer(unit, unit.conj())
        noise = project @ noise @ project
        noise *= noise_max / max_abs(noise)
        return map_from_choi(d * np.outer(unit, unit.conj()) + noise, shape)

    def test_undecided_certificate_falls_back_to_one_solve(self):
        """max|N| = 2.5e-9: ||N||_F is above tol d, so the certificate cannot
        decide, while ||N||_2 and the rebuild residual max|N| are within tol.
        One eigvalsh of the id candidate's own Hermitised Choi matrix decides,
        as the oracle does."""
        phi = self.near_rank_one_map(2.5e-9)
        d = phi.shape.dim
        before = phi.matrix.copy()
        with solver_log() as log:
            report = classify_preserver(phi)
        assert phi.matrix.tobytes() == before.tobytes()
        assert [name for name, _, _ in log] == ["eigvalsh"]
        assert log.matrices(order=d * d) == 1
        gaps, matched = eigh_classifier(phi)
        assert report.verdict == "classified" and matched is not None
        assert (report.matched.varphi, report.matched.affine) == matched[:2] == ("id", False)
        assert max_abs(report.matched.unitary - matched[2]) <= 1e-12
        assert abs(report.choi_gap_bounds["id"] - gaps["id"]) <= 1e-15  # the exact gap

    def test_rebuild_residual_above_tol_rejects_without_a_solve(self):
        """max|N| = 2.5e-8: the id candidate's read-off U is unitary, but the
        rebuild residual max|N| exceeds tol, so the candidate is out before
        any gate, and no other candidate reads off a unitary."""
        phi = self.near_rank_one_map(2.5e-8)
        with solver_log() as log, spy(classify, "_rebuild_residual") as rebuilt:
            report = classify_preserver(phi)
        assert report.verdict == "not_a_preserver" and report.matched is None
        assert not log, log
        assert [args[2:] for args, _ in rebuilt] == [("id", False)]
        (_, u, tag, affine), residual = rebuilt[0]
        spec = CanonicalFormSpec(tag, u, affine, phi.shape)  # the read-off is unitary
        assert residual == max_abs(phi.matrix - build_canonical(spec).matrix)
        assert 1e-8 < residual < 3e-8  # max|N|, above DEFAULT_RTOL


def input_reflected(matrix, shape):
    """Reference: the map matrix of X -> (tr X / k) I - Psi(X), given the
    matrix M of Psi: vec(I) vec(I)^T / k - M, written as -M plus 1/k at the
    (vec(I), vec(I)) slots, so that an entry of M that is 0.0 reflects to
    -0.0 wherever -M's does."""
    diag = np.arange(shape.dim) * (shape.dim + 1)  # slots of vec(I)
    psi = -matrix
    psi[np.ix_(diag, diag)] += 1 / shape.k
    return psi


def map_coordinate_choi(phi, tag, affine):
    """Oracle: the candidate's map matrix built in map coordinates, then
    reshuffled. varphi permutes the columns of the map matrix, and the
    input-trace reflection is vec(I) vec(I)^T / k minus the permuted
    matrix."""
    shape = phi.shape
    psi = phi.matrix[:, varphi_perm(shape, tag)]
    if affine:
        psi = input_reflected(psi, shape)
    return choi_matrix(LinearMapMatrix(shape, psi))


def plain_choi_index(shape, tag):
    """Oracle: flat positions in C = Choi(Phi) of the entries of
    Choi(Phi o varphi), in closed form. varphi(E_pq) = E_rs with
    s d + r = pi[q d + p], so Choi(Phi o varphi)[(p, i), (q, j)] =
    C[(r, i), (s, j)], whose flat position is r d^3 + i d^2 + s d + j."""
    d = shape.dim
    s, r = np.divmod(varphi_perm(shape, tag).reshape(d, d), d)  # indexed [q, p]
    rs = (r * d**3 + s * d).T  # indexed [p, q]
    ij = np.arange(d)
    return (rs[:, None, :, None] + (ij * d * d)[None, :, None, None] + ij).reshape(d * d, d * d)


def reflected_matrix(phi, affine):
    """The map matrix of Phi, or of its input-trace reflection if affine."""
    return input_reflected(phi.matrix, phi.shape) if affine else phi.matrix


def gathered_choi(phi, tag, affine):
    """Oracle: the Choi matrix of Phi, reflected first if affine, gathered by
    plain_choi_index (varphi fixes I, so the reflection commutes with it)."""
    reflected = LinearMapMatrix(phi.shape, reflected_matrix(phi, affine))
    return choi_matrix(reflected).ravel()[plain_choi_index(phi.shape, tag)]


def candidate_choi(phi, tag, affine, herm=False):
    """The candidate's Choi matrix C: one transpose of the map matrix, reflected
    in map coordinates first if affine, copied (maps._choi_view); or, if
    asked, the Hermitian part that classify_preserver builds
    (classify._hermitian_choi)."""
    if herm:
        return _hermitian_choi(phi, tag, affine)
    choi = _choi_view(reflected_matrix(phi, affine), phi.shape, tag)
    return choi.copy().reshape(phi.shape.dim ** 2, -1)


def trace_perturbed(shape, seed):
    """A canonical map whose trace form is moved by 1e-9."""
    phi, _ = canonical(shape, "t", seed=seed)
    matrix = phi.matrix.copy()
    matrix[0, 1] += 1e-9
    return LinearMapMatrix(shape, matrix)


class TestCandidateChoi:
    """Each candidate's Choi matrix is one transpose of the map matrix,
    reflected by the input trace if affine: bitwise the map-coordinate
    construction and the closed-form gather."""

    @pytest.mark.parametrize("shape", CHOI_SHAPES + [BipartiteShape(3, 4, 6)])
    def test_bitwise_equal_to_map_coordinates(self, shape):
        """Every form, a dense map, a trace-perturbed one, one whose Choi
        matrix is anti-Hermitian (a Hermitian part of signed zeros) and a
        real one with a -0.0 entry; H, written from two views of the map
        matrix, is bitwise hermitian_part of the reflected copy."""
        rng = np.random.default_rng(14)
        real = random_complex(shape.dim ** 2, rng).real.astype(complex)
        real[3, 5] = -0.0
        maps = [canonical(shape, tag, seed=50 + i, affine=affine)[0]
                for i, (tag, affine) in enumerate(canonical_forms(shape))]
        maps += [dense_map(shape, 5), trace_perturbed(shape, 6), LinearMapMatrix(shape, real),
                 map_from_choi(1j * random_hermitian(shape.dim ** 2, rng), shape)]
        for phi in maps:
            for tag in VARPHI_TAGS:
                for affine in (False, True):
                    got = candidate_choi(phi, tag, affine)
                    reference = map_coordinate_choi(phi, tag, affine)
                    assert got.tobytes() == reference.tobytes(), (tag, affine)
                    assert got.tobytes() == gathered_choi(phi, tag, affine).tobytes(), (tag, affine)
                    herm = candidate_choi(phi, tag, affine, herm=True)
                    assert herm.tobytes() == hermitian_part(reference).tobytes(), (tag, affine)

    @pytest.mark.parametrize("shape", CHOI_SHAPES + [BipartiteShape(3, 4, 6)])
    def test_transposed_copy_owns_its_memory(self, monkeypatch, shape):
        """_rank_one_fit overwrites each candidate's Hermitised Choi matrix,
        and the copied Choi matrix is a caller's to change, so neither may
        alias the map matrix, the id candidate's included. The map matrix is
        only read: not written by the builds, nor by a classify that runs
        every candidate of a dense and of a canonical map through the Choi
        pass."""
        phi = dense_map(shape, 8)
        before = phi.matrix.copy()
        for tag in VARPHI_TAGS:
            candidate = _choi_view(phi.matrix, shape, tag).copy().reshape(shape.dim ** 2, -1)
            assert not np.shares_memory(candidate, phi.matrix), tag
            assert candidate.flags.c_contiguous, tag
            for affine in (False, True):
                herm = _hermitian_choi(phi, tag, affine)
                assert not np.shares_memory(herm, phi.matrix), (tag, affine)
                assert herm.flags.c_contiguous, (tag, affine)
                _rank_one_fit(herm)
        assert phi.matrix.tobytes() == before.tobytes()
        monkeypatch.setattr(classify, "_admitted_tags", admit_all)
        for phi in (phi, canonical(shape, "t", seed=8)[0]):
            before = phi.matrix.copy()
            classify_preserver(phi)
            assert phi.matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape,kinds", [(BipartiteShape(3, 3, 4), 1),
                                             (BipartiteShape(2, 4, 4), 2)])
    def test_one_choi_matrix_per_kind(self, shape, kinds):
        """One Hermitised Choi matrix for a form of either kind, that of its
        own candidate, and none for a dense map."""
        for affine in (False, True)[:kinds]:
            phi = canonical(shape, "t", seed=2, affine=affine)[0]
            with spy(classify, "_hermitian_choi") as calls:
                classify_preserver(phi)
            assert [args[1:] for args, _ in calls] == [("t", affine)]
        with spy(classify, "_hermitian_choi") as calls:
            classify_preserver(dense_map(shape, 3))
        assert calls == []

    def test_hermitian_choi_peak_is_one_map(self):
        """(4, 4, 8): H is the one map-sized allocation of its build, and the
        affine kind, which only negates and shifts the diagonal in place,
        allocates no more than the plain one."""
        shape = BipartiteShape(4, 4, 8)
        peaks = []
        for i, affine in enumerate((False, True)):
            phi, _ = canonical(shape, "pt_right", seed=62 + i, affine=affine)
            _hermitian_choi(phi, "pt_right", affine)  # warm-up
            with peak_alloc() as peak:
                _hermitian_choi(phi, "pt_right", affine)
            assert peak.bytes < 1.5 * phi.matrix.nbytes, (affine, peak.bytes)
            peaks.append(peak.bytes)
        assert peaks[1] <= peaks[0], peaks

    @pytest.mark.parametrize("shape", [BipartiteShape(3, 3, 4), BipartiteShape(2, 4, 4)])
    def test_read_only_and_fortran_ordered_maps(self, shape):
        """A map matrix that is read-only or F-ordered gives the report of
        its C-ordered, writable copy, byte for byte, and is not written."""
        for i, (tag, affine) in enumerate(canonical_forms(shape)):
            phi, _ = canonical(shape, tag, seed=100 + i, affine=affine)
            for matrix in (phi.matrix + 1e-9 * random_complex(shape.dim ** 2, i), phi.matrix):
                expected = json.dumps(classification_to_payload(
                    classify_preserver(LinearMapMatrix(shape, matrix))))
                read_only = matrix.copy()
                read_only.flags.writeable = False
                for variant in (read_only, np.asfortranarray(matrix)):
                    before = variant.copy(order="K")
                    report = classify_preserver(LinearMapMatrix(shape, variant))
                    assert json.dumps(classification_to_payload(report)) == expected, (tag, affine)
                    assert variant.tobytes(order="A") == before.tobytes(order="A")

    def test_classify_memory_is_bounded(self):
        """(4, 4, 8): each candidate's Hermitised Choi matrix is the one
        map-sized array that classify holds."""
        shape = BipartiteShape(4, 4, 8)
        forms = canonical_forms(shape)
        maps = [canonical(shape, tag, seed=60 + i, affine=affine)[0]
                for i, (tag, affine) in enumerate(forms)]
        classify_preserver(maps[0])  # warm-up
        for (tag, affine), phi in zip(forms, maps):
            with peak_alloc() as peak:
                report = classify_preserver(phi)
            assert (report.matched.varphi, report.matched.affine) == (tag, affine)
            assert peak.bytes < 3.2 * 2**20, (tag, affine, peak.bytes)

    def test_classify_holds_two_map_sized_arrays(self):
        """(6, 6, 18), maps of 25.6 MiB: Phi and, beyond it, the candidate's
        Hermitised Choi matrix, plus blocks of _BLOCK_BYTES; no rebuild and
        no Choi copy."""
        shape = BipartiteShape(6, 6, 18)
        phi, _ = canonical(shape, "pt_left", seed=61, affine=True)
        with peak_alloc() as peak:
            report = classify_preserver(phi)
        assert (report.matched.varphi, report.matched.affine) == ("pt_left", True)
        assert peak.bytes < phi.matrix.nbytes + 3 * 2**20, peak.bytes


# Block budgets that split the rank-one fit's matrices into row blocks: one
# row; 6 and 12 rows at order 4 and 2 and 5 at order 9, both ragged; and the
# default.
BLOCK_BYTES = [16, 16 * 5**2, 16 * 7**2 + 8, classify._BLOCK_BYTES]


class TestBlockedPasses:
    """The classifier's passes over a map-sized matrix go by blocks of
    classify._BLOCK_BYTES, and give the bytes of the whole-matrix
    computations they replace for any block size."""

    @pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
    def test_rank_one_fit_subtracts_the_outer_product(self, monkeypatch, block_bytes):
        monkeypatch.setattr(classify, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(15)
        for d in (2, 3, 6):
            unit = random_complex(d * d, rng)[:, 0]
            unit /= np.linalg.norm(unit)
            herm = d * np.outer(unit, unit.conj()) + 1e-9 * random_hermitian(d * d, rng)
            work = herm.copy()
            v, lam, spread = _rank_one_fit(work)
            assert work.tobytes() == (herm - np.outer(lam * v, v.conj())).tobytes()
            assert spread == classify._frobenius(work)

    @pytest.mark.parametrize("shape", CHOI_SHAPES + [BipartiteShape(3, 4, 6)])
    def test_streamed_residual_is_the_rebuild_residual(self, monkeypatch, shape):
        """Every form, and every candidate's rebuild of it, with noise of
        1e-9 to 1e-7 on the map, in blocks of one row i, of d // 2 + 1 rows
        (ragged at every shape) and at the default budget (one block)."""
        d, d2 = shape.dim, shape.dim ** 2
        for i, (tag, affine) in enumerate(canonical_forms(shape)):
            phi, u = canonical(shape, tag, seed=80 + i, affine=affine)
            noise = random_complex(d2, np.random.default_rng(i))
            for scale in (0.0, 1e-9, 1e-8, 1e-7):
                noisy = LinearMapMatrix(shape, phi.matrix + scale * noise)
                for candidate in VARPHI_TAGS:
                    spec = CanonicalFormSpec(candidate, u, affine, shape)
                    expected = max_abs(noisy.matrix - build_canonical(spec).matrix)
                    for block_bytes in (16 * d**3, 16 * d**3 * (d // 2 + 1),
                                        classify._BLOCK_BYTES):
                        monkeypatch.setattr(classify, "_BLOCK_BYTES", block_bytes)
                        got = _rebuild_residual(noisy, u, candidate, affine)
                        assert got == expected, (tag, affine, scale, candidate, block_bytes)

    def test_unitarity_gate_is_the_spec_check(self):
        """A read-off that fails maps._unitarity_defect is one that
        CanonicalFormSpec rejects, and classify builds no spec for it."""
        shape = BipartiteShape(2, 3, 3)
        u = random_haar_unitary(shape.dim, 3)
        for scale in (1.0, 1 + 0.5 * UNITARITY_TOL / shape.dim, 1 + 4 * UNITARITY_TOL):
            if _unitarity_defect(scale * u) > UNITARITY_TOL:
                with pytest.raises(ValueError, match="not unitary"):
                    CanonicalFormSpec("id", scale * u, False, shape)
            else:
                CanonicalFormSpec("id", scale * u, False, shape)
        maps = [canonical(shape, "t", seed=2)[0], dense_map(shape, 3)]
        with mock.patch.object(CanonicalFormSpec, "__post_init__", side_effect=AssertionError):
            assert [classify_preserver(phi).verdict for phi in maps] == ["classified",
                                                                         "not_a_preserver"]


def dense_map(shape, seed):
    return LinearMapMatrix(shape, random_complex(shape.dim ** 2, np.random.default_rng(seed)))


class TestEntryPermutation:
    """Every varphi permutes the matrix units and commutes with the transpose,
    so the candidates of one kind have Choi matrices with the same entries."""

    @pytest.mark.parametrize("shape", CHOI_SHAPES)
    def test_one_defect_per_kind(self, shape):
        phi = dense_map(shape, shape.dim)
        for affine in {affine for _, affine in canonical_forms(shape)}:
            defects = {hermiticity_defect(candidate_choi(phi, tag, affine)) for tag in VARPHI_TAGS}
            assert len(defects) == 1, (affine, defects)

    @pytest.mark.parametrize("shape,kinds", [(BipartiteShape(3, 3, 4), 1),
                                             (BipartiteShape(2, 4, 4), 2)])
    def test_classify_builds_each_hermitian_part_once(self, shape, kinds):
        """One Hermitian part for the admitted candidate, of a form of each of
        the `kinds` kinds: bitwise that of its reflected Choi matrix, and
        exactly Hermitian. A dense map admits no candidate and builds none."""
        for affine in (False, True)[:kinds]:
            phi = canonical(shape, "t", seed=2, affine=affine)[0]
            with hermitised_copies() as builds:
                classify_preserver(phi)
            ((tag, kind, herm),) = builds
            assert (tag, kind) == ("t", affine)
            assert herm.tobytes() == hermitian_part(candidate_choi(phi, tag, affine)).tobytes()
            assert hermiticity_defect(herm) == 0.0
        with hermitised_copies() as builds:
            classify_preserver(dense_map(shape, 3))
        assert builds == []

    @pytest.mark.parametrize("shape", CHOI_SHAPES + [BipartiteShape(3, 4, 6)])
    def test_hermitian_parts_share_entries(self, shape):
        phi = dense_map(shape, 7)
        entries = np.sort(hermitian_part(candidate_choi(phi, "id", False)).ravel())
        for tag in VARPHI_TAGS:
            herm = hermitian_part(candidate_choi(phi, tag, False))
            assert np.array_equal(np.sort(herm.ravel()), entries), tag

    def test_classify_hermitises_once_for_the_plain_candidates(self):
        """Each admitted plain candidate (the match alone, at (3, 3, 4)) has
        its own Hermitised Choi matrix, built once. The zero map admits
        all four (its probe scores are 0, and the trace term rules out the
        affine ones): four builds, none shared."""
        shape = BipartiteShape(3, 3, 4)
        for phi, admitted in ((canonical(shape, "t", seed=2)[0], ["t"]),
                              (LinearMapMatrix(shape, np.zeros((81, 81))), list(VARPHI_TAGS))):
            assert _admitted_tags(phi, 1e-8) == [(tag, False) for tag in admitted]
            with hermitised_copies() as builds:
                classify_preserver(phi)
            assert [(tag, affine) for tag, affine, _ in builds] == [(tag, False) for tag in admitted]
            for tag, _, herm in builds:
                assert herm.tobytes() == hermitian_part(candidate_choi(phi, tag, False)).tobytes()

    @pytest.mark.parametrize("shape", CHOI_SHAPES)
    def test_plain_parts_gathered_from_one_hermitian_part(self, shape):
        """Each candidate's Hermitised Choi matrix, built from the map matrix
        and reflected if affine, is bitwise the Hermitian part of the
        map-coordinate construction, and for a plain candidate the
        closed-form gather from the one Herm(Choi(Phi))."""
        phi = dense_map(shape, 13)
        plain = hermitian_part(choi_matrix(phi))
        for tag in VARPHI_TAGS:
            for affine in (False, True):
                got = candidate_choi(phi, tag, affine, herm=True)
                reference = hermitian_part(map_coordinate_choi(phi, tag, affine))
                assert got.tobytes() == reference.tobytes(), (tag, affine)
            gathered = plain.ravel()[plain_choi_index(shape, tag)]
            assert candidate_choi(phi, tag, False, herm=True).tobytes() == gathered.tobytes(), tag


def anti_hermitian_residual(shape, size, seed):
    """An anti-Hermitian (d^2, d^2) R, every entry of modulus size: random
    phases above the diagonal, i times a random sign on it. Added to the
    Choi matrix of an id form, it moves every entry of the candidate's
    C - C* by 2 size, of either sign (affine: C = I / k - Choi(Phi)), and
    leaves its Hermitian part alone."""
    d2 = shape.dim ** 2
    rng = np.random.default_rng(seed)
    z = np.triu(size * np.exp(2j * np.pi * rng.random((d2, d2))), 1)
    z -= z.conj().T
    z[np.arange(d2), np.arange(d2)] = 1j * size * rng.choice([-1.0, 1.0], d2)
    return z


class TestHermiticityBound:
    """classify_preserver takes no Hermiticity defect: a rebuild residual
    within tol bounds the matched candidate's max|C - C*| by 2 tol, for both
    kinds, which is below tol d."""

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3),
                                       BipartiteShape(3, 3, 4)])
    def test_matched_candidate_is_hermitian_within_two_tol(self, shape):
        """Every form plus Ginibre noise of max modulus tol / 2 and tol, and
        the id forms plus the anti-Hermitian residual at 0.5, 0.99 and 1.0
        tol, where the defect reaches its bound (at mn = 2k for an affine
        match too): every map that classifies has max|C - C*| <= 2 tol
        + 64 d eps for its match."""
        d = shape.dim
        slack = 64 * d * np.finfo(float).eps
        for tol in (1e-6, 1e-8, 1e-12):
            cases = []
            for i, (tag, affine) in enumerate(canonical_forms(shape)):
                phi, _ = canonical(shape, tag, seed=110 + i, affine=affine)
                noise = random_complex(d * d, np.random.default_rng(i))
                noise /= np.abs(noise).max()
                cases += [(False, LinearMapMatrix(shape, phi.matrix + size * tol * noise))
                          for size in (0.5, 1.0)]
                if tag == "id":
                    cases += [(True, map_from_choi(
                        choi_matrix(phi) + anti_hermitian_residual(shape, size * tol, i), shape))
                        for size in (0.5, 0.99, 1.0)]
            tight = {}
            for adversarial, phi in cases:
                match = classify_preserver(phi, tol).matched
                if match is None:
                    continue
                defect = hermiticity_defect(candidate_choi(phi, match.varphi, match.affine))
                assert defect <= 2 * tol + slack, (tol, match.varphi, match.affine, defect)
                if adversarial:
                    tight[match.affine] = max(tight.get(match.affine, 0.0), defect / (2 * tol))
            # the residual at 0.5 tol classifies, and 0.99 tol reaches the bound
            assert set(tight) == ({False, True} if shape.is_half else {False})
            assert min(tight.values()) > 0.98, (tol, tight)


# Criterion 6's falsifier shapes, plus the largest classified one.
FALSIFY_SHAPES = [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3), BipartiteShape(3, 3, 4),
                  BipartiteShape(2, 4, 4), BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)]


class TestRejectCertificate:
    """The probe is the classifier's reject certificate: a candidate it does
    not admit never reaches the Choi pass, so it must admit every candidate
    that the pass would match (classify._admitted_tags), and it turns random
    maps away with no Choi matrix."""

    @pytest.mark.parametrize("shape", CHOI_SHAPES + [BipartiteShape(3, 4, 6)])
    def test_admits_every_canonical_form(self, shape):
        for i, (tag, affine) in enumerate(canonical_forms(shape)):
            phi, _ = canonical(shape, tag, seed=20 + i, affine=affine)
            for tol in (FALSIFY_REJECT_TOL, 1e-8, 1e-14):
                assert (tag, affine) in _admitted_tags(phi, tol), (tag, affine, tol)

    @pytest.mark.parametrize("shape,tag,affine", [(BipartiteShape(3, 3, 4), "id", False),
                                                  (BipartiteShape(2, 4, 4), "t", True),
                                                  (BipartiteShape(3, 4, 6), "pt_left", True)])
    def test_scaled_canonical_map_at_the_gate(self, shape, tag, affine):
        """Inside the top-eigenvalue gate (scale 1 - tol/2) the map classifies;
        outside it (1 - 2 tol) it is no preserver. The probe admits the form's
        candidate, and it alone, at both scales: an O(tol) scale moves the
        scores by far less than tau, and the Choi gates decide."""
        phi, _ = canonical(shape, tag, seed=31, affine=affine)
        inside = LinearMapMatrix(shape, (1 - 0.5 * FALSIFY_REJECT_TOL) * phi.matrix)
        report = classify_preserver(inside, tol=FALSIFY_REJECT_TOL)
        assert report.verdict == "classified"
        assert (report.matched.varphi, report.matched.affine) == (tag, affine)
        outside = LinearMapMatrix(shape, (1 - 2 * FALSIFY_REJECT_TOL) * phi.matrix)
        report = classify_preserver(outside, tol=FALSIFY_REJECT_TOL)
        assert report.verdict == "not_a_preserver"
        key = f"{tag}+affine" if affine else tag
        for scaled in (inside, outside):
            assert admitted_keys(scaled, FALSIFY_REJECT_TOL) == {key}
        assert set(report.choi_gap_bounds) == {key}

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_excluded_maps_are_not_preservers(self, shape):
        """Every falsifier draw and a dense map are excluded at every kind,
        and classify builds no Choi matrix for them."""
        rng = np.random.default_rng(shape.dim)
        maps = [random_constrained_map(shape, rng) for _ in range(50)] + [dense_map(shape, 1)]
        for phi in maps:
            assert admitted_keys(phi, FALSIFY_REJECT_TOL) == set()
            with mock.patch.object(classify, "_hermitian_choi", side_effect=AssertionError):
                report = classify_preserver(phi, tol=FALSIFY_REJECT_TOL)
            assert report.verdict == "not_a_preserver" and report.choi_gap_bounds == {}


def probe_inputs(shape):
    """Oracle: the probe's eight 0/1 inputs as Kronecker products, per
    factor X = S x I (I x S), Y = X^T, XY and YX."""
    eye_m, eye_n = np.eye(shape.m), np.eye(shape.n)
    inputs = []
    for side, size in (("left", shape.m), ("right", shape.n)):
        s = np.eye(size, k=1)
        for z in (s, s.T, s @ s.T, s.T @ s):
            inputs.append(np.kron(z, eye_n) if side == "left" else np.kron(eye_m, z))
    return inputs


SOUNDNESS_SHAPES = CHOI_SHAPES + [BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)]


class TestProbe:
    """classify_preserver runs the Choi pass for the admitted candidates only,
    and gives the report of the full loop that admits every candidate."""

    @pytest.mark.parametrize("shape", SOUNDNESS_SHAPES + [BipartiteShape(2, 2, 1),
                                                          BipartiteShape(2, 5, 3)])
    def test_supports_are_the_kronecker_inputs(self, shape):
        supports, starts, ones = classify._probe_supports(shape.m, shape.n)
        runs = np.split(supports, starts[1:])
        for run, z in zip(runs, probe_inputs(shape)):
            assert np.array_equal(np.sort(run), np.flatnonzero(z.ravel(order="F")))
        assert ones.tolist() == [len(runs[0]), len(runs[4])]
        assert ones.tolist() == [np.trace(z) for z in probe_inputs(shape)[2::4]]

    @pytest.mark.parametrize("shape", SOUNDNESS_SHAPES)
    def test_same_report_as_the_full_loop(self, monkeypatch, shape):
        """Every canonical form at tol 1e-14, 1e-8 and 1e-6, with noise on
        the map of max modulus 0, 1e-12, 1e-10 (near the unitarity gate of
        the read-off), tol / 2 and tol: the verdict, the match, its unitary's
        bytes and its residual are the full loop's, and so is each admitted
        candidate's bound. Each noiseless form classifies."""
        cases = []
        for i, (tag, affine) in enumerate(canonical_forms(shape)):
            phi, _ = canonical(shape, tag, seed=90 + i, affine=affine)
            noise = random_complex(shape.dim ** 2, np.random.default_rng(i))
            noise /= np.abs(noise).max()
            for tol in (1e-14, 1e-8, 1e-6):
                for size in sorted({0.0, 1e-12, 1e-10, tol / 2, tol}):
                    if size <= tol:
                        noisy = LinearMapMatrix(shape, phi.matrix + size * noise)
                        cases.append((noisy, tol, size, classify_preserver(noisy, tol)))
        monkeypatch.setattr(classify, "_admitted_tags", admit_all)
        for phi, tol, size, got in cases:
            full = classify_preserver(phi, tol)
            assert got.verdict == full.verdict, (tol, size)
            assert got.verdict == "classified" or size > 0.0
            assert (got.matched is None) == (full.matched is None)
            for key, bound in got.choi_gap_bounds.items():
                assert bound == full.choi_gap_bounds[key], key
            if got.matched is not None:
                m, f = got.matched, full.matched
                assert (m.varphi, m.affine) == (f.varphi, f.affine)
                assert m.unitary.tobytes() == f.unitary.tobytes()
                assert m.residual == f.residual

    @pytest.mark.parametrize("shape,composed", [(BipartiteShape(3, 3, 4), 1),
                                                (BipartiteShape(2, 4, 4), 1),
                                                (BipartiteShape(3, 4, 6), 1),
                                                (BipartiteShape(2, 2, 2), 2)])
    def test_one_candidate_per_form(self, shape, composed):
        """One Choi matrix per canonical form, two at m = n = 2, where the
        trace reflection of a 2 x 2 factor swaps the probe's types; none for
        a falsifier draw or a dense map."""
        for i, (tag, affine) in enumerate(canonical_forms(shape)):
            phi, _ = canonical(shape, tag, seed=40 + i, affine=affine)
            with spy(classify, "_hermitian_choi") as calls:
                report = classify_preserver(phi)
            assert (report.matched.varphi, report.matched.affine) == (tag, affine)
            assert len(calls) == composed, (tag, affine)
            assert (tag, affine) in [args[1:] for args, _ in calls]
        for phi in (random_constrained_map(shape, np.random.default_rng(7)), dense_map(shape, 7)):
            with mock.patch.object(classify, "_hermitian_choi",
                                   wraps=classify._hermitian_choi) as built:
                assert classify_preserver(phi).verdict == "not_a_preserver"
            assert built.call_count == 0


def kron_projection(choi, d):
    """Oracle: the marginal projection with its corrections as two Kronecker
    products, C + I x Y1 + Y2 x I."""
    c4 = choi.reshape(d, d, d, d)
    eye = np.eye(d)
    r1 = eye - np.einsum("pipj->ij", c4)
    r2 = eye - np.einsum("piqi->pq", c4)
    shift = np.trace(r1).real / (2 * d)
    y1 = (r1 - shift * eye) / d
    y2 = (r2 - shift * eye) / d
    return choi + np.kron(eye, y1) + np.kron(y2, eye)


class TestFalsifierDraw:
    """The projection adds its corrections in place, and falsify_random
    classifies the map of the draw itself: the bytes of the Kronecker sums
    and of a Choi round trip, and the probe turns each draw away with no
    Choi matrix."""

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_projection_equals_kron_sums(self, shape):
        d = shape.dim
        rng = np.random.default_rng(d)
        for _ in range(3):
            g = random_complex(d * d, rng)
            choi = g @ g.conj().T
            choi *= d / np.trace(choi).real
            expected = kron_projection(choi, d)
            assert _project_marginals(choi, d) is choi
            assert choi.tobytes() == expected.tobytes()
            assert choi_matrix(map_from_choi(choi, shape)).tobytes() == choi.tobytes()

    @pytest.mark.parametrize("mnk", [(2, 2, 2), (3, 4, 6), (4, 4, 8)])
    def test_random_constrained_map(self, mnk):
        """One real standard-normal draw R, written as ((1 + i) R + (1 - i) R^T)
        / (2 (mn)^2): exactly Hermitian with a real diagonal before the
        projection, and projected after."""
        shape = BipartiteShape(*mnk)
        d = shape.dim
        r = np.random.default_rng(3).standard_normal((d * d, d * d))
        draw = ((1 + 1j) * r + (1 - 1j) * r.T) * (1 / (2 * d * d))
        with mock.patch.object(classify, "_project_marginals", side_effect=lambda choi, d: choi):
            raw = classify._random_constrained_choi(shape, np.random.default_rng(3))
        assert raw.tobytes() == draw.tobytes()
        assert np.array_equal(raw, raw.conj().T) and not raw.diagonal().imag.any()
        expected = map_from_choi(_project_marginals(draw, d), shape).matrix
        got = random_constrained_map(shape, np.random.default_rng(3)).matrix
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [BipartiteShape(3, 4, 6), BipartiteShape(4, 4, 8)])
    def test_draw_holds_two_choi_sized_arrays(self, shape):
        """The real normal draw, half a Choi-sized array, and the Choi array
        it is written into, with no product of the draw and its adjoint
        beside them."""
        rng = np.random.default_rng(5)
        classify._random_constrained_choi(shape, rng)  # warm-up
        with peak_alloc() as peak:
            choi = classify._random_constrained_choi(shape, rng)
        assert peak.bytes < 2 * choi.nbytes, peak.bytes

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_payload_equals_kron_and_round_trip(self, shape):
        def round_trip(choi, shape):
            return map_from_choi(choi_matrix(to_map(choi, shape)), shape)

        to_map = classify.map_from_choi
        fast = falsify_to_payload(falsify_random(shape, count=2, seed=23))
        with mock.patch.object(classify, "_project_marginals", side_effect=kron_projection), \
                mock.patch.object(classify, "map_from_choi", side_effect=round_trip):
            slow = falsify_to_payload(falsify_random(shape, count=2, seed=23))
        assert json.dumps(fast) == json.dumps(slow)

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_draws_are_probed_without_a_choi_matrix(self, shape):
        """Each draw is classified once, at FALSIFY_REJECT_TOL, and the probe
        excludes it: no Choi matrix, Hermitised or not."""
        with spy(classify, "classify_preserver") as classified, \
                mock.patch.object(classify, "_hermitian_choi", side_effect=AssertionError):
            summary = falsify_random(shape, count=3, seed=29)
        assert summary.passes == 0
        assert [(args[1], report.verdict) for args, report in classified] == [
            (FALSIFY_REJECT_TOL, "not_a_preserver")] * 3


class TestFalsify:
    def test_zero_passes(self):
        summary = falsify_random(BipartiteShape(2, 2, 2), count=20, seed=8)
        assert summary.passes == 0
        assert len(summary.results) == 20
        assert all(r.verdict == "fail" for r in summary.results)
        assert min(r.defect for r in summary.results) > 1e-3

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_generated_maps_share_coarse_properties(self, shape):
        """The draw is not positive semidefinite: the projection alone makes
        the map unital and trace-preserving, and the exactly Hermitian draw
        makes it Hermiticity-preserving."""
        d = shape.dim
        rng = np.random.default_rng(3)
        phi = random_constrained_map(shape, rng)
        assert np.max(np.abs(apply_map(phi, np.eye(d)) - np.eye(d))) <= 1e-12  # unital
        x = random_complex(d, rng)
        assert abs(np.trace(apply_map(phi, x)) - np.trace(x)) <= 1e-12  # trace-preserving
        h = random_hermitian(d, rng)
        image = apply_map(phi, h)
        assert np.max(np.abs(image - image.conj().T)) <= 1e-12  # Hermiticity-preserving

    def test_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="count must be an integer"):
            falsify_random(BipartiteShape(2, 2, 2), True)

    def test_a_pass_is_classified_and_reported(self):
        """A kept draw that verification passes counts as a pass, with the
        kind its classification at tol gives: a random draw is no canonical
        form, so its defect was merely below tol."""
        passing = classify.VerificationReport(
            trials=1, max_support_defect=0.0, witnesses=[], verdict="pass", tol=1e-8, num_angles=8
        )
        with mock.patch.object(classify, "_witness_defect", return_value=(0.0, 0.0, None, None)), \
                mock.patch.object(classify, "verify_preserver", return_value=passing):
            summary = falsify_random(BipartiteShape(2, 2, 2), count=2, seed=3)
        assert summary.passes == 2
        assert [(r.verdict, r.pass_kind) for r in summary.results] == [("pass", "defect_below_tol")] * 2

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_witness_trial_decides_as_the_full_verify(self, shape, seed):
        """Each kept map fails its witness check: the verdict and defect are
        those of a FALSIFY_TRIALS verify of the map, which its witness trial
        decides too, whatever the seed. Where min(m, n) <= 2 the E_11 x E_11
        image is Hermitian, both support functions scale with |cos theta|,
        and the defect is bitwise trial 0's on the whole grid; elsewhere it
        is the grid verify's defect formula on theta = 0 and pi, columns 0
        and FALSIFY_NUM_ANGLES / 2 of its supports."""
        with spy(classify, "_witness_defect") as checks:
            summary = falsify_random(shape, count=3, seed=seed)
        assert len(checks) == 3
        grid = ranges._uniform_grid(FALSIFY_NUM_ANGLES)
        for result, ((phi,), (defect, *_)) in zip(summary.results, checks):
            assert (result.decided_by, result.defect) == ("witness", defect)
            full = verify_preserver(phi, trials=FALSIFY_TRIALS, num_angles=FALSIFY_NUM_ANGLES,
                                    seed=seed)
            assert full.decided_by == "witness"
            assert (result.verdict, result.defect) == (full.verdict, full.max_support_defect)
            if not shape.has_counterexample:
                assert result.defect == grid_oracle(phi, trials=1, num_angles=FALSIFY_NUM_ANGLES)[0]
                continue
            _, _, xs = _trial_pairs(shape, 1, 0)
            hx = ranges._top_means(classify._witness_spectra(shape, grid), shape.k, True)
            hy = ranges.support_values_batch(apply_map_batch(phi, xs), shape.k, grid)
            columns = [0, FALSIFY_NUM_ANGLES // 2]
            assert result.defect == classify._support_defects(hx[:, columns], hy[:, columns],
                                                              shape.dim)[0][0]

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_one_op_solves_the_witness_trial_only(self, shape):
        """One falsify op solves the witness pair's image Phi(A x B) at
        theta = 0 alone, which decides it; the pair's own spectra are in
        closed form."""
        with solver_log() as log:
            summary = falsify_random(shape, count=1, seed=2)
        assert summary.results[0].decided_by == "witness"
        assert log.matrices() == log.matrices(order=shape.dim) == 1

    def test_a_witness_pass_runs_every_trial(self):
        """When the witness check passes, one FALSIFY_TRIALS verify of the
        same map and seed decides: its verdict and its defect."""
        original = classify._witness_defect

        def passing(phi):  # every witness check passes, in verify too
            return (0.0,) + original(phi)[1:]
        with mock.patch.object(classify, "_witness_defect", side_effect=passing), \
                mock.patch.object(classify, "verify_preserver", wraps=verify_preserver) as verify:
            summary = falsify_random(BipartiteShape(3, 3, 4), count=2, seed=3)
            assert [call.kwargs["trials"] for call in verify.call_args_list] == [FALSIFY_TRIALS] * 2
            assert summary.passes == 0
            for result, call in zip(summary.results, verify.call_args_list):
                assert call.kwargs["num_angles"] == FALSIFY_NUM_ANGLES
                report = verify_preserver(*call.args, **call.kwargs)
                assert result.decided_by == "trials" and report.decided_by == "grid"
                assert result.verdict == report.verdict == "fail"
                assert result.defect == report.max_support_defect

    @pytest.mark.parametrize("shape", [BipartiteShape(*mnk) for mnk in (
        (2, 2, 2), (2, 3, 3), (2, 4, 4), (3, 3, 2), (3, 3, 4), (3, 4, 6), (4, 4, 8))], ids=shape_id)
    def test_witness_check_agrees_with_the_theorem(self, shape):
        """On canonical maps the witness check passes every form that
        preserves W_k on tensors, to rounding, and fails every invalid
        partial transpose by its witness trial's defect on a fine grid."""
        for i, (tag, affine) in enumerate(canonical_forms(shape)):
            phi, _ = canonical(shape, tag, seed=i, affine=affine)
            defect = classify._witness_defect(phi)[0]
            if preserves_on_tensors(tag, shape):
                assert defect <= classify._SPECTRAL_SLACK * shape.dim * EPS, (tag, affine)
                continue
            fine = grid_oracle(phi, trials=1, num_angles=360)[0]
            assert defect > 1e-2, (tag, affine)
            assert abs(defect - fine) <= 1e-10 * fine, (tag, affine)

    def test_gives_up_after_64_canonical_draws(self):
        shape = BipartiteShape(2, 2, 2)
        phi, _ = canonical(shape, "t", seed=1)
        with mock.patch.object(classify, "_random_constrained_choi",
                               return_value=choi_matrix(phi)) as draw:
            with pytest.raises(RuntimeError, match="64 attempts"):
                falsify_random(shape, count=1, seed=0)
        assert draw.call_count == 64

    def test_empty_summary(self):
        summary = falsify_random(BipartiteShape(2, 2, 2), count=0, seed=0)
        assert summary.count == 0 and summary.passes == 0 and summary.results == []

    def test_payload_bytes_independent_of_blas_threads(self):
        """Each run in a child process with OPENBLAS_NUM_THREADS=1 and 2: the
        draws, their probes and the verifies of the kept maps, on both
        witness pairs: the counterexample pair at (3,3,4) and (4,4,8), the
        Hermitian E_11 x E_11 at (2,4,4)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(classify.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import json\nfrom knrange import BipartiteShape\n"
                  "from knrange.classify import falsify_random, falsify_to_payload\n"
                  "print(json.dumps([falsify_to_payload(falsify_random(BipartiteShape(*mnk), count))\n"
                  "                  for mnk, count in (((3, 3, 4), 3), ((4, 4, 8), 1),\n"
                  "                                     ((2, 4, 4), 1))]))")
        outputs = [subprocess.run([sys.executable, "-c", script],
                                  env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                                  capture_output=True, timeout=300).stdout
                   for threads in ("1", "2")]
        assert [len(p["results"]) for p in json.loads(outputs[0])] == [3, 1, 1]
        assert outputs[0] == outputs[1]

    def test_zero_passes_at_the_largest_shape(self):
        summary = falsify_random(BipartiteShape(4, 4, 8), count=3, seed=8)
        assert summary.passes == 0
        assert all(r.verdict == "fail" for r in summary.results)

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_same_payload_as_the_classify_path(self, shape):
        """The draws kept when the probe admits every candidate, so that each
        draw goes through the full Choi pass, are the same."""
        fast = falsify_to_payload(falsify_random(shape, count=3, seed=17))
        with mock.patch.object(classify, "_admitted_tags", side_effect=admit_all):
            slow = falsify_to_payload(falsify_random(shape, count=3, seed=17))
        assert json.dumps(fast) == json.dumps(slow)

    @pytest.mark.parametrize("shape", FALSIFY_SHAPES)
    def test_failing_draws_skip_classify(self, shape):
        """A draw whose verification fails is not classified at tol: the only
        classification is the draw's own, at FALSIFY_REJECT_TOL."""
        with spy(classify, "classify_preserver") as classified:
            summary = falsify_random(shape, count=2, seed=4)
        assert summary.passes == 0
        assert [args[1] for args, _ in classified] == [FALSIFY_REJECT_TOL] * 2

    def test_no_choi_solve(self):
        """Only the support kernel solves (order mn = 12); no Choi matrix
        (order (mn)^2 = 144) is solved."""
        with solver_log() as log:
            falsify_random(BipartiteShape(3, 4, 6), count=1, seed=2)
        assert log.matrices(order=144) == 0
        assert log.matrices(order=12) == log.matrices() > 0

    def test_determinism(self):
        s1 = falsify_random(BipartiteShape(2, 2, 1), count=3, seed=5)
        s2 = falsify_random(BipartiteShape(2, 2, 1), count=3, seed=5)
        assert json.dumps(falsify_to_payload(s1)) == json.dumps(falsify_to_payload(s2))


# The counterexample shapes of criterion 5's sweep and of the falsifier
# battery, and shapes whose witness pair is E_11 x E_11.
COUNTEREXAMPLE_SHAPES = sorted(
    {shape for shape in [BipartiteShape(*mnk) for mnk in SWEEP_SHAPES] + FALSIFY_SHAPES
     if shape.has_counterexample}, key=lambda s: (s.m, s.n, s.k))
E11_SHAPES = [BipartiteShape(2, 2, 1), BipartiteShape(2, 3, 3), BipartiteShape(2, 4, 4),
              BipartiteShape(3, 2, 2), BipartiteShape(2, 8, 8)]


def solved_witness_spectra(shape, angles):
    """Oracle: the witness product's rotated spectra as the kernel solves them."""
    return ranges._rotated_eigs(np.kron(*classify._witness_pair(shape))[None], angles)


@contextmanager
def solved_witness():
    """verify_preserver with trial 0's A x B side solved by the kernel."""
    with mock.patch.object(classify, "_witness_spectra", side_effect=solved_witness_spectra):
        yield


class TestWitnessSpectra:
    """Trial 0's A x B side is in closed form (classify._witness_spectra):
    within 8 d eps of the kernel's spectra for the counterexample pair, whose
    rotated spectrum does not depend on theta, and bitwise for E_11 x E_11."""

    @staticmethod
    def angle_sets(shape):
        return [ranges._uniform_grid(n) for n in (1, 2 * (shape.dim + 1), 120, 360, 361)]

    @pytest.mark.parametrize("shape", COUNTEREXAMPLE_SHAPES, ids=shape_id)
    def test_counterexample_pair_matches_the_kernel(self, shape):
        for angles in self.angle_sets(shape):
            closed = classify._witness_spectra(shape, angles)
            solved = solved_witness_spectra(shape, angles)
            assert closed.shape == solved.shape, len(angles)
            assert max_abs(closed - solved) <= 8 * shape.dim * EPS, len(angles)

    @pytest.mark.parametrize("shape", E11_SHAPES, ids=shape_id)
    def test_e11_pair_is_the_kernels_bitwise(self, shape):
        for angles in self.angle_sets(shape):
            closed = classify._witness_spectra(shape, angles)
            assert closed.tobytes() == solved_witness_spectra(shape, angles).tobytes()

    def test_a_pair_that_is_not_rotation_invariant_fails(self):
        """The check above fails for a witness pair whose A x B is not
        unitarily similar to its rotations: a diagonal entry added to A."""
        shape = BipartiteShape(3, 3, 4)
        a, b = counterexample_matrices(3, 3)
        a[0, 0] = 1.0
        angles = ranges._uniform_grid(120)
        with mock.patch.object(classify, "_witness_pair", return_value=(a, b)):
            solved = solved_witness_spectra(shape, angles)
        assert max_abs(classify._witness_spectra(shape, angles) - solved) > 0.1

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3),
                                       BipartiteShape(2, 4, 3), BipartiteShape(3, 3, 2),
                                       BipartiteShape(3, 3, 4), BipartiteShape(3, 4, 6),
                                       BipartiteShape(4, 4, 8)], ids=shape_id)
    def test_reports_match_the_solved_witness(self, shape):
        """Every canonical form, certified by the spectra and, with them kept
        from deciding, passed on the grid, a random map's witness fail, and
        the grid fail of a map that fixes trial 0's image: the same verdicts,
        decided_by and witnesses as with trial 0 solved by the kernel; the
        same bytes where min(m, n) <= 2, defects within 1e-15 elsewhere. A
        witness theta is the least angle within rounding of its trial's
        largest gap, so it matches too where trial 0's gap does not depend
        on theta."""
        maps = [canonical(shape, tag, seed=i, affine=affine)[0]
                for i, (tag, affine) in enumerate(canonical_forms(shape))]
        maps.append(random_constrained_map(shape, np.random.default_rng(shape.dim)))
        fixing = witness_fixing_map(shape, shape.dim)  # fails on trials 1.. alone
        maps.append(fixing)
        outcomes = set()
        for i, phi in enumerate(maps):
            kwargs = dict(trials=4 if phi is fixing else (1, 4, 12)[i % 3],
                          num_angles=(120, 361)[i % 2], seed=i)
            for run in (verify_preserver, grid_report):
                got = run(phi, **kwargs)
                with solved_witness():
                    ref = run(phi, **kwargs)
                outcomes.add((got.decided_by, got.verdict))
                assert (got.decided_by, got.verdict) == (ref.decided_by, ref.verdict)
                assert len(got.witnesses) == len(ref.witnesses)
                if not shape.has_counterexample:
                    assert json.dumps(verification_to_payload(got)) == \
                        json.dumps(verification_to_payload(ref))
                    continue
                assert abs(got.max_support_defect - ref.max_support_defect) <= 1e-15
                for g, r in zip(got.witnesses, ref.witnesses):
                    assert g.a.tobytes() == r.a.tobytes() and g.b.tobytes() == r.b.tobytes()
                    assert abs(g.defect - r.defect) <= 1e-15 and g.theta == r.theta
        assert outcomes == {("spectra", "pass"), ("grid", "pass"), ("witness", "fail"),
                            ("grid", "fail")}

    @pytest.mark.parametrize("shape", [BipartiteShape(2, 2, 2), BipartiteShape(2, 3, 3),
                                       BipartiteShape(3, 3, 4), BipartiteShape(3, 4, 6),
                                       BipartiteShape(4, 4, 8)], ids=shape_id)
    def test_falsify_summaries_match_the_solved_witness(self, shape):
        got = falsify_random(shape, 3, seed=9)
        with solved_witness():
            ref = falsify_random(shape, 3, seed=9)
        assert [(r.verdict, r.pass_kind) for r in got.results] == \
            [(r.verdict, r.pass_kind) for r in ref.results]
        for g, r in zip(got.results, ref.results):
            assert abs(g.defect - r.defect) <= (1e-15 if shape.has_counterexample else 0.0)

    def test_suite_json_matches_the_solved_witness(self):
        """At (3, 3, 2) the spectra decide the valid forms and the grid the
        partial transposes: the same items and verdicts, defects within 1e-15."""
        shape = BipartiteShape(3, 3, 2)
        got = preserver_suite(shape, seed=1, trials=6, num_angles=90)
        with solved_witness():
            ref = preserver_suite(shape, seed=1, trials=6, num_angles=90)
        assert [(i.name, i.passed) for i in got] == [(i.name, i.passed) for i in ref]
        for g, r in zip(got, ref):
            assert g.detail.keys() == r.detail.keys()
            for key in g.detail:
                assert abs(g.detail[key] - r.detail[key]) <= 1e-15, (g.name, key)
