"""Every public entry checks its integer, tolerance, matrix-size and
Hermitian arguments the same way (matcore._check_int, matcore._check_tol,
matcore.as_matrix and matcore._check_hermitian): a bool, a float or a numpy
integer is no integer, a tolerance must be a finite real number > 0, a matrix
of the wrong size is named with the size it must have, and a non-Hermitian
one with its defect. Each raises matcore.UsageError, the ValueError that the
CLI reports as a usage error."""

import re

import numpy as np
import pytest

from knrange import checks, classify, maps, matcore, ranges
from knrange.matcore import BipartiteShape

from conftest import shift3

SHAPE = BipartiteShape(2, 2, 2)
PHI = maps.build_canonical(maps.CanonicalFormSpec("id", np.eye(4), False, SHAPE))
GINIBRE = matcore.random_complex(4, 0)
PSD_PAIR = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

# name -> (call of one integer argument x, a valid value of x).
INT_ENTRIES = {
    "BipartiteShape.m": (lambda x: BipartiteShape(x, 2, 1), 2),
    "BipartiteShape.n": (lambda x: BipartiteShape(2, x, 1), 2),
    "BipartiteShape.k": (lambda x: BipartiteShape(2, 2, x), 2),
    "random_haar_unitary": (lambda x: matcore.random_haar_unitary(x, 0), 2),
    "random_hermitian": (lambda x: matcore.random_hermitian(x, 0), 2),
    "random_complex": (lambda x: matcore.random_complex(x, 0), 2),
    "matrix_from_payload.dim": (
        lambda x: matcore.matrix_from_payload({"dim": x, "entries": [[0.0, 0.0]] * 4}), 2),
    "affine_reflect.k": (lambda x: maps.affine_reflect(np.eye(4), x), 2),
    "krange_hermitian.k": (lambda x: ranges.krange_hermitian(np.diag([1.0, 2.0, 3.0]), x), 2),
    "support_values.k": (lambda x: ranges.support_values(shift3(), x, [0.0, 1.0]), 2),
    "support_values_batch.k": (
        lambda x: ranges.support_values_batch(shift3()[None], x, [0.0, 1.0]), 2),
    "boundary_point.k": (lambda x: ranges.boundary_point(shift3(), x, 0.5), 2),
    "krange_profile.k": (lambda x: ranges.krange_profile(shift3(), x, 8), 2),
    "krange_profile.num_angles": (lambda x: ranges.krange_profile(shift3(), 1, x), 8),
    "k_numerical_radius.k": (lambda x: ranges.k_numerical_radius(shift3(), x, 8), 2),
    "k_numerical_radius.num_angles": (lambda x: ranges.k_numerical_radius(shift3(), 1, x), 8),
    "sample_points.k": (lambda x: ranges.sample_points(shift3(), x, 4, 0), 2),
    "sample_points.count": (lambda x: ranges.sample_points(shift3(), 1, x, 0), 2),
    "verify_preserver.trials": (
        lambda x: classify.verify_preserver(PHI, trials=x, num_angles=8), 2),
    "verify_preserver.num_angles": (
        lambda x: classify.verify_preserver(PHI, trials=2, num_angles=x), 8),
    "falsify_random.count": (lambda x: classify.falsify_random(SHAPE, x), 2),
    "check_block_split.k": (lambda x: checks.check_block_split(np.diag([5.0, 4.0, 1.0]), x), 2),
    "counterexample_matrices.m": (lambda x: checks.counterexample_matrices(x, 3), 3),
    "counterexample_matrices.n": (lambda x: checks.counterexample_matrices(3, x), 3),
    "check_counterexample.m": (lambda x: checks.check_counterexample(x, 3), 3),
}

# name -> call of one tol argument; each accepts tol = 1e-8.
TOL_ENTRIES = {
    "verify_preserver": lambda t: classify.verify_preserver(PHI, trials=2, num_angles=8, tol=t),
    "classify_preserver": lambda t: classify.classify_preserver(PHI, tol=t),
    "falsify_random": lambda t: classify.falsify_random(SHAPE, 1, tol=t),
    "ranges_equal": lambda t: ranges.ranges_equal(ranges.krange_profile(GINIBRE, 1, 8),
                                                  ranges.krange_profile(GINIBRE, 1, 8), tol=t),
    "is_orthogonal_pair": lambda t: matcore.is_orthogonal_pair(*PSD_PAIR, tol=t),
    "check_block_split": lambda t: checks.check_block_split(np.diag([5.0, 4.0, 1.0]), 1, tol=t),
    "check_orthogonality_criterion": lambda t: checks.check_orthogonality_criterion(
        *PSD_PAIR, 1, tol=t),
    "preserver_suite": lambda t: checks.preserver_suite(SHAPE, trials=2, num_angles=8, tol=t),
}

# name -> (call of one matrix argument x, a valid x, the name the error gives
# x); a matrix of any other shape is rejected, naming the valid x's size.
SIZE_ENTRIES = {
    "CanonicalFormSpec.unitary": (
        lambda x: maps.CanonicalFormSpec("id", x, False, SHAPE), np.eye(4), "unitary"),
    "LinearMapMatrix.matrix": (lambda x: maps.LinearMapMatrix(SHAPE, x), np.eye(16), "map matrix"),
    "map_from_choi": (lambda x: maps.map_from_choi(x, SHAPE), maps.choi_matrix(PHI), "Choi matrix"),
    "is_orthogonal_pair.b": (
        lambda x: matcore.is_orthogonal_pair(PSD_PAIR[0], x), PSD_PAIR[1], "B"),
    "check_orthogonality_criterion.b": (
        lambda x: checks.check_orthogonality_criterion(PSD_PAIR[0], x, 1), PSD_PAIR[1], "B"),
}

# name -> (call of one Hermitian argument x, a valid x, the name the error
# gives x); NON_HERMITIAN, whose defect max|x - x*| is 1, is rejected.
NON_HERMITIAN = np.array([[1.0, 1.0], [0.0, 1.0]])
HERMITIAN_ENTRIES = {
    "krange_hermitian": (lambda x: ranges.krange_hermitian(x, 1), PSD_PAIR[0], "H"),
    "check_block_split": (lambda x: checks.check_block_split(x, 1), PSD_PAIR[0], "H"),
    "check_orthogonality_criterion.a": (
        lambda x: checks.check_orthogonality_criterion(x, PSD_PAIR[1], 1), PSD_PAIR[0], "A"),
    "check_orthogonality_criterion.b": (
        lambda x: checks.check_orthogonality_criterion(PSD_PAIR[0], x, 1), PSD_PAIR[1], "B"),
}


def wrong_shapes(d):
    return [np.eye(d + 1), np.eye(d - 1), np.zeros((d, d + 1)), np.zeros((d, d, 1))]


CASES = (
    [pytest.param(call, valid, bad, "must be an integer", id=f"{name}-{bad!r}")
     for name, (call, valid) in INT_ENTRIES.items() for bad in (True, 2.0, np.int64(2))]
    + [pytest.param(call, 1e-8, bad, "tol must be finite and > 0", id=f"{name}-tol={bad!r}")
       for name, call in TOL_ENTRIES.items() for bad in (np.nan, np.inf, 0.0, -1.0, True, None)]
    + [pytest.param(call, valid, bad, re.escape(f"{arg} must be {len(valid)} x {len(valid)}, "
                                                f"got shape {bad.shape}"),
                    id=f"{name}-shape={bad.shape}")
       for name, (call, valid, arg) in SIZE_ENTRIES.items() for bad in wrong_shapes(len(valid))]
    + [pytest.param(call, valid, NON_HERMITIAN, re.escape(f"{arg} must be Hermitian, got defect "
                                                          "1.000e+00"), id=f"{name}-non-hermitian")
       for name, (call, valid, arg) in HERMITIAN_ENTRIES.items()]
)


@pytest.mark.parametrize("call,valid,bad,message", CASES)
def test_rejects_with_value_error(call, valid, bad, message):
    """The type check comes first, so the message names the type even where
    the value would be out of range too. A matrix's message names the
    argument and the size it must have, or its Hermiticity defect."""
    call(valid)  # the rejection below is of `bad` alone
    with pytest.raises(matcore.UsageError, match=message):
        call(bad)
