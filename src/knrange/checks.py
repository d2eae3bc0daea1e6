"""Executable checks of the standalone facts behind the preserver
classification, usable as regression tests and as CLI-invokable demos.

The centerpiece is the counterexample pair (A, B) built from the weighted
shift X = [[0,3,0],[0,0,1],[0,0,0]]: when both factors are at least 3x3,
W_k(A x B) differs from W_k(A x B^t) for every k, which rules the partial
transposes out as preservers for min(m, n) >= 3. The Hermitian parts have
closed-form spectra

    Herm(A x B):    {+-sqrt(41/2), +-3/2, +-3/2, 0 x (mn-6)}
    Herm(A x B^t):  {+-9/2, +-sqrt(9/2), +-1/2, 0 x (mn-6)}

(both tensor products are unitarily similar to a direct sum of the zero block
with two 2x2 and one 3x3 nilpotent blocks, which accounts for the mn-6 zeros).
Both are unitarily similar to all their rotations e^{-i theta} (weighted
shifts: see classify._witness_spectra), so W_k(A x B) and W_k(A x B^t) are
disks about 0, and check_counterexample's theta = 0 gap is the whole comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import classify
from .classify import counterexample_matrices, counterexample_spectra
from .matcore import (
    HERMITICITY_RTOL,
    BipartiteShape,
    UsageError,
    _check_hermitian,
    _check_int,
    _check_tol,
    _ginibre,
    as_matrix,
    hermitian_part,
    is_orthogonal_pair,
    kron,
    max_abs,
    random_haar_unitary,
    random_hermitian,
)
from .maps import (
    CanonicalFormSpec,
    affine_reflect,
    build_canonical,
    canonical_forms,
    preserves_on_tensors,
)
from .ranges import (
    DEFAULT_NUM_ANGLES,
    DEFAULT_RTOL,
    boundary_point,
    krange_hermitian,
    krange_profile,
    sample_points,
    support_values,
)

GAP_THRESHOLD = 1e-6
SPECTRUM_TOL = 1e-10
DEFAULT_SUITE_TRIALS = 20
# Random matrices drawn by each range-property and complement check.
PROPERTY_DRAWS = 20


@dataclass(frozen=True)
class CounterexampleReport:
    m: int
    n: int
    spectrum_ab: np.ndarray
    spectrum_abt: np.ndarray
    expected_ab: np.ndarray
    expected_abt: np.ndarray
    gap_per_k: dict[int, float]
    passed: bool


def check_counterexample(m: int, n: int) -> CounterexampleReport:
    """Spectra of the Hermitian parts against their closed forms within
    SPECTRUM_TOL, plus the W_k interval gap |hi - hi'| + |lo - lo'| for every
    k in 1..mn-1, each of which must exceed GAP_THRESHOLD."""
    a, b = counterexample_matrices(m, n)
    herm_ab, herm_abt = hermitian_part(kron(a, b)), hermitian_part(kron(a, b.T))
    spec_ab, spec_abt = np.linalg.eigvalsh(herm_ab), np.linalg.eigvalsh(herm_abt)
    expected_ab, expected_abt = counterexample_spectra(m * n)
    spectra_ok = (
        max_abs(spec_ab - expected_ab) <= SPECTRUM_TOL
        and max_abs(spec_abt - expected_abt) <= SPECTRUM_TOL
    )
    gap_per_k: dict[int, float] = {}
    for k in range(1, m * n):
        i1 = krange_hermitian(herm_ab, k)
        i2 = krange_hermitian(herm_abt, k)
        gap_per_k[k] = abs(i1.hi - i2.hi) + abs(i1.lo - i2.lo)
    passed = spectra_ok and all(g > GAP_THRESHOLD for g in gap_per_k.values())
    return CounterexampleReport(
        m=m,
        n=n,
        spectrum_ab=spec_ab,
        spectrum_abt=spec_abt,
        expected_ab=expected_ab,
        expected_abt=expected_abt,
        gap_per_k=gap_per_k,
        passed=passed,
    )


@dataclass(frozen=True)
class ImplicationCheck:
    """Result of a hypothesis => conclusion instance check.

    A failed hypothesis makes the instance vacuous: ok is then true but the
    vacuous flag keeps it from counting as evidence.
    """

    hypothesis_holds: bool
    conclusion_holds: bool | None

    @property
    def vacuous(self) -> bool:
        return not self.hypothesis_holds

    @property
    def ok(self) -> bool:
        return self.vacuous or bool(self.conclusion_holds)


def check_block_split(h, k: int, tol: float = DEFAULT_RTOL) -> ImplicationCheck:
    """If the first k diagonal entries of a Hermitian matrix sum to the sum of
    its k largest eigenvalues, the matrix splits as A_1 (+) A_2 with A_1 of
    size k carrying exactly those eigenvalues."""
    _check_tol(tol)
    m = as_matrix(h)
    _check_hermitian("H", m)
    _check_int("k", k, 1, m.shape[0])
    scale = 1.0 + max_abs(m)
    w = np.linalg.eigvalsh(m)[::-1]  # descending
    diag_sum = float(np.real(np.trace(m[:k, :k])))
    if abs(diag_sum - float(w[:k].sum())) > tol * scale:
        return ImplicationCheck(hypothesis_holds=False, conclusion_holds=None)
    off_block = max_abs(m[:k, k:]) if k < m.shape[0] else 0.0
    lead_spec = np.linalg.eigvalsh(m[:k, :k])[::-1]
    conclusion = off_block <= tol * scale and max_abs(lead_spec - w[:k]) <= tol * scale
    return ImplicationCheck(hypothesis_holds=True, conclusion_holds=conclusion)


def check_orthogonality_criterion(a, b, k: int, tol: float = DEFAULT_RTOL) -> ImplicationCheck:
    """For PSD A, B: if tr(A)/k equals the top of W_k(A - B), then A and B are
    orthogonal (AB* = A*B = 0)."""
    _check_tol(tol)
    ma = as_matrix(a, name="A")
    mb = as_matrix(b, len(ma), "B")
    for name, mat in (("A", ma), ("B", mb)):
        _check_hermitian(name, mat)
        if float(np.linalg.eigvalsh(mat)[0]) < -tol:
            raise UsageError(f"{name} must be positive semidefinite")
    hi = krange_hermitian(ma - mb, k).hi
    if abs(float(np.trace(ma).real) / k - hi) > tol:
        return ImplicationCheck(hypothesis_holds=False, conclusion_holds=None)
    return ImplicationCheck(
        hypothesis_holds=True, conclusion_holds=is_orthogonal_pair(ma, mb, tol)
    )


# ---------------------------------------------------------------------------
# The full suite: sufficiency, necessity witnesses, range properties,
# complement identity, counterexample. Deterministic given the seed.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteItem:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def _valid_forms(shape: BipartiteShape) -> list[tuple[str, bool]]:
    return [(t, a) for t, a in canonical_forms(shape) if preserves_on_tensors(t, shape)]


def _invalid_forms(shape: BipartiteShape) -> list[tuple[str, bool]]:
    return [(t, a) for t, a in canonical_forms(shape) if not preserves_on_tensors(t, shape)]


def _range_property_items(shape: BipartiteShape, rng: np.random.Generator) -> list[SuiteItem]:
    """Spot checks of the structural properties of W_k on random matrices;
    detection_errors counts the draws whose profile the Hermitian test
    misreads (a Ginibre draw is never Hermitian)."""
    d = shape.dim
    k = shape.k
    worst = {
        "sample_containment": 0.0,
        "endpoint_attainment": 0.0,
        "affine_covariance": 0.0,
        "unitary_invariance": 0.0,
        "compression": 0.0,
        "detection_errors": 0.0,
    }
    for _ in range(PROPERTY_DRAWS):
        h = random_hermitian(d, rng)
        interval = krange_hermitian(h, k)
        pts = sample_points(h, k, 200, rng)
        worst["sample_containment"] = max(
            worst["sample_containment"],
            float(np.max(pts.real - interval.hi)),
            float(np.max(interval.lo - pts.real)),
            float(np.max(np.abs(pts.imag))),
        )
        worst["endpoint_attainment"] = max(
            worst["endpoint_attainment"],
            abs(boundary_point(h, k, 0.0).real - interval.hi),
            abs(boundary_point(h, k, np.pi).real - interval.lo),
        )
        alpha, beta = float(rng.normal()), float(rng.normal())
        shifted = krange_hermitian(alpha * np.eye(d) + beta * h, k)
        lo, hi = sorted((alpha + beta * interval.lo, alpha + beta * interval.hi))
        worst["affine_covariance"] = max(
            worst["affine_covariance"], abs(shifted.lo - lo), abs(shifted.hi - hi)
        )
        c = _ginibre((d, d), rng)
        u = random_haar_unitary(d, rng)
        p1 = krange_profile(c, k, 90)
        p2 = krange_profile(u @ c @ u.conj().T, k, 90)
        scale = 1.0 + max(max_abs(p1.support), max_abs(p2.support))
        worst["unitary_invariance"] = max(
            worst["unitary_invariance"], float(np.max(np.abs(p1.support - p2.support))) / scale
        )
        s = int(rng.integers(k + 1, d + 1))  # public W_k API needs k < dim
        v = random_haar_unitary(d, rng)[:s, :]
        hs = support_values(v @ c @ v.conj().T, k, p1.angles)
        worst["compression"] = max(worst["compression"], float(np.max(hs - p1.support)))
        herm_profile = krange_profile(h, k, 90)
        worst["detection_errors"] += (
            float(np.max(np.abs(herm_profile.boundary.imag))) > HERMITICITY_RTOL * (1 + max_abs(h))
            or float(np.max(np.abs(p1.boundary.imag))) <= HERMITICITY_RTOL * (1 + max_abs(c)))
    passed = (
        worst["sample_containment"] <= 1e-9
        and worst["endpoint_attainment"] <= 1e-9
        and worst["affine_covariance"] <= 1e-10
        and worst["unitary_invariance"] <= DEFAULT_RTOL
        and worst["compression"] <= 1e-9
        and worst["detection_errors"] == 0
    )
    detail = {key: float(val) for key, val in worst.items()}
    detail["detection_ok"] = worst["detection_errors"] == 0
    return [SuiteItem(name="properties:range", passed=passed, detail=detail)]


def _complement_item(shape: BipartiteShape, rng: np.random.Generator) -> SuiteItem:
    """(d-k) W_{d-k}(A) = tr(A) - k W_k(A) for Hermitian A, as intervals,
    each W_j, j = 1..d-1, computed once per draw."""
    d = shape.dim
    worst = 0.0
    for _ in range(PROPERTY_DRAWS):
        h = random_hermitian(d, rng)
        tr = float(np.trace(h).real)
        intervals = [krange_hermitian(h, j) for j in range(1, d)]  # [j - 1]: W_j
        for k in range(1, d):
            left, right = intervals[d - k - 1], intervals[k - 1]
            worst = max(
                worst,
                abs((d - k) * left.hi - (tr - k * right.lo)),
                abs((d - k) * left.lo - (tr - k * right.hi)),
            )
    return SuiteItem(
        name="properties:complement", passed=worst <= 1e-10, detail={"worst": worst}
    )


def preserver_suite(
    shape: BipartiteShape,
    seed=0,
    trials: int = DEFAULT_SUITE_TRIALS,
    num_angles: int = DEFAULT_NUM_ANGLES,
    tol: float = DEFAULT_RTOL,
) -> list[SuiteItem]:
    """Run the whole battery for one shape; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    items: list[SuiteItem] = []

    # Valid forms must pass verification (sufficiency), invalid ones fail it
    # (necessity).
    for tag, affine in _valid_forms(shape) + _invalid_forms(shape):
        valid = preserves_on_tensors(tag, shape)
        u = random_haar_unitary(shape.dim, rng)
        phi = build_canonical(CanonicalFormSpec(varphi=tag, unitary=u, affine=affine, shape=shape))
        report = classify.verify_preserver(
            phi, trials=trials, num_angles=num_angles, tol=tol, seed=rng.integers(2**63)
        )
        prefix = "sufficiency" if valid else "necessity"
        items.append(
            SuiteItem(
                name=f"{prefix}:{tag}" + ("+affine" if affine else ""),
                passed=report.passed == valid,
                detail={"max_defect": report.max_support_defect},
            )
        )

    if not shape.is_half:
        # Affine forms must be rejected at construction, and the bare
        # reflection genuinely moves W_k: it sends I to (mn/k - 1) I.
        try:
            build_canonical(
                CanonicalFormSpec(
                    varphi="id",
                    unitary=np.eye(shape.dim, dtype=complex),
                    affine=True,
                    shape=shape,
                )
            )
            rejected = False
        except UsageError:
            rejected = True
        reflected = krange_hermitian(affine_reflect(np.eye(shape.dim), shape.k), shape.k)
        moved = abs(reflected.hi - 1.0) > GAP_THRESHOLD
        items.append(
            SuiteItem(
                name="necessity:affine-rejected",
                passed=rejected and moved,
                detail={"reflected_hi": reflected.hi},
            )
        )

    items.extend(_range_property_items(shape, rng))
    items.append(_complement_item(shape, rng))

    if shape.has_counterexample:
        report = check_counterexample(shape.m, shape.n)
        items.append(
            SuiteItem(
                name="counterexample",
                passed=report.passed,
                detail={"min_gap": min(report.gap_per_k.values())},
            )
        )
    return items


def suite_passed(items: list[SuiteItem]) -> bool:
    return all(item.passed for item in items)


def suite_to_payload(items: list[SuiteItem]) -> list[dict]:
    return [
        {"item": item.name, "pass": item.passed, "detail": item.detail} for item in items
    ]


def suite_json(items: list[SuiteItem]) -> str:
    return json.dumps(suite_to_payload(items), indent=2, sort_keys=True)
