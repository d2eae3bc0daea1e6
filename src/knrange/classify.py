"""Deciding whether a linear map preserves W_k on tensor products, and which
canonical form it is.

Verification is statistical: random factor pairs (A, B), support functions of
A x B and Phi(A x B) compared on a shared angle grid. Classification is exact
up to tolerance: composing Phi with each candidate varphi (and the trace
reflection for affine candidates) must yield a pure unitary conjugation, which
is detected by its Choi matrix being Hermitian PSD of rank one. The gates read
the Choi spectrum alone (`eigvalsh`); only a candidate that passes them pays
for a full eigendecomposition, whose top eigenvector is the conjugating
unitary. A map that fails every gate, as a random map does, computes no
eigenvector at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    BipartiteShape,
    hermiticity_defect,
    kron,
    matrix_to_payload,
    max_abs,
    random_complex,
    random_hermitian,
    unvec,
)
from .maps import (
    CanonicalFormSpec,
    LinearMapMatrix,
    _trace_slots,
    _varphi_perm,
    apply_map_batch,
    build_canonical,
    canonical_forms,
    choi_matrix,
    map_from_choi,
)
from .ranges import (
    DEFAULT_NUM_ANGLES,
    DEFAULT_RTOL,
    _angle_grid,
    _check_int,
    support_values_batch,
)

DEFAULT_TRIALS = 50
# Internal verification settings for the falsifier: random non-canonical maps
# fail by O(1) margins, so a coarse grid and few trials suffice.
FALSIFY_TRIALS = 8
FALSIFY_NUM_ANGLES = 120
FALSIFY_REJECT_TOL = 1e-6


@dataclass(frozen=True)
class TrialWitness:
    """A failing verification trial: the factor pair, worst angle, and defect."""

    a: np.ndarray
    b: np.ndarray
    theta: float
    defect: float


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    max_support_defect: float
    witnesses: list[TrialWitness]
    verdict: str  # "pass" | "fail"
    tol: float
    num_angles: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class CandidateMatch:
    varphi: str
    affine: bool
    unitary: np.ndarray
    residual: float


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # "classified" | "not_a_preserver" | "ambiguous"
    matched: CandidateMatch | None
    all_matches: list[CandidateMatch] = field(default_factory=list)
    choi_gaps: dict[str, float] = field(default_factory=dict)


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _witness_pair(shape: BipartiteShape) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic first trial: the counterexample pair when both factors are
    at least 3x3 (it separates the partial transposes), else E_11 x E_11."""
    if shape.m >= 3 and shape.n >= 3:
        from .checks import counterexample_matrices  # deferred: checks imports classify

        return counterexample_matrices(shape.m, shape.n)
    a = np.zeros((shape.m, shape.m), dtype=complex)
    b = np.zeros((shape.n, shape.n), dtype=complex)
    a[0, 0] = 1.0
    b[0, 0] = 1.0
    return a, b


def _trial_pairs(shape: BipartiteShape, trials: int, seed) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    pairs = [_witness_pair(shape)]
    for t in range(1, trials):
        if t % 2 == 1:
            pairs.append((random_hermitian(shape.m, rng), random_hermitian(shape.n, rng)))
        else:
            pairs.append((random_complex(shape.m, rng), random_complex(shape.n, rng)))
    return pairs


def verify_preserver(
    phi: LinearMapMatrix,
    trials: int = DEFAULT_TRIALS,
    num_angles: int = DEFAULT_NUM_ANGLES,
    tol: float = DEFAULT_RTOL,
    seed=0,
) -> VerificationReport:
    """Check W_k(Phi(A x B)) = W_k(A x B) on seeded witness plus random pairs.

    Trial 1 uses the deterministic witness pair; later trials alternate
    Hermitian and fully complex factor pairs. The per-trial defect is the max
    over the angle grid of the support-function discrepancy, relative to
    1 + the larger support magnitude.
    """
    _check_int("trials", trials, 1)
    _check_tol(tol)
    shape = phi.shape
    angles = _angle_grid(num_angles)
    pairs = _trial_pairs(shape, trials, seed)
    xs = np.stack([kron(a, b) for a, b in pairs])
    ys = apply_map_batch(phi, xs)
    hx = support_values_batch(xs, shape.k, angles)
    hy = support_values_batch(ys, shape.k, angles)

    gaps = np.abs(hx - hy)
    scales = 1.0 + np.maximum(np.abs(hx).max(axis=1), np.abs(hy).max(axis=1))
    defects = gaps.max(axis=1) / scales
    max_defect = float(defects.max())
    witnesses = [
        TrialWitness(
            a=pairs[t][0],
            b=pairs[t][1],
            theta=float(angles[int(gaps[t].argmax())]),
            defect=float(defects[t]),
        )
        for t in np.nonzero(defects > tol)[0]
    ]
    verdict = "pass" if max_defect <= tol else "fail"
    return VerificationReport(
        trials=trials,
        max_support_defect=max_defect,
        witnesses=witnesses,
        verdict=verdict,
        tol=tol,
        num_angles=num_angles,
    )


def _normalize_phase(u: np.ndarray) -> np.ndarray:
    """Make the first entry of largest modulus real positive."""
    idx = int(np.argmax(np.abs(u)))
    pivot = u.flat[idx]
    if abs(pivot) == 0.0:
        return u
    return u * (abs(pivot) / pivot)


def classify_preserver(phi: LinearMapMatrix, tol: float = DEFAULT_RTOL) -> ClassificationReport:
    """Identify the canonical form of a map and recover its unitary.

    For each candidate (varphi, affine): Psi = (reflection if affine) o Phi o
    varphi^{-1} (each varphi is an involution) must be X -> U X U*. Its Choi
    matrix then is Hermitian PSD rank one with top eigenvalue mn. The gates
    (Hermiticity defect, spectral gap, top eigenvalue) use the eigenvalues of
    the Hermitised Choi matrix only; a candidate that passes all three
    decomposes that same matrix once more with eigenvectors, and U is the
    reshaped top eigenvector, phase-normalized. Psi is formed without a dense
    product: composing with varphi permutes the columns of the map matrix and
    the reflection is a rank-one update (see :mod:`knrange.maps`). The
    candidate counts as a match only if rebuilding the canonical map from the
    recovered U reproduces Phi entrywise within tol, which is the same as
    agreeing on every matrix unit tensor product (those are exactly the vec
    basis).
    """
    _check_tol(tol)
    shape = phi.shape
    d = shape.dim
    diag = _trace_slots(d)
    gaps: dict[str, float] = {}
    matches: list[CandidateMatch] = []

    for tag, affine in canonical_forms(shape):
        key = f"{tag}+affine" if affine else tag
        psi = phi.matrix[:, _varphi_perm(shape, tag)]  # Phi o varphi
        if affine:
            # (tr(.) / k) I - (.) applied after psi: a rank-one update
            trace_row = psi[diag].sum(axis=0) / shape.k
            psi = -psi
            psi[diag] += trace_row
        choi = choi_matrix(LinearMapMatrix(shape, psi))
        herm_defect = hermiticity_defect(choi)
        herm = (choi + choi.conj().T) / 2
        w = np.linalg.eigvalsh(herm)
        gap = max(abs(float(w[-2])), abs(float(w[0]))) / d
        gaps[key] = gap
        if herm_defect > tol * d or gap > tol or abs(float(w[-1]) - d) > tol * d:
            continue
        _, v = np.linalg.eigh(herm)  # eigenvectors only for a candidate past every gate
        u = _normalize_phase(unvec(v[:, -1], d) * np.sqrt(d))
        try:
            rebuilt = build_canonical(
                CanonicalFormSpec(varphi=tag, unitary=u, affine=affine, shape=shape)
            )
        except ValueError:
            continue  # recovered matrix not unitary enough: near-miss, no match
        residual = max_abs(rebuilt.matrix - phi.matrix)
        if residual <= tol:
            matches.append(CandidateMatch(varphi=tag, affine=affine, unitary=u, residual=residual))

    if not matches:
        return ClassificationReport(verdict="not_a_preserver", matched=None, choi_gaps=gaps)
    # Matches all rebuild to within tol of phi; call the result ambiguous only
    # if two matched rebuilds disagree with each other beyond tol.
    verdict = "classified"
    if len(matches) > 1:
        rebuilt = [
            build_canonical(
                CanonicalFormSpec(varphi=m.varphi, unitary=m.unitary, affine=m.affine, shape=shape)
            ).matrix
            for m in matches
        ]
        for i in range(len(rebuilt)):
            for j in range(i + 1, len(rebuilt)):
                if max_abs(rebuilt[i] - rebuilt[j]) > tol:
                    verdict = "ambiguous"
    return ClassificationReport(
        verdict=verdict, matched=matches[0], all_matches=matches, choi_gaps=gaps
    )


# ---------------------------------------------------------------------------
# Random falsification: non-canonical maps sharing the coarse properties of
# preservers (unital, trace-preserving, Hermiticity-preserving) should never
# pass verification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FalsifyResult:
    index: int
    defect: float
    verdict: str  # verification verdict
    pass_kind: str | None  # on pass: "matches_canonical" | "defect_below_tol"


@dataclass(frozen=True)
class FalsifySummary:
    shape: BipartiteShape
    count: int
    tol: float
    passes: int
    results: list[FalsifyResult]


def _project_marginals(choi: np.ndarray, d: int) -> np.ndarray:
    """Orthogonal projection of a Hermitian Choi matrix onto the affine
    subspace {Tr_1 C = I (unital), Tr_2 C = I (trace-preserving)}.

    Solves C' = C + I x Y1 + Y2 x I for the marginal residuals in closed form;
    Hermiticity is preserved because the residuals are Hermitian.
    """
    c4 = choi.reshape(d, d, d, d)
    tr1 = np.einsum("pipj->ij", c4)  # sum of diagonal blocks = Phi(I)
    tr2 = np.einsum("piqi->pq", c4)  # block traces = trace form
    eye = np.eye(d)
    r1 = eye - tr1
    r2 = eye - tr2
    shift = np.trace(r1).real / (2 * d)
    y1 = (r1 - shift * eye) / d
    y2 = (r2 - shift * eye) / d
    return choi + np.kron(eye, y1) + np.kron(y2, eye)


def _random_constrained_map(shape: BipartiteShape, rng: np.random.Generator) -> LinearMapMatrix:
    d = shape.dim
    g = (rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))) / np.sqrt(2.0)
    choi = g @ g.conj().T
    choi *= d / np.trace(choi).real
    choi = _project_marginals(choi, d)
    return map_from_choi(choi, shape)


def falsify_random(
    shape: BipartiteShape,
    count: int,
    seed=0,
    tol: float = DEFAULT_RTOL,
) -> FalsifySummary:
    """Generate `count` random unital, trace-preserving, Hermiticity-preserving
    maps that are not of canonical form, and verify each. Expected: 0 passes.

    Candidates within FALSIFY_REJECT_TOL of a canonical form are redrawn. A
    pass is a reportable finding, not an assertion failure; the result records
    whether the passing map secretly classified as canonical or merely kept
    its defect below tol.
    """
    _check_int("count", count, 0)
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    results: list[FalsifyResult] = []
    passes = 0
    for index in range(count):
        for _ in range(64):
            phi = _random_constrained_map(shape, rng)
            if classify_preserver(phi, tol=FALSIFY_REJECT_TOL).verdict == "not_a_preserver":
                break
        else:
            raise RuntimeError("could not draw a non-canonical map in 64 attempts")
        report = verify_preserver(
            phi,
            trials=FALSIFY_TRIALS,
            num_angles=FALSIFY_NUM_ANGLES,
            tol=tol,
            seed=rng.integers(2**63),
        )
        pass_kind = None
        if report.passed:
            passes += 1
            cls = classify_preserver(phi, tol=tol)
            pass_kind = "matches_canonical" if cls.verdict != "not_a_preserver" else "defect_below_tol"
        results.append(
            FalsifyResult(
                index=index,
                defect=report.max_support_defect,
                verdict=report.verdict,
                pass_kind=pass_kind,
            )
        )
    return FalsifySummary(shape=shape, count=count, tol=tol, passes=passes, results=results)


# ---------------------------------------------------------------------------
# JSON payloads for reports.
# ---------------------------------------------------------------------------

def verification_to_payload(report: VerificationReport) -> dict:
    return {
        "trials": report.trials,
        "num_angles": report.num_angles,
        "tol": report.tol,
        "max_support_defect": report.max_support_defect,
        "verdict": report.verdict,
        "witnesses": [
            {
                "a": matrix_to_payload(w.a),
                "b": matrix_to_payload(w.b),
                "theta": w.theta,
                "defect": w.defect,
            }
            for w in report.witnesses
        ],
    }


def classification_to_payload(report: ClassificationReport) -> dict:
    def match_payload(m: CandidateMatch) -> dict:
        return {
            "varphi": m.varphi,
            "affine": m.affine,
            "residual": m.residual,
            "unitary": matrix_to_payload(m.unitary),
        }

    return {
        "verdict": report.verdict,
        "matched": match_payload(report.matched) if report.matched else None,
        "all_matches": [match_payload(m) for m in report.all_matches],
        "choi_gaps": dict(sorted(report.choi_gaps.items())),
    }


def falsify_to_payload(summary: FalsifySummary) -> dict:
    return {
        "m": summary.shape.m,
        "n": summary.shape.n,
        "k": summary.shape.k,
        "count": summary.count,
        "tol": summary.tol,
        "passes": summary.passes,
        "results": [
            {
                "index": r.index,
                "defect": r.defect,
                "verdict": r.verdict,
                "pass_kind": r.pass_kind,
            }
            for r in summary.results
        ],
    }
