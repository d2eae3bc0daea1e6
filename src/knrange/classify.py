"""Deciding whether a linear map preserves W_k on tensor products, and which
canonical form it is.

Verification is statistical: random factor pairs (A, B), all drawn in one
call. A pass whose trials' rotated Hermitian-part spectra agree to rounding
at d + 1 nodes, which fix them at every angle, is certified by them; a fail
that the witness trial shows at theta = 0 or pi is decided there; every
other map has the support functions of A x B and Phi(A x B) compared on a
shared angle grid (:func:`verify_preserver`).
Classification is exact up to tolerance: composing Phi, or for an affine
candidate its input-trace reflection X -> (tr X / k) I - Phi(X), with each
candidate varphi must yield a pure unitary conjugation, which is detected by
its Choi matrix being Hermitian PSD of rank one. A probe first applies Phi
to eight 0/1 inputs and tests whether it is multiplicative or
anti-multiplicative on each factor subalgebra; that admits the candidates
that can match, for a canonical form its own alone (and one of the other
kind at m = n = 2), with no Choi matrix (:func:`_admitted_tags`). Each
admitted candidate holds one map-sized working array, the Hermitian part of
its own Choi matrix, written from two axis-transposed views of the map
matrix (if affine, negated and I / k added: the Choi matrix of X -> (tr X) I
is I). Its unitary is read off by one power step and checked against Phi by
a rebuild residual, written and compared through the Choi view a block of
rows at a time; Weyl's inequality then certifies the rank-one gates, and a
Choi spectrum is solved only where it cannot (:func:`classify_preserver`).

The random falsifier draws each map's Choi matrix as a scaled Gaussian
Hermitian matrix, from one real normal per real degree of freedom, projected
onto the unital, trace-preserving maps, O((mn)^4) with no matrix product
(:func:`_random_constrained_choi`). It classifies each draw at
FALSIFY_REJECT_TOL; the probe turns a random draw away with no Choi matrix.
A kept map is checked on its witness trial at theta = 0 and pi alone, by
the same stage as a verify's, and verified on all FALSIFY_TRIALS only if
that passes (:func:`falsify_random`).

Trial 0 of every verify is the witness pair, two zero-padded weighted
shifts, or E_11 x E_11, whose A x B has rotated spectra in closed form
(:func:`_witness_spectra`): a fail that trial 0 decides, a falsify op among
them, solves one matrix, its image at theta = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    BipartiteShape,
    _GINIBRE_SCALE,
    _VARPHI_AXES,
    _check_int,
    _check_tol,
    matrix_to_payload,
    max_abs,
)
from .maps import (
    UNITARITY_TOL,
    LinearMapMatrix,
    _choi_view,
    _unitarity_defect,
    _write_choi,
    apply_map_batch,
    canonical_forms,
    map_from_choi,
)
from .ranges import (
    DEFAULT_NUM_ANGLES,
    DEFAULT_RTOL,
    _angle_grid,
    _top_means,
    _uniform_grid,
    support_values_batch,
)
from . import ranges  # the kernel is looked up at each call, as in support_values_batch

DEFAULT_TRIALS = 50
MAX_TRIALS = 10_000  # the reason is in verify_preserver's docstring
# Internal verification settings for the falsifier: random non-canonical maps
# fail by O(1) margins, so a coarse grid and few trials suffice. Each kept map
# is checked on its witness trial at theta = 0 and pi first, and only a pass
# there runs all FALSIFY_TRIALS (see falsify_random).
FALSIFY_TRIALS = 8
FALSIFY_NUM_ANGLES = 120
FALSIFY_REJECT_TOL = 1e-6
# verify_preserver's spectral certificate is capped at this many d * eps.
_SPECTRAL_SLACK = 64
# The classifier's passes over a map-sized matrix (the rank-one subtraction,
# the rebuild residual) work in blocks of about this many bytes: one block for
# a map up to d = 13. A block holds at least one row, which for the residual
# is d^3 entries of the Choi view: more than this from d = 33, 4 MiB at d = 64.
_BLOCK_BYTES = 2**19
_EPS = float(np.finfo(float).eps)


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
    decided_by: str = "grid"  # "spectra" | "witness" | "grid"; not in the JSON payload

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
    verdict: str  # "classified" | "not_a_preserver"
    matched: CandidateMatch | None
    choi_gap_bounds: dict[str, float] = field(default_factory=dict)


def counterexample_matrices(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A, B): weighted shift X = [[0,3,0],[0,0,1],[0,0,0]] zero-padded
    to m x m and n x n (:func:`counterexample_spectra` gives the spectra)."""
    _check_int("m", m, 3)
    _check_int("n", n, 3)
    a = np.zeros((m, m), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[0, 1] = b[0, 1] = 3.0
    a[1, 2] = b[1, 2] = 1.0
    return a, b


def counterexample_spectra(mn: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of Herm(A x B) and Herm(A x B^t), mn = m n, for the
    pair of :func:`counterexample_matrices` (see :mod:`knrange.checks`)."""
    ab, abt, r, s = np.zeros(mn), np.zeros(mn), np.sqrt(41 / 2), np.sqrt(4.5)
    ab[:3], ab[-3:] = (-r, -1.5, -1.5), (1.5, 1.5, r)
    abt[:3], abt[-3:] = (-4.5, -s, -0.5), (0.5, s, 4.5)
    return ab, abt


def _witness_pair(shape: BipartiteShape) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic first trial: the counterexample pair when both factors are
    at least 3x3 (it separates the partial transposes), else E_11 x E_11."""
    if shape.has_counterexample:
        return counterexample_matrices(shape.m, shape.n)
    a = np.zeros((shape.m, shape.m), dtype=complex)
    b = np.zeros((shape.n, shape.n), dtype=complex)
    a[0, 0] = 1.0
    b[0, 0] = 1.0
    return a, b


def _trial_pairs(
    shape: BipartiteShape, trials: int, seed
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor stacks a (trials, m, m) and b (trials, n, n), and their Kronecker
    products xs (trials, mn, mn).

    Trial 0 is the witness pair. Every later trial takes 2m^2 + 2n^2
    standard normals, read as Re A, Im A, Re B, Im B; each factor is the
    Ginibre matrix (Re + i Im) / sqrt(2), each part scaled as in
    :func:`knrange.matcore._ginibre`, Hermitised on the odd trials. All of
    them come from one draw, which consumes the generator's stream in the
    order that per-trial random_hermitian / random_complex calls would, and
    the arithmetic is theirs entry by entry, so the stacks are bitwise those
    of the per-trial calls. xs is one broadcast product, bitwise np.kron.
    """
    m, n = shape.m, shape.n
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((trials - 1, 2 * m * m + 2 * n * n))
    re_a, im_a, re_b, im_b = np.split(draws, [m * m, 2 * m * m, 2 * m * m + n * n], axis=1)
    a = np.empty((trials, m, m), dtype=complex)
    b = np.empty((trials, n, n), dtype=complex)
    a[0], b[0] = _witness_pair(shape)
    a.real[1:] = (re_a * _GINIBRE_SCALE).reshape(-1, m, m)
    a.imag[1:] = (im_a * _GINIBRE_SCALE).reshape(-1, m, m)
    b.real[1:] = (re_b * _GINIBRE_SCALE).reshape(-1, n, n)
    b.imag[1:] = (im_b * _GINIBRE_SCALE).reshape(-1, n, n)
    for f in (a, b):  # Hermitian parts on trials 1, 3, 5, ...
        f[1::2] = (f[1::2] + f[1::2].conj().transpose(0, 2, 1)) / 2
    xs = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(trials, m * n, m * n)
    return a, b, xs


def _witness_spectra(shape: BipartiteShape, angles: np.ndarray) -> np.ndarray:
    """Ascending spectra of Herm(e^{-i theta} X), X the witness product A x B,
    at the angles ranges._rotated_eigs solves of `angles`: a (1, solved, mn)
    array, in closed form.

    A weighted shift S has D S D* = e^{-i phi} S, D = diag(1, e^{i phi}, ...)
    (Shields, 1974), so for the counterexample pair e^{-i theta} X is unitarily
    similar to X: counterexample_spectra's spectrum at every angle, within
    8 d eps of the kernel's. E_11 x E_11 is Hermitian: cos(theta) (0, .., 0, 1),
    reversed where cos(theta) < 0, bitwise as the kernel computes it."""
    solved = angles[:len(angles) // 2] if ranges._is_antipodal_grid(angles) else angles
    if shape.has_counterexample:
        return counterexample_spectra(shape.dim)[0][None, None].repeat(len(solved), axis=1)
    cos, d = np.cos(solved), shape.dim  # cos(theta) times e_d, or e_1 where cos(theta) < 0
    return (cos[:, None] * np.eye(d)[np.where(cos < 0.0, 0, d - 1)])[None]


def _spectral_defects(xs: np.ndarray, ys: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """Per trial, :func:`_spectral_gaps` at the nodes pi j / (d + 1), j = 0..d,
    the solved half of the uniform grid of 2 (d + 1) angles; trial 0's A x B
    side is in closed form, not solved."""
    angles = _uniform_grid(2 * (shape.dim + 1))
    wx = _witness_spectra(shape, angles)
    if len(xs) > 1:
        wx = np.concatenate([wx, ranges._rotated_eigs(xs[1:], angles)])
    return _spectral_gaps(xs, wx, ranges._rotated_eigs(ys, angles), shape, angles[:wx.shape[1]])


def _spectral_gaps(xs: np.ndarray, wx: np.ndarray, wy: np.ndarray, shape: BipartiteShape,
                   angles: np.ndarray) -> np.ndarray:
    """Per trial, max |w_x - w_y| / (1 + max |w_x|, |w_y|) over the solved
    angles, w_x, w_y the spectra of Herm(e^{-i theta} X), X in xs, and of its
    image; at mn = 2k the smaller of that and the same with
    Re(e^{-i theta} tr X) / k - w_x reversed (the reflected branch)."""
    scale = 1.0 + np.maximum(np.abs(wx).max(axis=(1, 2)), np.abs(wy).max(axis=(1, 2)))
    gap = np.abs(wx - wy).max(axis=(1, 2))
    if shape.is_half:
        shift = (np.exp(-1j * angles) * np.trace(xs, axis1=1, axis2=2)[:, None]).real / shape.k
        gap = np.minimum(gap, np.abs(shift[..., None] - wx[..., ::-1] - wy).max(axis=(1, 2)))
    return gap / scale


def _support_defects(hx: np.ndarray, hy: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the grid defect, max |hx - hy| / (1 + max |hx|, |hy|), and its
    witness angle's index: the first within rounding (_SPECTRAL_SLACK d eps,
    relative) of the max, so that a tie is not rounding's pick."""
    gaps = np.abs(hx - hy)
    scales = 1.0 + np.maximum(np.abs(hx).max(axis=1), np.abs(hy).max(axis=1))
    peaks = gaps.max(axis=1)
    first = (gaps >= (peaks - _SPECTRAL_SLACK * d * _EPS * scales)[:, None]).argmax(axis=1)
    return peaks / scales, first


def _witness_defect(phi: LinearMapMatrix) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Trial 0 of any verify of Phi, at theta = 0 and pi alone: the grid
    defect on those two angles (:func:`_support_defects`), its witness angle,
    and the (1, 1, mn) theta = 0 spectra of A x B, in closed form
    (:func:`_witness_spectra`), and of its image, the one matrix solved."""
    shape, zero = phi.shape, np.zeros(1)
    wx = _witness_spectra(shape, zero)
    wy = ranges._rotated_eigs(apply_map_batch(phi, np.kron(*_witness_pair(shape))[None]), zero)
    supports = _top_means(np.concatenate([wx, wy]), shape.k, True)  # rows: A x B, image
    defects, first = _support_defects(supports[:1], supports[1:], shape.dim)
    return float(defects[0]), (0.0, np.pi)[int(first[0])], wx, wy


def verify_preserver(
    phi: LinearMapMatrix,
    trials: int = DEFAULT_TRIALS,
    num_angles: int = DEFAULT_NUM_ANGLES,
    tol: float = DEFAULT_RTOL,
    seed=0,
) -> VerificationReport:
    """Check W_k(Phi(A x B)) = W_k(A x B) on seeded witness plus random pairs.

    Trial 0 uses the deterministic witness pair, its A x B side in closed
    form (:func:`_witness_spectra`), and goes first, at theta = 0 alone, with
    one solve, its image's (:func:`_witness_defect`). Later trials alternate
    Hermitian and fully complex pairs, drawn after it in one call
    (:func:`_trial_pairs`), so a fail there draws none.

    If its spectra agree there, every trial is checked at the nodes
    pi j / (d + 1), j = 0..d (:func:`_spectral_defects`): the trace of
    Herm(e^{-i theta} X)^j has degree j <= d = mn in theta, so d + 1 angles
    distinct mod pi fix the spectrum at every angle (Kippenhahn), and a
    canonical preserver keeps it (or at mn = 2k reflects it:
    Re(e^{-i theta} tr X) / k minus it, reversed). If each defect is at most
    the rounding cap min(tol, _SPECTRAL_SLACK d eps), since agreement within
    tol proves nothing between the nodes, the report is a pass decided_by
    "spectra" with no witnesses, and num_angles is only echoed. Its
    max_support_defect is the largest spectral defect; times 1 + a trial's
    largest |eigenvalue| it bounds the trial's support gap at each node and
    antipode, for every k (k = mn/2 on the reflected branch).

    If they disagree, the same spectra give trial 0's supports at theta = 0
    and pi; a grid defect above tol there is a fail decided_by "witness",
    with that defect and trial 0 alone as witness, at 0 or pi. Every even
    grid holds both angles, so the defect is at most the grid's; where both
    sides are disks about 0 (the partial transposes at min(m, n) >= 3) it is
    trial 0's on the whole grid.

    Every other report is the grid's: the per-trial defect is the max over
    the angle grid of the support-function discrepancy, relative to 1 + the
    larger support magnitude, and each trial above tol is a witness at the
    least angle within rounding of its largest gap (:func:`_support_defects`).
    The two sides are solved in byte-bounded batches (see :mod:`knrange.ranges`).

    trials is at most MAX_TRIALS, 200 times DEFAULT_TRIALS. Every trial is
    held at once: at mn = 16 and 360 angles one costs about 17 KB (its A x B
    and Phi(A x B) and three support grids), so MAX_TRIALS take 0.17 GB.
    A map that is not a preserver fails on the witness pair, nearly always
    at theta = 0 or pi, or within a few random trials, so more buy nothing.
    """
    _check_int("trials", trials, 1, MAX_TRIALS)
    _check_tol(tol)
    shape = phi.shape
    angles = _angle_grid(num_angles)
    cap = min(tol, _SPECTRAL_SLACK * shape.dim * _EPS)
    defect, theta, wx, wy = _witness_defect(phi)
    pair = _witness_pair(shape)
    agree = _spectral_gaps(np.kron(*pair)[None], wx, wy, shape, np.zeros(1))[0] <= cap
    if not agree and defect > tol:
        return VerificationReport(trials, defect, [TrialWitness(*pair, theta, defect)], "fail",
                                  tol, num_angles, decided_by="witness")
    a, b, xs = _trial_pairs(shape, trials, seed)
    ys = apply_map_batch(phi, xs)
    if agree:
        spectral = float(_spectral_defects(xs, ys, shape).max())
        if spectral <= cap:
            return VerificationReport(trials, spectral, [], "pass", tol, num_angles,
                                      decided_by="spectra")
    witness = _witness_spectra(shape, angles)
    hx = _top_means(witness, shape.k, witness.shape[1] < num_angles)
    if trials > 1:
        hx = np.concatenate([hx, support_values_batch(xs[1:], shape.k, angles)])
    hy = support_values_batch(ys, shape.k, angles)

    defects, first = _support_defects(hx, hy, shape.dim)
    witnesses = [TrialWitness(a[t].copy(), b[t].copy(), float(angles[first[t]]), float(defects[t]))
                 for t in np.nonzero(defects > tol)[0]]
    max_defect = float(defects.max())
    return VerificationReport(trials, max_defect, witnesses,
                              "pass" if max_defect <= tol else "fail", tol, num_angles)


def _normalize_phase(u: np.ndarray) -> np.ndarray:
    """Make the first entry of largest modulus real positive (u is not 0: ||v|| = 1)."""
    pivot = u.flat[int(np.argmax(np.abs(u)))]
    return u * (abs(pivot) / pivot)


def _frobenius(a: np.ndarray) -> float:
    """||a||_F as one einsum over the float view: no BLAS call, so unlike
    np.linalg.norm's threaded dot its bits do not depend on the thread count."""
    x = a.reshape(-1).view(np.float64)
    return math.sqrt(float(np.einsum("i,i->", x, x)))


def _rank_one_fit(herm: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Fit lam vv* to a Hermitian (d^2, d^2) herm = c uu* + E, c > 0, E small.

    v is the unit top eigenvector, up to phase, by one power step: herm times
    its column of largest diagonal entry. That column is c conj(u_j) u plus a
    column of E, and the step squares the ratio of the E part to the u part.
    Returns v, lam = v* herm v and ||herm - lam vv*||_F, the norm of herm
    overwritten with herm - lam vv* in row blocks of about _BLOCK_BYTES
    (sqrt(||herm||_F^2 - lam^2) would cancel to about sqrt(eps) ||herm||_F)."""
    j = int(np.argmax(herm.diagonal().real))
    v = herm @ herm[:, j]
    norm = np.linalg.norm(v)
    if norm == 0.0:  # herm[:, j] = 0: e_j is as good a guess as any
        v[j], norm = 1.0, 1.0
    v /= norm
    lam = float(np.vdot(v, herm @ v).real)
    lam_v, v_conj = lam * v, v.conj()
    rows = max(1, _BLOCK_BYTES // herm[0].nbytes)
    for r in range(0, len(v), rows):
        herm[r:r + rows] -= lam_v[r:r + rows, None] * v_conj
    return v, lam, _frobenius(herm)


def _rebuild_residual(phi: LinearMapMatrix, u: np.ndarray, tag: str, affine: bool) -> float:
    """max|Phi - rebuild|, entrywise, with the rebuild the map matrix of the
    canonical form (tag, U, affine): bitwise max_abs of the difference with
    build_canonical's matrix. Both are compared through their Choi view
    (maps._choi_view), the rebuild written a block of rows i of about
    _BLOCK_BYTES at a time (maps._write_choi), so no map-sized copy of it is
    held."""
    shape, d = phi.shape, phi.shape.dim
    view = _choi_view(phi.matrix, shape, tag)
    rows = max(1, _BLOCK_BYTES // (phi.matrix.itemsize * d ** 3))
    residual = 0.0
    for i0 in range(0, d, rows):
        i = slice(i0, i0 + rows)
        target = view[:, :, i]
        block = np.empty(target.shape, dtype=complex)
        _write_choi(block, u, shape, affine, i)
        np.subtract(target, block, out=block)
        residual = max(residual, max_abs(block))
    return residual


def _hermitian_choi(phi: LinearMapMatrix, tag: str, affine: bool) -> np.ndarray:
    """H, the Hermitian part of the candidate's Choi matrix C, of Psi o varphi
    with Psi = Phi, or (tr / k) I - Phi if affine: C* written into memory of
    its own from a view of the map matrix (maps._choi_view), C added from
    another, then halved; bitwise hermitian_part of a copied C.

    Affine: X -> (tr X) I has the Choi matrix I, and varphi keeps traces, so
    C = I / k - Choi(Phi o varphi), and H is I / k minus the plain H. It is
    written as (2 I / k - C* - C) / 2, with the negated views summed as
    hermitian_part sums the entries of the reflected copy."""
    shape, d = phi.shape, phi.shape.dim
    view = _choi_view(phi.matrix, shape, tag)
    herm = np.empty((d * d, d * d), dtype=complex)
    h6 = herm.reshape(view.shape)
    np.conjugate(view.transpose(3, 4, 5, 0, 1, 2), out=h6)
    if affine:
        np.negative(herm, out=herm)
        h6 -= view
        herm.reshape(-1)[::d * d + 1] += 2 / shape.k
    else:
        h6 += view
    herm /= 2
    return herm


@functools.lru_cache(maxsize=64)
def _probe_supports(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec indices of the ones of the probe's eight 0/1 inputs, concatenated;
    the offset of each input's run of them; and per factor the run length,
    ||X||_F^2 = ||Y||_F^2 = tr XY = tr YX. Cached per shape (building them
    takes several per cent of a small classify), so they are read-only.

    Per factor, left then right: X = S x I (I x S), Y = X^T, XY and YX, with
    S = sum_i E_{i,i+1} the factor's shift. For the left factor a position p
    of X's rows has a partner p + n in the next block row, for the right one
    p + 1; lo holds the positions that have a partner. X has its ones at
    (lo, lo + step), Y at (lo + step, lo), XY and YX on the diagonal at lo
    and lo + step, and (row r, column c) is vec index c d + r.
    """
    d = m * n
    runs = []
    for lo, step in ((np.arange((m - 1) * n), n),
                     ((np.arange(m)[:, None] * n + np.arange(n - 1)).ravel(), 1)):
        hi = lo + step
        runs += [hi * d + lo, lo * d + hi, lo * (d + 1), hi * (d + 1)]
    starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
    arrays = np.concatenate(runs), starts, np.array([(m - 1) * n, m * (n - 1)])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _probe_allowance(d: int, tol: float) -> float:
    """The probe's tau per unit of ||X||_F ||Y||_F (see :func:`_admitted_tags`)."""
    delta = d * d * (tol + 4 * _EPS)
    nu = d * (UNITARITY_TOL + 2 * d * _EPS)
    size = 2 + nu + delta
    return (1 + nu) * (nu + 2 * delta) + delta * (1 + delta) + 4 * d * d * _EPS * size * size


def _admitted_tags(phi: LinearMapMatrix, tol: float) -> list[tuple[str, bool]]:
    """The (varphi tag, affine) candidates, in maps.canonical_forms order,
    that classify_preserver's Choi pass may match; O(d^3), no Choi matrix.

    The probe. Every varphi is multiplicative or anti-multiplicative on each
    factor subalgebra, A x I and I x B: it transposes the left factor iff
    its axes in matcore._VARPHI_AXES move axis 0 (t and pt_left), and the right
    one iff they move axis 1 (t and pt_right). So a candidate's
    Psi = U varphi(.) U* (Psi = Phi plain, (tr / k) I - Phi affine) has
    Psi(X) Psi(Y) = Psi(XY), or Psi(YX) where varphi transposes, for X, Y
    in either subalgebra. The probe takes the pair X = S x I, Y = X^T on the
    left and I x S, its transpose on the right (:func:`_probe_supports`):
    0/1 matrices, so each image is a sum of map-matrix columns. X and Y are
    traceless, so Psi(X) Psi(Y) = Phi(X) Phi(Y) for both kinds. Per kind and
    factor it scores ||Psi(X) Psi(Y) - Psi(XY)||_F and the same with YX;
    a candidate is admitted when both of the scores its varphi calls for
    are at most tau = ||X||_F ||Y||_F a(d, tol), ||X||_F ||Y||_F the number
    of ones of XY.

    tau is sound: every candidate that the Choi pass matches is admitted.
    A match reads off U with max|U*U - I| <= UNITARITY_TOL and rebuilds Phi
    entrywise within tol. With the rounding of U*U (d terms) and of the
    rebuild's products and 1/k, F = U*U - I then has ||F||_2 <= ||F||_F <=
    nu = d (UNITARITY_TOL + 2 d eps), so ||U||_2^2 <= 1 + nu; and
    Psi = Phi' + E, Phi'(Z) = U varphi(Z) U* (E negated if affine) with
    every |E_ij| <= tol + 4 eps, so ||E(Z)||_F <= delta ||Z||_F, delta =
    d^2 (tol + 4 eps). With varphi(X) varphi(Y) = varphi(XY) (or varphi(YX)),
    the score is the norm of
        U varphi(X) F varphi(Y) U* + Phi'(X) E(Y) + E(X) Phi'(Y)
        + E(X) E(Y) - E(XY),
    and ||varphi(Z)||_2 <= ||Z||_F, ||XY||_F <= ||X||_F ||Y||_F bound it by
    ||X||_F ||Y||_F ((1 + nu)(nu + 2 delta) + delta (1 + delta)). The
    computed score adds the rounding of the column sums (fewer than d
    terms), the product (d terms), the trace term and the norm, each a few
    d eps times sizes that for a match are at most (2 + nu + delta)
    ||X||_F ||Y||_F: a(d, tol) adds 4 d^2 eps (2 + nu + delta)^2 for them
    (:func:`_probe_allowance`). At tol = 1e-8 and d = 16, tau is below
    1e-4 ||X||_F ||Y||_F.

    A candidate of the wrong type scores about ||XY - YX||_F = sqrt(2 n)
    (left; sqrt(2 m) right), at least 2. One exception: on a 2 x 2 factor,
    XY + YX = I, so the reflection swaps the types: at m = n = 2 a form of
    one kind also admits a candidate of the other, and both run.
    """
    shape = phi.shape
    d = shape.dim
    supports, starts, ones = _probe_supports(shape.m, shape.n)
    sums = np.add.reduceat(phi.matrix[:, supports], starts, axis=1)
    # images[f, t]: the transpose of Phi(input t of factor f), t over X, Y, XY, YX
    images = sums.T.reshape(2, 4, d, d)
    product = images[:, 1] @ images[:, 0]  # transposes of Phi(X) Phi(Y)
    kinds = 2 if shape.is_half else 1
    diffs = np.empty((kinds, 2, 2, d, d), dtype=complex)  # [kind, factor, type]
    np.subtract(product[:, None], images[:, 2:], out=diffs[0])
    if kinds == 2:
        np.add(product[:, None], images[:, 2:], out=diffs[1])
        diffs[1].reshape(2, 2, d * d)[..., ::d + 1] -= (ones / shape.k)[:, None, None]
    parts = diffs.reshape(kinds, 2, 2, -1).view(np.float64)
    scores = np.sqrt(np.einsum("...i,...i->...", parts, parts))
    # A score that overflowed to nan excludes nothing.
    excluded = scores > (ones * _probe_allowance(d, tol))[:, None]
    return [(tag, affine) for tag, affine in canonical_forms(shape)
            if not (excluded[int(affine), 0, int(_VARPHI_AXES[tag][0] != 0)]
                    or excluded[int(affine), 1, int(_VARPHI_AXES[tag][1] != 1)])]


def classify_preserver(phi: LinearMapMatrix, tol: float = DEFAULT_RTOL) -> ClassificationReport:
    """Identify the canonical form of a map and recover its unitary.

    For each candidate (varphi, affine): Psi o varphi^{-1} (each varphi is an
    involution), with Psi = Phi, or (tr / k) I - Phi if affine, must be
    X -> U X U*. Its Choi matrix then is Hermitian PSD rank one,
    vec(U) vec(U)*, with top eigenvalue d = mn.

    A probe of Phi on eight 0/1 inputs admits every candidate that can
    match, for a canonical form its own alone but at m = n = 2
    (:func:`_admitted_tags`); only those go through the Choi pass.

    One loop over the admitted candidates. Each writes H, the Hermitian part
    of its Choi matrix C and its one map-sized working array, from two views
    of the map matrix (:func:`_hermitian_choi`); C itself is never held.

    A candidate matches when it passes, in turn:
    - the read-off: U = sqrt(d) v.reshape(d, d, order="F"), phase-normalized,
      with v one power step on H (:func:`_rank_one_fit`), is unitary within
      maps.UNITARITY_TOL;
    - the rebuild from U equals Phi entrywise within tol (on the vec basis,
      which is the matrix unit tensor products), compared through their
      Choi views a block of rows at a time (:func:`_rebuild_residual`);
    - the rank-one gates max(|w_2nd|, |w_min|) <= tol d and |w_max - d| <= tol d
      on the spectrum w of H. With lam = v* H v and E = H - lam vv*, every
      eigenvalue of H is within ||E||_2 <= ||E||_F of the spectrum
      {lam, 0, ..., 0} (Weyl), so ||E||_F <= tol d and
      |lam - d| + ||E||_F <= tol d certify both. Only where they do not is H
      solved, by one eigvalsh.
    The rebuild implies that C is Hermitian within tol d, so that is no gate
    of its own. The rebuild's Choi matrix is exactly Hermitian, and C differs
    from it by an entry permutation of Phi minus the rebuild, negated if
    affine (the I / k terms cancel), whose entries are at most tol. So the
    matched candidate has max|C - C*| <= 2 tol for both kinds, below tol d
    as d = mn >= 4.
    choi_gap_bounds holds (||E||_F + max(0, -lam)) / d per admitted
    candidate, by the same argument a bound on the gap
    max(|w_2nd|, |w_min|) / d, or that exact gap for a candidate that was
    solved.

    At most one candidate can match. Two matches of the same kind (the
    reflection is invertible) would make the product of two distinct varphi a
    unitary similarity, which none is. A plain plus an affine match would give
    the image of E_11 the spectra {1, 0, ...} and {1/k - 1, 1/k, ...}, equal
    only at mn = 2.
    """
    _check_tol(tol)
    d = phi.shape.dim
    bounds: dict[str, float] = {}
    matched: CandidateMatch | None = None
    for tag, affine in _admitted_tags(phi, tol):
        key = f"{tag}+affine" if affine else tag
        herm = _hermitian_choi(phi, tag, affine)
        v, lam, spread = _rank_one_fit(herm)
        del herm  # overwritten by the fit; freed before any other candidate's
        bounds[key] = (spread + max(0.0, -lam)) / d
        u = _normalize_phase(v.reshape(d, d, order="F").copy() * np.sqrt(d))
        if _unitarity_defect(u) > UNITARITY_TOL:
            continue  # recovered matrix not unitary enough: near-miss, no match
        residual = _rebuild_residual(phi, u, tag, affine)
        if residual > tol:
            continue
        if abs(lam - d) + spread > tol * d:  # the bound cannot decide
            w = np.linalg.eigvalsh(_hermitian_choi(phi, tag, affine))
            bounds[key] = max(abs(float(w[-2])), abs(float(w[0]))) / d
            if bounds[key] > tol or abs(float(w[-1]) - d) > tol * d:
                continue
        matched = CandidateMatch(varphi=tag, affine=affine, unitary=u, residual=residual)

    verdict = "not_a_preserver" if matched is None else "classified"
    return ClassificationReport(verdict=verdict, matched=matched, choi_gap_bounds=bounds)


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
    decided_by: str = "trials"  # "witness" | "trials"; not in the JSON payload


@dataclass(frozen=True)
class FalsifySummary:
    shape: BipartiteShape
    count: int
    tol: float
    passes: int
    results: list[FalsifyResult]


def _project_marginals(choi: np.ndarray, d: int) -> np.ndarray:
    """Orthogonal projection of a C-contiguous Hermitian Choi matrix onto the
    affine subspace {Tr_1 C = I (unital), Tr_2 C = I (trace-preserving)}, in
    place.

    Solves C' = C + I x Y1 + Y2 x I for the marginal residuals in closed form;
    Hermiticity is preserved because the residuals are Hermitian. I x Y1 adds
    Y1 to each diagonal block and Y2 x I adds Y2[p, q] to the diagonal of
    block (p, q), in that order, as the two Kronecker sums would. Returns choi.
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
    diag = np.arange(d)
    c4[diag, :, diag, :] += y1
    c4[:, diag, :, diag] += y2
    return choi


def _random_constrained_choi(shape: BipartiteShape, rng: np.random.Generator) -> np.ndarray:
    """Choi matrix of a random unital, trace-preserving, Hermiticity-preserving
    map: P(Z / d^2), d = mn, with Z a (d^2, d^2) Gaussian Hermitian matrix
    with unit-variance entries and P the marginal projection
    (:func:`_project_marginals`).

    Z = ((1 + i) R + (1 - i) R^T) / 2 for one real standard-normal draw R,
    d^4 normals for the d^4 real degrees of freedom of Z: its real part
    (R + R^T) / 2 and imaginary part (R - R^T) / 2 are written straight into
    the Choi array, then scaled. Its diagonal is R's, real N(0, 1); off it
    the two parts are independent N(0, 1/2), since R_ij + R_ji and R_ij - R_ji
    are uncorrelated. That is the law of (G + G*) / sqrt(2) for a Ginibre G
    with unit-variance entries, from half the normals. Z is exactly Hermitian
    (R_ij + R_ji is R_ji + R_ij, and R_ij - R_ji is -(R_ji - R_ij), in
    floating point too), so the map is Hermiticity-preserving.

    Entry by entry, Z / d^2 is the central limit of the fluctuation of the
    trace-normalised Wishart draw W d / tr W, W = G G*: each entry of
    W d / tr W is that of I / d + Z / d^2 plus smaller terms (the spectra
    differ: semicircle, not Marchenko-Pastur). The projection supplies the
    I / d exactly. P is
    affine: P(C) = P(0) + Pi(C), Pi the orthogonal projection onto the
    marginal-free directions {X : Tr_1 X = Tr_2 X = 0}. Those are traceless,
    so I is orthogonal to them, and I / d has both marginals I: P(0) = I / d,
    and P(Z / d^2) = I / d + Pi(Z) / d^2. The draw is O(d^4) work with no
    matrix product, where G G* is O(d^6), and holds R and the Choi array,
    about 1.5 Choi-sized arrays. It is not positive semidefinite, and no check
    needs it to be."""
    d = shape.dim
    r = rng.standard_normal((d * d, d * d))
    choi = np.empty(r.shape, dtype=complex)  # C-contiguous, as the projection needs
    np.add(r, r.T, out=choi.real)
    np.subtract(r, r.T, out=choi.imag)
    choi *= 1 / (2 * d * d)
    return _project_marginals(choi, d)


def falsify_random(
    shape: BipartiteShape,
    count: int,
    seed=0,
    tol: float = DEFAULT_RTOL,
) -> FalsifySummary:
    """Generate `count` random unital, trace-preserving, Hermiticity-preserving
    maps that are not of canonical form, and verify each. Expected: 0 passes.

    Each map's Choi matrix is the projection of Z / (mn)^2, Z a Gaussian
    Hermitian matrix with unit-variance entries, onto the unital,
    trace-preserving maps (:func:`_random_constrained_choi`). A draw is
    (mn)^4 real normals and O((mn)^4) work, with no BLAS call.

    Candidates within FALSIFY_REJECT_TOL of a canonical form are redrawn: a
    draw is kept when classify_preserver(phi, FALSIFY_REJECT_TOL) says
    "not_a_preserver", which for a random draw its probe decides with no
    Choi matrix (:func:`_admitted_tags`).

    A kept map is checked on the first stage of its FALSIFY_TRIALS verify
    alone (:func:`_witness_defect`): trial 0, its image solved at theta = 0,
    compared at theta = 0 and pi by the grid's defect formula. Random draws
    fail there by an O(1) margin: the result is then a "fail" decided_by
    "witness", with that defect, as that verify would report. Where
    min(m, n) <= 2 it is bitwise trial 0's grid defect, since the Hermitian
    E_11 x E_11 image makes both support functions scale with |cos theta|.
    Only a pass there runs the FALSIFY_TRIALS verify, whose verdict and
    largest defect decide ("trials"). The witness pair's own spectrum is in
    closed form (:func:`_witness_spectra`), so an op that the witness decides
    solves one matrix of order mn.

    A pass is a reportable finding, not an assertion failure; the result
    records whether the passing map secretly classified as canonical or
    merely kept its defect below tol.
    """
    _check_int("count", count, 0)
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    results: list[FalsifyResult] = []
    passes = 0
    for index in range(count):
        for _ in range(64):
            phi = map_from_choi(_random_constrained_choi(shape, rng), shape)
            if classify_preserver(phi, FALSIFY_REJECT_TOL).verdict == "not_a_preserver":
                break
        else:
            raise RuntimeError("could not draw a non-canonical map in 64 attempts")
        trial_seed = rng.integers(2**63)
        defect, verdict, decided_by = _witness_defect(phi)[0], "fail", "witness"
        if defect <= tol:
            report = verify_preserver(
                phi, trials=FALSIFY_TRIALS, num_angles=FALSIFY_NUM_ANGLES, tol=tol, seed=trial_seed
            )
            defect, verdict, decided_by = report.max_support_defect, report.verdict, "trials"
        pass_kind = None
        if verdict == "pass":
            passes += 1
            cls = classify_preserver(phi, tol)
            pass_kind = "matches_canonical" if cls.verdict != "not_a_preserver" else "defect_below_tol"
        results.append(FalsifyResult(index, defect, verdict, pass_kind, decided_by))
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
    m = report.matched
    return {
        "verdict": report.verdict,
        "matched": None if m is None else {
            "varphi": m.varphi,
            "affine": m.affine,
            "residual": m.residual,
            "unitary": matrix_to_payload(m.unitary),
        },
        "choi_gap_bounds": dict(sorted(report.choi_gap_bounds.items())),
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
