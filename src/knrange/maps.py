"""Linear maps on M_{mn} as matrices acting on column-stacked space.

A map Phi is stored as the (mn)^2 x (mn)^2 matrix M with
vec(Phi(X)) = M @ vec(X), using the column-stacking convention declared in
:mod:`knrange.matcore`. The canonical W_k-preserving forms are

    X |-> U varphi(X) U*                      (plain)
    X |-> (tr X / k) I - U varphi(X) U*       (affine, only when mn = 2k)

with varphi one of: identity, full transpose, right partial transpose
(A x B -> A x B^t), left partial transpose (A x B -> A^t x B). The partial
transposes preserve W_k on tensor products exactly when min(m, n) <= 2; they
stay constructible for larger factors so they can serve as negative witnesses.

Every varphi is an involution, so Phi o varphi = U . U* for the plain form,
whose Choi matrix sum_{p,q} E_pq x U E_pq U* is vec(U) vec(U)* (Choi, 1975):
U[i, p] conj(U[j, q]) at [(p, i), (q, j)]. varphi keeps traces and the Choi
matrix of X |-> (tr X) I is I, so for the affine form it is I / k minus
that. The Choi matrix of Phi o varphi is one axis-transposed view of the map
matrix of Phi (:func:`_choi_view`), so a canonical form is built through
that view: its two factors U[i, p] and conj(U[j, q]) are written through it,
each into an array of d^3 entries, and their product is written into the
map matrix's own memory in order (:func:`_canonical_matrix`).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .matcore import (
    BipartiteShape,
    UsageError,
    _VARPHI_AXES,
    _check_int,
    _payload_fields,
    as_matrix,
    matrix_from_payload,
    matrix_to_payload,
    max_abs,
)

VARPHI_TAGS = tuple(_VARPHI_AXES)
UNITARITY_TOL = 1e-10


def preserves_on_tensors(tag: str, shape: BipartiteShape) -> bool:
    """Whether U varphi(.) U* (and its affine variant) preserves W_k on tensor
    products of this shape: always for id and t, for the partial transposes
    only when the shape has no counterexample pair (a factor is at most 2x2)."""
    return tag in ("id", "t") or not shape.has_counterexample


def canonical_forms(shape: BipartiteShape) -> list[tuple[str, bool]]:
    """Every constructible (varphi, affine) pair: the four tags, then their
    affine variants when mn = 2k."""
    forms = [(tag, False) for tag in VARPHI_TAGS]
    if shape.is_half:
        forms += [(tag, True) for tag in VARPHI_TAGS]
    return forms


def _unitarity_defect(u: np.ndarray) -> float:
    """max|U*U - I|, entrywise; a canonical form's unitary keeps it within
    UNITARITY_TOL."""
    return max_abs(u.conj().T @ u - np.eye(len(u)))


@dataclass(frozen=True)
class CanonicalFormSpec:
    """One canonical form: varphi tag, conjugating unitary, affine flag, shape."""

    varphi: str
    unitary: np.ndarray
    affine: bool
    shape: BipartiteShape

    def __post_init__(self):
        if self.varphi not in VARPHI_TAGS:
            raise UsageError(f"varphi must be one of {VARPHI_TAGS}, got {self.varphi!r}")
        u = as_matrix(self.unitary, self.shape.dim, "unitary")
        object.__setattr__(self, "unitary", u)  # nested lists become the checked array
        defect = _unitarity_defect(u)
        if defect > UNITARITY_TOL:
            raise UsageError(f"matrix is not unitary (defect {defect:.3e})")
        if self.affine and not self.shape.is_half:
            raise UsageError(
                f"affine form requires mn = 2k, got mn={self.shape.dim}, k={self.shape.k}"
            )


@dataclass(frozen=True)
class LinearMapMatrix:
    """A general linear map on M_{mn}, shape-tagged."""

    shape: BipartiteShape
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix, self.shape.dim ** 2, "map matrix")
        object.__setattr__(self, "matrix", m)  # nested lists become the checked array


def affine_reflect(x, k: int) -> np.ndarray:
    """X |-> (tr X / k) I - X."""
    _check_int("k", k, 1)
    m = as_matrix(x)
    return (np.trace(m) / k) * np.eye(m.shape[0], dtype=complex) - m


def _write_choi(out: np.ndarray, u: np.ndarray, shape: BipartiteShape, affine: bool,
                rows: slice = slice(None)) -> None:
    """Write rows i of the Choi matrix of X -> U X U*, U[i, p] conj(U[j, q]) at
    [p, i, q, j], or I / k minus that if affine, into out: an (m, n, w, m, n, d)
    array [p, i, q, j] of the rows i in u[rows], as _choi_view splits them."""
    m, n, d = shape.m, shape.n, shape.dim
    np.multiply(u.conj().T.reshape(m, n, d), u[rows].T.reshape(m, n, -1, 1, 1, 1), out=out)
    if affine:
        np.negative(out, out=out)
        _add_identity(out, shape, rows)


def _add_identity(choi: np.ndarray, shape: BipartiteShape, rows: slice) -> None:
    """Add I / k, 1 / k at [p, i, p, i], to the rows i of a Choi array
    [p, i, q, j] (see _write_choi), in place."""
    diagonal = np.einsum("abiabi->abi", choi[..., rows])  # a view: [p, i, p, i]
    diagonal += 1.0 / shape.k


def _canonical_matrix(u: np.ndarray, shape: BipartiteShape, tag: str, affine: bool) -> np.ndarray:
    """The map matrix of the canonical form (tag, U, affine): its Choi view
    (module docstring) holds U[i, p] conj(U[j, q]) at [p, i, q, j].

    The view is strided, and for the partial transposes its innermost axis
    has only n or m entries, so the d^4 products are not written through it.
    Each factor is written through the same view of a d x d^2 array whose
    row index is j alone or i alone (the view's other row axis has length
    one), d^3 entries; the two then multiply, conj(U[j, q]) times U[i, p] as
    in _write_choi, into the map matrix's own memory in order."""
    m, n, d = shape.m, shape.n, shape.dim
    right = np.empty((d, d * d), dtype=complex)  # conj(U[j, q]) in row j
    left = np.empty((d, d * d), dtype=complex)  # U[i, p] in row i
    np.copyto(_choi_view(right, shape, tag, (d, 1)), u.conj().T.reshape(m, n, d))
    np.copyto(_choi_view(left, shape, tag, (1, d)), u.T.reshape(m, n, d, 1, 1, 1))
    mat = np.empty((d * d, d * d), dtype=complex)
    np.multiply(right[:, None], left[None], out=mat.reshape(d, d, d * d))
    if affine:
        np.negative(mat, out=mat)
        _add_identity(_choi_view(mat, shape, tag), shape, slice(None))
    return mat


def build_canonical(spec: CanonicalFormSpec) -> LinearMapMatrix:
    """Map matrix of a canonical form, in closed form (module docstring)."""
    return LinearMapMatrix(
        shape=spec.shape,
        matrix=_canonical_matrix(spec.unitary, spec.shape, spec.varphi, spec.affine),
    )


def varphi_map(shape: BipartiteShape, tag: str) -> LinearMapMatrix:
    """The bare varphi as a map matrix (U = I, no affine part)."""
    eye = np.eye(shape.dim, dtype=complex)
    return LinearMapMatrix(shape, _canonical_matrix(eye, shape, tag, affine=False))


def reflect_map(shape: BipartiteShape) -> LinearMapMatrix:
    """X |-> (tr X / k) I - X as a map matrix. Not a canonical form on its
    own, so there is no mn = 2k gate."""
    eye = np.eye(shape.dim, dtype=complex)
    return LinearMapMatrix(shape, _canonical_matrix(eye, shape, "id", affine=True))


def apply_map_batch(phi: LinearMapMatrix, stack: np.ndarray) -> np.ndarray:
    """Apply the map to a (count, d, d) stack of matrices at once.

    Each image has the same bits whatever count is: numpy multiplies a single
    row by gemv, which rounds differently from the gemm it uses for two rows
    or more, so a stack of one is multiplied as two copies of itself."""
    count, d = stack.shape[0], phi.shape.dim
    vecs = stack.transpose(0, 2, 1).reshape(count, d * d)  # rows are vec(X_t)
    if count == 1:
        vecs = np.repeat(vecs, 2, axis=0)
    out = (vecs @ phi.matrix.T)[:count]
    return out.reshape(count, d, d).transpose(0, 2, 1)


def compose(outer: LinearMapMatrix, inner: LinearMapMatrix) -> LinearMapMatrix:
    if outer.shape != inner.shape:
        raise UsageError("cannot compose maps with different shapes")
    return LinearMapMatrix(shape=outer.shape, matrix=outer.matrix @ inner.matrix)


def _choi_view(mat: np.ndarray, shape: BipartiteShape, tag: str,
               rows: tuple[int, int] | None = None) -> np.ndarray:
    """Choi matrix of Phi o varphi, sum_{p,q} E_pq x Phi(varphi(E_pq)), as a
    (m, n, d, m, n, d) view [p, i, q, j] of the map matrix mat of Phi, p and
    q split into their factor indices. It only splits and permutes axes, so
    no entry is copied, whatever mat's memory order. mat's row index j*d+i
    is split into the sizes `rows` of (j, i), (d, d) by default; an array
    whose rows are indexed by j alone, or by i alone, is split (d, 1) or
    (1, d).

    With row index j*d+i and column index q*d+p, M[(j,i),(q,p)] = Phi(E_pq)[i,j]
    while the Choi entry C[(p,i),(q,j)] equals the same value: for varphi =
    id the Choi matrix is the transpose [p, i, q, j] of the (d, d, d, d) view
    [j, i, q, p] of M. varphi moves the matrix unit E_pq as it moves X's
    entries, by the transpose in _VARPHI_AXES of the (m, n, m, n) view
    [a, b, c, e], p = (a, b), q = (c, e). So the Choi matrix of Phi o varphi
    is one transpose of the (d, d, m, n, m, n) view [j, i, c, e, a, b] of M.
    """
    m, n, d = shape.m, shape.n, shape.dim
    a, b, c, e = ((4, 5, 2, 3)[axis] for axis in _VARPHI_AXES[tag])
    return mat.reshape(*(rows or (d, d)), m, n, m, n).transpose(a, b, 1, c, e, 0)


def _choi_matrix(mat: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """:func:`_choi_view` with varphi = id copied, as a (mn)^2 x (mn)^2 matrix:
    an involution, so applied to a Choi matrix it gives back the map matrix."""
    return _choi_view(mat, shape, "id").copy().reshape(shape.dim ** 2, -1)


def choi_matrix(phi: LinearMapMatrix) -> np.ndarray:
    """sum_{p,q} E_pq x Phi(E_pq), as a (mn)^2 x (mn)^2 matrix.

    For Phi: X -> U X U* this is exactly vec(U) vec(U)* under the
    column-stacking convention: Hermitian, PSD, rank one with eigenvalue mn.
    Computed as an index reshuffle of the map matrix (:func:`_choi_matrix`).
    """
    return _choi_matrix(phi.matrix, phi.shape)


def map_from_choi(choi: np.ndarray, shape: BipartiteShape) -> LinearMapMatrix:
    """Inverse of :func:`choi_matrix` (the reshuffle is an involution)."""
    c = as_matrix(choi, shape.dim ** 2, "Choi matrix")
    return LinearMapMatrix(shape=shape, matrix=_choi_matrix(c, shape))


# ---------------------------------------------------------------------------
# File formats.
# Map file:       {"m", "n", "k", "dim": (mn)^2, "entries": [[re, im], ...]}
# Descriptor:     {"varphi": "id|t|pt_right|pt_left", "affine": bool,
#                  "unitary": <matrix payload> or "identity"}
# A malformed payload raises UsageError naming what is wrong (see
# matcore.matrix_from_payload).
# ---------------------------------------------------------------------------

MAP_KEYS = ("m", "n", "k", "dim", "entries")
DESCRIPTOR_KEYS = ("varphi", "affine", "unitary")


def map_to_payload(phi: LinearMapMatrix) -> dict:
    payload = matrix_to_payload(phi.matrix)
    return {
        "m": phi.shape.m,
        "n": phi.shape.n,
        "k": phi.shape.k,
        "dim": payload["dim"],
        "entries": payload["entries"],
    }


def map_from_payload(payload: dict) -> LinearMapMatrix:
    m, n, k, dim, entries = _payload_fields(payload, "map payload", MAP_KEYS)
    shape = BipartiteShape(m=m, n=n, k=k)
    if dim != shape.dim ** 2:
        raise UsageError(
            f"declared dim {reprlib.repr(dim)} does not equal (mn)^2 = {shape.dim ** 2}")
    matrix = matrix_from_payload({"dim": dim, "entries": entries})
    return LinearMapMatrix(shape=shape, matrix=matrix)


def descriptor_to_payload(spec: CanonicalFormSpec) -> dict:
    return {
        "varphi": spec.varphi,
        "affine": spec.affine,
        "unitary": matrix_to_payload(spec.unitary),
    }


def descriptor_from_payload(payload: dict, shape: BipartiteShape) -> CanonicalFormSpec:
    varphi, affine, raw = _payload_fields(payload, "canonical descriptor", DESCRIPTOR_KEYS)
    if not isinstance(affine, bool):
        raise UsageError(f"descriptor 'affine' must be a JSON bool, got {reprlib.repr(affine)}")
    if raw == "identity":
        unitary = np.eye(shape.dim, dtype=complex)
    elif isinstance(raw, dict):
        unitary = matrix_from_payload(raw)
    else:
        raise UsageError(f"descriptor 'unitary' must be \"identity\" or a matrix payload, "
                         f"got {reprlib.repr(raw)}")
    return CanonicalFormSpec(varphi=varphi, unitary=unitary, affine=affine, shape=shape)
