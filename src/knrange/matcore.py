"""Dense complex matrix primitives: Kronecker products, Hermitian parts,
seeded random sampling, and the matrix JSON format.

Convention fixed here once and relied on everywhere else (in particular by the
map-matrix machinery in :mod:`knrange.maps`):

    vec stacks COLUMNS:  vec(X)[j*d + i] = X[i, j].

All functions treat matrices as immutable values and return fresh arrays.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

# The one "is this matrix Hermitian" decision (see :func:`is_hermitian`):
# relative to 1 + max|entry| of the matrix under test.
HERMITICITY_RTOL = 1e-10

# The largest |Re| or |Im| of an entry that :func:`as_matrix` accepts. Squares
# and pairwise products of entries are then at most 2e300, so sums of up to
# 1e7 of them (norms, matrix and Kronecker products, support values) stay
# below the overflow threshold 1.8e308.
MAX_ENTRY = 1e150

# The scale of each part of a standard complex Gaussian (see :func:`_ginibre`).
_GINIBRE_SCALE = 1 / np.sqrt(2.0)


class UsageError(ValueError):
    """An argument or input that the caller must fix. Every argument check
    and payload reader of the package raises it, and the CLI exits 2 for it
    alone among ValueErrors: any other one is a fault of the program."""


# The four varphi of :mod:`knrange.maps`, each as the transpose of the
# (m, n, m, n) view [a, b, c, e] of X, X[(a, b), (c, e)], that gives varphi(X):
# the encoding that maps._choi_view and the classify probe read. Each is an
# involution.
_VARPHI_AXES = {
    "id": (0, 1, 2, 3),
    "t": (2, 3, 0, 1),  # (a, b) <-> (c, e)
    "pt_right": (0, 3, 2, 1),  # b <-> e
    "pt_left": (2, 1, 0, 3),  # a <-> c
}


def _check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject bool, non-integers (floats and numpy integers included) and
    values outside minimum..maximum (inclusive; no upper bound if None),
    naming the bound that is crossed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an integer, got {reprlib.repr(value)}")
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise UsageError(f"{name} must be <= {maximum}, got {value}")


def _check_tol(tol) -> None:
    """Reject a tol that is not a finite real number > 0: nan, bool and None too."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not (np.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be finite and > 0, got {tol!r}")


def as_matrix(a, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce the argument `name` to a square complex matrix, dim x dim if dim
    is given, checking that its entries are finite with |Re| and |Im| at most
    MAX_ENTRY: the largest and smallest number of the float view, which a nan
    carries through."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or dim not in (None, m.shape[0]):
        size = "square" if dim is None else f"{dim} x {dim}"
        raise UsageError(f"{name} must be {size}, got shape {m.shape}")
    parts = np.ascontiguousarray(m).view(np.float64)
    hi, lo = float(parts.max(initial=0.0)), float(parts.min(initial=0.0))
    if not (-MAX_ENTRY <= lo and hi <= MAX_ENTRY):
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise UsageError(f"{name} entries must be finite")
        raise UsageError(f"{name} entries must have |Re| and |Im| at most {MAX_ENTRY:g}, "
                         f"got {max(hi, -lo):g}")
    return m


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(a: np.ndarray) -> float:
    """max |a - a*| entrywise."""
    return max_abs(a - a.conj().T)


def is_hermitian(a: np.ndarray):
    """max|A - A*| <= HERMITICITY_RTOL * (1 + max|A|), entrywise moduli.

    Applied per matrix over the last two axes: a bool for one matrix, a bool
    array of shape (count,) for a (count, d, d) stack.
    """
    a = np.asarray(a)
    defect = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    ok = defect <= HERMITICITY_RTOL * (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0))
    return bool(ok) if ok.ndim == 0 else ok


def _check_hermitian(name: str, m: np.ndarray) -> None:
    """Reject a matrix that :func:`is_hermitian` does not accept, naming its
    defect max|m - m*|."""
    if not is_hermitian(m):
        raise UsageError(f"{name} must be Hermitian, got defect {hermiticity_defect(m):.3e}")


@dataclass(frozen=True)
class BipartiteShape:
    """Tensor-factor dimensions (m, n) and range index k, with 1 <= k <= mn - 1.

    k = mn is excluded: the mn-numerical range is the singleton {tr/mn} and
    every trace-preserving map trivially preserves it.
    """

    m: int
    n: int
    k: int

    def __post_init__(self):
        _check_int("m", self.m, 2)
        _check_int("n", self.n, 2)
        _check_int("k", self.k, 1, self.m * self.n - 1)

    @property
    def dim(self) -> int:
        return self.m * self.n

    @property
    def is_half(self) -> bool:
        """True iff mn = 2k (exact integer test), the shape admitting affine preservers."""
        return self.m * self.n == 2 * self.k

    @property
    def has_counterexample(self) -> bool:
        """True iff both factors are at least 3x3: the counterexample pair of
        :mod:`knrange.checks` exists and rules out the partial transposes."""
        return min(self.m, self.n) >= 3


def kron(a, b) -> np.ndarray:
    """Kronecker product: (A x B)[i*n+p, j*n+q] = A[i,j] * B[p,q]."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_part(a) -> np.ndarray:
    """(A + A*) / 2.

    Exactly Hermitian in floating point: entry (i,j) is the average of a[i,j]
    and conj(a[j,i]), and complex conjugation commutes exactly with IEEE
    addition and halving.
    """
    m = as_matrix(a)
    return (m + m.conj().T) / 2


def _ginibre(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Array of the given shape of independent standard complex Gaussians:
    all real parts are drawn first, then all imaginary parts.

    Both parts are written, scaled by 1/sqrt(2), into one complex array:
    bitwise (re + 1j * im) / np.sqrt(2.0), whose complex division by a real
    scalar multiplies each part by that reciprocal.
    """
    g = np.empty(shape, dtype=complex)
    g.real = rng.standard_normal(shape) * _GINIBRE_SCALE
    g.imag = rng.standard_normal(shape) * _GINIBRE_SCALE
    return g


def random_haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: Q of the QR of a Ginibre matrix times the
    phases of R's diagonal, column by column, the factor that makes Q Haar
    (Mezzadri, 2007). ranges.sample_points needs no such factor: it reads only
    range(Q), which is Haar on the Grassmannian without it."""
    _check_int("dim", dim, 1)
    q, r = np.linalg.qr(_ginibre((dim, dim), np.random.default_rng(seed)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_hermitian(dim: int, seed) -> np.ndarray:
    """(G + G*) / 2 of a Ginibre matrix; exactly Hermitian, operator norm O(sqrt(dim))."""
    _check_int("dim", dim, 1)
    return hermitian_part(_ginibre((dim, dim), np.random.default_rng(seed)))


def random_complex(dim: int, seed) -> np.ndarray:
    """Ginibre matrix with independent standard complex Gaussian entries."""
    _check_int("dim", dim, 1)
    return _ginibre((dim, dim), np.random.default_rng(seed))


def is_orthogonal_pair(a, b, tol: float = 1e-10) -> bool:
    """True iff AB* = A*B = 0 up to tol * (1 + |A|_max)(1 + |B|_max)."""
    _check_tol(tol)
    ma = as_matrix(a, name="A")
    mb = as_matrix(b, len(ma), "B")
    scale = (1.0 + max_abs(ma)) * (1.0 + max_abs(mb))
    return max_abs(ma @ mb.conj().T) <= tol * scale and max_abs(ma.conj().T @ mb) <= tol * scale


# ---------------------------------------------------------------------------
# Matrix file format: {"dim": d, "entries": [[re, im], ...]} row-major, d^2 pairs.
# json round-trips finite doubles exactly (repr-based serialization).
# ---------------------------------------------------------------------------

MATRIX_KEYS = ("dim", "entries")


def _payload_fields(payload, what: str, keys: tuple[str, ...]) -> list:
    """The values of `keys` in `payload`, which must be a JSON object that
    holds them all; the error names every missing key and the keys `what`
    needs. Other keys are ignored."""
    if not isinstance(payload, dict):
        raise UsageError(f"{what} must be a JSON object, got {reprlib.repr(payload)}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise UsageError(f"{what} is missing {', '.join(map(repr, missing))}; "
                         f"it needs {', '.join(map(repr, keys))}")
    return [payload[key] for key in keys]


def _bad_entry(entries: list) -> str:
    """The error for the first entry that is not a [re, im] pair of numbers
    (JSON true/false excluded) that convert to floats."""
    for i, entry in enumerate(entries):
        pair = isinstance(entry, (list, tuple)) and len(entry) == 2
        if not (pair and all(isinstance(x, Real) and not isinstance(x, (bool, np.bool_))
                             for x in entry)):
            return f"entries[{i}] must be a [re, im] pair of numbers, got {reprlib.repr(entry)}"
        try:
            complex(*entry)
        except OverflowError:
            return f"entries[{i}] is out of the float range: {reprlib.repr(entry)}"
    return "entries must be [re, im] pairs of numbers"


def matrix_to_payload(a) -> dict:
    m = as_matrix(a)
    d = m.shape[0]
    flat = m.reshape(-1)
    return {"dim": d, "entries": [[float(z.real), float(z.imag)] for z in flat]}


def matrix_from_payload(payload: dict) -> np.ndarray:
    """The matrix of a matrix payload. A malformed one raises UsageError
    that names what is wrong: a missing key, the dim, the entry count, or the
    index of the first entry that is not a [re, im] pair of numbers."""
    d, entries = _payload_fields(payload, "matrix payload", MATRIX_KEYS)
    _check_int("dim", d, 1)
    if not isinstance(entries, list):
        raise UsageError(f"entries must be a list of [re, im] pairs, got {reprlib.repr(entries)}")
    if len(entries) != d * d:
        raise UsageError(f"expected {d * d} entries, got {len(entries)}")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
        # complex() rejects strings, null and lists, but reads true/false as 1/0
        numbers = not {bool, np.bool_} & set(map(type, chain.from_iterable(entries)))
    except (TypeError, ValueError, OverflowError):
        numbers = False
    if not numbers:
        raise UsageError(_bad_entry(entries))
    return as_matrix(flat.reshape(d, d))


def save_matrix(a, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_payload(a), fh)


def _load_json(path):
    """The JSON value in the file at path. A file that is not UTF-8, not
    JSON, or that nests arrays and objects deeper than the parser can
    recurse, raises UsageError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise UsageError(f"{path}: JSON is nested too deeply to parse") from None
        except ValueError as exc:  # UnicodeDecodeError, json.JSONDecodeError
            raise UsageError(str(exc)) from None


def load_matrix(path) -> np.ndarray:
    return matrix_from_payload(_load_json(path))
