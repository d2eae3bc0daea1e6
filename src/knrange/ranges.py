"""k-numerical ranges.

W_k(A) = { tr(X* A X)/k : X is dim x k with X*X = I_k } is convex and compact.
For Hermitian A with eigenvalues a_1 >= ... >= a_d it is the interval

    [(a_{d-k+1} + ... + a_d)/k,  (a_1 + ... + a_k)/k].

For general A the set is represented by its support function sampled on an
angle grid: h(theta) = max Re(e^{-i theta} W_k(A)) equals the mean of the k
largest eigenvalues of the Hermitian part of e^{-i theta} A, because
Re W_k(M) = W_k((M + M*)/2) and rotation is an affine reparametrization.
Support functions determine compact convex sets uniquely, so comparing them
on a grid is the equality test used throughout.

All spectra come from one kernel, `_rotated_eigs`. On the default uniform grid
with an even number of angles it solves only theta in [0, pi): since
Herm(e^{-i(theta+pi)} A) = -Herm(e^{-i theta} A), the ascending spectrum at
theta + pi is the negated, reversed spectrum at theta, with the eigenvector
columns reversed to match. The k largest eigenvalues at theta + pi are thus
the k smallest at theta. Odd grids and caller-chosen angles are solved in full.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .matcore import (
    as_matrix,
    hermiticity_defect,
    is_hermitian,
    max_abs,
)

DEFAULT_NUM_ANGLES = 360
DEFAULT_RTOL = 1e-8


@dataclass(frozen=True)
class KInterval:
    """W_k of a Hermitian matrix: a closed real interval."""

    lo: float
    hi: float


@dataclass(frozen=True)
class SupportProfile:
    """Sampled support function and boundary points of W_k(A).

    angles[j] = 2*pi*j / num_angles; support[j] = h(angles[j]); boundary[j] is
    a member of W_k(A) on the supporting line at angles[j].
    """

    k: int
    angles: np.ndarray
    support: np.ndarray
    boundary: np.ndarray

    @property
    def num_angles(self) -> int:
        return len(self.angles)


def _check_int(name: str, value, minimum: int) -> None:
    """Reject bool, non-integers (floats included) and values below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_k(dim: int, k: int) -> None:
    _check_int("k", k, 1)
    if k > dim - 1:
        raise ValueError(f"k must satisfy 1 <= k <= dim-1 = {dim - 1}, got {k}")


def _check_angles(angles) -> np.ndarray:
    """`angles` as a float array, which must be non-empty, finite and 1-D."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError(f"angles must be a non-empty 1-D array, got shape {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    return angles


def _angle_grid(num_angles: int) -> np.ndarray:
    _check_int("num_angles", num_angles, 8)
    return 2.0 * np.pi * np.arange(num_angles) / num_angles


def _is_antipodal_grid(angles: np.ndarray) -> bool:
    """True iff `angles` is the uniform grid of an even length, so that
    angles[j + n/2] = angles[j] + pi for every j < n/2."""
    n = len(angles)
    return n >= 8 and n % 2 == 0 and np.array_equal(angles, _angle_grid(n))


def _rotated_eigs(stack: np.ndarray, angles: np.ndarray, vectors: bool = False):
    """Ascending spectra of Herm(e^{-i theta} A) for every A in a (count, d, d)
    stack and every theta in `angles`.

    Returns w of shape (count, len(angles), d) and, with vectors=True, also the
    eigenvector frames v of shape (count, len(angles), d, d) (columns in the
    order of w). Rows that are Hermitian within 1e-12 * (1 + max|H|) take one
    eigendecomposition: their rotated Hermitian part is cos(theta) times the
    matrix. On an even uniform grid only the first half of the angles is
    solved; see the module docstring.
    """
    count, d = stack.shape[0], stack.shape[1]
    n = len(angles)
    half = n // 2 if _is_antipodal_grid(angles) else n
    cos, sin = np.cos(angles[:half]), np.sin(angles[:half])
    # Herm(e^{-i theta} A) = cos(theta) H + sin(theta) K
    adj = stack.conj().transpose(0, 2, 1)
    h = (stack + adj) / 2
    kk = -0.5j * (stack - adj)
    herm = (np.abs(kk).reshape(count, -1).max(axis=1)
            <= 1e-12 * (1.0 + np.abs(h).reshape(count, -1).max(axis=1)))

    w = np.empty((count, half, d))
    v = np.empty((count, half, d, d), dtype=complex) if vectors else None
    if herm.any():
        hw, hv = np.linalg.eigh(h[herm]) if vectors else (np.linalg.eigvalsh(h[herm]), None)
        flip = cos < 0.0  # scaling by a negative cosine reverses the order
        hw = cos[None, :, None] * hw[:, None, :]
        hw[:, flip] = hw[:, flip, ::-1]
        w[herm] = hw
        if vectors:
            hv = np.repeat(hv[:, None], half, axis=1)
            hv[:, flip] = hv[:, flip, :, ::-1]
            v[herm] = hv
    if not herm.all():
        rot = cos[None, :, None, None] * h[~herm][:, None]
        rot += sin[None, :, None, None] * kk[~herm][:, None]
        if vectors:
            w[~herm], v[~herm] = np.linalg.eigh(rot)
        else:
            w[~herm] = np.linalg.eigvalsh(rot)

    if half < n:
        w = np.concatenate([w, -w[..., ::-1]], axis=1)
        if vectors:
            v = np.concatenate([v, v[..., ::-1]], axis=1)
    return (w, v) if vectors else w


def krange_hermitian(h, k: int) -> KInterval:
    """Exact W_k interval of a Hermitian matrix.

    lo is the mean of the k smallest eigenvalues, hi the mean of the k largest.
    """
    m = as_matrix(h)
    if not is_hermitian(m):
        raise ValueError(
            f"krange_hermitian needs a Hermitian matrix (defect {hermiticity_defect(m):.3e})"
        )
    _check_k(m.shape[0], k)
    w = np.linalg.eigvalsh(m)  # ascending
    return KInterval(lo=float(w[:k].sum() / k), hi=float(w[-k:].sum() / k))


def support_values(a, k: int, angles: np.ndarray) -> np.ndarray:
    """h(theta) for every theta in `angles` (vectorized)."""
    m = as_matrix(a)
    _check_k(m.shape[0], k)
    angles = _check_angles(np.atleast_1d(angles))
    w = _rotated_eigs(m[None], angles)[0]
    return w[:, -k:].sum(axis=1) / k


def support_value(a, k: int, theta: float) -> float:
    """Max of Re(e^{-i theta} W_k(A)): mean of the k largest eigenvalues of
    the Hermitian part of e^{-i theta} A."""
    return float(support_values(a, k, np.array([float(theta)]))[0])


def support_values_batch(stack: np.ndarray, k: int, angles: np.ndarray) -> np.ndarray:
    """Support grids for a (count, d, d) stack of matrices at once.

    Returns shape (count, len(angles)). Rows that are Hermitian (within
    roundoff) skip the per-angle eigensolve.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a (count, d, d) stack, count >= 1, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("stack entries must be finite")
    angles = _check_angles(angles)
    _check_k(stack.shape[1], k)
    w = _rotated_eigs(stack, angles)
    return w[:, :, -k:].sum(axis=2) / k


def boundary_point(a, k: int, theta: float) -> complex:
    """A member of W_k(A) on the supporting line at angle theta.

    Takes the k eigenvectors of Herm(e^{-i theta} A) with the largest
    eigenvalues (stable order on ties), forms the rank-k projector P, and
    returns tr(P A)/k. The construction makes the value a member of W_k(A) by
    definition, and its rotated real part equals support_value(a, k, theta).
    """
    m = as_matrix(a)
    _check_k(m.shape[0], k)
    _, v = _rotated_eigs(m[None], _check_angles([float(theta)]), vectors=True)
    vk = v[0, 0, :, -k:]
    return complex(np.einsum("is,ij,js->", vk.conj(), m, vk) / k)


def krange_profile(a, k: int, num_angles: int = DEFAULT_NUM_ANGLES) -> SupportProfile:
    """Support function and boundary points of W_k(A) on a uniform angle grid."""
    m = as_matrix(a)
    _check_k(m.shape[0], k)
    angles = _angle_grid(num_angles)
    w, v = _rotated_eigs(m[None], angles, vectors=True)
    w, v = w[0], v[0]
    support = w[:, -k:].sum(axis=1) / k
    vk = v[:, :, -k:]
    boundary = np.einsum("jis,jis->j", vk.conj(), m @ vk) / k
    return SupportProfile(k=k, angles=angles, support=support, boundary=boundary)


def ranges_equal(p1: SupportProfile, p2: SupportProfile, tol: float = DEFAULT_RTOL) -> bool:
    """Equality of the underlying sets, decided through support functions.

    Equal compact convex sets have identical support functions and conversely,
    so agreement on the shared grid is the discretized criterion.
    """
    if p1.k != p2.k or p1.num_angles != p2.num_angles:
        raise ValueError(
            f"profiles on different grids: k={p1.k}/{p2.k}, "
            f"num_angles={p1.num_angles}/{p2.num_angles}"
        )
    scale = 1.0 + max(max_abs(p1.support), max_abs(p2.support))
    return float(np.max(np.abs(p1.support - p2.support))) <= tol * scale


def k_numerical_radius(a, k: int, num_angles: int = DEFAULT_NUM_ANGLES) -> float:
    """max { |z| : z in W_k(A) }, approximated from below by the support grid.

    For a compact convex set the max modulus equals the max of the support
    function over all directions; the uniform grid underestimates by
    O(1/num_angles^2) at most.
    """
    m = as_matrix(a)
    _check_k(m.shape[0], k)
    return float(np.max(support_values(m, k, _angle_grid(num_angles))))


def sample_points(a, k: int, count: int, seed) -> np.ndarray:
    """`count` members tr(X* A X)/k of W_k(A) for Haar-random isometries X.

    X is the first k columns of a Haar unitary (batched Ginibre + QR with the
    R-diagonal phases absorbed). This is the definition-based inner oracle:
    every returned point lies in W_k(A).
    """
    m = as_matrix(a)
    _check_k(m.shape[0], k)
    _check_int("count", count, 1)
    d = m.shape[0]
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.einsum("tii->ti", r)
    u = q * (diag / np.abs(diag))[:, None, :]
    x = u[:, :, :k]
    return np.einsum("tis,ij,tjs->t", x.conj(), m, x) / k


# ---------------------------------------------------------------------------
# Profile export: CSV with 17 significant digits, and a best-effort SVG.
# ---------------------------------------------------------------------------

def profile_csv(profile: SupportProfile) -> str:
    buf = io.StringIO()
    buf.write("theta,support,boundary_re,boundary_im\n")
    for theta, h, b in zip(profile.angles, profile.support, profile.boundary):
        buf.write(f"{theta:.17g},{h:.17g},{b.real:.17g},{b.imag:.17g}\n")
    return buf.getvalue()


def write_profile_csv(profile: SupportProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_csv(profile))


def profile_svg(profile: SupportProfile, size: int = 480, pad: float = 0.1) -> str:
    """Closed boundary polyline with coordinate axes. Styling is unconstrained."""
    xs, ys = profile.boundary.real, profile.boundary.imag
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = pad * span
    x0, x1 = x0 - margin, x1 + margin
    y0, y1 = y0 - margin, y1 + margin

    def sx(x: float) -> float:
        return (x - x0) / (x1 - x0) * size

    def sy(y: float) -> float:
        return size - (y - y0) / (y1 - y0) * size  # svg y grows downward

    pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if x0 <= 0.0 <= x1:
        lines.append(
            f'<line x1="{sx(0):.3f}" y1="0" x2="{sx(0):.3f}" y2="{size}" '
            'stroke="#999" stroke-width="1"/>'
        )
    if y0 <= 0.0 <= y1:
        lines.append(
            f'<line x1="0" y1="{sy(0):.3f}" x2="{size}" y2="{sy(0):.3f}" '
            'stroke="#999" stroke-width="1"/>'
        )
    lines.append(
        f'<polygon points="{pts}" fill="#4477aa33" stroke="#4477aa" stroke-width="1.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_profile_svg(profile: SupportProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_svg(profile))


def profile_to_payload(profile: SupportProfile) -> dict:
    return {
        "k": profile.k,
        "num_angles": profile.num_angles,
        "theta": [float(t) for t in profile.angles],
        "support": [float(h) for h in profile.support],
        "boundary": [[float(b.real), float(b.imag)] for b in profile.boundary],
    }
