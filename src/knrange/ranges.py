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
columns reversed to match. The kernel returns the solved angles only, and its
callers read the antipodal half by index: the k largest eigenvalues at
theta + pi are -w[..., k-1::-1], the negated k smallest at theta, and their
eigenvectors are v[..., k-1::-1]. Odd grids and caller-chosen angles are
solved in full. A Hermitian matrix takes one eigendecomposition of its own:
every rotated frame is that eigenbasis, its columns reversed where
cos(theta) < 0, so its whole profile has two distinct top-k frames.
The non-Hermitian matrices of a stack are solved in batches, one LAPACK call
each: a batch holds whole rotated families (a matrix at every solved angle)
up to _FAMILY_BYTES, and a larger family is split into slices of angles, so
the transient memory is bounded whatever the stack's length and the grid's.

Every point of W_k(A) the module returns, a profile's boundary points,
`boundary_point` and `sample_points`, is tr(X* A X)/k for a (d, k) isometry X,
and `_frame_points` is the one place that computes it: one product A @ X over
the frame stack and a two-operand reduction. `boundary_point` traces the same
frame as the profile at a solved angle, so it returns the profile's point
there byte for byte. A point depends only on the subspace range(X), so
`sample_points` draws a Haar subspace from the smaller side, j = min(k, d - k)
columns of a Ginibre stack factored by QR with no phase fix, and for k > d/2
returns the complement identity's point (tr A - tr(Q* A Q))/k.

`k_numerical_radius` is the largest support value on the grid, and it asks
the kernel for fewer angles: a coarse pass over every _RADIUS_STRIDE-th
solved angle bounds W_k(A) by a disk, the disk and each solved angle's
half-plane bound the support value at every other angle, and only the angles
whose bound (plus a rounding slack) reaches the coarse maximum are solved.
Its result is bitwise the full-grid maximum.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .matcore import (
    UsageError,
    _check_hermitian,
    _check_int,
    _check_tol,
    _ginibre,
    _is_hermitian,
    as_matrix,
    is_hermitian,
    max_abs,
)

DEFAULT_NUM_ANGLES = 360
DEFAULT_RTOL = 1e-8
MAX_NUM_ANGLES = 2**20  # the reason is in _angle_grid's docstring
MAX_SAMPLES = 2**20  # the reason is in sample_points' docstring

# k_numerical_radius: every _RADIUS_STRIDE-th solved angle goes into the
# coarse pass, and the rounding slack is _RADIUS_SLACK * d * eps * (1 + ||A||_F).
_RADIUS_STRIDE = 8
_RADIUS_SLACK = 64
_FAMILY_BYTES = 2**17  # a kernel batch's families, and their second terms, each


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


def _check_angles(angles) -> np.ndarray:
    """`angles` as a float array, which must be 1-D, finite and hold 1 to
    MAX_NUM_ANGLES values (the bound of the uniform grid, see _angle_grid)."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size == 0:
        raise UsageError(f"angles must be a non-empty 1-D array, got shape {angles.shape}")
    if angles.size > MAX_NUM_ANGLES:
        raise UsageError(f"angles must hold <= {MAX_NUM_ANGLES} values, got {angles.size}")
    if not np.all(np.isfinite(angles)):
        raise UsageError("angles must be finite")
    return angles


def _angle_grid(num_angles: int) -> np.ndarray:
    """The uniform grid 2*pi*j / num_angles, 8 <= num_angles <= MAX_NUM_ANGLES.

    At MAX_NUM_ANGLES = 2^20 the grid's relative underestimate of a support
    maximum, 1 - cos(pi / num_angles) = 4.5e-12, is already below the
    package's smallest relative tolerance (1e-10), so a finer grid can change
    no check; each angle still costs a solve and a row of every output.
    """
    _check_int("num_angles", num_angles, 8, MAX_NUM_ANGLES)
    return _uniform_grid(num_angles)


def _uniform_grid(n: int) -> np.ndarray:
    """2*pi*j / n for j < n, unchecked."""
    return 2.0 * np.pi * np.arange(n) / n


def _is_antipodal_grid(angles: np.ndarray) -> bool:
    """True iff `angles` is the uniform grid of an even length, so that
    angles[j + n/2] = angles[j] + pi for every j < n/2."""
    n = len(angles)
    return n >= 8 and n % 2 == 0 and np.array_equal(angles, _uniform_grid(n))


def _rotated_eigs(stack: np.ndarray, angles: np.ndarray, vectors: bool = False):
    """Ascending spectra of Herm(e^{-i theta} A) for every A in a (count, d, d)
    stack and every solved theta: the first half of an even uniform grid (see
    the module docstring), and every angle otherwise.

    Returns w of shape (count, half, d), with half the number of solved angles.
    With vectors=True the stack holds one matrix, and the kernel also returns
    its eigenvector frames v and a bool array flip of shape (half,): the frame
    at solved angle j, columns in the order of w[0, j], is v[j] with its
    columns reversed where flip[j]. A matrix that `is_hermitian` accepts takes
    one eigendecomposition of its Hermitian part H, since the rotated
    Hermitian part is then cos(theta) H: v is that eigenbasis, of shape
    (1, d, d), broadcast over the angles, and flip is cos(theta) < 0. For any
    other matrix v has shape (half, d, d) and flip is all False.
    The non-Hermitian rows are solved in batches, one eigvalsh (or eigh) call
    each, that take as many whole rows as fit, at least one, or slices of the
    angles of a larger row: their families cos(theta) H + sin(theta) K fill a
    buffer of at most _FAMILY_BYTES, sized to the work, and their second terms
    its twin. Each entry is the product and sum of a whole-stack broadcast,
    and each matrix is solved on its own, so the bits are the broadcast's.
    """
    count, d = stack.shape[0], stack.shape[1]
    half = len(angles) // 2 if _is_antipodal_grid(angles) else len(angles)
    cos, sin = np.cos(angles[:half]), np.sin(angles[:half])
    # Herm(e^{-i theta} A) = cos(theta) H + sin(theta) K
    adj = stack.conj().transpose(0, 2, 1)
    h = (stack + adj) / 2
    skew = stack - adj
    herm = _is_hermitian(stack, skew)
    rows = (~herm).nonzero()[0]

    w = np.empty((count, half, d))
    v = None
    if rows.size < count:
        flip = cos < 0.0  # scaling by a negative cosine reverses the order
        hw, v = np.linalg.eigh(h[herm]) if vectors else (np.linalg.eigvalsh(h[herm]), None)
        hw = cos[None, :, None] * hw[:, None, :]
        hw[:, flip] = hw[:, flip, ::-1]
        w[herm] = hw
        h, skew = h.take(rows, 0), skew.take(rows, 0)
    fit = max(1, _FAMILY_BYTES // (16 * d * d))  # matrices per batch
    span, per = min(half, fit), max(1, fit // half)  # angles and rows per batch
    if rows.size:
        kk = -0.5j * skew
        buf, twin = np.empty((2, min(per, rows.size), span, d, d), dtype=complex)
        v = np.empty((half, d, d), dtype=complex) if vectors else None
    for r in range(0, rows.size, per):
        for j in range(0, half, span):
            rot, term = buf[:rows.size - r, :half - j], twin[:rows.size - r, :half - j]
            # The products and the sum of a whole-stack broadcast, in complex
            # arithmetic: real products on float views would differ in the
            # signs of zeros, which moves the spectra of sparse Kronecker
            # products in the last bits.
            np.multiply(cos[j:j + span, None, None], h[r:r + per, None], out=rot)
            np.multiply(sin[j:j + span, None, None], kk[r:r + per, None], out=term)
            rot += term
            if vectors:
                w[0, j:j + span], v[j:j + span] = np.linalg.eigh(rot[0])
            else:
                w[rows[r:r + per], j:j + span] = np.linalg.eigvalsh(rot)
    if vectors:
        return w, v, (cos < 0.0) & herm[0]
    return w


def _top_means(w: np.ndarray, k: int, antipodes: bool) -> np.ndarray:
    """Means of the k largest eigenvalues at each solved angle, from spectra w
    of shape (count, s, d), followed, if `antipodes`, by those at the solved
    angles' antipodes: the negated k smallest, in the order of the negated,
    reversed spectrum."""
    top = w[..., -k:].sum(axis=-1)
    if antipodes:
        top = np.concatenate([top, (-w[..., k - 1::-1]).sum(axis=-1)], axis=-1)
    return top / k


def _frame_points(m: np.ndarray, frames: np.ndarray, k: int) -> np.ndarray:
    """tr(X* M X)/k for every (d, k) frame X of a (count, d, k) stack."""
    return np.einsum("jis,jis->j", frames.conj(), m @ frames) / k


def krange_hermitian(h, k: int) -> KInterval:
    """Exact W_k interval of a Hermitian matrix.

    lo is the mean of the k smallest eigenvalues, hi the mean of the k largest.
    """
    m = as_matrix(h)
    _check_hermitian("H", m)
    _check_int("k", k, 1, m.shape[0] - 1)
    w = np.linalg.eigvalsh(m)  # ascending
    return KInterval(lo=float(w[:k].sum() / k), hi=float(w[-k:].sum() / k))


def support_values(a, k: int, angles: np.ndarray) -> np.ndarray:
    """h(theta) for every theta in `angles` (vectorized)."""
    return support_values_batch(as_matrix(a)[None], k, np.atleast_1d(angles))[0]


def support_values_batch(stack: np.ndarray, k: int, angles: np.ndarray) -> np.ndarray:
    """Support grids for a (count, d, d) stack of matrices at once.

    Returns shape (count, len(angles)). Rows that `is_hermitian` accepts skip
    the per-angle eigensolve.

    The stack's entries need only be finite, not within as_matrix's
    MAX_ENTRY: verify_preserver passes it the images Phi(A x B), which can
    exceed that bound even when the entries of Phi, A and B are within it.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1] != stack.shape[2]:
        raise UsageError(f"expected a (count, d, d) stack, count >= 1, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise UsageError("stack entries must be finite")
    angles = _check_angles(angles)
    _check_int("k", k, 1, stack.shape[1] - 1)
    w = _rotated_eigs(stack, angles)
    return _top_means(w, k, w.shape[1] < len(angles))


def boundary_point(a, k: int, theta: float) -> complex:
    """A member of W_k(A) on the supporting line at angle theta.

    Takes the frame X of the k eigenvectors of Herm(e^{-i theta} A) with
    the largest eigenvalues (stable order on ties) and returns tr(X* A X)/k
    through `_frame_points`. The construction makes the value a member of
    W_k(A) by definition, and its rotated real part equals
    support_values(a, k, [theta])[0]. At a solved angle of a profile's grid
    it is bitwise that profile's boundary point: the same solve gives the
    same frame, and the same kernel traces it.
    """
    m = as_matrix(a)
    _check_int("k", k, 1, m.shape[0] - 1)
    _, v, flip = _rotated_eigs(m[None], _check_angles([float(theta)]), vectors=True)
    vk = v[0][:, k - 1::-1] if flip[0] else v[0][:, -k:]
    return complex(_frame_points(m, vk[None], k)[0])


def krange_profile(a, k: int, num_angles: int = DEFAULT_NUM_ANGLES) -> SupportProfile:
    """Support function and boundary points of W_k(A) on a uniform angle grid."""
    m = as_matrix(a)
    _check_int("k", k, 1, m.shape[0] - 1)
    angles = _angle_grid(num_angles)
    w, v, flip = _rotated_eigs(m[None], angles, vectors=True)
    antipodal = w.shape[1] < num_angles
    support = _top_means(w, k, antipodal)[0]
    if len(v) < w.shape[1]:
        # One eigenbasis for every angle, so two distinct top-k frames: v's
        # last k columns, and its first k reversed where the frame is
        # flipped and at the antipodes of the frames that are not.
        reverse = np.concatenate([flip, ~flip]) if antipodal else flip
        points = _frame_points(m, np.stack([v[0][:, -k:], v[0][:, k - 1::-1]]), k)
        boundary = points[reverse.astype(np.intp)]
    else:
        boundary = _frame_points(m, v[..., -k:], k)
        if antipodal:
            boundary = np.concatenate([boundary, _frame_points(m, v[..., k - 1::-1], k)])
    return SupportProfile(k=k, angles=angles, support=support, boundary=boundary)


def ranges_equal(p1: SupportProfile, p2: SupportProfile, tol: float = DEFAULT_RTOL) -> bool:
    """Equality of the underlying sets, decided through support functions.

    Equal compact convex sets have identical support functions and conversely,
    so agreement on the shared grid is the discretized criterion.
    """
    _check_tol(tol)
    if p1.k != p2.k or p1.num_angles != p2.num_angles:
        raise UsageError(
            f"profiles on different grids: k={p1.k}/{p2.k}, "
            f"num_angles={p1.num_angles}/{p2.num_angles}"
        )
    scale = 1.0 + max(max_abs(p1.support), max_abs(p2.support))
    return float(np.max(np.abs(p1.support - p2.support))) <= tol * scale


def _cap(h: np.ndarray, delta: np.ndarray, r: float) -> np.ndarray:
    """max Re(e^{-i delta} z) over the disk |z| <= r cut by the half-plane
    Re z <= h, for 0 <= delta <= pi/2: r where the disk's own maximiser
    r e^{i delta} lies in the half-plane, else the chord's end
    h + i sqrt(r^2 - h^2)."""
    cos, sin = np.cos(delta), np.sin(delta)
    return np.where(r * cos <= h, r, h * cos + np.sqrt(np.maximum(r * r - h * h, 0.0)) * sin)


def k_numerical_radius(a, k: int, num_angles: int = DEFAULT_NUM_ANGLES) -> float:
    """max { |z| : z in W_k(A) }, approximated from below by the support grid.

    For a compact convex set the max modulus equals the max of the support
    function over all directions; the uniform grid underestimates by
    O(1/num_angles^2) at most. The result is bitwise the largest entry of
    support_values(a, k, grid), but a non-Hermitian matrix is solved only at
    the grid angles that can hold it (a Hermitian one takes its single
    eigvalsh):

    1. Coarse pass: every _RADIUS_STRIDE-th solved angle, read at its
       antipode too on an even grid. M is the largest value found, and D the
       widest gap between the angles read, around the circle.
    2. Disk: W_k(A) lies in the polygon cut out by the supporting lines at
       those angles, each at distance <= M from 0, so |z| <= R = M / cos(D/2).
    3. Each other angle phi, at distance delta from a neighbour theta that
       was read, has h(phi) <= max Re(e^{-i delta} z) over the disk cut by
       theta's half-plane (`_cap`): R if R cos(delta) <= h(theta), else
       h(theta) cos(delta) + sqrt(R^2 - h(theta)^2) sin(delta). The smaller
       of its two neighbours' bounds holds.
    4. Rounding slack: M, each h(theta) and R are inflated by
       eps_A = _RADIUS_SLACK * d * eps * (1 + ||A||_F), which covers the
       backward error of forming and solving a rotated Hermitian part, and
       an angle is skipped only if its bound + eps_A < M.
    5. The angles not skipped are solved, and the largest value is returned.
       When D >= pi/2 (too coarse a grid for the bound) the whole grid is.

    A skipped angle's computed value is then below M, so it cannot be the
    grid's maximum; every value read comes from the same per-matrix rotated
    solve and the same top-k mean as in support_values, and a maximum picks
    a value without rounding, so the result keeps its bytes.
    """
    m = as_matrix(a)
    _check_int("k", k, 1, m.shape[0] - 1)
    angles = _angle_grid(num_angles)
    antipodal = num_angles % 2 == 0  # _angle_grid's grids have 8 or more angles
    if is_hermitian(m):
        return float(np.max(_top_means(_rotated_eigs(m[None], angles), k, antipodal)))
    half = num_angles // 2 if antipodal else num_angles
    solved = np.zeros(half, dtype=bool)
    solved[::_RADIUS_STRIDE] = True
    # The grid angles read: the solved ones, and on an even grid their
    # antipodes, in the order _top_means returns them.
    read = np.concatenate([solved, solved]) if antipodal else solved
    coarse = _top_means(_rotated_eigs(m[None], angles[:half][solved]), k, antipodal)[0]
    best = coarse.max()
    values = np.zeros(num_angles + 1)  # the last entry repeats the first
    values[:-1][read] = coarse
    values[-1] = values[0]
    pos = np.arange(num_angles)
    step = 2.0 * np.pi / num_angles
    widest = np.diff(pos[read], append=num_angles).max() * step
    if widest < np.pi / 2:
        slack = _RADIUS_SLACK * m.shape[0] * np.finfo(float).eps * (1.0 + np.linalg.norm(m))
        radius = (best + slack) / np.cos(widest / 2) + slack
        prev = np.maximum.accumulate(np.where(read, pos, 0))
        after = np.minimum.accumulate(np.where(read, pos, num_angles)[::-1])[::-1]
        bound = np.minimum(_cap(values[prev] + slack, (pos - prev) * step, radius),
                           _cap(values[after] + slack, (after - pos) * step, radius))
        todo = ~read & ~(bound + slack < best)
        if antipodal:
            todo = todo[:half] | todo[half:]
    else:
        todo = ~solved
    if todo.any():
        rest = _top_means(_rotated_eigs(m[None], angles[:half][todo]), k, antipodal)
        best = max(best, rest.max())
    return float(best)


def sample_points(a, k: int, count: int, seed) -> np.ndarray:
    """`count` members tr(X* A X)/k of W_k(A) for Haar-random isometries X.

    A point depends only on the subspace range(X), so the sampler draws a
    Haar subspace of dimension j = min(k, d - k): Q from the QR of a
    (count, d, j) Ginibre stack, with no phase fix, since range(Q) is
    already Haar distributed on the Grassmannian. For k <= d/2 the points
    are Q's frame traces; for k > d/2 they come from the complement
    identity, (tr A - tr(Q* A Q))/k, the trace over the orthogonal
    complement of range(Q), which is itself a Haar k-subspace. Every trace
    goes through `_frame_points`, like every other point of W_k. This is
    the definition-based inner oracle: every returned point lies in W_k(A).

    `count` is at most MAX_SAMPLES: the mean of 2^20 points already has a
    standard error below 1e-3 of their spread, and the draw alone is then
    2 GiB at d = 16, k = 8, so a larger count buys no check, only memory.
    """
    m = as_matrix(a)
    d = m.shape[0]
    _check_int("k", k, 1, d - 1)
    _check_int("count", count, 1, MAX_SAMPLES)
    j = min(k, d - k)
    q = np.linalg.qr(_ginibre((count, d, j), np.random.default_rng(seed)))[0]
    if j == k:
        return _frame_points(m, q, k)
    return (np.trace(m) - _frame_points(m, q, 1)) / k


# ---------------------------------------------------------------------------
# Profile export: CSV with 17 significant digits, and a best-effort SVG.
# ---------------------------------------------------------------------------

def profile_csv(profile: SupportProfile) -> str:
    buf = io.StringIO()
    buf.write("theta,support,boundary_re,boundary_im\n")
    for theta, h, b in zip(profile.angles, profile.support, profile.boundary):
        buf.write(f"{theta:.17g},{h:.17g},{b.real:.17g},{b.imag:.17g}\n")
    return buf.getvalue()


def profile_svg(profile: SupportProfile) -> str:
    """Closed boundary polyline with coordinate axes on a 480 px square, the
    boundary's extent padded by 10% on each side. Styling is unconstrained."""
    size, pad = 480, 0.1
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


def profile_to_payload(profile: SupportProfile) -> dict:
    return {
        "k": profile.k,
        "num_angles": profile.num_angles,
        "theta": [float(t) for t in profile.angles],
        "support": [float(h) for h in profile.support],
        "boundary": [[float(b.real), float(b.imag)] for b in profile.boundary],
    }
