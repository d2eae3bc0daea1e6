import tracemalloc
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from knrange.classify import _random_constrained_choi
from knrange.maps import apply_map_batch, map_from_choi
from knrange.matcore import _VARPHI_AXES, UsageError, as_matrix

# Every @given test draws the same examples on every run, and no example
# database carries failures from one run into the next; each test's own
# @settings still sets its max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SQRT_41_OVER_2 = np.sqrt(41 / 2)  # 4.527692569068709
SQRT_9_OVER_2 = np.sqrt(9 / 2)


def shift3() -> np.ndarray:
    """The 3x3 weighted shift behind the counterexample pair."""
    return np.array([[0, 3, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)


def unit_matrix(dim: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def frame_trace(a, frames, k):
    """Oracle for every point of W_k: tr(X* A X)/k for each (d, k) frame X of
    a (count, d, k) stack, as one product A @ X and a two-operand reduction."""
    return np.einsum("jis,jis->j", frames.conj(), a @ frames) / k


def vec(x):
    """Column-stacking vectorization: vec(X)[j*d + i] = X[i, j]."""
    return np.ravel(x, order="F")


def apply_map(phi, x):
    """Oracle: the image of one matrix, as a stack of one through
    maps.apply_map_batch."""
    return apply_map_batch(phi, as_matrix(x, phi.shape.dim, "X")[None])[0]


def apply_varphi(x, tag, shape):
    """Oracle: one of the four varphi applied to a single matrix, the
    transpose in matcore._VARPHI_AXES of its (m, n, m, n) view, copied."""
    if tag not in _VARPHI_AXES:
        raise UsageError(f"unknown varphi tag {tag!r}")
    m = as_matrix(x, shape.dim, "X")
    view = m.reshape(shape.m, shape.n, shape.m, shape.n).transpose(_VARPHI_AXES[tag])
    return view.copy().reshape(shape.dim, shape.dim)


def varphi_perm(shape, tag):
    """Oracle: the index permutation pi with vec(varphi(X)) = vec(X)[pi], read
    off by applying varphi's transpose to the matrix of vec indices. Each
    varphi is an involution, so pi is its own inverse."""
    m, n, d = shape.m, shape.n, shape.dim
    index = np.arange(d * d).reshape(d, d, order="F")  # index[i, j] = j*d + i
    return vec(index.reshape(m, n, m, n).transpose(_VARPHI_AXES[tag]).reshape(d, d))


def random_constrained_map(shape, rng):
    """The map of a falsifier draw: a random unital, trace-preserving,
    Hermiticity-preserving map (classify._random_constrained_choi)."""
    return map_from_choi(_random_constrained_choi(shape, rng), shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# numpy.linalg's eigen- and singular-value solvers. Each is patched both where
# callers look it up (np.linalg) and in the module numpy.linalg's own helpers
# call it from, so that np.linalg.norm(x, 2), cond or pinv count as an svd.
SOLVERS = ("eigvalsh", "eigh", "eig", "eigvals", "svd")
_LINALG_IMPL = getattr(np.linalg, "_linalg", None) or np.linalg.linalg


class SolverLog(list):
    """One (solver name, matrices solved, order) entry per call of one of
    SOLVERS; a (count, d, d) stack counts as count matrices of order d."""

    def matrices(self, order: int | None = None) -> int:
        """Matrices solved, or only those of the given order."""
        return sum(solved for _, solved, size in self if order in (None, size))

    def calls(self) -> dict[str, int]:
        counts = dict.fromkeys(SOLVERS, 0)
        for name, _, _ in self:
            counts[name] += 1
        return counts


@contextmanager
def solver_log():
    """Record every call of the SOLVERS in the block."""
    log = SolverLog()

    def counting(name):
        solver = getattr(np.linalg, name)

        def wrapper(x, *args, **kwargs):
            shape = np.shape(x)
            log.append((name, int(np.prod(shape[:-2])), shape[-1]))
            return solver(x, *args, **kwargs)
        return wrapper

    with ExitStack() as stack:
        for name in SOLVERS:
            wrapper = counting(name)
            for module in {np.linalg, _LINALG_IMPL}:
                stack.enter_context(mock.patch.object(module, name, wrapper))
        yield log


class PeakAlloc:
    """Traced peak of a `peak_alloc` block, in bytes; set when the block ends."""

    bytes: int = 0


@contextmanager
def peak_alloc():
    """Trace the allocations made in the block with tracemalloc, which numpy
    reports its array data to, and record their peak in the yielded
    PeakAlloc."""
    peak = PeakAlloc()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1] - base
        if not tracing:
            tracemalloc.stop()
