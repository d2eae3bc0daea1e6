"""k-numerical ranges of complex matrices and the linear maps preserving them
on tensor products: range computation via support functions, canonical
preserver construction, verification/classification with unitary recovery,
and executable checks of the underlying facts."""

from .matcore import (
    BipartiteShape,
    hermitian_part,
    is_orthogonal_pair,
    kron,
    random_complex,
    random_haar_unitary,
    random_hermitian,
)
from .ranges import (
    KInterval,
    SupportProfile,
    boundary_point,
    k_numerical_radius,
    krange_hermitian,
    krange_profile,
    ranges_equal,
    sample_points,
)
from .maps import (
    CanonicalFormSpec,
    LinearMapMatrix,
    affine_reflect,
    build_canonical,
    choi_matrix,
)
from .classify import (
    ClassificationReport,
    VerificationReport,
    classify_preserver,
    falsify_random,
    verify_preserver,
)
from .checks import (
    check_block_split,
    check_counterexample,
    check_orthogonality_criterion,
    counterexample_matrices,
    preserver_suite,
)

__all__ = [
    "BipartiteShape",
    "CanonicalFormSpec",
    "ClassificationReport",
    "KInterval",
    "LinearMapMatrix",
    "SupportProfile",
    "VerificationReport",
    "affine_reflect",
    "boundary_point",
    "build_canonical",
    "check_block_split",
    "check_counterexample",
    "check_orthogonality_criterion",
    "choi_matrix",
    "classify_preserver",
    "counterexample_matrices",
    "falsify_random",
    "hermitian_part",
    "is_orthogonal_pair",
    "k_numerical_radius",
    "krange_hermitian",
    "krange_profile",
    "kron",
    "preserver_suite",
    "random_complex",
    "random_haar_unitary",
    "random_hermitian",
    "ranges_equal",
    "sample_points",
    "verify_preserver",
]

__version__ = "0.1.0"
