"""Separability analysis of bipartite quantum states.

Spectral pair-operator tests, partial-transpose cross checks,
constructive single-pair ensembles, and a certified numerical search
for separable decompositions.
"""

from .criterion import (
    BOUNDARY_TOL,
    PRODUCT_TOL,
    RANK_TOL,
    RECON_TOL,
    ClassificationReport,
    ClassifyConfig,
    ScaledEigvecs,
    SpectralReport,
    Verdict,
    a_value,
    classify,
    pair_concurrence_2x2,
    pair_reports,
    pair_taus,
    pair_spectrum,
    partial_transpose,
    ppt_min_eigenvalue,
    pure_product_check,
    scaled_eigvecs,
    tau_matrix,
)
from .decompose import (
    CanonicalBasis,
    EnsembleReport,
    MemberCountError,
    PairCriterionError,
    PolygonInfeasibleError,
    PureEnsemble,
    canonical_basis,
    close_polygon,
    sign_matrix,
    single_pair_decomposition,
    verify_ensemble,
)
from .linalg import (
    HermitianEig,
    RankDeficientError,
    TakagiResult,
    hermitian_eig,
    product_svd,
    random_orthonormal_columns,
    reorthonormalize,
    singular_values,
    takagi,
)
from .pairs import (
    PairIndex,
    PairOperator,
    basis_index,
    build_pair_operator,
    enumerate_pairs,
    pair_operators,
    pair_residual,
    tilde,
)
from .search import (
    CertificateError,
    ConstraintSystem,
    PairConstraints,
    SearchConfig,
    SearchReport,
    SeparableCertificate,
    certificate_from_members,
    certify,
    check_certificate,
    emit_constraints,
    evaluate_constraints,
    extract_certificate,
    joint_residual,
    minimize,
    render_constraints,
    residual_gradient,
)
from .states import (
    DensityMatrix,
    StateFormatError,
    bell,
    bound_2x4,
    bound_2x4_basis,
    density_matrix,
    horodecki_2x4,
    isotropic,
    parse_state,
    product,
    random_density,
    random_separable,
    serialize_state,
    tiles,
    werner_2x2,
)

__version__ = "0.1.0"
