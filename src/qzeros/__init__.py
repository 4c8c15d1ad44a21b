"""qzeros: classical q-hypergeometric polynomial families with exact rational
coefficients, certified real-root isolation, and exact verification of their
zero interlacing, logarithmic-mesh, monotonicity and algebraic identities."""

from .analysis import (
    DegreePattern,
    InterlacingReport,
    LmeshResult,
    Relation,
    ZerowiseReport,
    compare_root_to_point,
    dominates,
    in_lmesh_class,
    interlace,
    lmesh,
    zerowise_compare,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DegenerateParameterError,
    InvalidParameterError,
    InvalidToleranceError,
    LmeshDomainError,
    QZerosError,
    RegimeError,
    RegistryError,
    ShapeError,
    UndefinedLmeshError,
)
from .families import (
    Family,
    FamilyParams,
    build,
    e_factor,
    little_q_jacobi,
    little_q_laguerre,
    normalization_constant,
    normalized_little_q_jacobi,
    q_bessel,
    q_laguerre,
    stieltjes_wigert,
    weight_mass,
)
from .qcalc import q_bracket, q_derivative
from .qcore import QValue, Rational, qpoch_finite, qpoch_infinite, qpoch_vector, rat, rat_str
from .qhyper import (
    HyperSpec,
    PolyExact,
    build_qhyper,
    poly_gcd,
    square_free_decomposition,
    square_free_part,
)
from .roots import DEFAULT_EPS, RootEntry, RootSet, isolate_real_roots
from .verify import (
    SELFTEST_ID,
    GridSpec,
    Status,
    TABLE1_ROWS,
    VerificationRecord,
    check_identity,
    check_property,
    default_t_values,
    identity_check_ids,
    property_check_ids,
    run_checks,
    run_identity_on_grid,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "QValue", "Rational", "rat", "rat_str",
    "qpoch_finite", "qpoch_infinite", "qpoch_vector",
    "PolyExact", "HyperSpec", "build_qhyper",
    "poly_gcd", "square_free_part", "square_free_decomposition",
    "Family", "FamilyParams", "build",
    "little_q_jacobi", "little_q_laguerre", "q_laguerre", "stieltjes_wigert",
    "q_bessel", "normalized_little_q_jacobi", "normalization_constant",
    "e_factor", "weight_mass",
    "q_derivative", "q_bracket",
    "RootSet", "RootEntry", "isolate_real_roots", "DEFAULT_EPS",
    "Relation", "DegreePattern", "InterlacingReport", "LmeshResult", "ZerowiseReport",
    "interlace", "dominates", "zerowise_compare", "lmesh", "in_lmesh_class",
    "compare_root_to_point",
    "GridSpec", "Status", "VerificationRecord", "TABLE1_ROWS", "SELFTEST_ID",
    "check_identity", "check_property", "run_checks", "run_identity_on_grid",
    "summarize", "default_t_values", "identity_check_ids", "property_check_ids",
    "QZerosError", "InvalidToleranceError", "ConstraintViolationError",
    "DegenerateParameterError", "InvalidParameterError", "RegimeError",
    "LmeshDomainError", "UndefinedLmeshError",
    "ShapeError", "RegistryError", "ConfigError",
    "__version__",
]
