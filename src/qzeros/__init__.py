"""qzeros: classical q-hypergeometric polynomial families with exact rational
coefficients, certified real-root isolation, and exact verification of their
zero interlacing, logarithmic-mesh, monotonicity and algebraic identities.

The names below are loaded on first use (PEP 562): ``import qzeros`` runs no
submodule, and ``qzeros.lmesh`` imports only ``analysis`` and what it needs.
Each read goes through the submodule, so a name rebound there is the name
seen here.  Of the CLI commands only ``verify`` and ``table1`` load
``qzeros.verify`` and ``qzeros.qcalc``.
"""

import importlib

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "qcore": ("rat", "rat_str", "qpoch_finite", "qpoch_infinite"),
    "qhyper": (
        "PolyExact", "HyperSpec", "build_qhyper", "poly_gcd", "square_free_part", "square_free_decomposition",
    ),
    "families": (
        "Family", "FamilyParams", "build",
        "little_q_jacobi", "little_q_laguerre", "q_laguerre", "stieltjes_wigert",
        "q_bessel", "normalized_little_q_jacobi", "normalization_constant",
        "e_factor", "weight_mass",
    ),
    "qcalc": ("q_derivative", "q_bracket"),
    "roots": ("RootSet", "RootEntry", "isolate_real_roots", "DEFAULT_EPS"),
    "analysis": (
        "Relation", "DegreePattern", "InterlacingReport", "LmeshResult", "ZerowiseReport",
        "interlace", "dominates", "zerowise_compare", "lmesh", "in_lmesh_class",
        "compare_root_to_point",
    ),
    "verify": (
        "GridSpec", "Status", "VerificationRecord", "TABLE1_ROWS", "SELFTEST_ID",
        "check_identity", "check_property", "run_checks", "run_identity_on_grid",
        "summarize", "default_t_values", "identity_check_ids", "property_check_ids",
    ),
    "errors": (
        "QZerosError", "InvalidToleranceError", "ConstraintViolationError",
        "DegenerateParameterError", "InvalidParameterError", "RegimeError",
        "LmeshDomainError", "UndefinedLmeshError",
        "ShapeError", "RegistryError", "ConfigError", "WorkerError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # not cached in globals(): a later read must see a rebinding in the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        # so that ``from qzeros import analysis`` falls back to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
