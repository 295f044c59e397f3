"""Exact homological computations over skew complete intersections.

R = k_q[x_1..x_n]/(f_1..f_c) with root-of-unity commutation parameters:
cohomology operators, Ext modules, support varieties, complexity, and
Poincare series, all over exact cyclotomic arithmetic.
"""

from .scalars import CycScalar, ConductorMismatch
from .colorcore import (
    QRing,
    RingSpec,
    ValidationReport,
    parse_poly,
    validate_ring,
)
from .koszul import (
    koszul_algebra,
    phi_expand,
    verify_diagonal_resolution,
)
from .resolve import (
    BettiTable,
    KoszulComplex,
    ModulePresentation,
    finite_koszul_resolution,
    minimal_R_resolution,
)
from .operators import (
    ExtTable,
    braided_hh,
    build_operator_complex,
    ext_over_theta,
    homology_bigraded,
)
from .support import (
    ThetaAlgebra,
    arc_check,
    complexity,
    compute_t,
    is_perfect,
    poincare_series,
    support_variety,
)

__version__ = "0.1.0"

# dualpowers serves only the appendix selftest, so it is imported on first
# use of one of the names re-exported from it.
_DUALPOWERS_NAMES = ("verify_appendix", "xi_mul", "xi_divided_power")


def __getattr__(name):
    if name in _DUALPOWERS_NAMES:
        from . import dualpowers

        return getattr(dualpowers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CycScalar",
    "ConductorMismatch",
    "QRing",
    "RingSpec",
    "ValidationReport",
    "parse_poly",
    "validate_ring",
    "koszul_algebra",
    "phi_expand",
    "verify_diagonal_resolution",
    "verify_appendix",
    "xi_mul",
    "xi_divided_power",
    "ModulePresentation",
    "KoszulComplex",
    "BettiTable",
    "finite_koszul_resolution",
    "minimal_R_resolution",
    "ExtTable",
    "build_operator_complex",
    "homology_bigraded",
    "braided_hh",
    "ext_over_theta",
    "ThetaAlgebra",
    "compute_t",
    "support_variety",
    "complexity",
    "poincare_series",
    "is_perfect",
    "arc_check",
    "__version__",
]
