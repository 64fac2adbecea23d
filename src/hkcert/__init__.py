"""Exact-rational computation and certification of Hilbert-Kunz multiplicity lower bounds."""

__version__ = "0.1.0"

from .bounds import (
    IntervalCertRow,
    RadicalParams,
    certify_interval,
    duality_bound_cm,
    duality_bound_gorenstein,
    fixed_dimension_bound,
    minimal_multiplicity_bound,
    optimize_slice,
    quadratic_apex,
    quadratic_bound,
    quadric_ehk,
    radical_recursion_bound,
    radical_step_bound,
    volume_lower_bound,
)
from .monomial import (
    ColengthEntry,
    ColengthSequence,
    MonomialIdeal,
    ehk_estimate,
    frobenius_colength,
    load_ideal,
    mixed_colength,
    parse_generators,
)
from .rationals import (
    Fraction,
    decimal_render,
    format_rational,
    parse_rational,
)
from .report import CertificationReport, ReportRow
from .series import (
    SeriesCoefficients,
    conjecture_threshold,
    zigzag_coeffs,
    zigzag_numbers,
)
from .slab import vol_slab
from .tables import verify_tables

__all__ = [
    "CertificationReport",
    "ColengthEntry",
    "ColengthSequence",
    "Fraction",
    "IntervalCertRow",
    "MonomialIdeal",
    "RadicalParams",
    "ReportRow",
    "SeriesCoefficients",
    "__version__",
    "certify_interval",
    "conjecture_threshold",
    "decimal_render",
    "duality_bound_cm",
    "duality_bound_gorenstein",
    "ehk_estimate",
    "fixed_dimension_bound",
    "format_rational",
    "frobenius_colength",
    "load_ideal",
    "minimal_multiplicity_bound",
    "mixed_colength",
    "optimize_slice",
    "parse_generators",
    "parse_rational",
    "quadratic_apex",
    "quadratic_bound",
    "quadric_ehk",
    "radical_recursion_bound",
    "radical_step_bound",
    "verify_tables",
    "vol_slab",
    "volume_lower_bound",
    "zigzag_coeffs",
    "zigzag_numbers",
]
