"""Exact-rational computation and certification of Hilbert-Kunz multiplicity lower bounds."""

__version__ = "0.1.0"

from .bounds import (
    IntervalCertRow,
    certify_interval,
    fixed_dimension_bound,
    optimize_slice,
    quadric_ehk,
    radical_recursion_bound,
    volume_lower_bound,
)
from .monomial import (
    ColengthEntry,
    ColengthSequence,
    MonomialIdeal,
    ehk_estimate,
    frobenius_colength,
    mixed_colength,
    parse_generators,
)
from .rationals import (
    decimal_render,
    format_rational,
    parse_rational,
)
from .report import CertificationReport, ReportRow
from .series import (
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
    "IntervalCertRow",
    "MonomialIdeal",
    "ReportRow",
    "__version__",
    "certify_interval",
    "conjecture_threshold",
    "decimal_render",
    "ehk_estimate",
    "fixed_dimension_bound",
    "format_rational",
    "frobenius_colength",
    "mixed_colength",
    "optimize_slice",
    "parse_generators",
    "parse_rational",
    "quadric_ehk",
    "radical_recursion_bound",
    "verify_tables",
    "vol_slab",
    "volume_lower_bound",
    "zigzag_coeffs",
    "zigzag_numbers",
]
