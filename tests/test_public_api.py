import hkcert

PUBLIC_NAMES = [
    "CertificationReport",
    "ColengthEntry",
    "ColengthSequence",
    "Fraction",
    "IntervalCertRow",
    "MonomialIdeal",
    "RadicalParams",
    "ReportRow",
    "SeriesCoefficients",
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


def test_public_api_is_pinned():
    # 34 public names plus __version__; adding or dropping an export must edit this list.
    assert len(PUBLIC_NAMES) == 34
    assert sorted(hkcert.__all__) == sorted(PUBLIC_NAMES + ["__version__"])
    namespace = {}
    exec("from hkcert import *", namespace)
    for name in hkcert.__all__:
        assert namespace[name] is getattr(hkcert, name), name
