import sys
from pathlib import Path

import pytest

import hkcert

PUBLIC_NAMES = [
    "CertificationReport",
    "ColengthEntry",
    "ColengthSequence",
    "IntervalCertRow",
    "MonomialIdeal",
    "ReportRow",
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


def test_public_api_is_pinned():
    # 24 public names plus __version__; adding or dropping an export must edit this list.
    assert len(PUBLIC_NAMES) == 24
    assert sorted(hkcert.__all__) == sorted(PUBLIC_NAMES + ["__version__"])
    namespace = {}
    exec("from hkcert import *", namespace)
    for name in hkcert.__all__:
        assert namespace[name] is getattr(hkcert, name), name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    # Every report's tool-version line prints __version__.
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == hkcert.__version__
