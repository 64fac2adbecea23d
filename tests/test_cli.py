import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from hkcert import bounds, cli, monomial, rationals, slab
from hkcert.cli import main
from hkcert.rationals import format_rational
from hkcert.series import zigzag_coeffs
from hkcert.tables import verify_tables
from test_bounds import LEAST_STRONG_PSEUDOPRIMES


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env():
    """The current environment with the repo's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "hkcert", *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )


def test_cli_import_skips_dataclasses_and_inspect():
    # Every hkcert process pays for its imports.  dataclasses (which loads inspect,
    # ast and dis) is among the dearest, and no code path needs either module.
    # -S keeps site's own imports out of the picture.
    probe = "import sys, hkcert.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_vol(capsys):
    assert main(["vol", "--dim", "6", "--s", "3/2"]) == 0
    assert capsys.readouterr().out == "241/15360 ≈ 0.0156\n"


def test_vol_trivial_values(capsys):
    assert main(["vol", "--dim", "2", "--s", "1"]) == 0
    assert capsys.readouterr().out.startswith("1/2 ")
    assert main(["vol", "--dim", "5", "--s", "5"]) == 0
    assert capsys.readouterr().out.startswith("1 ")


def test_vol_rejects_non_rational():
    result = run_cli("vol", "--dim", "2", "--s", "half")
    assert result.returncode == 2
    assert "not a rational literal" in result.stderr


def test_md(capsys):
    assert main(["md", "--max", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[-1].startswith("6\t61/720\t781/720")
    assert main(["md", "--max", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1\t1\t2\t2.0000"]


def test_md_large_order_is_fast():
    result = run_cli("md", "--max", "1000", timeout=10)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 1000
    assert lines[-1].startswith("1000\t")


@pytest.mark.parametrize("order", ["1562", "1000000000"])
def test_md_rejects_order_beyond_cap(order, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of computing the coefficients.
    monkeypatch.setattr(cli, "zigzag_coeffs", lambda *a: pytest.fail("coefficients computed"))
    assert main(["md", "--max", order]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --max must be <= 1561")


def test_md_cap_is_the_last_order_that_prints():
    # Under Python's default int-to-str limit, the threshold 1 + m_d of the
    # largest allowed order still formats, and that of the next order does not.
    *_, last, beyond = zigzag_coeffs(cli._MAX_MD_ORDER + 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        format_rational(1 + last)
        with pytest.raises(ValueError):
            format_rational(1 + beyond)
    finally:
        sys.set_int_max_str_digits(limit)


def test_usage_errors_leave_stdout_empty(capsys, tmp_path):
    # Under a 640-digit int-to-str limit, 1 + m_d first passes it at d = 314,
    # the colength of (x^(10^400)) at q = 10^300 has 701 digits, and so does
    # a target of 10^700, while the lines before them render: every command
    # must fail before writing anything.
    path = tmp_path / "power.ideal"
    path.write_text(f"{10**400}\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["md", "--max", "313"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 313
        for argv in (
            ["md", "--max", "320"],
            ["monomial", "--file", str(path), "--q", f"1,{10**300}"],
            ["bound", "--dim", "3", "--e", "2", "--r", "1", "--s", "1", "--target", "1e700"],
            ["certify-interval", "--dim", "6", "--e-low", "5", "--e-high", "9", "--s", "2.6", "--target", "1e700"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
    finally:
        sys.set_int_max_str_digits(limit)


def test_bound_with_target(capsys):
    assert main(["bound", "--dim", "7", "--e", "5", "--r", "3", "--s", "83/25", "--target", "1.112"]) == 0
    out = capsys.readouterr().out
    assert "bound: 65199794269/58593750000 ≈ 1.1127" in out
    assert "target: 139/125 -> PASS" in out


@pytest.mark.parametrize("target, code", [("1.112", 0), ("1.2", 1), ("x", 2)])
def test_console_script_exits_with_the_command_code(target, code, monkeypatch, capsys):
    # cli.entrypoint is the function behind the installed ``hkcert`` script.
    argv = ["hkcert", "bound", "--dim", "7", "--e", "5", "--r", "3", "--s", "3.32", "--target", target]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as excinfo:
        cli.entrypoint()
    assert excinfo.value.code == code
    assert (capsys.readouterr().out == "") == (code == 2)


def test_bound_decimal_slice_parses_exactly(capsys):
    assert main(["bound", "--dim", "7", "--e", "5", "--r", "3", "--s", "3.32"]) == 0
    first = capsys.readouterr().out
    assert main(["bound", "--dim", "7", "--e", "5", "--r", "3", "--s", "83/25"]) == 0
    assert capsys.readouterr().out == first


def test_bound_failing_target(capsys):
    assert main(["bound", "--dim", "5", "--e", "18", "--r", "32", "--s", "17/10", "--target", "1.197"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_bound_table_row(capsys):
    assert main(["bound", "--dim", "5", "--e", "35", "--r", "134", "--s", "7/5", "--target", "1.153"]) == 0


def test_bound_trivial(capsys):
    assert main(["bound", "--dim", "3", "--e", "1", "--r", "0", "--s", "3"]) == 0
    assert "bound: 1 ≈ 1.0000" in capsys.readouterr().out


def test_bound_valuations(capsys):
    assert main(["bound", "--dim", "3", "--e", "2", "--t", "1/2,1/2", "--s", "1"]) == 0
    assert "bound: 1/4 ≈ 0.2500" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--dim", "0", "--e", "2", "--r", "1", "--s", "1"],
        ["--dim", "2", "--e", "1/2", "--r", "1", "--s", "1"],
        ["--dim", "2", "--e", "2", "--r", "1", "--s", "-1"],
        ["--dim", "2", "--e", "2", "--r", "1", "--t", "1", "--s", "1"],
        ["--dim", "2", "--e", "2", "--s", "1"],
        ["--dim", "2", "--e", "2", "--r", "-1", "--s", "1"],
        ["--dim", "2", "--e", "2", "--t", "0", "--s", "1"],
    ],
)
def test_bound_rejects_bad_input_exit_2(flags, capsys):
    try:
        code = main(["bound", *flags])
    except SystemExit as exc:  # argparse rejects flag combinations itself
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def test_bound_optimize(capsys):
    assert main(["bound", "--dim", "5", "--e", "5", "--r", "4", "--optimize", "--resolution", "20",
                 "--target", "1.313"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s: ")


@pytest.mark.parametrize("dim, resolution", [("2", "500001"), ("1000001", "2")])
def test_optimize_rejects_grid_beyond_cost_cap(dim, resolution, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of building the huge grid.
    monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
    assert main(["bound", "--dim", dim, "--e", "5", "--r", "3", "--optimize", "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dimension * grid_resolution must be <= 1000000")


@pytest.mark.parametrize("dim, resolution", [("200", "500"), ("1000", "20"), ("10000", "2")])
def test_optimize_rejects_work_beyond_cost_cap(dim, resolution, capsys, monkeypatch):
    monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
    assert main(["bound", "--dim", dim, "--e", "5", "--r", "3", "--optimize", "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dimension**3 * grid_resolution must be <= 1000000000")


@pytest.mark.parametrize(
    "argv",
    [
        ["vol", "--dim", "1000000", "--s", "1/2"],
        ["vol", "--dim", "513", "--s", "600"],
        ["bound", "--dim", "513", "--e", "5", "--r", "3", "--s", "1/2"],
        ["bound", "--dim", "513", "--e", "5", "--r", "3", "--optimize", "--resolution", "2"],
        ["certify-interval", "--dim", "513", "--e-low", "5", "--e-high", "9", "--s", "2", "--target", "1"],
        ["radical", "--dim", "513", "--case", "general"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_dimension_beyond_cap_exits_2(argv, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of computing the volumes or d!.
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
    monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
    monkeypatch.setattr(bounds, "factorial", lambda *a: pytest.fail("factorial computed"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: dimension must be <= 512, got {argv[2]}")


def test_radical_rejects_power_beyond_cost_cap(capsys):
    # Just past the cap (about 1 s of work if the cap were lost).
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", "2500001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: iterations * bit length of e*n must be <= 10000000, got 10000004\n"


def test_radical_prints_deepest_printable_depth(capsys):
    # At e 6, n 2 the bound's denominator is 5**iterations: 6151 is the last
    # depth under the 4300-digit limit, and 6152 fails only when printed.
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", "6151"]) == 0
    assert capsys.readouterr().out.startswith("bound: ")


@pytest.mark.parametrize("iterations", ["10000", "2000000"])
def test_radical_rejects_depth_beyond_print_limit(iterations, capsys, monkeypatch):
    # Should the check be lost, fail instead of building the power.
    monkeypatch.setattr(cli, "radical_recursion_bound", lambda *a: pytest.fail("power built"))
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", iterations]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --iterations {iterations} gives a bound of more than 4300 digits\n"


@pytest.mark.parametrize("dim, e, k, n", [(4, 6, 4, 2), (5, 20, 18, 3), (6, 9, 3, 2), (7, 12, 5, 4)])
def test_radical_print_limit_rejects_only_unprintable_bounds(dim, e, k, n, capsys):
    # At the first depth the check rejects, the exact bound's denominator
    # already has more than 4300 digits.
    base, start = bounds._radical_terms(dim, e, k, n, 0)
    depth = (cli._MAX_PRINT_BITS + start.numerator.bit_length()) // (base.denominator.bit_length() - 1) + 1
    args = ["radical", "--dim", str(dim), "--e", str(e), "--k", str(k), "--n", str(n)]
    assert main([*args, "--iterations", str(depth)]) == 2
    assert capsys.readouterr().out == ""
    assert bounds.radical_recursion_bound(dim, e, k, n, depth).denominator >= 10**4300
    assert main([*args, "--iterations", str(depth - 1)]) in (0, 2)
    assert "more than 4300 digits" not in capsys.readouterr().err


def test_radical_case_rejects_dimension_beyond_print_limit(capsys, monkeypatch):
    # The general bound first has more than 4300 digits at d = 57; minimal_gap
    # prints up to the 512 cap.  The check runs before the recursion, and
    # e >= d! + 1 needs no recursion.
    assert main(["radical", "--dim", "56", "--case", "general"]) == 0
    assert capsys.readouterr().out.startswith("bound: ")
    assert main(["radical", "--dim", "512", "--case", "minimal_gap"]) == 0
    assert capsys.readouterr().out.startswith("bound: ")
    monkeypatch.setattr(bounds, "radical_recursion_bound", lambda *a: pytest.fail("recursion run"))
    assert main(["radical", "--dim", "57", "--case", "general"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dim 57 gives a bound of more than 4300 digits\n"
    assert main(["radical", "--dim", "57", "--case", "general", "--e", str(factorial(57) + 1)]) == 0
    assert capsys.readouterr().out == f"bound: {factorial(57) + 1}/{factorial(57)} ≈ 1.0000\n"


@pytest.mark.parametrize("count", [1001, 14998])
def test_bound_rejects_valuations_beyond_cap(count, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of computing one volume per valuation.
    monkeypatch.setattr(bounds, "vol_slab", lambda *a: pytest.fail("volume computed"))
    valuations = ",".join(f"1/{k}" for k in range(2, count + 2))
    assert main(["bound", "--dim", "8", "--e", "5", "--s", "4", "--t", valuations]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: at most 1000 distinct valuations, got {count}\n"


def test_rational_exponent_beyond_cap_exits_2(capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of building 10**10000000.
    monkeypatch.setattr(rationals, "Fraction", lambda *a: pytest.fail("literal converted"))
    with pytest.raises(SystemExit) as excinfo:
        main(["vol", "--dim", "3", "--s", "1e10000000"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "decimal exponent must be at most 4300 in absolute value, got '1e10000000'" in captured.err


def test_optimize(capsys):
    assert main(["bound", "--dim", "2", "--e", "1", "--r", "0", "--optimize", "--resolution", "10"]) == 0
    assert capsys.readouterr().out == "s: 2\nbound: 1 ≈ 1.0000\n"


def test_quadric(capsys):
    assert main(["quadric", "--p", "3", "--d", "5"]) == 0
    assert capsys.readouterr().out == "33/29 ≈ 1.1379; exceeds 17/15: yes\n"
    assert main(["quadric", "--p", "97", "--d", "6"]) == 0


def test_quadric_rejects_composite():
    result = run_cli("quadric", "--p", "9", "--d", "5")
    assert result.returncode == 2
    assert "odd prime" in result.stderr


def test_quadric_large_prime_is_fast():
    result = run_cli("quadric", "--p", str(2**61 - 1), "--d", "5", timeout=10)
    assert result.returncode == 0
    assert result.stdout.endswith("exceeds 17/15: yes\n")


def test_quadric_rejects_p_beyond_primality_limit():
    result = run_cli("quadric", "--p", "318665857834031151167461", "--d", "5", timeout=10)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


@pytest.mark.parametrize("composite", [p for p, _ in LEAST_STRONG_PSEUDOPRIMES])
def test_quadric_rejects_least_strong_pseudoprimes(composite, capsys):
    assert main(["quadric", "--p", str(composite), "--d", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: p must be an odd prime, got {composite}\n"


def test_radical_closed_form(capsys):
    assert main(["radical", "--dim", "4", "--case", "minimal_gap"]) == 0
    assert capsys.readouterr().out == "bound: 657/625 ≈ 1.0512\n"


def test_radical_recursion(capsys):
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", "4"]) == 0
    assert capsys.readouterr().out == "bound: 657/625 ≈ 1.0512\n"


def test_radical_requires_a_mode():
    result = run_cli("radical", "--dim", "4")
    assert result.returncode != 0


def test_radical_rejects_mixed_modes():
    result = run_cli("radical", "--dim", "4", "--case", "general", "--k", "3", "--n", "2", "--iterations", "1")
    assert result.returncode != 0


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dim", "1", "dimension must be >= 2"),
        ("--e", "5", "multiplicity must be >= 6"),
        ("--e", "17/2", "multiplicity must be an integer, got 17/2"),
        ("--k", "2", "codimension must satisfy 3 <= k <= e - 2"),
        ("--n", "1", "root degree must be >= 2"),
        ("--iterations", "-1", "iterations must be >= 0"),
    ],
)
def test_radical_recursion_rejects_bad_input_exit_2(flag, value, message, capsys):
    # One bad value in an otherwise valid recursion query.
    flags = {"--dim": "3", "--e": "6", "--k": "3", "--n": "2", "--iterations": "1", flag: value}
    assert main(["radical", *(token for pair in flags.items() for token in pair)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("case", ["general", "minimal_gap"])
def test_radical_case_rejects_rational_multiplicity(case, capsys):
    assert main(["radical", "--dim", "6", "--e", "17/2", "--case", case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multiplicity must be an integer, got 17/2\n"


def test_radical_has_no_field_degree_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["radical", "--dim", "6", "--e", "8", "--k", "4", "--n", "3", "--iterations", "2", "--b", "2"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --b 2" in captured.err


def test_monomial(capsys, tmp_path):
    path = tmp_path / "sq.ideal"
    path.write_text("2 0\n1 1\n0 2\n")
    assert main(["monomial", "--file", str(path), "--q", "2,3,4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "variables: 2"
    assert out[2:] == [
        "q=2\tcolength=12\tnormalized=3 ≈ 3.0000",
        "q=3\tcolength=27\tnormalized=3 ≈ 3.0000",
        "q=4\tcolength=48\tnormalized=3 ≈ 3.0000",
    ]


def test_monomial_cost_does_not_grow_with_q(tmp_path):
    path = tmp_path / "sq.ideal"
    path.write_text("2 0\n1 1\n0 2\n")
    result = run_cli("monomial", "--file", str(path), "--q", "2,1000000007", timeout=10)
    assert result.returncode == 0, result.stderr
    assert "q=1000000007\tcolength=3000000042000000147\tnormalized=3 ≈ 3.0000" in result.stdout.splitlines()


def test_monomial_rejects_box_beyond_row_cap(capsys, tmp_path, monkeypatch):
    # Should the cap ever be lost, fail instead of allocating the huge box.
    monkeypatch.setattr(monomial, "_staircase_colength", lambda *a: pytest.fail("sweep started"))
    path = tmp_path / "wide.ideal"
    path.write_text("1000000000000 0\n0 1\n")
    assert main(["monomial", "--file", str(path), "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the staircase scan needs 1000000000000 rows")


def test_monomial_rejects_generators_beyond_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(monomial, "_dominates", lambda *a: pytest.fail("minimalization started"))
    path = tmp_path / "staircase.ideal"
    path.write_text("".join(f"{i} {1000 - i}\n" for i in range(1001)))
    assert main(["monomial", "--file", str(path), "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: at most 1000 generators are supported, got 1001\n"


def test_monomial_counts_former_work_cap_input(capsys, tmp_path):
    # 10**6 rows and 5 generators; the sweep's cost does not grow with the generators.
    path = tmp_path / "tall.ideal"
    path.write_text("1000 0 0\n0 1000 0\n0 0 1\n500 500 0\n999 1 0\n")
    assert main(["monomial", "--file", str(path), "--q", "1,2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2:] == [
        "q=1\tcolength=749501\tnormalized=749501 ≈ 749501.0000",
        "q=2\tcolength=5996008\tnormalized=749501 ≈ 749501.0000",
    ]


def test_monomial_rejects_minimalize_work_beyond_cap(capsys, tmp_path, monkeypatch):
    # One pure square per variable in 500 variables: 1.25 * 10**8 pairs times
    # variables, refused before the minimalization starts.
    monkeypatch.setattr(monomial, "_dominates", lambda *a: pytest.fail("minimalization started"))
    path = tmp_path / "squares.ideal"
    path.write_text("".join(" ".join("2" if j == i else "0" for j in range(500)) + "\n" for i in range(500)))
    assert main(["monomial", "--file", str(path), "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: minimalizing needs 125000000 pairs * variables, more than 100000000\n"


def test_monomial_width_error_names_the_line(capsys, tmp_path):
    path = tmp_path / "ragged.ideal"
    path.write_text("2 0\n0 2 1\n")
    assert main(["monomial", "--file", str(path), "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: generator (0, 2, 1) does not have 2 exponents\n"


def test_monomial_missing_file():
    result = run_cli("monomial", "--file", "/nonexistent.ideal", "--q", "2")
    assert result.returncode == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "flags, lines, code",
    [
        pytest.param(
            ("5", "9", "2.6", "1.107"),
            [
                "interval: [5, 9]",
                "s: 13/5",
                "apex: 189021/25777 ≈ 7.3329",
                "branch: apex-interior",
                "certified-bound: 249157/225000 ≈ 1.1073",
                "notes: apex 189021/25777 inside [5, 9]; G(5) = 249157/225000, G(9) = 146049/125000",
                "target: 1107/1000 -> PASS",
            ],
            0,
            id="apex-interior",
        ),
        pytest.param(
            ("296", "786", "13/10", "1.89"),
            [
                "interval: [296, 786]",
                "s: 13/10",
                "apex: 4823893/1458 ≈ 3308.5685",
                "branch: increasing",
                "certified-bound: 170500033/90000000 ≈ 1.8944",
                "notes: apex 4823893/1458 right of [296, 786]; G increasing; G(296) certifies",
                "target: 189/100 -> PASS",
            ],
            0,
            id="increasing",
        ),
        pytest.param(
            ("20", "30", "2.6", "1"),
            [
                "interval: [20, 30]",
                "s: 13/5",
                "apex: 189021/25777 ≈ 7.3329",
                "branch: decreasing",
                "certified-bound: -32939/3125 ≈ -10.5405",
                "notes: apex 189021/25777 left of [20, 30]; G decreasing; G(30) certifies",
                "target: 1 -> FAIL",
            ],
            1,
            id="decreasing",
        ),
        pytest.param(
            ("5", "9", "1/2", "0"),
            [
                "interval: [5, 9]",
                "s: 1/2",
                "apex: -",
                "branch: degenerate-linear-increasing",
                "certified-bound: 1/9216 ≈ 0.0001",
                "notes: v_(s-1) = 0: G(e) = e*v_s is linear increasing; G(5) certifies",
                "target: 0 -> PASS",
            ],
            0,
            id="degenerate-linear-increasing",
        ),
    ],
)
def test_certify_interval(flags, lines, code, capsys):
    # One case per branch; the expected text is the command's full stdout.
    e_low, e_high, s, target = flags
    assert main(["certify-interval", "--dim", "6", "--e-low", e_low, "--e-high", e_high,
                 "--s", s, "--target", target]) == code
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


def test_certify_interval_rejects_non_positive_multiplicity():
    result = run_cli("certify-interval", "--dim", "6", "--e-low", "-5", "--e-high", "9",
                     "--s", "2.6", "--target", "1.107")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert result.stdout == ""


def test_certify_interval_rejects_negative_slice():
    result = run_cli("certify-interval", "--dim", "6", "--e-low", "5", "--e-high", "9",
                     "--s", "-1", "--target", "1.107")
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "slice parameter must be >= 0" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--dim", "5", "--e", "5", "--t", "1,1", "--optimize"],
        ["radical", "--dim", "4", "--case", "general", "--k", "3"],
        ["radical", "--dim", "4", "--k", "3", "--n", "2"],
    ],
)
def test_flag_combination_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_certify_interval_failing(capsys):
    assert main(["certify-interval", "--dim", "6", "--e-low", "10", "--e-high", "25",
                 "--s", "2.2", "--target", "1.118"]) == 1


def test_verify_tables_exit_codes():
    for dim in ("5", "6"):
        result = run_cli("verify-tables", "--dim", dim)
        assert result.returncode == 0
        assert result.stdout.endswith("overall-pass: true\n")


def test_verify_tables_usage_error():
    result = run_cli("verify-tables", "--dim", "4")
    assert result.returncode == 2


def test_verify_tables_byte_stable():
    first = run_cli("verify-tables", "--dim", "6")
    second = run_cli("verify-tables", "--dim", "6")
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_verify_tables_matches_api(capsys):
    assert main(["verify-tables", "--dim", "5"]) == 0
    assert capsys.readouterr().out == verify_tables(5).to_text()


def test_verify_tables_unwritable_csv_leaves_stdout_empty(tmp_path, capsys):
    assert main(["verify-tables", "--dim", "5", "--csv", str(tmp_path / "missing" / "rows.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_tables_csv(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["verify-tables", "--dim", "5", "--csv", str(target)]) == 0
    capsys.readouterr()
    content = target.read_text()
    assert content.splitlines()[0] == "name,inputs,exact_bound,decimal,target,pass,notes"
    assert content == verify_tables(5).to_csv()


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_md_rejects_zero_order(capsys):
    assert main(["md", "--max", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_decimal_outputs_are_truncations(capsys):
    assert main(["quadric", "--p", "7", "--d", "6"]) == 0
    out = capsys.readouterr().out
    exact_text, rest = out.split(" ≈ ", 1)
    decimal_text = rest.split(";", 1)[0]
    assert Fraction(decimal_text) <= Fraction(exact_text)
    assert Fraction(exact_text) - Fraction(decimal_text) < Fraction(1, 10**4)
