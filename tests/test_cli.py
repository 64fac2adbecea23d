import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import hkcert
from hkcert import bounds, cli, monomial, rationals, series, slab
from hkcert.cli import main
from hkcert.rationals import format_rational
from hkcert.series import zigzag_numbers
from hkcert.tables import verify_tables
from test_bounds import LEAST_STRONG_PSEUDOPRIMES


# Where the tests import hkcert from: the checkout's src, or the installed
# copy's site-packages.  Children run that same copy.
SRC = str(Path(hkcert.__file__).resolve().parents[1])
BUDGET_ERROR = "error: a number of more than 4300 digits is past the print budget\n"


def child_env():
    """The current environment with ``SRC`` first on PYTHONPATH."""
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
    # -S keeps site's own imports out of the picture.  The package loads its
    # submodules on first use, so the probe uses a name to load all of them.
    probe = "import sys, hkcert.cli; hkcert.vol_slab; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
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
    # The library's cap: should it ever be lost, fail instead of building the triangle.
    monkeypatch.setattr(series, "zigzag_numbers", lambda *a: pytest.fail("triangle built"))
    assert main(["md", "--max", order]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order must be <= 1561, got {order}\n"


def test_md_cap_is_the_last_order_that_prints():
    # Within the print budget, the threshold 1 + m_d of the largest allowed
    # order still formats, and that of the next order does not.
    *_, e_last, e_beyond = zigzag_numbers(series._MAX_ORDER + 1)
    last = Fraction(e_last, factorial(series._MAX_ORDER))
    beyond = Fraction(e_beyond, factorial(series._MAX_ORDER + 1))
    format_rational(1 + last)
    with pytest.raises(ValueError, match="more than 4300 digits is past the print budget"):
        format_rational(1 + beyond)


def test_usage_errors_leave_stdout_empty(capsys, tmp_path, monkeypatch):
    # Under a 640-digit print budget, 1 + m_d first passes it at d = 314,
    # the colength of (x^(10^400)) at q = 10^300 has 701 digits, and so does
    # a target of 10^700, while the lines before them render: every command
    # must fail before writing anything.
    path = tmp_path / "power.ideal"
    path.write_text(f"{10**400}\n")
    monkeypatch.setattr(rationals, "_MAX_DIGITS", 640)
    assert main(["md", "--max", "313"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 313
    for argv in (
        ["md", "--max", "320"],
        ["monomial", "--file", str(path), "--q", f"1,{10**300}"],
        ["bound", "--dim", "3", "--e", "2", "--r", "1", "--s", "1", "--target", str(10**700)],
        ["certify-interval", "--dim", "6", "--e-low", "5", "--e-high", "9", "--s", "2.6", "--target", str(10**700)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == BUDGET_ERROR.replace("4300", "640")


S_301_BITS = f"{2**300 + 1}/{2**299}"


@pytest.mark.parametrize("setting", [None, "0", "100000"])
def test_print_budget_does_not_depend_on_the_interpreter(setting):
    # Python's own int-to-str limit, PYTHONINTMAXSTRDIGITS, changes neither
    # stdout nor the exit code: each result below has a part of more than
    # 4300 digits, and a target of 4300 digits still prints.
    env = child_env()
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if setting is not None:
        env["PYTHONINTMAXSTRDIGITS"] = setting

    def run(*args):
        return subprocess.run([sys.executable, "-m", "hkcert", *args], capture_output=True, text=True, env=env)

    for argv in (
        ["vol", "--dim", "64", "--s", S_301_BITS],
        ["bound", "--dim", "64", "--e", "6", "--r", "4", "--s", S_301_BITS],
        ["certify-interval", "--dim", "64", "--e-low", "5", "--e-high", "9", "--s", S_301_BITS, "--target", "1"],
        ["radical", "--dim", "6", "--e", "6", "--k", "4", "--n", "2", "--iterations", "7000"],
        ["bound", "--dim", "3", "--e", "2", "--r", "1", "--s", "1", "--target", "1e4300"],
    ):
        result = run(*argv)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", BUDGET_ERROR), argv
    result = run("bound", "--dim", "3", "--e", "2", "--r", "1", "--s", "1", "--target", "1e4299")
    assert result.returncode == 1
    assert result.stdout == f"bound: 1/3 ≈ 0.3333\ntarget: {10**4299} -> FAIL\n"


def test_digit_runs_do_not_depend_on_the_interpreter():
    # One child under Python's default int-to-str limit and one with it off:
    # a number of 4401 digits is refused before it is parsed, with the same
    # stderr.  With the limit off, the slice once printed `1 ≈ 1.0000` and
    # the root degree `bound: 3 ≈ 3.0000`, both exiting 0, and the dimension
    # failed on the dimension cap instead.
    long_run = "5" + "0" * 4400

    def run(argv, setting):
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if setting is not None:
            env["PYTHONINTMAXSTRDIGITS"] = setting
        return subprocess.run([sys.executable, "-m", "hkcert", *argv], capture_output=True, text=True, env=env)

    for argv, flag in [
        (["vol", "--dim", "1", "--s", long_run], "vol: error: argument --s"),
        (["vol", "--dim", long_run, "--s", "1"], "vol: error: argument --dim"),
        (["radical", "--dim", "3", "--e", "6", "--k", "4", "--n", long_run, "--iterations", "0"],
         "radical: error: argument --n"),
    ]:
        default, unlimited = run(argv, None), run(argv, "0")
        assert (default.returncode, default.stdout) == (unlimited.returncode, unlimited.stdout) == (2, ""), argv
        assert default.stderr == unlimited.stderr, argv
        assert default.stderr.endswith(f"hkcert {flag}: a run of more than 4300 digits is past the input budget\n")


@pytest.mark.parametrize("argv, message", [
    (["bound", "--dim", "3", "--e", "2", "--t", "1,x", "--s", "1"], "argument --t: "),
    (["bound", "--dim", "3", "--e", "2", "--t", "1,", "--s", "1"], "argument --t: "),
    (["monomial", "--file", "sq.ideal", "--q", "1,x"], "argument --q: not an integer literal: 'x'"),
    (["monomial", "--file", "sq.ideal", "--q", "2,1/2"], "argument --q: not an integer literal: '1/2'"),
])
def test_bad_list_arguments_are_usage_errors(argv, message, capsys):
    # argparse reports the list parsers' ArgumentTypeError, and main returns 2 before any command runs.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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
    assert main(["bound", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def test_bound_optimize(capsys):
    assert main(["bound", "--dim", "5", "--e", "5", "--r", "4", "--optimize", "--resolution", "20",
                 "--target", "1.313"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s: ")


# A --dim past 512 is refused on its own range, before either cap is read.
@pytest.mark.parametrize("dim, resolution, message", [
    pytest.param("2", "500001", "error: dimension * grid_resolution must be <= 1000000", id="2-500001"),
    pytest.param("1000001", "2", "error: d must be <= 512, got 1000001", id="1000001-2"),
])
def test_optimize_rejects_grid_beyond_cost_cap(dim, resolution, message, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of building the huge grid.
    monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
    assert main(["bound", "--dim", dim, "--e", "5", "--r", "3", "--optimize", "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


@pytest.mark.parametrize("dim, resolution, message", [
    pytest.param("200", "500", "error: dimension**3 * grid_resolution must be <= 1000000000", id="200-500"),
    pytest.param("1000", "20", "error: d must be <= 512, got 1000", id="1000-20"),
    pytest.param("10000", "2", "error: d must be <= 512, got 10000", id="10000-2"),
])
def test_optimize_rejects_work_beyond_cost_cap(dim, resolution, message, capsys, monkeypatch):
    monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
    assert main(["bound", "--dim", dim, "--e", "5", "--r", "3", "--optimize", "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["vol", "--dim", "1000000", "--s", "1/2"],
        ["vol", "--dim", "513", "--s", "600"],
        ["bound", "--dim", "513", "--e", "5", "--r", "3", "--s", "1/2"],
        ["bound", "--dim", "513", "--e", "5", "--r", "3", "--optimize", "--resolution", "2"],
        ["bound", "--dim", "513", "--e", "5", "--t", "1,1/2", "--s", "1/2"],
        ["certify-interval", "--dim", "513", "--e-low", "5", "--e-high", "9", "--s", "2", "--target", "1"],
        ["radical", "--dim", "513", "--case", "general"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_dimension_beyond_cap_exits_2(argv, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of computing the volumes or d!.
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
    monkeypatch.setattr(bounds, "_slab_numerator", lambda *a: pytest.fail("halving point computed"))
    monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
    monkeypatch.setattr(bounds, "factorial", lambda *a: pytest.fail("factorial computed"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: d must be <= 512, got {argv[2]}")


LONG_SLICE = "511." + "0" * 999 + "1"
# At d = 512, s = 0.9...9 with k nines is one volume of 512 * bit length of
# 10**k bits: k = 77 fills the slab work budget (512 * 256 bits) and k = 78
# is past it.  s = 1.0...01 with k decimals evaluates v_s and v_{s-1} of
# that size each: k = 38 is the last pair inside the budget (2 * 512 * 127
# bits) and k = 39 the first past it (2 * 512 * 130 bits).
NINES_AT_BUDGET, NINES_PAST_BUDGET = "0." + "9" * 77, "0." + "9" * 78
PAIR_AT_BUDGET, PAIR_PAST_BUDGET = "1." + "0" * 37 + "1", "1." + "0" * 38 + "1"


def slice_argvs(vol_s, pair_s):
    return [
        ["vol", "--dim", "512", "--s", vol_s],
        ["bound", "--dim", "512", "--e", "6", "--r", "4", "--s", pair_s],
        ["certify-interval", "--dim", "512", "--e-low", "5", "--e-high", "9", "--s", pair_s, "--target", "1"],
    ]


def slice_id(argv):
    return f"{argv[0]}-{argv[argv.index('--s') + 1][:6]}"


# Each case with the summed size that its error line names: d times the bit
# length of max(a, b), s = a/b, over the volumes evaluated (v_s, and v_{s-1}
# past vol).  511.0...01 has 3331 bits over 10**1000, and 10**4300 has 14285.
@pytest.mark.parametrize(
    "argv, got",
    [
        *(pytest.param(argv, got, id=slice_id(argv)) for argv, got in [
            (["vol", "--dim", "512", "--s", LONG_SLICE], 512 * 3331),
            (["vol", "--dim", "512", "--s", "1e-4300"], 512 * 14285),
            (["bound", "--dim", "512", "--e", "6", "--r", "4", "--s", LONG_SLICE], 2 * 512 * 3331),
            (["certify-interval", "--dim", "512", "--e-low", "5", "--e-high", "9", "--s", LONG_SLICE, "--target", "1"],
             2 * 512 * 3331),
            *zip(slice_argvs(NINES_PAST_BUDGET, PAIR_PAST_BUDGET), [512 * 260, 2 * 512 * 130, 2 * 512 * 130]),
        ]),
        pytest.param(["vol", "--dim", "10", "--s", "1e-4300"], 142850, id="vol-10-1e-430"),
    ],
)
def test_long_slice_beyond_cap_exits_2_fast(argv, got, capsys):
    # Uncapped, the first of these worked 75 s and then failed to print.
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: summed slab sizes (dimension * bit length) must be <= 131072, got {got}\n"


@pytest.mark.parametrize("argv", slice_argvs(NINES_AT_BUDGET, PAIR_AT_BUDGET), ids=slice_id)
def test_long_slice_at_cap_passes_the_slab_check(argv, capsys):
    # The work budget admits these slices and their volumes are evaluated;
    # each result's denominator, of more than 4300 digits, is then refused
    # by the print budget.
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BUDGET_ERROR


def test_certify_interval_unprintable_apex_exits_2_fast(capsys):
    # The library returns this row; its apex has more than 4300 digits, past
    # the print budget, so nothing is printed.
    start = time.perf_counter()
    assert main(["certify-interval", "--dim", "64", "--e-low", "5", "--e-high", "9", "--s", S_301_BITS,
                 "--target", "1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BUDGET_ERROR


def fail_past_print_check(monkeypatch):
    """Fail the test where ``radical_recursion_bound``'s print check admits its power.

    The handler imports the bound functions from ``bounds`` when it runs,
    and they read ``_radical_terms`` from the module, so the stub is seen.
    """
    terms = bounds._radical_terms
    monkeypatch.setattr(bounds, "_radical_terms", lambda *a: pytest.fail(f"power built from {terms(*a)}"))


def test_radical_rejects_power_beyond_cost_cap(capsys, monkeypatch):
    # The former 10**7-bit power cap's first refused depth (5**2500001, about
    # 1 s of work) is refused by the print check before the power.
    fail_past_print_check(monkeypatch)
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", "2500001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BUDGET_ERROR


def test_radical_prints_bound_the_power_cap_refused(capsys):
    # e * n has 14285 bits, so the former cap refused 1000 steps, but the base
    # is 1/3 and the bound 1 + 1/(2 * 3**1000) prints.
    e, k = 2 * 10**4299, 10**4299 - 1
    assert main(["radical", "--dim", "2", "--e", str(e), "--k", str(k), "--n", "2", "--iterations", "1000"]) == 0
    assert capsys.readouterr() == (f"bound: {2 * 3**1000 + 1}/{2 * 3**1000} ≈ 1.0000\n", "")


def test_radical_prints_deepest_printable_depth(capsys):
    # At e 6, n 2 the bound's denominator is 5**iterations: 6151 is the last
    # depth within the 4300-digit print budget, and 6152 fails only when printed.
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", "6151"]) == 0
    assert capsys.readouterr().out.startswith("bound: ")
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", "6152"]) == 2
    assert capsys.readouterr() == ("", BUDGET_ERROR)


@pytest.mark.parametrize("iterations", ["10000", "2000000"])
def test_radical_rejects_depth_beyond_print_limit(iterations, capsys, monkeypatch):
    # Should the check be lost, fail instead of building the power.
    fail_past_print_check(monkeypatch)
    assert main(["radical", "--dim", "4", "--e", "6", "--k", "4", "--n", "2", "--iterations", iterations]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BUDGET_ERROR


@pytest.mark.parametrize("dim, e, k, n", [(4, 6, 4, 2), (5, 20, 18, 3), (6, 9, 3, 2), (7, 12, 5, 4)])
def test_radical_print_limit_rejects_only_unprintable_bounds(dim, e, k, n, capsys):
    # At the first depth the check rejects, the exact bound's denominator
    # already has more than 4300 digits.
    base, start = bounds._radical_terms(dim, e, k, n, 0)
    budget_bits = (10**rationals._MAX_DIGITS).bit_length()
    depth = -(-(budget_bits + start.numerator.bit_length()) // (base.denominator.bit_length() - 1))
    args = ["radical", "--dim", str(dim), "--e", str(e), "--k", str(k), "--n", str(n)]
    assert main([*args, "--iterations", str(depth)]) == 2
    assert capsys.readouterr() == ("", BUDGET_ERROR)
    assert (1 + base**depth * start).denominator >= 10**rationals._MAX_DIGITS
    # The depth before may still fail when printed, but not at the check.
    assert bounds._radical_terms(dim, e, k, n, depth - 1) == (base, start)
    assert main([*args, "--iterations", str(depth - 1)]) in (0, 2)


def test_radical_case_rejects_dimension_beyond_print_limit(capsys, monkeypatch):
    # The general bound first has more than 4300 digits at d = 57; minimal_gap
    # prints up to the 512 cap.  The check runs before the power, and
    # e >= d! + 1 needs no recursion.
    assert main(["radical", "--dim", "56", "--case", "general"]) == 0
    assert capsys.readouterr().out.startswith("bound: ")
    assert main(["radical", "--dim", "512", "--case", "minimal_gap"]) == 0
    assert capsys.readouterr().out.startswith("bound: ")
    fail_past_print_check(monkeypatch)
    assert main(["radical", "--dim", "57", "--case", "general"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BUDGET_ERROR
    assert main(["radical", "--dim", "57", "--case", "general", "--e", str(factorial(57) + 1)]) == 0
    assert capsys.readouterr().out == f"bound: {factorial(57) + 1}/{factorial(57)} ≈ 1.0000\n"


@pytest.mark.parametrize("count", [1001, 14998])
def test_bound_rejects_valuations_beyond_cap(count, capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of computing one volume per valuation.
    monkeypatch.setattr(bounds, "_slab_ratios", lambda *a: pytest.fail("volume computed"))
    valuations = ",".join(f"1/{k}" for k in range(2, count + 2))
    assert main(["bound", "--dim", "8", "--e", "5", "--s", "4", "--t", valuations]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: number of distinct valuations must be <= 1000, got {count}\n"


def test_rational_exponent_beyond_cap_exits_2(capsys, monkeypatch):
    # Should the cap ever be lost, fail instead of building 10**10000000.
    monkeypatch.setattr(rationals, "Fraction", lambda *a: pytest.fail("literal converted"))
    assert main(["vol", "--dim", "3", "--s", "1e10000000"]) == 2
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
    assert result.stderr == "error: p must be <= 318665857834031151167460, got 318665857834031151167461\n"
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
        ("--dim", "1", "d must be >= 2"),
        ("--e", "5", "e must be >= 6"),
        ("--k", "2", "k must be >= 3"),
        ("--k", "5", "k must be <= 4, got 5"),
        ("--n", "1", "n must be >= 2"),
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
    assert captured.err.endswith("hkcert radical: error: argument --e: not an integer literal: '17/2'\n")


# The multiplicity e is a positive integer wherever it enters: each library
# entry refuses e = 13/2 by the parameter's name, and each command's
# multiplicity flag is read as an integer, so argparse refuses it (exit 2).
MULTIPLICITY_ENTRIES = [
    pytest.param(lambda: bounds.volume_lower_bound(5, Fraction(13, 2), Fraction(7, 5), r=3), "e",
                 id="volume_lower_bound-r"),
    pytest.param(lambda: bounds.volume_lower_bound(5, Fraction(13, 2), Fraction(7, 5), valuations=[1, 1]), "e",
                 id="volume_lower_bound-valuations"),
    pytest.param(lambda: bounds.optimize_slice(5, Fraction(13, 2), 3, 10), "e", id="optimize_slice"),
    pytest.param(lambda: bounds.radical_recursion_bound(4, Fraction(13, 2), 4, 2, 4), "e",
                 id="radical_recursion_bound"),
    pytest.param(lambda: bounds.fixed_dimension_bound(4, Fraction(13, 2), "minimal_gap"), "e",
                 id="fixed_dimension_bound"),
    pytest.param(lambda: bounds.certify_interval(6, Fraction(13, 2), 9, Fraction(13, 5)), "e_low",
                 id="certify_interval-e_low"),
    pytest.param(lambda: bounds.certify_interval(6, 5, Fraction(13, 2), Fraction(13, 5)), "e_high",
                 id="certify_interval-e_high"),
    pytest.param(["bound", "--dim", "5", "--e", "13/2", "--r", "3", "--s", "7/5"], "--e", id="bound-s"),
    pytest.param(["bound", "--dim", "5", "--e", "13/2", "--t", "1,1", "--s", "7/5"], "--e", id="bound-t"),
    pytest.param(["bound", "--dim", "5", "--e", "13/2", "--r", "3", "--optimize"], "--e", id="bound-optimize"),
    pytest.param(["radical", "--dim", "4", "--e", "13/2", "--case", "minimal_gap"], "--e", id="radical-case"),
    pytest.param(["radical", "--dim", "4", "--e", "13/2", "--k", "4", "--n", "2", "--iterations", "4"], "--e",
                 id="radical-recursion"),
    pytest.param(["certify-interval", "--dim", "6", "--e-low", "13/2", "--e-high", "9", "--s", "13/5",
                  "--target", "1"], "--e-low", id="certify-interval-e-low"),
    pytest.param(["certify-interval", "--dim", "6", "--e-low", "5", "--e-high", "13/2", "--s", "13/5",
                  "--target", "1"], "--e-high", id="certify-interval-e-high"),
]


@pytest.mark.parametrize("entry, name", MULTIPLICITY_ENTRIES)
def test_multiplicity_is_an_integer_at_every_entry(entry, name, capsys):
    if callable(entry):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 13/2$"):
            entry()
        return
    assert main(entry) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"hkcert {entry[0]}: error: argument {name}: not an integer literal: '13/2'\n")


def test_radical_has_no_field_degree_flag(capsys):
    assert main(["radical", "--dim", "6", "--e", "8", "--k", "4", "--n", "3", "--iterations", "2", "--b", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --b 2" in captured.err


def test_monomial(capsys, tmp_path):
    path = tmp_path / "sq.ideal"
    path.write_text("2 0\n1 1\n0 2\n")
    assert main(["monomial", "--file", str(path), "--q", "2,3,4"]) == 0
    assert capsys.readouterr().out == (
        "variables: 2\n"
        "generators: 0 2 / 1 1 / 2 0\n"
        "q=2\tcolength=12\tnormalized=3 ≈ 3.0000\n"
        "q=3\tcolength=27\tnormalized=3 ≈ 3.0000\n"
        "q=4\tcolength=48\tnormalized=3 ≈ 3.0000\n"
    )


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
    assert captured.err == "error: staircase scan rows must be <= 1000000, got 1000000000000\n"


def test_monomial_rejects_generators_beyond_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(monomial, "_dominates", lambda *a: pytest.fail("minimalization started"))
    path = tmp_path / "staircase.ideal"
    path.write_text("".join(f"{i} {1000 - i}\n" for i in range(1001)))
    assert main(["monomial", "--file", str(path), "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: number of generators must be <= 1000, got 1001\n"


def test_monomial_unprintable_colength_exits_2_fast(capsys, tmp_path):
    # 200 unit generators and 16 q's of 4300 digits: each colength q**200
    # has about 860000 digits.  The check on the largest q refuses them all
    # before any power; building them took 3.2 s.
    path = tmp_path / "units.ideal"
    path.write_text("".join(" ".join("1" if j == i else "0" for j in range(200)) + "\n" for i in range(200)))
    qs = ",".join(str(10**4299 + i) for i in range(16))
    start = time.perf_counter()
    assert main(["monomial", "--file", str(path), "--q", qs]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", BUDGET_ERROR)


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
    assert captured.err == "error: generators**2 * num_vars must be <= 100000000, got 125000000\n"


@pytest.mark.parametrize("text, pairs, lines", [
    ("".join(f"{i} {4 - i}\n" for i in range(5)), 10, ["variables: 2",
                                                       "generators: 0 4 / 1 3 / 2 2 / 3 1 / 4 0",
                                                       "q=1\tcolength=10\tnormalized=10 ≈ 10.0000",
                                                       "q=2\tcolength=40\tnormalized=10 ≈ 10.0000"]),
    ("2 0 0\n0 2 0\n0 0 2\n", 3, ["variables: 3",
                                  "generators: 0 0 2 / 0 2 0 / 2 0 0",
                                  "q=1\tcolength=8\tnormalized=8 ≈ 8.0000",
                                  "q=2\tcolength=64\tnormalized=8 ≈ 8.0000"]),
    ("2 0 0 0\n0 2 0 0\n0 0 2 0\n0 0 0 2\n1 1 1 0\n", 10, ["variables: 4",
                                                            "generators: 0 0 0 2 / 0 0 2 0 / 0 2 0 0 / 1 1 1 0 / 2 0 0 0",
                                                            "q=1\tcolength=14\tnormalized=14 ≈ 14.0000",
                                                            "q=2\tcolength=224\tnormalized=14 ≈ 14.0000"]),
], ids=["staircase", "squares", "four-variables"])
def test_monomial_reaches_the_stubbed_helpers(text, pairs, lines, capsys, tmp_path, monkeypatch):
    # The "minimalization started" and "sweep started" stubs above guard only
    # while `monomial` calls these helpers through the module.  On an admitted
    # file of each guarded shape, every pair of generators (none dominated) is
    # decided by _dominates, and lambda(R/I) is swept once for both q's.  In
    # four variables, the sweep's box comes from the pure powers the ideal keeps.
    calls = {"_dominates": [], "_staircase_colength": []}
    for name, record in calls.items():
        real = getattr(monomial, name)
        monkeypatch.setattr(monomial, name, lambda *a, record=record, real=real: record.append(a) or real(*a))
    path = tmp_path / "admitted.ideal"
    path.write_text(text)
    assert main(["monomial", "--file", str(path), "--q", "1,2"]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)
    assert (len(calls["_dominates"]), len(calls["_staircase_colength"])) == (pairs, 1)


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
    assert result.stderr == "error: s must be >= 0\n"
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
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"hkcert {hkcert.__version__}\n", "")


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
