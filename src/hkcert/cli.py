"""Command-line interface.

Every command prints exact rationals alongside truncated decimals and
exits 0 exactly when all requested comparisons pass.  Rational arguments
accept both "p/q" and decimal literals; decimals parse exactly ("3.32"
means 83/25).  Integer arguments accept what ``int`` does; every
multiplicity (``--e``, ``--e-low``, ``--e-high``) is one.  Every numeric
argument is read by a ``rationals`` reader through ``_argument``, so a
bad one, a run of more than 4300 digits included, exits 2 the same way
under any interpreter setting.  ``main`` returns the exit code of every
run, help, ``--version`` and argparse's own usage errors included, and
``entrypoint``, the console script, exits with it.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from . import __version__
from .rationals import Rational, _parse_integer, decimal_render, format_rational, parse_rational


def _fmt(x: Rational) -> str:
    return f"{format_rational(x)} ≈ {decimal_render(x)}"


def _argument(read: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type that reads its text with ``read``; a ValueError becomes argparse's usage error (exit 2)."""

    def convert(text: str) -> object:
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_int = _argument(_parse_integer)
_rational = _argument(parse_rational)
_int_list = _argument(lambda text: tuple(map(_parse_integer, text.split(","))))
_rational_list = _argument(lambda text: tuple(map(parse_rational, text.split(","))))


def _text(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


def _target_lines(bound: Rational, target: Rational | None) -> tuple[list[str], int]:
    if target is None:
        return [], 0
    passed = bound >= target
    return [f"target: {format_rational(target)} -> {'PASS' if passed else 'FAIL'}"], 0 if passed else 1


def _add_vol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("--s", type=_rational, required=True)


def _cmd_vol(args: argparse.Namespace) -> tuple[str, int]:
    from .slab import vol_slab

    return _text(_fmt(vol_slab(args.dim, args.s))), 0


def _add_md(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max", type=_int, required=True, dest="max_order")


def _cmd_md(args: argparse.Namespace) -> tuple[str, int]:
    from .series import zigzag_coeffs

    lines = []
    for d, m in enumerate(zigzag_coeffs(args.max_order), start=1):
        threshold = 1 + m
        lines.append(f"{d}\t{format_rational(m)}\t{format_rational(threshold)}\t{decimal_render(threshold)}")
    return _text(*lines), 0


def _add_bound(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("--e", type=_int, required=True)
    gens = p.add_mutually_exclusive_group(required=True)
    gens.add_argument("--r", type=_int, help="uniform generator count (all valuations 1)")
    gens.add_argument("--t", type=_rational_list, help="comma-separated valuations t_1,..,t_r")
    slice_group = p.add_mutually_exclusive_group(required=True)
    slice_group.add_argument("--s", type=_rational, help="slice parameter")
    slice_group.add_argument("--optimize", action="store_true", help="search for the best slice")
    p.add_argument("--resolution", type=_int, default=100, help="grid resolution for --optimize")
    p.add_argument("--target", type=_rational, help="pass/fail threshold for the bound")


def _cmd_bound(args: argparse.Namespace) -> tuple[str, int]:
    from .bounds import optimize_slice, volume_lower_bound

    lines = []
    if args.optimize:
        if args.t is not None:
            raise ValueError("--optimize supports only the uniform --r form")
        s, bound = optimize_slice(args.dim, args.e, args.r, args.resolution)
        lines.append(f"s: {format_rational(s)}")
    else:
        bound = volume_lower_bound(args.dim, args.e, args.s, r=args.r, valuations=args.t)
    lines.append(f"bound: {_fmt(bound)}")
    target_lines, code = _target_lines(bound, args.target)
    return _text(*lines, *target_lines), code


def _add_verify_tables(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_int, choices=(5, 6), required=True)
    p.add_argument("--csv", help="also write the rows as CSV to this path")


def _cmd_verify_tables(args: argparse.Namespace) -> tuple[str, int]:
    from pathlib import Path

    from .tables import verify_tables

    report = verify_tables(args.dim)
    if args.csv is not None:
        Path(args.csv).write_text(report.to_csv())
    return report.to_text(), 0 if report.overall_pass else 1


def _add_quadric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=_int, required=True, help="odd prime characteristic")
    p.add_argument("--d", type=_int, choices=(5, 6), required=True)


def _cmd_quadric(args: argparse.Namespace) -> tuple[str, int]:
    from .bounds import quadric_ehk
    from .series import conjecture_threshold

    value = quadric_ehk(args.p, args.d)
    threshold = conjecture_threshold(args.d)
    exceeds = value > threshold
    line = f"{_fmt(value)}; exceeds {format_rational(threshold)}: {'yes' if exceeds else 'no'}"
    return _text(line), 0 if exceeds else 1


def _add_radical(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("--e", type=_int, default=6)
    p.add_argument("--case", choices=("minimal_gap", "general"), help="closed-form case")
    p.add_argument("--k", type=_int, help="embedding codimension (recursion mode)")
    p.add_argument("--n", type=_int, help="root degree (recursion mode)")
    p.add_argument("--iterations", type=_int, help="recursion depth (recursion mode)")


def _cmd_radical(args: argparse.Namespace) -> tuple[str, int]:
    from .bounds import fixed_dimension_bound, radical_recursion_bound

    recursion_flags = (args.k, args.n, args.iterations)
    if args.case is not None:
        if any(flag is not None for flag in recursion_flags):
            raise ValueError("--case and recursion flags (--k/--n/--iterations) are mutually exclusive")
        bound = fixed_dimension_bound(args.dim, args.e, args.case)
    elif all(flag is not None for flag in recursion_flags):
        bound = radical_recursion_bound(args.dim, args.e, args.k, args.n, args.iterations)
    else:
        raise ValueError("give either --case, or all of --k --n --iterations")
    return _text(f"bound: {_fmt(bound)}"), 0


def _add_monomial(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", required=True, help="one generator per line, space-separated exponents")
    p.add_argument("--q", type=_int_list, required=True, help="comma-separated Frobenius powers")


def _cmd_monomial(args: argparse.Namespace) -> tuple[str, int]:
    from pathlib import Path

    from .monomial import ehk_estimate, parse_generators

    ideal = parse_generators(Path(args.file).read_text())
    sequence = ehk_estimate(ideal, args.q)
    lines = [
        f"variables: {ideal.num_vars}",
        "generators: " + " / ".join(" ".join(map(format_rational, g)) for g in ideal.generators),
    ]
    for entry in sequence.entries:
        q, colength = format_rational(entry.q), format_rational(entry.colength)
        lines.append(f"q={q}\tcolength={colength}\tnormalized={_fmt(entry.normalized)}")
    return _text(*lines), 0


def _add_certify_interval(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("--e-low", type=_int, required=True)
    p.add_argument("--e-high", type=_int, required=True)
    p.add_argument("--s", type=_rational, required=True)
    p.add_argument("--target", type=_rational, required=True)


def _cmd_certify_interval(args: argparse.Namespace) -> tuple[str, int]:
    from .bounds import certify_interval
    from .report import _interval_notes

    row = certify_interval(args.dim, args.e_low, args.e_high, args.s)
    target_lines, code = _target_lines(row.certified_bound, args.target)
    return _text(
        f"interval: [{format_rational(args.e_low)}, {format_rational(args.e_high)}]",
        f"s: {format_rational(args.s)}",
        f"apex: {'-' if row.apex is None else _fmt(row.apex)}",
        f"branch: {row.branch}",
        f"certified-bound: {_fmt(row.certified_bound)}",
        f"notes: {_interval_notes(row, args.e_low, args.e_high)}",
        *target_lines,
    ), code


# The subcommands, in help order: name -> (help, argument adder, handler).
# No adder imports anything; each handler imports the modules it needs when
# it runs.  So every process builds the whole parser but imports only the
# modules of the subcommand it runs.
_COMMANDS = {
    "vol": ("exact hypercube slab volume v_s", _add_vol, _cmd_vol),
    "md": ("series coefficients m_d and thresholds 1 + m_d", _add_md, _cmd_md),
    "bound": ("volume lower bound e (v_s - sum v_{s-t_i})", _add_bound, _cmd_bound),
    "verify-tables": ("recompute a bundled certification table", _add_verify_tables, _cmd_verify_tables),
    "quadric": ("closed-form e_HK of the quadric hypersurface", _add_quadric, _cmd_quadric),
    "radical": ("radical-extension lower bounds", _add_radical, _cmd_radical),
    "monomial": ("Frobenius colengths of a monomial ideal", _add_monomial, _cmd_monomial),
    "certify-interval": ("certify G(e) >= target over an integer interval", _add_certify_interval, _cmd_certify_interval),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand of ``_COMMANDS``, in its order."""
    parser = argparse.ArgumentParser(
        prog="hkcert",
        description="Exact-rational lower bounds for Hilbert-Kunz multiplicities.",
    )
    parser.add_argument("--version", action="version", version=f"hkcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """The exit code of ``hkcert argv`` (default: the command line), argparse's own exits included."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        out, code = _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
