"""Command-line interface.

Subcommands: derive, s21, sweep, tune, compare. Exit codes: 0 success,
1 domain/validation error, 2 numerical failure (convergence, bracketing,
dressed-state labeling, float overflow or division by zero).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import Any

from . import __version__
from .errors import BracketingError, ConvergenceError, DomainError, LabelingError
from .readout import s21_curve, write_curve_csv
from .studio import (
    SweepSpec,
    TuneSpec,
    compare_to_epr,
    derive,
    load_design,
    render_tune_report,
    sweep,
    sweep_csv_lines,
    tune,
    write_report,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so usage errors
    map onto the validation exit code."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads -1e-15 and -inf as option flags; no
        # cqedkit option starts with a digit, a point or "inf"
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise DomainError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cqedkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cqedkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="run the full derivation chain")
    p_derive.add_argument("--config", required=True, help="design file (JSON)")
    p_derive.add_argument("--out", required=True, help="report path (JSON)")
    p_derive.set_defaults(run=_cmd_derive)

    p_s21 = sub.add_parser("s21", help="emit feedline transmission curve(s)")
    p_s21.add_argument("--config", required=True)
    p_s21.add_argument("--state", required=True, choices=("ground", "excited", "both"))
    p_s21.add_argument("--span-hz", required=True, type=float, dest="span_hz")
    p_s21.add_argument("--points", required=True, type=int)
    p_s21.add_argument("--q-internal", type=float, default=math.inf, dest="q_internal")
    p_s21.add_argument("--out", required=True, help="CSV path")
    p_s21.set_defaults(run=_cmd_s21)

    p_sweep = sub.add_parser("sweep", help="sweep one design parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", required=True, type=float, dest="from_value")
    p_sweep.add_argument("--to", required=True, type=float, dest="to_value")
    p_sweep.add_argument("--steps", required=True, type=int)
    p_sweep.add_argument("--emit", required=True, help="comma-separated quantity names")
    p_sweep.add_argument("--out", required=True, help="CSV path")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_tune = sub.add_parser("tune", help="tune one parameter to a target quantity")
    p_tune.add_argument("--config", required=True)
    p_tune.add_argument("--vary", required=True)
    p_tune.add_argument("--target", required=True, help="<quantity>=<value>")
    p_tune.add_argument("--bracket", required=True, help="<lo>,<hi>")
    p_tune.add_argument("--tol", type=float, default=1e-6)
    p_tune.add_argument("--out", required=True, help="report path (JSON)")
    p_tune.set_defaults(run=_cmd_tune)

    p_compare = sub.add_parser(
        "compare", help="compare the derived chain with the shipped EPR reference"
    )
    p_compare.add_argument("--config", required=True)
    p_compare.set_defaults(run=_cmd_compare)

    return parser


def _cmd_derive(args: argparse.Namespace) -> int:
    derived = derive(load_design(args.config))
    write_report(derived, args.out)
    sys.stdout.write(f"report: {args.out}\n")
    return EXIT_OK


def _cmd_s21(args: argparse.Namespace) -> int:
    derived = derive(load_design(args.config))
    states = ("ground", "excited") if args.state == "both" else (args.state,)
    for state in states:
        curve = s21_curve(
            derived.coupling, state, args.span_hz, args.points, args.q_internal
        )
        out = Path(args.out)
        if args.state == "both":
            out = out.with_name(f"{out.stem}.{state}{out.suffix}")
        write_curve_csv(curve, out)
        sys.stdout.write(f"{state}: {out}\n")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    outputs = tuple(name.strip() for name in args.emit.split(",") if name.strip())
    spec = SweepSpec(
        parameter=args.param,
        lo=args.from_value,
        hi=args.to_value,
        steps=args.steps,
        outputs=outputs,
    )
    result = sweep(load_design(args.config), spec)
    Path(args.out).write_text("\n".join(sweep_csv_lines(result)) + "\n", encoding="utf-8")
    failed = sum(1 for row in result.rows if row.status != "ok")
    sys.stdout.write(f"{len(result.rows)} rows ({failed} failed): {args.out}\n")
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    if "=" not in args.target:
        raise DomainError("--target must look like <quantity>=<value>")
    quantity, _, raw_value = args.target.partition("=")
    try:
        target_value = float(raw_value)
    except ValueError as exc:
        raise DomainError(f"target value {raw_value!r} is not a number") from exc
    parts = args.bracket.split(",")
    if len(parts) != 2:
        raise DomainError("--bracket must look like <lo>,<hi>")
    try:
        bracket = (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"bracket {args.bracket!r} is not a pair of numbers") from exc
    spec = TuneSpec(
        vary=args.vary,
        target_quantity=quantity.strip(),
        target_value=target_value,
        bracket=bracket,
        rel_tol=args.tol,
    )
    result = tune(load_design(args.config), spec)
    Path(args.out).write_text(render_tune_report(result), encoding="utf-8")
    sys.stdout.write(
        f"{result.parameter} = {result.parameter_value:.9g} gives "
        f"{result.target_quantity} = {result.achieved_value:.9g}: {args.out}\n"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_to_epr(derive(load_design(args.config)))
    header = f"{'quantity':<8} {'analytic':>16} {'reference':>16} {'gap_%':>8} {'expected_%':>11} ok"
    sys.stdout.write(header + "\n")
    for entry in comparison.entries:
        sys.stdout.write(
            f"{entry.quantity:<8} {entry.analytic:>16.9g} {entry.reference:>16.9g} "
            f"{entry.gap_percent:>8.3f} {entry.expected_percent:>11.1f} "
            f"{'yes' if entry.within_expected else 'NO'}\n"
        )
    return EXIT_OK if comparison.all_within else EXIT_DOMAIN


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except (ConvergenceError, BracketingError, LabelingError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
