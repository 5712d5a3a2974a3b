"""Command-line front end.

One subcommand per certified statement:

    dcverify scenario <name> [--format text|machine]
    dcverify check weak-min     --problem FILE [common flags]
    dcverify check proper-min   --problem FILE [common flags]
    dcverify check subdiff      --problem FILE [common flags]
    dcverify check dissipative  --problem FILE [common flags]
    dcverify check alternative  --problem FILE [common flags]
    dcverify check sufficient   --problem FILE --mode {corrected|legacy-gl}
                                --target {weak|proper} [common flags]
    dcverify check necessary    --problem FILE --mode {corrected|legacy-gl}
                                --target {weak|proper} [common flags]

Common flags: --grid <points-per-axis>, --radius <p/q>, --format {text|machine}.
Flags override the [options] section of the problem file.

This module only parses arguments and files: every check kind runs through
its one result builder in ``scenarios``, the same builder the scenario
pipelines use, so a check reports the same result either way.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .cones import format_rational, parse_rational
from .dissipativity import gradient_field
from .pareto import NeighborhoodSpec
from .problem import GridSpec
from .problemfile import parse_problem
from .report import Report, emit_report
from .scenarios import CHECK_KINDS, check_results, run_scenario, scenario_names


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dcverify",
        description="Exact-rational verification toolkit for DC vector optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run a shipped scenario pipeline")
    p_scenario.add_argument("name", choices=scenario_names())
    p_scenario.add_argument("--format", choices=("text", "machine"), default="text")

    p_check = sub.add_parser("check", help="run one check against a problem file")
    p_check.add_argument("what", choices=CHECK_KINDS)
    p_check.add_argument("--problem", required=True, help="path to a .problem file")
    p_check.add_argument("--grid", type=int, default=None,
                         help="grid points per axis (default from the file, else 101)")
    p_check.add_argument("--radius", type=str, default=None,
                         help="neighborhood radius as p/q (default from the file, else 1/2)")
    p_check.add_argument("--mode", choices=("corrected", "legacy-gl"), default="corrected")
    p_check.add_argument("--target", choices=("weak", "proper"), default="weak")
    p_check.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def _run_check(args: argparse.Namespace) -> Report:
    """Parse the file, default the candidates, resolve --grid/--radius, and
    run the one result builder for the requested check kind."""
    path = Path(args.problem)
    parsed = parse_problem(path.read_text(encoding="utf-8"))
    problem = parsed.problem
    # absent candidate lists default to the gradients at the base point;
    # the second operator quantifier ranges over the constraint map that the
    # requested condition differentiates
    if not parsed.candidates_T:
        parsed.candidates_T = [gradient_field(problem.G).operators_at(problem.xbar)[0]]
    if not parsed.candidates_L:
        source = problem.H if args.what == "necessary" else problem.S
        parsed.candidates_L = [gradient_field(source).operators_at(problem.xbar)[0]]
    grid_points = args.grid if args.grid is not None else parsed.options.grid_points
    radius = parse_rational(args.radius) if args.radius is not None else parsed.options.radius
    grid = GridSpec(problem.C, grid_points)
    U = NeighborhoodSpec(radius)

    echo = f"check {args.what} --problem {path.name}"
    if args.what in ("sufficient", "necessary"):
        echo += f" --mode {args.mode} --target {args.target}"
    return Report(command=echo, problem=path.name,
                  options={"grid": str(grid_points), "radius": format_rational(radius)},
                  results=check_results(args.what, parsed, U, grid, args.mode, args.target))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            report = run_scenario(args.name)
        else:
            report = _run_check(args)
    except (ValueError, OSError) as exc:
        print(f"dcverify: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
