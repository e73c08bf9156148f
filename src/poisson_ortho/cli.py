"""Command line surface.

    poisson-ortho check <scenario> [--grid-center C --grid-half-width W
        --grid-points N] [--tol T] [--scheme KIND] [--fd-step H]
        [--format json|text] [--out PATH]

<scenario> is a builtin name or a path to a JSON config.  Exit codes:
0 integrable, 1 non-integrable, 2 invalid or inconsistent run (an
unexpected exception included), 3 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .errors import ConfigError, ExprError, GeometryError
from .geometry import SCHEME_NAMES, DerivativeScheme, Grid
from .scenarios import BUILTIN_SCENARIOS, ScenarioConfig, load_scenario, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-ortho",
        description="Check integrability of the metric-orthogonal "
                    "distribution of a regular Poisson structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="run one scenario and print a report",
        description=f"Builtin scenarios: {', '.join(BUILTIN_SCENARIOS)}. "
                    "Anything else is treated as a JSON config path.")
    check.add_argument("scenario", help="builtin name or JSON config path")
    check.add_argument("--grid-center",
                       help="comma-separated coordinates, e.g. 0,0,0,0")
    check.add_argument("--grid-half-width", type=float,
                       help="half width of the sampling box (all axes)")
    check.add_argument("--grid-points", type=int,
                       help="points per axis")
    check.add_argument("--tol", type=float,
                       help="zero tolerance for residuals")
    check.add_argument("--scheme", choices=sorted(SCHEME_NAMES),
                       help="derivative scheme (default: symbolic)")
    check.add_argument("--fd-step", type=float,
                       help="finite-difference base step")
    check.add_argument("--format", choices=["text", "json"], default="text",
                       dest="fmt", help="report format (default: text)")
    check.add_argument("--out", help="write the report to a file")
    return parser


def _override_grid(config: ScenarioConfig, args) -> Grid:
    grid = config.grid
    center = grid.center
    if args.grid_center is not None:
        try:
            center = tuple(float(v) for v in args.grid_center.split(","))
        except ValueError:
            raise ConfigError(
                f"--grid-center: {args.grid_center!r} is not a comma-"
                f"separated list of numbers") from None
        if len(center) != config.dim:
            raise ConfigError(
                f"--grid-center: expected {config.dim} coordinates, "
                f"got {len(center)}")
    half_width = grid.half_width
    if args.grid_half_width is not None:
        half_width = args.grid_half_width
    points = grid.points_per_axis
    if args.grid_points is not None:
        points = args.grid_points
    try:
        return Grid(center=center, half_width=half_width,
                    points_per_axis=points)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid override: {exc}") from None


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    grid = _override_grid(config, args)
    scheme = config.scheme
    if args.scheme is not None or args.fd_step is not None:
        kind = SCHEME_NAMES[args.scheme] if args.scheme else scheme.kind
        step = args.fd_step if args.fd_step is not None else scheme.step
        try:
            scheme = DerivativeScheme(kind=kind, step=step)
        except ValueError as exc:
            raise ConfigError(f"scheme override: {exc}") from None
    tol = config.tol
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ConfigError("--tol must be a positive finite number")
        tol = args.tol
    return replace(config, grid=grid, scheme=scheme, tol=tol)


def main(argv=None) -> int:
    try:
        return _check(argv)
    except Exception as exc:  # exit 1 is a verdict; a crash must not read as one
        message = " ".join(str(exc).split())
        print(f"invalid run: unexpected {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 2


def _check(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 0 if exc.code == 0 else 3

    try:
        config = _apply_overrides(load_scenario(args.scenario), args)
    except (ConfigError, ExprError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (GeometryError, ExprError) as exc:
        print(f"invalid run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    output = report.json_text() if args.fmt == "json" else report.text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(output)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
