"""Command-line interface.

Subcommands:
  run     solve one configuration (generated or loaded from JSON)
  sweep   run an experiment grid and write CSV/JSON (optionally an SVG chart)
  oracle  compare the solver against the exhaustive grid reference
  plot    render a results CSV as a grouped-bar SVG

Exit codes: 0 success, 1 configuration error, 2 partial batch failure.
"""

from __future__ import annotations

import argparse
import sys

from .accounting import Weights
from .allocator import optimize
from .experiments import (
    ExperimentGrid,
    PMAX_SWEEP_DEFAULT,
    W3_DEFAULT,
    WEIGHT_PAIRS_DEFAULT,
    derive_seed,
    read_csv,
    rows_to_csv,
    run_grid,
    scenario_for_cell,
    solve_row,
    write_csv,
    write_json,
)
from .figures import VALUE_FIELDS, render_bar_chart, write_svg
from .oracle import GridSpec, brute_force_oracle
from .scenario import ScenarioSpec, load_scenario


class _CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are 1
        raise _CliError(message)


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise _CliError(f"--weights needs W1,W2 or W1,W2,W3, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise _CliError(f"--weights: {exc}") from exc
    w3 = values[2] if len(values) == 3 else W3_DEFAULT
    try:
        return Weights(values[0], values[1], w3)
    except ValueError as exc:
        raise _CliError(f"--weights: {exc}") from exc


def _parse_float_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise _CliError(f"{flag}: {exc}") from exc
    if not values:
        raise _CliError(f"{flag} must list at least one value")
    return values


def _write_rows(rows, out: str | None) -> None:
    if out is None:
        sys.stdout.write(rows_to_csv(rows))
    elif out.endswith(".json"):
        write_json(rows, out)
    else:
        write_csv(rows, out)


def _generated_scenario(args):
    """The scenario the generation flags describe: seed index 0 of a grid."""
    try:
        return scenario_for_cell(
            ScenarioSpec(), args.scheme, args.pmax, 0, args.master_seed, args.n_devices
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="flmar", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one configuration")
    run.add_argument("--config", help="scenario JSON file (overrides generation flags)")
    run.add_argument("--scheme", choices=("fdma", "noma"), default="fdma")
    run.add_argument("--n-devices", type=int, default=40)
    run.add_argument("--pmax", type=float, default=0.2, help="per-device power cap, W")
    run.add_argument("--weights", default="0.5,0.5", help="W1,W2[,W3]")
    run.add_argument("--solver", choices=("joint", "random", "both"), default="joint")
    run.add_argument("--master-seed", type=int, default=0)
    run.add_argument("--out", help="output file (.csv or .json); default stdout CSV")
    run.add_argument("--timing", action="store_true", help="record real wall_ms")

    sweep = sub.add_parser("sweep", help="run an experiment grid")
    sweep.add_argument("--schemes", default="fdma,noma", help="comma list")
    sweep.add_argument(
        "--weights",
        default=None,
        help="single W1,W2[,W3] pair; default sweeps (0.9,0.1),(0.5,0.5),(0.1,0.9)",
    )
    sweep.add_argument("--w3", type=float, default=W3_DEFAULT)
    sweep.add_argument(
        "--pmax-list",
        default=",".join(str(p) for p in PMAX_SWEEP_DEFAULT),
        help="comma list of power caps, W",
    )
    sweep.add_argument("--seeds", type=int, default=5, help="seed count per cell")
    sweep.add_argument("--master-seed", type=int, default=0)
    sweep.add_argument("--n-devices", type=int, default=40)
    sweep.add_argument("--solvers", default="joint,random", help="comma list")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--out", help="output file (.csv or .json); default stdout CSV")
    sweep.add_argument("--svg", help="also render a median-energy bar chart")
    sweep.add_argument("--timing", action="store_true", help="record real wall_ms")

    oracle = sub.add_parser("oracle", help="compare solver vs exhaustive grid")
    oracle.add_argument("--scheme", choices=("fdma", "noma"), default="fdma")
    oracle.add_argument("--n-devices", type=int, default=2)
    oracle.add_argument("--pmax", type=float, default=0.2)
    oracle.add_argument("--weights", default="0.5,0.5")
    oracle.add_argument("--master-seed", type=int, default=0)
    oracle.add_argument("--grid-points", type=int, default=20)
    oracle.add_argument("--out", help="write a JSON summary here")

    plot = sub.add_parser("plot", help="render a results CSV as SVG")
    plot.add_argument("--rows", required=True, help="results CSV path")
    plot.add_argument("--field", choices=VALUE_FIELDS, default="total_energy_j")
    plot.add_argument("--title", default=None)
    plot.add_argument("--out", required=True, help="output SVG path")

    return parser


def _cmd_run(args) -> int:
    weights = _parse_weights(args.weights)
    if args.config:
        try:
            scenario = load_scenario(args.config)
        except (OSError, ValueError) as exc:
            raise _CliError(str(exc)) from exc
        p_max = max(d.p_max for d in scenario.devices)
    else:
        scenario = _generated_scenario(args)
        p_max = args.pmax
    solvers = ("joint", "random") if args.solver == "both" else (args.solver,)
    rows, failures = [], []
    for solver in solvers:
        try:
            rows.append(
                solve_row(
                    scenario, weights, solver, p_max=p_max, seed=args.master_seed,
                    random_seed=derive_seed(args.master_seed, 0, 1),
                    measure=args.timing,
                )
            )
        except Exception as exc:
            failures.append(f"{solver}: {type(exc).__name__}: {exc}")
    for failure in failures:
        print(f"flmar run: {failure}", file=sys.stderr)
    if rows:
        _write_rows(rows, args.out)
        return 2 if failures else 0
    return 1


def _cmd_sweep(args) -> int:
    if args.weights is not None:
        w = _parse_weights(args.weights)
        pairs = ((w.w1, w.w2),)
        w3 = w.w3
    else:
        pairs = WEIGHT_PAIRS_DEFAULT
        w3 = args.w3
    schemes = tuple(s for s in args.schemes.split(",") if s)
    solvers = tuple(s for s in args.solvers.split(",") if s)
    try:
        grid = ExperimentGrid(
            schemes=schemes,
            weight_pairs=pairs,
            w3=w3,
            pmax_values=_parse_float_list(args.pmax_list, "--pmax-list"),
            n_seeds=args.seeds,
            solvers=solvers,
            n_devices=args.n_devices,
            master_seed=args.master_seed,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    rows, failures = run_grid(
        grid, workers=args.workers, measure_wall_time=args.timing
    )
    for f in failures:
        print(
            f"flmar sweep: cell failed: scheme={f.scheme} solver={f.solver} "
            f"w1={f.w1} p_max={f.p_max} seed={f.seed}: {f.error}",
            file=sys.stderr,
        )
    if not rows:
        print("flmar sweep: every cell failed", file=sys.stderr)
        return 1
    _write_rows(rows, args.out)
    if args.svg:
        write_svg(render_bar_chart(rows, "total_energy_j"), args.svg)
    return 2 if failures else 0


def _cmd_oracle(args) -> int:
    import json

    weights = _parse_weights(args.weights)
    if args.n_devices > 3:
        raise _CliError("oracle supports at most 3 devices")
    scenario = _generated_scenario(args)
    points = args.grid_points
    reference = brute_force_oracle(
        scenario,
        weights,
        GridSpec(
            power_points=points, freq_points=points, bandwidth_points=points
        ),
    )
    solved = optimize(scenario, weights)
    gap = (solved.objective - reference.objective) / abs(reference.objective)
    summary = {
        "scheme": args.scheme,
        "n_devices": args.n_devices,
        "grid_points": points,
        "oracle_objective": reference.objective,
        "solver_objective": solved.objective,
        "relative_gap": gap,
    }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plot(args) -> int:
    try:
        rows = read_csv(args.rows)
    except (OSError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    try:
        svg = render_bar_chart(rows, args.field, title=args.title)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    write_svg(svg, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_plot(args)
    except _CliError as exc:
        print(f"flmar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
