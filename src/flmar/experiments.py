"""Experiment grids over schemes, weights, power caps and seeds, with
deterministic CSV/JSON serialization.

Scenario draws are keyed by ``(master_seed, seed_index)`` only, so the same
seed index reuses the identical device population across schemes, power
caps and solvers; sweeps are therefore paired comparisons.  ``run_grid``
works in groups of the cells that share a scheme, a power cap and a seed:
each group draws its scenario once and solves all its weight pairs, both
solvers, on one solver context, whose weight-free round-time fits the
later pairs take up; rows equal those of separate ``optimize`` and
``random_baseline`` calls.  Rows are sorted by (scheme, solver, w1, p_max,
seed) before writing, which keeps the output byte-identical whatever the
worker count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .accounting import Weights
from .allocator import _Env, _optimize, _random_baseline, optimize, random_baseline
from .scenario import ScenarioSpec, generate_scenario

WEIGHT_PAIRS_DEFAULT = ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9))
PMAX_SWEEP_DEFAULT = (0.1, 0.2, 0.3, 0.4, 0.5)
W3_DEFAULT = 0.5
SOLVERS = ("joint", "random")

@dataclass(frozen=True)
class ExperimentGrid:
    """Cartesian experiment description."""

    schemes: tuple = ("fdma", "noma")
    weight_pairs: tuple = WEIGHT_PAIRS_DEFAULT
    w3: float = W3_DEFAULT
    pmax_values: tuple = PMAX_SWEEP_DEFAULT
    n_seeds: int = 5
    solvers: tuple = SOLVERS
    n_devices: int = 40
    master_seed: int = 0

    def __post_init__(self):
        if not self.schemes or any(s not in ("fdma", "noma") for s in self.schemes):
            raise ValueError("schemes must be a non-empty subset of ('fdma', 'noma')")
        if not self.solvers or any(s not in SOLVERS for s in self.solvers):
            raise ValueError(f"solvers must be a non-empty subset of {SOLVERS}")
        if not self.weight_pairs:
            raise ValueError("weight_pairs must be non-empty")
        for w1, w2 in self.weight_pairs:
            # the cells build these Weights; checking them here keeps a bad
            # weight a configuration error rather than a failure mid-run
            try:
                Weights(w1, w2, self.w3)
            except ValueError as exc:
                raise ValueError(
                    f"weight pair ({w1}, {w2}) with w3 {self.w3}: {exc}"
                ) from None
            if abs(w1 + w2 - 1.0) > 1e-9:
                raise ValueError(f"weight pair ({w1}, {w2}) must sum to 1")
        if not self.pmax_values or any(p <= 0.0 for p in self.pmax_values):
            raise ValueError("pmax_values must be positive")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be at least 1")
        if self.n_devices < 1:
            raise ValueError("n_devices must be at least 1")


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    solver: str
    w1: float
    w2: float
    w3: float
    p_max: float
    seed: int
    total_energy_j: float
    total_time_s: float
    mean_accuracy: float
    objective: float
    outer_iterations: int
    wall_ms: float


# the results file's columns, in order, and the type each one reads back as
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
_COLUMN_TYPES = get_type_hints(ResultRow)


@dataclass(frozen=True)
class CellFailure:
    scheme: str
    solver: str
    w1: float
    w2: float
    p_max: float
    seed: int
    error: str


ROW_SORT_KEY = lambda r: (r.scheme, r.solver, r.w1, r.p_max, r.seed)  # noqa: E731


def derive_seed(*keys) -> int:
    """Stable integer seed from a tuple of integers."""
    return int(np.random.SeedSequence(tuple(int(k) for k in keys)).generate_state(1)[0])


def scenario_for_cell(
    base_spec: ScenarioSpec,
    scheme: str,
    p_max: float,
    seed_index: int,
    master_seed: int,
    n_devices: int,
):
    """The concrete scenario for one grid cell.

    The draw seed depends only on (master_seed, seed_index), so every scheme,
    power cap and solver sees the same device population for a given index.
    """
    spec = replace(
        base_spec,
        scheme=scheme,
        n_devices=n_devices,
        p_max_range=(p_max, p_max),
    )
    return generate_scenario(spec, seed=derive_seed(master_seed, seed_index))


def solve_row(
    scenario, weights: Weights, solver: str, *, p_max: float, seed: int,
    random_seed: int, measure: bool,
) -> ResultRow:
    """Run one solver ("joint" or "random") and return its result row.

    ``p_max`` and ``seed`` only label the row; ``random_seed`` seeds the
    random baseline.  ``measure`` fills wall_ms with the solve time,
    otherwise it stays 0.0.
    """
    started = time.perf_counter()
    if solver == "joint":
        report = optimize(scenario, weights)
    else:
        report = random_baseline(scenario, weights, seed=random_seed)
    wall_ms = (time.perf_counter() - started) * 1e3 if measure else 0.0
    return _result_row(report, scenario.scheme, solver, weights, p_max, seed, wall_ms)


def _result_row(report, scheme, solver, weights, p_max, seed, wall_ms) -> ResultRow:
    return ResultRow(
        scheme=scheme,
        solver=solver,
        w1=weights.w1,
        w2=weights.w2,
        w3=weights.w3,
        p_max=p_max,
        seed=seed,
        total_energy_j=report.metrics.total_energy_j,
        total_time_s=report.metrics.total_time_s,
        mean_accuracy=report.metrics.mean_accuracy,
        objective=report.objective,
        outer_iterations=report.outer_iterations,
        wall_ms=wall_ms,
    )


def _solve_group(task):
    """Every cell of one (scheme, p_max, seed) group, on one draw and one
    solver context.

    The pairs run in descending w1, ties in grid order: the energy-heavy
    pair has the longest round-time march, so the pairs after it find most
    of theirs already fitted.  Each row's wall_ms times its own solve, the
    first row's the draw and the context build too.  A draw that raises
    fails every cell of its group alone, as a solve that raises fails its
    cell alone.
    """
    (scheme, p_max, seed_index, grid, base_spec, measure) = task
    rows, failures = [], []
    started = time.perf_counter()
    try:
        env = _Env(scenario_for_cell(
            base_spec, scheme, p_max, seed_index, grid.master_seed, grid.n_devices
        ))
    except Exception as exc:  # a draw failure must not sink the batch either
        env, draw_error = None, exc
    random_seed = derive_seed(grid.master_seed, seed_index, 1)
    for w1, w2 in sorted(grid.weight_pairs, key=lambda pair: -pair[0]):
        weights = Weights(w1, w2, grid.w3)
        for solver in grid.solvers:
            try:
                if env is None:
                    raise draw_error
                if solver == "joint":
                    report = _optimize(env, weights)
                else:
                    report = _random_baseline(env, weights, random_seed)
            except Exception as exc:  # cell failures must not sink the batch
                failures.append(CellFailure(scheme=scheme, solver=solver, w1=w1, w2=w2,
                                            p_max=p_max, seed=seed_index,
                                            error=f"{type(exc).__name__}: {exc}"))
            else:
                wall_ms = (time.perf_counter() - started) * 1e3 if measure else 0.0
                rows.append(_result_row(report, scheme, solver, weights, p_max, seed_index,
                                        wall_ms))
            started = time.perf_counter()
    return rows, failures


def run_grid(
    grid: ExperimentGrid,
    base_spec: ScenarioSpec | None = None,
    workers: int = 1,
    measure_wall_time: bool = False,
):
    """Run every grid cell; returns (rows, failures), rows fully sorted.

    ``measure_wall_time`` fills the wall_ms column with real timings, which
    naturally vary run to run; the default 0.0 keeps output byte-stable.
    """
    if base_spec is None:
        base_spec = ScenarioSpec()
    tasks = [
        (scheme, p_max, seed_index, grid, base_spec, measure_wall_time)
        for scheme in grid.schemes
        for p_max in grid.pmax_values
        for seed_index in range(grid.n_seeds)
    ]
    if workers <= 1:
        outcomes = [_solve_group(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_solve_group, tasks))
    rows = [row for out in outcomes for row in out[0]]
    failures = [f for out in outcomes for f in out[1]]
    rows.sort(key=ROW_SORT_KEY)
    failures.sort(key=lambda f: (f.scheme, f.solver, f.w1, f.p_max, f.seed))
    return rows, failures


def _format_value(name: str, value) -> str:
    kind = _COLUMN_TYPES[name]
    return format(float(value), ".9g") if kind is float else str(kind(value))


def rows_to_csv(rows) -> str:
    """Render rows as CSV text: fixed header, 9 significant digits, LF ends."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(_format_value(c, getattr(row, c)) for c in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


def rows_to_json(rows) -> str:
    payload = [
        {c: getattr(row, c) for c in CSV_COLUMNS}
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def write_json(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_json(rows))


def read_csv(path) -> list:
    """Parse a results CSV produced by :func:`write_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: not a results CSV (unexpected header)")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: malformed row: {ln!r}")
        rows.append(ResultRow(**{c: _COLUMN_TYPES[c](v) for c, v in zip(CSV_COLUMNS, parts)}))
    return rows
