"""The benchmark's four workloads: instance populations, chunks and ops.

An op is the unit ``ops_per_s`` counts.  A chunk is the smallest group of
ops whose mix of schemes and instance kinds matches the workload as a whole,
so a run that stops between chunks keeps that mix.  Every workload draws its
instances from a fixed population whose outcomes are committed in
``reference.json``; the workload seed shuffles the chunks, and a run visits
them in that order.  Only generated scenarios and weights reach the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from flmar import (
    ExperimentGrid,
    ResultRow,
    Scenario,
    ScenarioSpec,
    Weights,
    brute_force_oracle,
    derive_seed,
    generate_scenario,
    optimize,
    random_baseline,
    run_grid,
)
from flmar.experiments import scenario_for_cell

from spans import NULL_TRACER

GRID_PMAX = 0.2
GRID_W3 = 0.5
SCALE_DEVICES = 640
SCALE_MASTER_SEED = 0
SCALE_WEIGHTS = Weights(0.5, 0.5, 0.5)
# 2-device FDMA, 2-device NOMA, 3-device FDMA, the instance kinds the oracle covers
WIDE_BOX_CYCLE = ((2, "fdma"), (2, "noma"), (3, "fdma"))
WIDE_BOX_SEED = 8324


@dataclass
class Op:
    key: str                    # the instance's entry in reference.json
    scheme: str
    weights: Weights
    n_devices: int
    p_max: float                # row label: the largest device p_max
    seed: int                   # row label: the instance's index in the population
    scenario: Scenario | None = None
    outcomes: dict = field(default_factory=dict)   # solver -> "ok" or exception class
    reports: dict = field(default_factory=dict)    # solver -> SolveReport
    rows: list = field(default_factory=list)       # ResultRows, wall_ms zeroed
    solve_ms: float = math.nan  # latency of the optimize call
    op_id: int | None = None    # span op id in a traced run
    time_scale: float = 1.0     # factor taking its times to the reference speed


_SPAN = {"joint": "allocator.optimize_{scheme}", "random": "allocator.random_baseline"}


def solve(op: Op, solver: str, tracer, fn, *args, **kwargs):
    """Call one solver on ``op``'s instance, recording its outcome and row.

    An exception is recorded as the outcome, never raised: the correctness
    check compares it with the reference outcome, so an infeasible instance
    passes and an unexpected exception fails.
    """
    name = _SPAN.get(solver, "oracle.n{n}").format(scheme=op.scheme, n=op.n_devices)
    with tracer.span(name):
        started = perf_counter()
        try:
            report = fn(*args, **kwargs)
        except Exception as exc:
            op.outcomes[solver] = type(exc).__name__
            return None
        elapsed_ms = (perf_counter() - started) * 1e3
    if solver == "joint":
        op.solve_ms = elapsed_ms
    op.outcomes[solver] = "ok"
    op.reports[solver] = report
    op.rows.append(result_row(op, solver, report))
    return report


def result_row(op: Op, solver: str, report) -> ResultRow:
    m = report.metrics
    return ResultRow(
        scheme=op.scheme,
        solver=solver,
        w1=op.weights.w1,
        w2=op.weights.w2,
        w3=op.weights.w3,
        p_max=op.p_max,
        seed=op.seed,
        total_energy_j=m.total_energy_j,
        total_time_s=m.total_time_s,
        mean_accuracy=m.mean_accuracy,
        objective=report.objective,
        outer_iterations=report.outer_iterations,
        wall_ms=0.0,
    )


class Workload:
    """Population of chunks in seed order; subclasses define the ops."""

    name: str
    population: int             # chunks in the population
    has_oracle = False          # whether ops call brute_force_oracle themselves

    def __init__(self, seed: int, tracer=NULL_TRACER):
        rng = np.random.default_rng(seed)
        self.chunks = [int(c) for c in rng.permutation(self.population)]

    def warmup(self) -> None:
        """One op on a fixed NOMA instance, the cheapest kind on every workload."""
        raise NotImplementedError

    def run_chunk(self, chunk: int, tracer=NULL_TRACER):
        """Yield the chunk's ops in batches, each batch as soon as it has finished.

        A batch holds the ops one call computed together: a whole
        ``run_grid`` call on ``grid40``, a single op everywhere else.
        """
        raise NotImplementedError


class Grid40(Workload):
    name = "grid40"
    population = 48             # master seeds; one run_grid call each

    @staticmethod
    def grid(master: int, schemes=("fdma", "noma"), weight_pairs=None) -> ExperimentGrid:
        return ExperimentGrid(
            schemes=schemes,
            weight_pairs=weight_pairs or ExperimentGrid.weight_pairs,
            w3=GRID_W3,
            pmax_values=(GRID_PMAX,),
            n_seeds=1,
            n_devices=40,
            master_seed=master,
        )

    @staticmethod
    def op(master, scheme, w1, w2) -> Op:
        return Op(
            key=f"m{master}/{scheme}/{w1}",
            scheme=scheme,
            weights=Weights(w1, w2, GRID_W3),
            n_devices=40,
            p_max=GRID_PMAX,
            seed=0,
        )

    def warmup(self):
        run_grid(self.grid(0, ("noma",), ((0.5, 0.5),)), workers=1, measure_wall_time=True)

    def run_chunk(self, chunk, tracer=NULL_TRACER):
        # Untraced, one run_grid call, which returns rows only, so these ops
        # carry no scenario or report; traced, a replay of its cells.
        if tracer is NULL_TRACER:
            yield self._run_grid(chunk)
            return
        for scheme in ("fdma", "noma"):
            for pair in ExperimentGrid.weight_pairs:
                yield [self._replay(chunk, scheme, pair, tracer)]

    def _run_grid(self, master):
        rows, failures = run_grid(self.grid(master), workers=1, measure_wall_time=True)
        ops = {}

        def cell(scheme, w1, w2):
            if (scheme, w1) not in ops:
                ops[scheme, w1] = self.op(master, scheme, w1, w2)
            return ops[scheme, w1]

        for row in rows:
            op = cell(row.scheme, row.w1, row.w2)
            op.outcomes[row.solver] = "ok"
            op.rows.append(replace(row, wall_ms=0.0))
            if row.solver == "joint":
                op.solve_ms = row.wall_ms
        for f in failures:
            cell(f.scheme, f.w1, f.w2).outcomes[f.solver] = f.error.split(":")[0]
        return list(ops.values())

    def _replay(self, master, scheme, pair, tracer):
        """One cell through the public calls run_grid makes for it."""
        op = self.op(master, scheme, *pair)
        with tracer.op() as op.op_id:
            with tracer.span("scenario.generate"):
                op.scenario = scenario_for_cell(
                    ScenarioSpec(), scheme, GRID_PMAX, 0, master, op.n_devices
                )
            solve(op, "joint", tracer, optimize, op.scenario, op.weights)
            solve(op, "random", tracer, random_baseline, op.scenario, op.weights,
                  seed=derive_seed(master, 0, 1))
        return op


class Scale640(Workload):
    name = "scale640"
    population = 16             # seed indices; one FDMA and one NOMA op each

    def warmup(self):
        self._op(0, "noma", NULL_TRACER)

    def run_chunk(self, chunk, tracer=NULL_TRACER):
        for scheme in ("fdma", "noma"):
            yield [self._op(chunk, scheme, tracer)]

    def _op(self, index, scheme, tracer):
        op = Op(key=f"s{index}/{scheme}", scheme=scheme, weights=SCALE_WEIGHTS,
                n_devices=SCALE_DEVICES, p_max=GRID_PMAX, seed=index)
        with tracer.op() as op.op_id:
            with tracer.span("scenario.generate"):
                op.scenario = scenario_for_cell(
                    ScenarioSpec(), scheme, GRID_PMAX, index, SCALE_MASTER_SEED,
                    SCALE_DEVICES,
                )
            solve(op, "joint", tracer, optimize, op.scenario, op.weights)
            solve(op, "random", tracer, random_baseline, op.scenario, op.weights,
                  seed=derive_seed(SCALE_MASTER_SEED, index, 1))
        return op


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def wide_box_instance(k: int, pinned: bool, tracer=NULL_TRACER):
    """Instance ``k`` of the wide parameter box, as ``(scenario, weights)``.

    The draws depend on ``k`` alone, so ``pinned`` and ``oracle`` share them;
    ``pinned`` then raises each device's p_min to 5-50 % of its p_max.
    """
    n, scheme = WIDE_BOX_CYCLE[k % len(WIDE_BOX_CYCLE)]
    rng = np.random.default_rng((WIDE_BOX_SEED, k))
    bandwidth = _log_uniform(rng, 0.3e6, 30e6)
    model_bits = _log_uniform(rng, 1e5, 1e7)
    w1 = float(rng.uniform(0.1, 0.9))
    w3 = _log_uniform(rng, 0.1, 1000.0)
    pmin_share = rng.uniform(0.05, 0.5, size=n)
    spec = ScenarioSpec(
        n_devices=n,
        scheme=scheme,
        p_max_range=(0.1, 0.5),
        f_max_range=(0.5e9, 3e9),
        total_bandwidth_hz=bandwidth,
        model_size_bits=model_bits,
    )
    with tracer.span("scenario.generate"):
        scenario = generate_scenario(spec, seed=int(rng.integers(2**62)))
    if pinned:
        scenario = replace(scenario, devices=[
            replace(d, p_min=float(s) * d.p_max) for d, s in zip(scenario.devices, pmin_share)
        ])
    return scenario, Weights(w1, 1.0 - w1, w3)


class WideBox(Workload):
    """``optimize`` plus ``brute_force_oracle`` on 2- and 3-device instances."""

    has_oracle = True
    pinned: bool
    keys: tuple                 # the population's instance indices
    chunk_size: int             # instances per chunk

    def __init__(self, seed, tracer=NULL_TRACER):
        self.population = len(self.keys) // self.chunk_size
        super().__init__(seed, tracer)
        self.instances = {k: wide_box_instance(k, self.pinned, tracer) for k in self.keys}
        self.order = list(self.keys)
        if self.population == 1:
            # one chunk holds the whole population, so the seed orders its instances
            np.random.default_rng(seed).shuffle(self.order)

    def warmup(self):
        self._op(1, NULL_TRACER)

    def run_chunk(self, chunk, tracer=NULL_TRACER):
        start = chunk * self.chunk_size
        for k in self.order[start:start + self.chunk_size]:
            yield [self._op(k, tracer)]

    def _op(self, k, tracer):
        scenario, weights = self.instances[k]
        op = Op(key=f"k{k}", scheme=scenario.scheme, weights=weights,
                n_devices=scenario.n_devices,
                p_max=max(d.p_max for d in scenario.devices), seed=k, scenario=scenario)
        with tracer.op() as op.op_id:
            solve(op, "joint", tracer, optimize, scenario, weights)
            solve(op, "oracle", tracer, brute_force_oracle, scenario, weights)
        return op


class Pinned(WideBox):
    name = "pinned"
    pinned = True
    # Two whole cycles, plus the 2-device NOMA instances of the next six
    # cycles: a NOMA solve here takes 1/30 of an FDMA one, and two samples
    # per run would leave its median at the mercy of host noise.  FDMA solve
    # times vary 3-6 s between instances, so every run visits all twelve; a
    # seed-drawn subset would move the median more than the bound.
    keys = tuple(range(6)) + tuple(range(7, 24, 3))
    chunk_size = len(keys)


class Oracle(WideBox):
    name = "oracle"
    pinned = False
    keys = tuple(range(96))     # 32 cycles
    chunk_size = 3


WORKLOADS = {w.name: w for w in (Grid40, Scale640, Pinned, Oracle)}
