"""Per-layer probes and metrics for the traced run.

After each op the traced run calls every layer's public entry points on the
op's own instance and solution, each inside a span named
``<layer>.<function>``; the per-layer metrics are medians of those spans
plus counts read off the solutions.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

import numpy as np

from flmar import (
    GridSpec,
    LinkParams,
    brute_force_oracle,
    comp_energy,
    comp_time,
    cycles_per_frame,
    derive_seed,
    detection_accuracy,
    fdma_rate,
    noma_channel_rates,
    pair_users,
    random_baseline,
    render_bar_chart,
    rows_to_csv,
    solve_comm_subproblem_fdma,
    solve_comm_subproblem_noma,
    solve_cpu_frequencies,
    sweep_resolutions,
    system_metrics,
)

# (metric, span, unit); each metric is the median span duration in that unit
SPAN_METRICS = (
    ("scenario.generate_ms_p50", "scenario.generate", "ms"),
    ("scenario.validate_ms_p50", "scenario.validate", "ms"),
    ("channel.fdma_rate_us_p50", "channel.fdma_rate", "us"),
    ("channel.noma_rates_us_p50", "channel.noma_rates", "us"),
    ("channel.pair_users_us_p50", "channel.pair_users", "us"),
    ("compute.kernels_us_p50", "compute.kernels", "us"),
    ("accounting.system_metrics_ms_p50", "accounting.system_metrics", "ms"),
    ("accounting.allocation_validate_ms_p50", "accounting.allocation_validate", "ms"),
    ("allocator.optimize_fdma_ms_p50", "allocator.optimize_fdma", "ms"),
    ("allocator.optimize_noma_ms_p50", "allocator.optimize_noma", "ms"),
    ("allocator.random_baseline_ms_p50", "allocator.random_baseline", "ms"),
    ("allocator.comm_fdma_ms_p50", "allocator.comm_fdma", "ms"),
    ("allocator.comm_noma_ms_p50", "allocator.comm_noma", "ms"),
    ("allocator.cpu_freq_ms_p50", "allocator.cpu_freq", "ms"),
    ("allocator.sweep_resolutions_ms_p50", "allocator.sweep_resolutions", "ms"),
    ("oracle.n2_ms_p50", "oracle.n2", "ms"),
    ("oracle.n3_ms_p50", "oracle.n3", "ms"),
    ("experiments.rows_to_csv_ms", "experiments.rows_to_csv", "ms"),
    ("figures.render_ms", "figures.render", "ms"),
)
_SCALE = {"ms": 1e3, "us": 1e6}

COUNT_METRICS = (
    ("allocator.outer_iterations_mean", "count"),
    ("allocator.converged_share", "ratio"),
    ("allocator.infeasible_count", "count"),
    ("allocator.pmin_bound_share", "ratio"),
    ("allocator.pmax_bound_share", "ratio"),
    ("allocator.fmax_bound_share", "ratio"),
    ("allocator.res_above_min_share", "ratio"),
    ("oracle.candidates", "count.computed"),
    ("experiments.cell_failures", "count"),
)

TRACE_METRICS = (
    ("trace.ops_per_s", "op/s"),
    ("trace.untraced_ops_per_s", "op/s"),
    ("trace.overhead_pct", "%"),
)

BOUND_RTOL = 1e-6   # a value within this share of a limit sits on it


def probe(tracer, op) -> None:
    """Call each layer's public functions on ``op``'s instance and joint solution."""
    report = op.reports.get("joint")
    if report is None:
        return
    scenario, weights = op.scenario, op.weights
    alloc, metrics = report.allocation, report.metrics
    devices = scenario.devices
    gains = np.array([d.gain for d in devices])
    with tracer.probe(op.op_id):
        with tracer.span("scenario.validate"):
            scenario.validate()
        with tracer.span("accounting.system_metrics"):
            system_metrics(scenario, alloc)
        with tracer.span("accounting.allocation_validate"):
            alloc.validate(scenario)
        with tracer.span("compute.kernels"):
            cyc = cycles_per_frame(alloc.resolution_px, [d.cycles_per_pixel for d in devices])
            frames = [d.dataset_frames for d in devices]
            comp_time(scenario.local_iterations, cyc, frames, alloc.cpu_hz)
            comp_energy([d.kappa for d in devices], scenario.local_iterations, cyc, frames,
                        alloc.cpu_hz)
            detection_accuracy(alloc.resolution_px, scenario.accuracy_model)
        if op.scheme == "fdma":
            with tracer.span("channel.fdma_rate"):
                fdma_rate(alloc.bandwidth_hz, alloc.power_w,
                          LinkParams(gain=gains, noise_psd=scenario.noise_psd))
            with tracer.span("allocator.comm_fdma"):
                solve_comm_subproblem_fdma(scenario, weights, alloc.cpu_hz,
                                           alloc.resolution_px, metrics.round_time_s)
        else:
            index = scenario.device_index()
            strong = [index[s] for s, _ in alloc.pairing.channels]
            weak = [index[w] for _, w in alloc.pairing.channels]
            with tracer.span("channel.noma_rates"):
                noma_channel_rates(alloc.pairing.channel_bandwidth_hz,
                                   (gains[strong], alloc.power_w[strong]),
                                   (gains[weak], alloc.power_w[weak]), scenario.noise_psd)
            with tracer.span("channel.pair_users"):
                pair_users(gains, scenario.n_channels, scenario.total_bandwidth_hz)
            with tracer.span("allocator.comm_noma"):
                solve_comm_subproblem_noma(scenario, weights, alloc.pairing, alloc.cpu_hz,
                                           alloc.resolution_px, metrics.round_time_s)
        with tracer.span("allocator.cpu_freq"):
            solve_cpu_frequencies(scenario, weights, metrics.round_time_s,
                                  metrics.comm_time_s, alloc.resolution_px)
        with tracer.span("allocator.sweep_resolutions"):
            sweep_resolutions(scenario, weights, alloc)
        if "random" not in op.outcomes:
            with tracer.span("allocator.random_baseline"):
                random_baseline(scenario, weights, seed=derive_seed(op.seed, 1))


def probe_oracle(tracer, op) -> list:
    """Oracle on the first 2 and 3 devices of an FDMA op's scenario.

    For workloads whose ops do not call the oracle themselves; returns the
    sub-scenarios so their grid sizes can be counted.
    """
    subs = [replace(op.scenario, devices=op.scenario.devices[:n]) for n in (2, 3)]
    with tracer.probe(op.op_id):
        for sub in subs:
            with tracer.span(f"oracle.n{sub.n_devices}"):
                brute_force_oracle(sub, op.weights)
    return subs


def oracle_candidates(scenario, grid: GridSpec = GridSpec()) -> int:
    """Per-device (power, frequency, resolution) candidates one oracle call
    prices, computed from ``GridSpec`` and the menus rather than counted.

    FDMA prices every device's candidates once per bandwidth split; NOMA
    prices both users' frequency-resolution tables once per power pair.
    """
    powers = [grid.power_points - (d.p_min == 0.0) for d in scenario.devices]
    menus = [grid.freq_points * len(d.resolutions) for d in scenario.devices]
    if scenario.scheme == "noma":
        return powers[0] * powers[1] * sum(menus)
    if scenario.n_devices <= 2:
        splits = grid.bandwidth_points
    else:
        fractions = np.linspace(0.0, 1.0, grid.bandwidth_points + 2)[1:-1]
        splits = int(np.count_nonzero(1.0 - fractions[:, None] - fractions[None, :] > 1e-12))
    return splits * sum(p * m for p, m in zip(powers, menus))


def _bound_shares(ops) -> dict:
    hits = {"pmin": [], "pmax": [], "fmax": [], "res": []}
    for op in ops:
        report = op.reports.get("joint")
        if report is None:
            continue
        alloc, devices = report.allocation, op.scenario.devices
        for limit, values, attr in (("pmin", alloc.power_w, "p_min"),
                                    ("pmax", alloc.power_w, "p_max"),
                                    ("fmax", alloc.cpu_hz, "f_max")):
            bound = np.array([getattr(d, attr) for d in devices])
            hits[limit].extend(np.abs(values - bound) <= BOUND_RTOL * bound)
        hits["res"].extend(alloc.resolution_px > [d.resolutions[0] for d in devices])
    return {k: float(np.mean(v)) if v else 0.0 for k, v in hits.items()}


def layer_metrics(tracer, ops, oracle_scenarios, overhead) -> dict:
    """Every per-layer metric of a traced run, as ``{name: {value, unit}}``."""
    out = {}
    for name, span, unit in SPAN_METRICS:
        durations = tracer.durations(span)
        value = statistics.median(durations) * _SCALE[unit] if durations else 0.0
        out[name] = (value, unit)
    joint = [op.reports["joint"] for op in ops if "joint" in op.reports]
    shares = _bound_shares(ops)
    counts = {
        "allocator.outer_iterations_mean":
            statistics.mean(r.outer_iterations for r in joint) if joint else 0.0,
        "allocator.converged_share":
            statistics.mean(float(r.converged) for r in joint) if joint else 0.0,
        "allocator.infeasible_count": sum(
            op.outcomes.get("joint") == "InfeasibleScenarioError" for op in ops),
        "allocator.pmin_bound_share": shares["pmin"],
        "allocator.pmax_bound_share": shares["pmax"],
        "allocator.fmax_bound_share": shares["fmax"],
        "allocator.res_above_min_share": shares["res"],
        "oracle.candidates": statistics.mean(
            oracle_candidates(s) for s in oracle_scenarios) if oracle_scenarios else 0.0,
        "experiments.cell_failures": sum(
            outcome != "ok" for op in ops for outcome in op.outcomes.values()),
    }
    for name, unit in COUNT_METRICS:
        out[name] = (counts[name], unit)
    for (name, unit), value in zip(TRACE_METRICS, overhead):
        out[name] = (value, unit)
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def end_of_run(tracer, rows) -> None:
    """Serialise and plot the run's rows, as a sweep does after its cells."""
    with tracer.span("experiments.rows_to_csv"):
        rows_to_csv(rows)
    with tracer.span("figures.render"):
        render_bar_chart(rows, "objective")
