"""Exhaustive grid reference for tiny instances.

Enumerates Cartesian grids over the continuous variables and every
resolution choice, so it is exact on its grid and independent of the
closed-form machinery in :mod:`flmar.allocator`.  Supports at most three
devices; cost grows combinatorially beyond that.

The only non-obvious step is how per-device candidate lists combine under
the round-time coupling J = sum_d a_d + w2 G max_d t_d.  The optimal round
time equals some candidate's t, so minimising

    J(theta) = w2 G theta + sum_d min{ a_d : t_d <= theta }

over every candidate time theta and letting each device take its cheapest
option within theta is exactly the grid minimum: any config realised this
way has true objective <= J(theta), and evaluating J at the true optimum's
round time recovers its value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import (
    Allocation,
    DeviceTable,
    Scenario,
    Weights,
    device_table,
    objective,
    system_metrics,
)
from .allocator import SolveReport
from .channel import shannon_rate
from .compute import cmos_energy, detection_accuracy, round_cycles
from .scenario import ScenarioValidationError

MAX_ORACLE_DEVICES = 3


@dataclass(frozen=True)
class GridSpec:
    """Grid densities for the exhaustive search."""

    power_points: int = 20
    freq_points: int = 20
    bandwidth_points: int = 20

    def __post_init__(self):
        for name in ("power_points", "freq_points", "bandwidth_points"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")


def _prefix_argmin(values: np.ndarray):
    """Running minimum of ``values`` plus the earliest index achieving it."""
    running = np.minimum.accumulate(values)
    improved = np.empty(values.size, dtype=bool)
    improved[0] = True
    improved[1:] = values[1:] < running[:-1]
    idx = np.maximum.accumulate(np.where(improved, np.arange(values.size), 0))
    return running, idx


def _min_over_grid(times: list, costs: list, w2_rounds: float):
    """Exact minimum of sum(costs) + w2_rounds * max(times) over one pick per list.

    Returns ``(value, picks)`` with original candidate indices, or None when
    some device has no candidates.
    """
    n = len(times)
    orders, t_sorted, run_vals, run_idx = [], [], [], []
    for t, c in zip(times, costs):
        if t.size == 0:
            return None
        order = np.argsort(t, kind="stable")
        orders.append(order)
        t_sorted.append(t[order])
        rv, ri = _prefix_argmin(c[order])
        run_vals.append(rv)
        run_idx.append(ri)
    thetas = np.unique(np.concatenate(t_sorted))
    total = w2_rounds * thetas
    positions = []
    feasible = np.ones(thetas.size, dtype=bool)
    for k in range(n):
        pos = np.searchsorted(t_sorted[k], thetas, side="right") - 1
        positions.append(pos)
        feasible &= pos >= 0
        total = total + np.where(pos >= 0, run_vals[k][np.maximum(pos, 0)], np.inf)
    total = np.where(feasible, total, np.inf)
    best = int(np.argmin(total))
    if not np.isfinite(total[best]):
        return None
    picks = [int(orders[k][run_idx[k][positions[k][best]]]) for k in range(n)]
    return float(total[best]), picks


class _DeviceGrid:
    """Per-device candidate tables shared across bandwidth/power loops."""

    def __init__(
        self, scenario: Scenario, table: DeviceTable, k: int, weights: Weights,
        grid: GridSpec,
    ):
        self.f_grid = np.linspace(table.f_min[k], table.f_max[k], grid.freq_points)
        self.r_grid = np.array(table.resolutions[k], dtype=int)
        cyc = round_cycles(
            scenario.local_iterations,
            table.cycles_per_pixel[k],
            self.r_grid.astype(float),
            table.frames[k],
        )
        self.t_cmp = (cyc[None, :] / self.f_grid[:, None]).ravel()
        e_cmp = cmos_energy(table.kappa[k], cyc[None, :], self.f_grid[:, None]).ravel()
        loss = (
            1.0 - detection_accuracy(self.r_grid, scenario.accuracy_model)
        )
        w1_rounds = weights.w1 * scenario.global_rounds
        self.base_cost = (
            w1_rounds * e_cmp
            + weights.w3 * np.broadcast_to(loss, (grid.freq_points, loss.size)).ravel()
        )
        self.w1_rounds = w1_rounds
        self.n_res = self.r_grid.size

    def with_comm(self, t_com: float, e_com: float):
        """Candidate (times, costs) once the upload time/energy are fixed."""
        return self.t_cmp + t_com, self.base_cost + self.w1_rounds * e_com

    def decode(self, pick: int):
        """Candidate index -> (cpu_hz, resolution)."""
        return float(self.f_grid[pick // self.n_res]), int(self.r_grid[pick % self.n_res])


def _power_grid(table: DeviceTable, k: int, grid: GridSpec) -> np.ndarray:
    pts = np.linspace(table.p_min[k], table.p_max[k], grid.power_points)
    return pts[pts > 0.0]


def _fdma_splits(n: int, total: float, points: int):
    """Bandwidth splits to enumerate, each summing to ``total``."""
    if n == 1:
        for b in np.linspace(total / points, total, points):
            yield np.array([b])
        return
    fractions = np.linspace(0.0, 1.0, points + 2)[1:-1]
    if n == 2:
        for x in fractions:
            yield np.array([x * total, (1.0 - x) * total])
        return
    for x in fractions:
        for y in fractions:
            z = 1.0 - x - y
            if z > 1e-12:
                yield np.array([x * total, y * total, z * total])


def brute_force_oracle(
    scenario: Scenario, weights: Weights, grid: GridSpec = GridSpec()
) -> SolveReport:
    """Grid-exact reference solution for scenarios with at most 3 devices.

    Deterministic: the same scenario, weights and grid always return the
    identical report.  Ties resolve to the earliest grid point (lowest
    power, then frequency, then resolution index).
    """
    errors = scenario.validate()
    if errors:
        raise ScenarioValidationError(errors)
    n = scenario.n_devices
    if n > MAX_ORACLE_DEVICES:
        raise ValueError(
            f"oracle supports at most {MAX_ORACLE_DEVICES} devices, got {n}"
        )
    table = device_table(scenario)
    dgrids = [_DeviceGrid(scenario, table, k, weights, grid) for k in range(n)]
    w2_rounds = weights.w2 * scenario.global_rounds
    if scenario.scheme == "fdma":
        alloc = _fdma_search(scenario, table, grid, dgrids, w2_rounds)
    else:
        alloc = _noma_search(scenario, table, grid, dgrids, w2_rounds)
    if alloc is None:
        raise ValueError("no feasible grid point: every candidate violates a limit")
    metrics = system_metrics(scenario, alloc)
    value = objective(weights, metrics)
    return SolveReport(
        allocation=alloc,
        metrics=metrics,
        objective=value,
        outer_iterations=1,
        converged=True,
        objective_trace=[value],
    )


def _comm_tables(scenario, gain, powers, bandwidth):
    noise = scenario.noise_psd * bandwidth
    t_com = scenario.model_size_bits / shannon_rate(bandwidth, gain * powers / noise)
    return t_com, powers * t_com


def _fdma_search(scenario, table, grid, dgrids, w2_rounds):
    n = scenario.n_devices
    best_val = np.inf
    best = None
    p_grids = [_power_grid(table, k, grid) for k in range(n)]
    for split in _fdma_splits(n, scenario.total_bandwidth_hz, grid.bandwidth_points):
        times, costs, decode = [], [], []
        usable = True
        for k in range(n):
            if p_grids[k].size == 0:
                usable = False
                break
            t_com, e_com = _comm_tables(scenario, table.gain[k], p_grids[k], split[k])
            times.append((t_com[:, None] + dgrids[k].t_cmp[None, :]).ravel())
            costs.append(
                (
                    dgrids[k].w1_rounds * e_com[:, None]
                    + dgrids[k].base_cost[None, :]
                ).ravel()
            )
            decode.append(p_grids[k])
        if not usable:
            continue
        hit = _min_over_grid(times, costs, w2_rounds)
        if hit is None or hit[0] >= best_val:
            continue
        best_val = hit[0]
        power = np.empty(n)
        cpu = np.empty(n)
        res = np.empty(n, dtype=int)
        for k, pick in enumerate(hit[1]):
            stride = dgrids[k].t_cmp.size
            power[k] = decode[k][pick // stride]
            cpu[k], res[k] = dgrids[k].decode(pick % stride)
        best = Allocation(
            power_w=power,
            cpu_hz=cpu,
            resolution_px=res,
            bandwidth_hz=split.copy(),
        )
    return best


def _noma_search(scenario, table, grid, dgrids, w2_rounds):
    # one channel, two users, in the gain-sorted pairing
    bc = scenario.total_bandwidth_hz / scenario.n_channels
    pairing = table.noma_pairing(bc)
    s_pos, w_pos = table.positions(pairing.channels[0]).tolist()
    noise = scenario.noise_psd * bc
    g_s, g_w = table.gain[s_pos], table.gain[w_pos]
    p_s_grid = _power_grid(table, s_pos, grid)
    p_w_grid = _power_grid(table, w_pos, grid)
    size = scenario.model_size_bits
    rate_w = shannon_rate(bc, g_w * p_w_grid / noise)
    best_val = np.inf
    best = None
    for j, p_w in enumerate(p_w_grid):
        t_com_w = size / rate_w[j]
        e_com_w = p_w * t_com_w
        t_com_s = size / shannon_rate(bc, g_s * p_s_grid / (g_w * p_w + noise))
        e_com_s = p_s_grid * t_com_s
        for i, p_s in enumerate(p_s_grid):
            t_s, c_s = dgrids[s_pos].with_comm(t_com_s[i], e_com_s[i])
            t_w, c_w = dgrids[w_pos].with_comm(t_com_w, e_com_w)
            hit = _min_over_grid([t_s, t_w], [c_s, c_w], w2_rounds)
            if hit is None or hit[0] >= best_val:
                continue
            best_val = hit[0]
            power = np.empty(2)
            cpu = np.empty(2)
            res = np.empty(2, dtype=int)
            power[s_pos], power[w_pos] = p_s, p_w
            cpu[s_pos], res[s_pos] = dgrids[s_pos].decode(hit[1][0])
            cpu[w_pos], res[w_pos] = dgrids[w_pos].decode(hit[1][1])
            best = Allocation(
                power_w=power,
                cpu_hz=cpu,
                resolution_px=res,
                pairing=pairing,
            )
    return best
