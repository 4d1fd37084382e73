"""Exhaustive grid reference for tiny instances.

Enumerates Cartesian grids over the continuous variables and every
resolution choice, so it is exact on its grid and independent of the
closed-form machinery in :mod:`flmar.allocator`.  Supports at most three
devices; cost grows combinatorially beyond that.

The search runs over shared-link choices: an FDMA bandwidth split, or the
NOMA weak user's power.  Within one choice each device's upload depends on
its own power alone (the weak rate does not depend on the strong power,
and the strong user is priced against the chosen weak power's
interference), so every device gets one candidate table over power x
frequency x resolution.  The tables combine under the round-time coupling
J = sum_d a_d + w2 G max_d t_d.  The optimal round time equals some
candidate's t, so minimising

    J(theta) = w2 G theta + sum_d min{ a_d : t_d <= theta }

over every candidate time theta and letting each device take its cheapest
option within theta is exactly the grid minimum: any config realised this
way has true objective <= J(theta), and evaluating J at the true optimum's
round time recovers its value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .accounting import (
    Allocation,
    DeviceTable,
    Scenario,
    Weights,
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
    no pick has a finite value.  Ties go to the smallest round time, then per
    device to the faster of equal-cost candidates.
    """
    orders, t_sorted, run_vals, run_idx = [], [], [], []
    for t, c in zip(times, costs):
        order = np.argsort(t, kind="stable")
        orders.append(order)
        t_sorted.append(t[order])
        rv, ri = _prefix_argmin(c[order])
        run_vals.append(rv)
        run_idx.append(ri)
    thetas = np.unique(np.concatenate(t_sorted))
    total = w2_rounds * thetas
    positions = []
    for ts, rv in zip(t_sorted, run_vals):
        pos = np.searchsorted(ts, thetas, side="right") - 1
        positions.append(pos)
        total = total + np.where(pos >= 0, rv[np.maximum(pos, 0)], np.inf)
    best = int(np.argmin(total))
    if not np.isfinite(total[best]):
        return None
    picks = [int(o[ri[pos[best]]]) for o, ri, pos in zip(orders, run_idx, positions)]
    return float(total[best]), picks


class _DeviceGrid:
    """One device's grids and the upload-free part of its candidate table."""

    def __init__(
        self, scenario: Scenario, table: DeviceTable, k: int, weights: Weights,
        grid: GridSpec,
    ):
        powers = np.linspace(table.p_min[k], table.p_max[k], grid.power_points)
        self.p_grid = powers[powers > 0.0]
        self.gain = table.gain[k]
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
        loss = 1.0 - detection_accuracy(self.r_grid, scenario.accuracy_model)
        self.w1_rounds = weights.w1 * scenario.global_rounds
        self.base_cost = (
            self.w1_rounds * e_cmp
            + weights.w3 * np.broadcast_to(loss, (grid.freq_points, loss.size)).ravel()
        )
        self.n_res = self.r_grid.size

    def candidates(self, t_com: np.ndarray, e_com: np.ndarray):
        """Candidate (times, costs) over power x frequency x resolution, from
        the upload time and energy at each power."""
        return (
            (t_com[:, None] + self.t_cmp[None, :]).ravel(),
            (self.w1_rounds * e_com[:, None] + self.base_cost[None, :]).ravel(),
        )

    def decode(self, pick: int, powers: np.ndarray):
        """Candidate index -> (power_w, cpu_hz, resolution)."""
        p, fr = divmod(pick, self.t_cmp.size)
        f, r = divmod(fr, self.n_res)
        return float(powers[p]), float(self.f_grid[f]), int(self.r_grid[r])


def _upload(scenario: Scenario, dgrid: _DeviceGrid, bandwidth: float, interference=0.0):
    """Upload (time, energy) at each of the device's grid powers, on
    ``bandwidth`` Hz against noise plus ``interference`` watts."""
    noise = scenario.noise_psd * bandwidth + interference
    t_com = scenario.model_size_bits / shannon_rate(bandwidth, dgrid.gain * dgrid.p_grid / noise)
    return t_com, dgrid.p_grid * t_com


def _fdma_splits(n: int, total: float, grid: GridSpec):
    """Bandwidth splits to enumerate, each summing to ``total``.

    Every device but the last takes an interior fraction of
    linspace(0, 1, bandwidth_points + 2); the last takes the rest, so one
    device gets all of ``total``.  The rest is a whole number of grid steps
    up to rounding, so half a step tells an empty share from a real one.
    """
    fractions = np.linspace(0.0, 1.0, grid.bandwidth_points + 2)
    for head in itertools.product(fractions[1:-1], repeat=n - 1):
        rest = 1.0
        for x in head:
            rest -= x
        if rest > fractions[1] / 2:
            yield np.array([*head, rest]) * total


def _links(scenario: Scenario, table: DeviceTable, dgrids: list, grid: GridSpec):
    """Shared-link choices, each as per-device ``(powers, t_com, e_com)``
    plus the Allocation fields that fix the link."""
    if scenario.scheme == "fdma":
        for split in _fdma_splits(scenario.n_devices, scenario.total_bandwidth_hz, grid):
            uploads = [(d.p_grid, *_upload(scenario, d, b)) for d, b in zip(dgrids, split)]
            yield uploads, {"bandwidth_hz": split}
        return
    # one channel, two users, in the gain-sorted pairing
    pairing = scenario.noma_pairing
    bc = pairing.channel_bandwidth_hz
    s_pos, w_pos = (int(pos[0]) for pos in table.pair_positions(pairing.channels))
    strong, weak = dgrids[s_pos], dgrids[w_pos]
    t_w, e_w = _upload(scenario, weak, bc)
    for j, p_w in enumerate(weak.p_grid):
        uploads = [None, None]
        uploads[w_pos] = (weak.p_grid[j:j + 1], t_w[j:j + 1], e_w[j:j + 1])
        uploads[s_pos] = (strong.p_grid, *_upload(scenario, strong, bc, weak.gain * p_w))
        yield uploads, {"pairing": pairing}


def brute_force_oracle(
    scenario: Scenario, weights: Weights, grid: GridSpec = GridSpec()
) -> SolveReport:
    """Grid-exact reference solution for scenarios with at most 3 devices.

    Deterministic: the same scenario, weights and grid always return the
    identical report.  Ties go to the earliest link choice (FDMA splits in
    order of their leading fractions, NOMA weak powers ascending), then to
    the smallest round time, then per device to the faster of two
    equal-cost candidates.
    """
    errors = scenario.validate()
    if errors:
        raise ScenarioValidationError(errors)
    n = scenario.n_devices
    if n > MAX_ORACLE_DEVICES:
        raise ValueError(
            f"oracle supports at most {MAX_ORACLE_DEVICES} devices, got {n}"
        )
    table = scenario.devices
    dgrids = [_DeviceGrid(scenario, table, k, weights, grid) for k in range(n)]
    w2_rounds = weights.w2 * scenario.global_rounds
    best_val, alloc = np.inf, None
    for uploads, link in _links(scenario, table, dgrids, grid):
        tables = [d.candidates(t, e) for d, (_, t, e) in zip(dgrids, uploads)]
        hit = _min_over_grid([t for t, _ in tables], [c for _, c in tables], w2_rounds)
        if hit is None or hit[0] >= best_val:
            continue
        best_val = hit[0]
        power, cpu, res = zip(
            *(d.decode(pick, p) for d, (p, _, _), pick in zip(dgrids, uploads, hit[1]))
        )
        alloc = Allocation(
            power_w=np.array(power), cpu_hz=np.array(cpu),
            resolution_px=np.array(res), **link,
        )
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
