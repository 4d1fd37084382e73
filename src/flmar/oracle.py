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

Three cuts make this cheap and change no result, not even by a rounding:

* The staircase.  min{a_d : t_d <= theta} changes only at a device's
  steps: the candidates, in a stable sort by time, strictly cheaper than
  every one before them.  Between two consecutive step times of all the
  devices every sum term is constant and w2 G theta grows, and each float
  add is monotone in its first operand, so J at a time that is no step is
  at least J at the latest step time below it.  The first minimiser over
  every candidate time is therefore a step time, with the same picks, and
  only the union of the devices' step times is evaluated, by one stable
  merge of them.
* Column pruning.  A candidate's time fl(t_com + t_cmp) and cost
  fl(w1 G e_com + c) are monotone in its (frequency, resolution) column's
  compute time t_cmp and upload-free cost c.  A column that an earlier
  column matches or beats in both is therefore, at every power, preceded
  in the sort by a candidate no dearer, and is never a step; each device
  drops such columns once, before any table is built.  On the wide
  parameter box that leaves a mean of 29 of 200 columns, at most 116.
* Staircase reuse.  An FDMA device's table depends on the split only
  through its own share, so each device's staircase is built once per
  distinct share in a call: at the default grid a 3-device call builds
  84 to 89 staircases where its 190 splits name 570.  NOMA's strong
  table changes with every weak power, so nothing there repeats.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

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


def _undominated(t_cmp: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Mask of the columns that no earlier column matches or beats in both
    compute time and upload-free cost."""
    beats = (t_cmp[:, None] <= t_cmp[None, :]) & (cost[:, None] <= cost[None, :])
    return ~np.triu(beats, 1).any(axis=0)


class _Stair(NamedTuple):
    """The steps of one candidate table's cheapest cost within a round time."""

    times: np.ndarray       # step times, ascending
    costs: np.ndarray       # costs[i]: the cheapest cost once i steps fit; costs[0] = inf
    picks: np.ndarray       # each step's candidate, as an index into the table
    last: float             # the table's largest time


def _staircase(times: np.ndarray, costs: np.ndarray) -> _Stair:
    """Steps of the prefix minimum of ``costs`` over a stable sort by ``times``.

    A step is a candidate strictly cheaper than every one before it, so ties
    go to the faster candidate, then to the smaller index.  A NaN cost (0 *
    inf at w1 = 0) starts a step too, since the full table's prefix minimum
    is NaN from there on.
    """
    order = np.argsort(times, kind="stable")
    running = np.minimum.accumulate(costs[order])
    step = np.empty(order.size, dtype=bool)
    step[0] = True
    np.not_equal(running[1:], running[:-1], out=step[1:])
    picks = order[step]        # a call keeps many stairs, so picks take the narrowest type
    return _Stair(
        times[picks], np.concatenate(([np.inf], running[step])),
        picks.astype(np.min_scalar_type(order.size)), float(times[order[-1]]),
    )


class _Upload(NamedTuple):
    """One device's upload at each of ``powers`` on one link, and its staircase."""

    powers: np.ndarray
    t_com: np.ndarray
    e_com: np.ndarray
    stair: _Stair


def _min_over_stairs(stairs: list, w2_rounds: float):
    """Exact minimum of sum(costs) + w2_rounds * max(times) over one
    candidate per table, from the tables' staircases.

    Returns ``(value, picks)`` with the tables' candidate indices, or None
    when no pick has a finite value.  One stable sort merges every table's
    step times; a table's fit count is the running count of its own steps,
    read at the last of each run of equal times, where every step at that
    time fits.  Ties go to the smallest round time, then per table to the
    step's candidate.  Each table's largest time is merged beside the steps:
    there J is NaN when w2 = 0 and that time is infinite, and a NaN anywhere
    rejects the link as a search over every candidate time would.
    """
    n = len(stairs)
    times = np.concatenate([s.times for s in stairs] + [[s.last for s in stairs]])
    order = np.argsort(times, kind="stable")
    thetas = times[order]
    owner = np.repeat(np.arange(n + 1), [s.times.size for s in stairs] + [n])[order]
    ends = np.flatnonzero(np.append(thetas[1:] != thetas[:-1], True))
    total = w2_rounds * thetas[ends]
    fits = []
    for k, s in enumerate(stairs):
        n_fit = np.cumsum(owner == k)[ends]
        fits.append(n_fit)
        total = total + s.costs[n_fit]
    best = int(np.argmin(total))
    if not np.isfinite(total[best]):
        return None
    return float(total[best]), [int(s.picks[f[best] - 1]) for s, f in zip(stairs, fits)]


class _DeviceGrid:
    """One device's grids and the upload-free part of its candidate table,
    over the (frequency, resolution) columns that can be steps."""

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
        t_cmp = (cyc[None, :] / self.f_grid[:, None]).ravel()
        e_cmp = cmos_energy(table.kappa[k], cyc[None, :], self.f_grid[:, None]).ravel()
        loss = 1.0 - detection_accuracy(self.r_grid, scenario.accuracy_model)
        self.w1_rounds = weights.w1 * scenario.global_rounds
        base_cost = (
            self.w1_rounds * e_cmp
            + weights.w3 * np.broadcast_to(loss, (grid.freq_points, loss.size)).ravel()
        )
        self.columns = np.flatnonzero(_undominated(t_cmp, base_cost))
        self.t_cmp = t_cmp[self.columns]
        self.base_cost = base_cost[self.columns]

    def tabulate(self, powers: np.ndarray, t_com: np.ndarray, e_com: np.ndarray) -> _Upload:
        """The upload with the staircase of its table over power x kept column."""
        return _Upload(powers, t_com, e_com, _staircase(
            (t_com[:, None] + self.t_cmp[None, :]).ravel(),
            (self.w1_rounds * e_com[:, None] + self.base_cost[None, :]).ravel(),
        ))

    def decode(self, pick: int, powers: np.ndarray):
        """Candidate index -> (power_w, cpu_hz, resolution)."""
        p, j = divmod(pick, self.columns.size)
        f, r = divmod(int(self.columns[j]), self.r_grid.size)
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
    """Shared-link choices, each as per-device ``_Upload``s plus the
    Allocation fields that fix the link.  An FDMA upload is built once per
    device and share, and kept only while a later split names it."""
    if scenario.scheme == "fdma":
        splits = list(_fdma_splits(scenario.n_devices, scenario.total_bandwidth_hz, grid))
        left = Counter((k, b) for split in splits for k, b in enumerate(split))
        built = {}
        for split in splits:
            uploads = []
            for k, (d, b) in enumerate(zip(dgrids, split)):
                left[k, b] -= 1
                upload = built.pop((k, b), None) or d.tabulate(d.p_grid, *_upload(scenario, d, b))
                if left[k, b]:
                    built[k, b] = upload
                uploads.append(upload)
            yield uploads, {"bandwidth_hz": split}
        return
    # one channel, two users, in the gain-sorted pairing
    pairing = scenario.noma_pairing
    bc = pairing.channel_bandwidth_hz
    s_pos, w_pos = (int(pos[0]) for pos in table.pair_positions(pairing))
    strong, weak = dgrids[s_pos], dgrids[w_pos]
    t_w, e_w = _upload(scenario, weak, bc)
    for j, p_w in enumerate(weak.p_grid):
        uploads = [None, None]
        uploads[w_pos] = weak.tabulate(weak.p_grid[j:j + 1], t_w[j:j + 1], e_w[j:j + 1])
        uploads[s_pos] = strong.tabulate(
            strong.p_grid, *_upload(scenario, strong, bc, weak.gain * p_w))
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
        hit = _min_over_stairs([u.stair for u in uploads], w2_rounds)
        if hit is None or hit[0] >= best_val:
            continue
        best_val = hit[0]
        power, cpu, res = zip(
            *(d.decode(pick, u.powers) for d, u, pick in zip(dgrids, uploads, hit[1]))
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
