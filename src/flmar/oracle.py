"""Exhaustive grid reference for tiny instances.

Enumerates Cartesian grids over the continuous variables and every
resolution choice, so it is exact on its grid and independent of the
closed-form machinery in :mod:`flmar.allocator`.  Supports at most three
devices; cost grows combinatorially beyond that.

The search runs over shared-link choices: an FDMA bandwidth split, or the
NOMA weak user's power.  An FDMA split gives each device u >= 1 of S =
``bandwidth_points`` + 1 whole units of the band, linspace(0, 1, S + 1)[u]
of it, the units summing to S; splits run in lexicographic order of their
unit counts.  Within one choice each device's upload depends on its own
power alone (the weak rate does not depend on the strong power, and the
strong user is priced against the chosen weak power's interference), so
every device gets one candidate table over power x frequency x
resolution.  The tables combine under the round-time coupling
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
  every one before them.  Between two consecutive step times of a link's
  tables every sum term is constant and w2 G theta grows, and each float
  add is monotone in its first operand, so J at a time that is no step is
  at least J at the latest step time below it.  The first minimiser over
  every candidate time is therefore one of the link's own step times,
  with the same picks; any other round time can at most tie, later.
* Column pruning.  A candidate's time fl(t_com + t_cmp) and cost
  fl(w1 G e_com + c) are monotone in its (frequency, resolution) column's
  compute time t_cmp and upload-free cost c.  A column that an earlier
  column matches or beats in both is therefore, at every power, preceded
  in the sort by a candidate no dearer, and is never a step; each device
  drops such columns once, before any table is built.  On the wide
  parameter box that leaves a mean of 29 of 200 columns, at most 116.
* The envelope cut.  Each staircase of a call is built once and kept:
  every FDMA (device, unit count), and NOMA's weak and strong stair per
  weak power.  Each device's staircases fold into one lower envelope
  L_d(theta), the cheapest cost any of them reaches within theta, and

      B(theta) = fl(fl(w2 G theta + L_0(theta)) + ... + L_{n-1}(theta)),

  summed in the device order J is, is at most every link's J(theta): each
  term of J is no less than the matching term of B, and a float add is
  monotone in both operands.  From one envelope step to the next only
  w2 G theta moves, so B there is no less than at the step.  Every step
  time of every staircase is a candidate round time, priced for all links
  at once: first the lowest-bound envelope steps, for an incumbent, then
  every candidate whose bound the incumbent does not beat, in ascending
  order of bound, until the next bound exceeds the best value.  A skipped
  round time has J above the best value on every link, so it can neither
  win nor tie.  The winner is the least (value, link, theta) priced, so
  ties go to the earliest link of equal value, then to its smallest
  round time, as a search of each link in turn would break them; each
  priced J is the float sum that a search of its link alone makes.  At
  the default grid a 3-device call on the wide parameter box prices a
  median of about 230 round times, of a median of 23,000 distinct step
  times.

A link is rejected, as a search over every candidate time would reject it
on the NaN it meets at the link's largest time, when one of its staircases
ends on a NaN cost (0 * inf at w1 = 0) or when w2 G times its largest time
is NaN (w2 = 0 with a power that reaches nothing).  Rejected links are
dropped before any envelope is built, so no NaN reaches a bound.  Tables,
envelope folds, candidate scans and pricing run in bounded blocks, so a
call's memory is the staircases it keeps plus a fixed margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 2:
                raise ValueError(f"{name} must be at least 2")


def _undominated(t_cmp: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Mask of the columns that no earlier column matches or beats in both
    compute time and upload-free cost.

    Beating is transitive and always comes from an earlier column, so a
    beaten column is beaten by an earlier one that none beats, and such
    columns survive any probe.  The columns are therefore checked first
    against a cheap probe, the (time, cost) front, and only those it
    leaves are compared in pairs: on the wide box a median of 21 of 200,
    at most 71.
    """
    def beaten(i, j):      # which of columns j some column of i earlier than it beats
        return ((t_cmp[i, None] <= t_cmp[j]) & (cost[i, None] <= cost[j])
                & (i[:, None] < j)).any(axis=0)

    order = np.argsort(t_cmp, kind="stable")
    ordered = cost[order]
    front = order[ordered == np.minimum.accumulate(ordered)]
    left = np.flatnonzero(~beaten(front, np.arange(t_cmp.size)))
    keep = np.zeros(t_cmp.size, dtype=bool)
    keep[left[~beaten(left, left)]] = True
    return keep


class _Stair(NamedTuple):
    """The steps of one candidate table's cheapest cost within a round time."""

    times: np.ndarray       # step times, ascending
    costs: np.ndarray       # costs[i]: the cheapest cost once i steps fit; costs[0] = inf
    picks: np.ndarray       # each step's candidate, as an index into the table
    last: float             # the table's largest time


def _staircases(times: np.ndarray, costs: np.ndarray) -> list:
    """Steps of the prefix minimum of each row of ``costs`` over a stable
    sort of the row by ``times``, one ``_Stair`` per row.

    A step is a candidate strictly cheaper than every one before it, so ties
    go to the faster candidate, then to the smaller index.  A NaN cost (0 *
    inf at w1 = 0) starts a step too, since the full table's prefix minimum
    is NaN from there on.
    """
    rows, width = times.shape
    order = np.argsort(times, axis=1, kind="stable")
    flat = order + np.arange(0, rows * width, width)[:, None]     # into the raveled rows
    running = costs.take(flat)
    np.minimum.accumulate(running, axis=1, out=running)
    step = np.empty(order.shape, dtype=bool)
    step[:, 0] = True
    np.not_equal(running[:, 1:], running[:, :-1], out=step[:, 1:])
    ends = np.cumsum(step.sum(axis=1))
    starts = np.append(0, ends[:-1])
    step_times = times.take(flat[step])
    step_costs = np.insert(running[step], starts, np.inf)
    picks = order[step].astype(np.min_scalar_type(width))    # a call keeps many stairs
    lasts = times.take(flat[:, -1])
    return [
        _Stair(step_times[i:j], step_costs[i + r:j + r + 1], picks[i:j], float(last))
        for r, (i, j, last) in enumerate(zip(starts, ends, lasts))
    ]


class _Upload(NamedTuple):
    """One device's upload at each of ``powers`` on one link, and its staircase."""

    powers: np.ndarray
    t_com: np.ndarray
    e_com: np.ndarray
    stair: _Stair


_CHUNK = 1 << 12      # most candidates or step times a table build, fold or scan holds
_BLOCK = 1 << 13      # most stair or link x round-time values one pricing step holds
_SEED = 32            # lowest-bound envelope steps priced for the incumbent
_FINITE = np.finfo(float).max     # bounds above this, inf, are never priced


def _distinct(values: np.ndarray):
    """(distinct, inverse): the distinct values, ascending, and the index of
    each value among them.  Like ``np.unique``, but by the stable sort the
    search uses anyway: numpy's default sort brings its own SIMD code, about
    1.5 MB of resident pages, into a process that sorts nothing else so."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(values.size, dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _groups(stairs: list):
    """``stairs`` in order, in runs of at most ``_CHUNK`` step times each, or
    of one stair that alone holds more."""
    group, size = [], 0
    for s in stairs:
        if group and size + s.times.size > _CHUNK:
            yield group
            group, size = [], 0
        group.append(s)
        size += s.times.size
    if group:
        yield group


def _envelope(stairs: list):
    """(times, costs): the steps of the lower envelope of ``stairs``, the
    cheapest cost any of them reaches within a round time, with costs[0] =
    inf.  The stairs carry no NaN.  Folded in bounded runs, so no step
    array of the whole device is ever built."""
    times, costs = np.empty(0), np.empty(0)
    for group in _groups(stairs):
        t = np.concatenate([times] + [s.times for s in group])
        order = np.argsort(t, kind="stable")
        c = np.concatenate([costs] + [s.costs[1:] for s in group])[order]
        np.minimum.accumulate(c, out=c)
        step = np.append(True, c[1:] < c[:-1])
        times, costs = t[order[step]], c[step]
    return times, np.concatenate(([np.inf], costs))


def _floors(stairs: list, rows: np.ndarray):
    """(steps, floors): every step time of the devices' lower envelopes, over
    the stairs each column of ``rows`` names, ascending and distinct; and
    each device's envelope cost below the first step, then from each step
    on, up to the next."""
    envelopes = [_envelope([stairs[i] for i in _distinct(column)[0]]) for column in rows.T]
    steps = _distinct(np.concatenate([t for t, _ in envelopes]))[0]
    return steps, [np.concatenate(([np.inf], c[np.searchsorted(t, steps, "right")]))
                   for t, c in envelopes]


def _bound(thetas: np.ndarray, steps: np.ndarray, floors: list, w2_rounds: float):
    """w2_rounds * theta plus each device's envelope cost, added in device
    order, at each of ``thetas``: no link's J is lower there."""
    at = np.searchsorted(steps, thetas, "right")
    total = w2_rounds * thetas
    for floor in floors:
        total = total + floor[at]
    return total


def _round_times(stairs: list, rows: np.ndarray, w2_rounds: float, block: int, limit):
    """Blocks of candidate round times to price, ascending within a block.

    First the lowest-bound envelope steps, for an incumbent.  Then every
    other step time of ``stairs`` whose bound ``limit()``, the incumbent's
    value, does not beat, in ascending order of bound, until the next bound
    exceeds it.
    """
    steps, floors = _floors(stairs, rows)
    steps_bound = _bound(steps, steps, floors, w2_rounds)
    lowest = np.argsort(steps_bound, kind="stable")[:min(block, _SEED)]
    seed = steps[np.sort(lowest, kind="stable")]
    yield seed
    # first the step times in a run of constant envelope costs whose first
    # bound the incumbent does not beat, then those whose own bound it does
    # not beat
    alive = np.flatnonzero(steps_bound <= limit())
    edges = np.column_stack((steps[alive], np.append(steps[1:], np.inf)[alive])).ravel()
    rest = []
    for group in _groups(stairs):
        thetas = np.concatenate([s.times for s in group])
        thetas = thetas[np.searchsorted(edges, thetas, "right") % 2 == 1]
        rest.append(thetas[_bound(thetas, steps, floors, w2_rounds) <= limit()])
    rest = _distinct(np.concatenate(rest))[0]
    rest = rest[~np.isin(rest, seed, assume_unique=True)]
    rest_bound = _bound(rest, steps, floors, w2_rounds)
    del steps, floors, steps_bound, edges     # the blocks need only ``rest`` and its bounds
    order = np.argsort(rest_bound, kind="stable")
    for start in range(0, order.size, block):
        take = order[start:start + block]
        take = take[rest_bound[take] <= limit()]
        if not take.size:
            return
        yield rest[np.sort(take, kind="stable")]


def _price(stairs: list, links: np.ndarray, thetas: np.ndarray, w2_rounds: float):
    """(value, link, column): the lowest J over every link and each of
    ``thetas``, ascending, where J is w2_rounds * theta plus each device's
    stair cost, added in device order.  Ties go to the earlier link, then
    to the earlier column.  Links are summed in runs of at most ``_BLOCK``
    values."""
    costs = np.empty((len(stairs), thetas.size))
    for s, row in zip(stairs, costs):
        s.costs.take(s.times.searchsorted(thetas, "right"), out=row)
    w2_times = w2_rounds * thetas
    best = None
    run = max(1, _BLOCK // thetas.size)
    for first in range(0, len(links), run):
        rows = links[first:first + run]
        values = costs[rows[:, 0]]
        values += w2_times
        for column in rows.T[1:]:
            values += costs[column]
        at = int(np.argmin(values))
        if best is None or values.flat[at] < best[0]:
            link, col = divmod(at, thetas.size)
            best = (float(values.flat[at]), first + link, col)
    return best


def _min_over_stairs(stairs: list, links, w2_rounds: float):
    """Exact minimum of sum(costs) + w2_rounds * max(times) over the links,
    each one candidate per device from its row's staircases.

    ``links`` holds one row per link of indices into ``stairs``, one per
    device.  Returns ``(value, link, picks)`` with the devices' candidate
    indices, or None when no link has a finite value.  Ties go to the
    earliest link, then to the smallest round time, then per device to the
    step's candidate.  A link is rejected when one of its staircases ends
    on a NaN cost, or when w2_rounds times its largest time is NaN, as a
    search over every candidate time would find a NaN there.

    Only step times are candidates, and each is priced for every link at
    once, in ascending order of a bound no link's J goes below there: the
    lowest-bound envelope steps first, for an incumbent, then each
    candidate whose bound the incumbent does not beat.
    """
    links = np.asarray(links)
    ends = np.array([s.costs[-1] for s in stairs])[links]
    lasts = np.array([s.last for s in stairs])[links]
    live = np.flatnonzero(~np.isnan(ends).any(axis=1) & ~np.isnan(w2_rounds * lasts.max(axis=1)))
    if not live.size:
        return None
    used, rows = _distinct(links[live].ravel())
    rows = rows.reshape(live.size, -1)
    kept = [stairs[i] for i in used]
    best = None
    for thetas in _round_times(kept, rows, w2_rounds, max(1, _BLOCK // len(kept)),
                               lambda: best[0] if best else _FINITE):
        value, link, col = _price(kept, rows, thetas, w2_rounds)
        hit = (value, int(live[link]), float(thetas[col]))
        if hit[0] < np.inf and (best is None or hit < best):
            best = hit
    if best is None:
        return None
    value, link, theta = best
    picks = []
    for s in (stairs[i] for i in links[link]):
        picks.append(int(s.picks[np.searchsorted(s.times, theta, "right") - 1]))
    return value, link, picks


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

    def tabulate(self, powers: list, t_com: np.ndarray, e_com: np.ndarray) -> list:
        """One upload per row of ``t_com`` and ``e_com``, each at its row of
        ``powers``, with the staircase of its table over power x kept
        column.  Rows are tabulated together, as many as fit in a bounded
        array at a time."""
        width = t_com.shape[1] * self.t_cmp.size
        rows = max(1, _CHUNK // width)
        stairs = []
        for i in range(0, t_com.shape[0], rows):
            t, e = t_com[i:i + rows, :, None], e_com[i:i + rows, :, None]
            stairs += _staircases((t + self.t_cmp).reshape(-1, width),
                                  (self.w1_rounds * e + self.base_cost).reshape(-1, width))
        return [_Upload(*upload) for upload in zip(powers, t_com, e_com, stairs)]

    def decode(self, pick: int, powers: np.ndarray):
        """Candidate index -> (power_w, cpu_hz, resolution)."""
        p, j = divmod(pick, self.columns.size)
        f, r = divmod(int(self.columns[j]), self.r_grid.size)
        return float(powers[p]), float(self.f_grid[f]), int(self.r_grid[r])


def _upload(scenario: Scenario, dgrid: _DeviceGrid, bandwidth, interference=0.0):
    """Upload (time, energy) at each of the device's grid powers, on
    ``bandwidth`` Hz against noise plus ``interference`` watts; a column of
    bandwidths or interferences gives one row per entry."""
    noise = scenario.noise_psd * bandwidth + interference
    t_com = scenario.model_size_bits / shannon_rate(bandwidth, dgrid.gain * dgrid.p_grid / noise)
    return t_com, dgrid.p_grid * t_com


def _links(scenario: Scenario, table: DeviceTable, dgrids: list, grid: GridSpec):
    """The call's uploads, each with its staircase, and its shared-link
    choices: an array of one upload index per device for each link, and a
    function from a link to its Allocation fields.  An FDMA device k's
    upload is built once per unit count u it can take, 1 to S - n + 1, as
    upload u - 1 + k (S - n + 1).  The splits are read off their cut points,
    whose lexicographic order is theirs.
    """
    if scenario.scheme == "fdma":
        n, s = scenario.n_devices, grid.bandwidth_points + 1
        cuts = np.array(list(combinations(range(1, s), n - 1)), dtype=int)
        splits = np.diff(cuts, axis=1, prepend=0, append=s)
        shares = np.linspace(0.0, 1.0, s + 1)[1:s - n + 2] * scenario.total_bandwidth_hz
        uploads = []
        for d in dgrids:
            uploads += d.tabulate([d.p_grid] * shares.size, *_upload(scenario, d, shares[:, None]))
        links = splits - 1 + shares.size * np.arange(n)
        return uploads, links, lambda link: {"bandwidth_hz": shares[splits[link] - 1]}
    # one channel, two users, in the gain-sorted pairing
    pairing = scenario.noma_pairing
    bc = pairing.channel_bandwidth_hz
    s_pos, w_pos = (int(pos[0]) for pos in table.pair_positions(pairing))
    strong, weak = dgrids[s_pos], dgrids[w_pos]
    n = weak.p_grid.size
    t_w, e_w = _upload(scenario, weak, bc)
    uploads = (
        weak.tabulate([weak.p_grid[j:j + 1] for j in range(n)], t_w[:, None], e_w[:, None])
        + strong.tabulate([strong.p_grid] * n,
                          *_upload(scenario, strong, bc, (weak.gain * weak.p_grid)[:, None]))
    )
    links = np.empty((n, 2), dtype=int)
    links[:, w_pos], links[:, s_pos] = np.arange(n), np.arange(n, 2 * n)
    return uploads, links, lambda link: {"pairing": pairing}


def brute_force_oracle(
    scenario: Scenario, weights: Weights, grid: GridSpec = GridSpec()
) -> SolveReport:
    """Grid-exact reference solution for scenarios with at most 3 devices.

    Deterministic: the same scenario, weights and grid always return the
    identical report.  Ties go to the earliest link choice (FDMA splits in
    lexicographic order of their unit counts, NOMA weak powers ascending),
    then to the smallest round time, then per device to the faster of two
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
    uploads, links, fields = _links(scenario, table, dgrids, grid)
    hit = _min_over_stairs(
        [u.stair for u in uploads], links, weights.w2 * scenario.global_rounds)
    if hit is None:
        raise ValueError("no feasible grid point: every candidate violates a limit")
    _, link, picks = hit
    power, cpu, res = zip(*(
        d.decode(pick, uploads[i].powers) for d, i, pick in zip(dgrids, links[link], picks)
    ))
    alloc = Allocation(
        power_w=np.array(power), cpu_hz=np.array(cpu),
        resolution_px=np.array(res), **fields(link),
    )
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
