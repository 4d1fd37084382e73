"""Exhaustive grid reference: checked against a from-scratch enumerator.

The naive enumerator below mirrors the documented grid contract (power and
frequency are linspace over device bounds with zero power dropped; an FDMA
split gives each device u >= 1 of S = points + 1 whole units of the
bandwidth, linspace(0, 1, S + 1)[u] of it, the units summing to S) but
computes every objective with plain ``math`` formulas, no library calls, so
the two implementations share nothing beyond the problem statement.  It
takes the last device's share as the rest of the band, 1 - x, which agrees
with the unit share within its 1e-9 tolerance.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import flmar.oracle
from flmar import (
    Allocation, GridSpec, Weights, brute_force_oracle, objective, system_metrics,
)
from flmar.compute import cmos_energy, detection_accuracy, round_cycles
from flmar.oracle import (
    _DeviceGrid, _links, _min_over_stairs, _staircases, _undominated, _upload,
)

from conftest import equal_split_alloc, make_scenario, wide_box_draw, wide_box_weights

N0 = 3.98e-21
S_BITS = 2e6            # make_scenario default model size
ITERS = 5               # make_scenario default local iterations
ROUNDS = 10
CPP = 737.0
KAPPA = 1e-28


def naive_accuracy(r):
    return min(max(1.0 - 1.578 * math.exp(-0.0065 * r), 0.0), 1.0)


def naive_fdma_rate(b, p, g):
    if b <= 0.0 or p <= 0.0:
        return 0.0
    return b * math.log2(1.0 + g * p / (N0 * b))


def naive_device_cost(g, frames, p, f, r, rate):
    """(round_time, round_energy) or None when the link carries nothing."""
    if rate <= 0.0:
        return None
    cyc = ITERS * CPP * r * r * frames
    t_cmp = cyc / f
    t_com = S_BITS / rate
    e = KAPPA * cyc * f * f + p * t_com
    return t_cmp + t_com, e


def naive_objective(w, per_device, resolutions):
    if any(c is None for c in per_device):
        return math.inf
    energy = ROUNDS * sum(e for _, e in per_device)
    time = ROUNDS * max(t for t, _ in per_device)
    loss = sum(1.0 - naive_accuracy(r) for r in resolutions)
    return w.w1 * energy + w.w2 * time + w.w3 * loss


def device_candidates(dev, power_points, freq_points):
    powers = [p for p in np.linspace(dev.p_min, dev.p_max, power_points) if p > 0.0]
    freqs = list(np.linspace(dev.f_min, dev.f_max, freq_points))
    return list(itertools.product(powers, freqs, dev.resolutions))


def staircase(times, costs):
    """One table's staircase."""
    return _staircases(times[None, :], costs[None, :])[0]


def min_over_stairs(stairs, w2_rounds):
    """The search over one link made of ``stairs``, as ``(value, picks)``."""
    hit = _min_over_stairs(stairs, [list(range(len(stairs)))], w2_rounds)
    return hit and (hit[0], hit[2])


def dense_min_over_grid(times, costs, w2_rounds):
    """The search over every candidate of every table and every candidate
    time that the staircases replace: the running minimum of each table's
    costs in time order, evaluated at each distinct time."""
    orders, t_sorted, run_vals, run_idx = [], [], [], []
    for t, c in zip(times, costs):
        order = np.argsort(t, kind="stable")
        orders.append(order)
        t_sorted.append(t[order])
        values = c[order]
        running = np.minimum.accumulate(values)
        improved = np.empty(values.size, dtype=bool)
        improved[0] = True
        improved[1:] = values[1:] < running[:-1]
        run_vals.append(running)
        run_idx.append(np.maximum.accumulate(np.where(improved, np.arange(values.size), 0)))
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


class TestMinOverGrid:
    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 9))
            times = rng.uniform(0.1, 10.0, size=(n, m))
            costs = rng.uniform(0.0, 5.0, size=(n, m))
            if trial % 5 == 0:
                times[:, 0] = times[:, -1]     # force ties
            w2g = float(rng.uniform(0.0, 3.0))
            value, picks = min_over_stairs(
                [staircase(t, c) for t, c in zip(times, costs)], w2g)
            best = math.inf
            for combo in itertools.product(range(m), repeat=n):
                t = max(times[d, k] for d, k in enumerate(combo))
                c = sum(costs[d, k] for d, k in enumerate(combo))
                best = min(best, w2g * t + c)
            assert value == pytest.approx(best, rel=1e-12)
            chosen = w2g * max(times[d, picks[d]] for d in range(n)) + sum(
                costs[d, picks[d]] for d in range(n))
            assert chosen == pytest.approx(best, rel=1e-12)

    def test_pruned_steps_match_the_dense_search(self):
        # power x column tables as the oracle builds them, with duplicated
        # columns, times and costs on a coarse lattice so that many tie, and
        # now and then an unreachable power (infinite upload time and energy)
        # at w1 = 0, whose 0 * inf costs are NaN, or at w2 = 0
        rng = np.random.default_rng(23)
        found = 0
        for trial in range(300):
            n = int(rng.integers(1, 4))
            w1 = 0.0 if trial % 7 == 0 else float(rng.uniform(0.0, 2.0))
            w2 = 0.0 if trial % 11 == 0 else float(rng.uniform(0.0, 3.0))
            full, pruned, columns = [], [], []
            for _ in range(n):
                m = int(rng.integers(1, 12))
                t_cmp = rng.integers(1, 6, size=m) * 0.5
                base = rng.integers(0, 6, size=m) * 0.25
                dup = rng.integers(0, m, size=int(rng.integers(0, 4)))
                t_cmp, base = np.append(t_cmp, t_cmp[dup]), np.append(base, base[dup])
                p = int(rng.integers(1, 6))
                t_com = rng.integers(1, 6, size=p) * 0.5
                e_com = rng.integers(0, 6, size=p) * 0.5
                if trial % 13 == 0:
                    t_com[-1] = e_com[-1] = np.inf
                with np.errstate(invalid="ignore"):
                    table = ((t_com[:, None] + t_cmp).ravel(),
                             (w1 * e_com[:, None] + base).ravel())
                    keep = np.flatnonzero(_undominated(t_cmp, base))
                    pruned.append(staircase((t_com[:, None] + t_cmp[keep]).ravel(),
                                            (w1 * e_com[:, None] + base[keep]).ravel()))
                full.append(table)
                columns.append((t_cmp.size, keep))
            with np.errstate(invalid="ignore"):
                dense = dense_min_over_grid([t for t, _ in full], [c for _, c in full], w2)
                steps = min_over_stairs(pruned, w2)
            if dense is None:
                assert steps is None
                continue
            found += 1
            value, picks = steps
            assert value == dense[0]
            full_picks = []
            for pick, (m, keep) in zip(picks, columns):
                p, j = divmod(pick, keep.size)
                full_picks.append(p * m + int(keep[j]))
            assert full_picks == dense[1]
        assert found > 200

    def test_merge_edges_match_the_dense_search(self):
        # hand-built tables for the search's tie and NaN rules, bit for bit
        unreachable = np.array([1.0, 2.0, np.inf])      # the last power reaches nothing
        with np.errstate(invalid="ignore"):
            nan_costs = 0.0 * unreachable + np.array([3.0, 1.0, 0.5])     # w1 = 0
        cases = {
            # equal step times on different tables
            "shared steps": ([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 1.0]],
                             [[3.0, 2.0, 1.0], [5.0, 1.0, 0.0], [0.5, 2.0]]),
            # table 0's largest time, 5, is no step of its own but one of table 1's
            "last on a step": ([[1.0, 5.0], [5.0, 6.0], [2.0]],
                               [[1.0, 2.0], [3.0, 1.0], [0.5]]),
            "NaN cost": ([[1.0, 2.0, 3.0], unreachable], [[2.0, 1.0, 1.0], nan_costs]),
            # table 1's largest time, infinite, is no step
            "infinite last": ([[1.0, 2.0], [0.5, np.inf]], [[1.0, 0.5], [0.0, 2.0]]),
        }
        for name, (times, costs) in cases.items():
            times, costs = [np.array(t) for t in times], [np.array(c) for c in costs]
            for w2 in (0.0, 0.5, 1.0, 3.0):
                with np.errstate(invalid="ignore"):
                    dense = dense_min_over_grid(times, costs, w2)
                    merged = min_over_stairs(
                        [staircase(t, c) for t, c in zip(times, costs)], w2)
                assert repr(merged) == repr(dense), (name, w2)
                # a NaN anywhere rejects the link, and so does 0 * inf at w2 = 0
                rejected = name == "NaN cost" or (name == "infinite last" and w2 == 0.0)
                assert (merged is None) == rejected, (name, w2)

    @pytest.mark.parametrize("blocks", ["one", "many"])
    def test_links_match_the_search_per_link(self, monkeypatch, blocks):
        # many links over shared tables, on a coarse lattice so that values
        # tie across links and round times, now and then with a power that
        # reaches nothing at w1 = 0 (NaN costs) or at w2 = 0: the least
        # (value, link) of the dense search per link, with its picks.  With
        # one round time per pricing block and per seed and a few step
        # times per envelope fold and scan, every candidate that the
        # incumbent leaves is priced in its own block.
        if blocks == "many":
            for name, size in (("_BLOCK", 1), ("_SEED", 1), ("_CHUNK", 4)):
                monkeypatch.setattr(flmar.oracle, name, size)
        rng = np.random.default_rng(31)
        found = 0
        for trial in range(200):
            n = int(rng.integers(1, 4))
            w1 = 0.0 if trial % 7 == 0 else 1.0
            w2 = 0.0 if trial % 11 == 0 else float(rng.integers(0, 5)) * 0.5
            tables, owners = [], []
            for d in range(n):
                for _ in range(int(rng.integers(1, 5))):
                    m = int(rng.integers(1, 9))
                    t_com = rng.integers(1, 6, size=m) * 0.5
                    e_com = rng.integers(0, 4, size=m) * 0.5
                    if trial % 13 == 0 and rng.integers(2):
                        t_com[-1] = e_com[-1] = np.inf
                    with np.errstate(invalid="ignore"):
                        tables.append((t_com + rng.integers(0, 3, size=m) * 0.5,
                                       w1 * e_com + rng.integers(0, 4, size=m) * 0.25))
                    owners.append(d)
            owners = np.array(owners)
            links = np.array([[rng.choice(np.flatnonzero(owners == d)) for d in range(n)]
                              for _ in range(int(rng.integers(1, 13)))])
            expected = None
            with np.errstate(invalid="ignore"):
                for link, row in enumerate(links):
                    hit = dense_min_over_grid(*zip(*(tables[i] for i in row)), w2)
                    if hit is not None and (expected is None or hit[0] < expected[0]):
                        expected = (hit[0], link, hit[1])
                got = _min_over_stairs([staircase(*t) for t in tables], links, w2)
            assert repr(got) == repr(expected), trial
            found += expected is not None
        assert found > 150


class TestOracleAgainstNaive:
    def test_fdma_two_devices(self):
        scn = make_scenario([2e-9, 5e-10], frames=[30, 20],
                            resolutions=(100, 500))
        w = Weights(0.4, 0.6, 0.5)
        grid = GridSpec(power_points=4, freq_points=3, bandwidth_points=3)
        report = brute_force_oracle(scn, w, grid)

        cands = [device_candidates(d, 4, 3) for d in scn.devices]
        total = scn.total_bandwidth_hz
        best = math.inf
        for x in np.linspace(0.0, 1.0, 5)[1:-1]:
            split = (x * total, (1.0 - x) * total)
            for c0 in cands[0]:
                for c1 in cands[1]:
                    per = []
                    for dev, bw, (p, f, r) in zip(scn.devices, split, (c0, c1)):
                        rate = naive_fdma_rate(bw, p, dev.gain)
                        per.append(naive_device_cost(
                            dev.gain, dev.dataset_frames, p, f, r, rate))
                    best = min(best, naive_objective(
                        w, per, (c0[2], c1[2])))
        assert report.objective == pytest.approx(best, rel=1e-9)

    def test_fdma_three_devices(self):
        scn = make_scenario([2e-9, 8e-10, 5e-10], frames=[30, 20, 25],
                            resolutions=(100, 500))
        w = Weights(0.4, 0.6, 0.5)
        grid = GridSpec(power_points=3, freq_points=2, bandwidth_points=3)
        report = brute_force_oracle(scn, w, grid)

        cands = [device_candidates(d, 3, 2) for d in scn.devices]
        total = scn.total_bandwidth_hz
        fracs = np.linspace(0.0, 1.0, 5)[1:-1]
        splits = [(x, y, 1.0 - x - y) for x in fracs for y in fracs
                  if 1.0 - x - y > 0.1]
        assert len(splits) == 3
        best = math.inf
        for shares in splits:
            for combo in itertools.product(*cands):
                per = []
                for dev, share, (p, f, r) in zip(scn.devices, shares, combo):
                    rate = naive_fdma_rate(share * total, p, dev.gain)
                    per.append(naive_device_cost(
                        dev.gain, dev.dataset_frames, p, f, r, rate))
                best = min(best, naive_objective(
                    w, per, [r for _, _, r in combo]))
        assert report.objective == pytest.approx(best, rel=1e-9)

    def test_noma_two_devices(self):
        scn = make_scenario([2e-9, 5e-10], frames=[30, 20],
                            scheme="noma", resolutions=(100, 500))
        w = Weights(0.5, 0.5, 0.5)
        grid = GridSpec(power_points=4, freq_points=3, bandwidth_points=3)
        report = brute_force_oracle(scn, w, grid)

        bc = scn.total_bandwidth_hz           # one channel
        g_s, g_w = 2e-9, 5e-10
        cands = [device_candidates(d, 4, 3) for d in scn.devices]
        best = math.inf
        for p_s, f_s, r_s in cands[0]:
            for p_w, f_w, r_w in cands[1]:
                rate_s = bc * math.log2(1.0 + g_s * p_s / (g_w * p_w + N0 * bc))
                rate_w = bc * math.log2(1.0 + g_w * p_w / (N0 * bc))
                per = [
                    naive_device_cost(g_s, 30, p_s, f_s, r_s, rate_s),
                    naive_device_cost(g_w, 20, p_w, f_w, r_w, rate_w),
                ]
                best = min(best, naive_objective(w, per, (r_s, r_w)))
        assert report.objective == pytest.approx(best, rel=1e-9)

    def test_single_device(self):
        scn = make_scenario([1e-9], frames=[40], resolutions=(100, 300, 500))
        w = Weights(0.5, 0.5, 0.5)
        grid = GridSpec(power_points=5, freq_points=4, bandwidth_points=4)
        report = brute_force_oracle(scn, w, grid)

        # the oracle gives the lone device all of B; every narrower band is
        # strictly worse at each power, so the wider enumeration agrees
        dev = scn.devices[0]
        best = math.inf
        for bw in np.linspace(scn.total_bandwidth_hz / 4, scn.total_bandwidth_hz, 4):
            for p, f, r in device_candidates(dev, 5, 4):
                rate = naive_fdma_rate(bw, p, dev.gain)
                per = [naive_device_cost(dev.gain, 40, p, f, r, rate)]
                best = min(best, naive_objective(w, per, (r,)))
        assert report.objective == pytest.approx(best, rel=1e-9)


def dense_oracle(scn, w, grid):
    """`brute_force_oracle`'s search over every candidate of every device's
    full power x frequency x resolution table at every candidate time, on
    the oracle's own shared-link choices."""
    table = scn.devices
    dgrids = [_DeviceGrid(scn, table, k, w, grid) for k in range(scn.n_devices)]
    columns = []
    for k, d in enumerate(dgrids):
        cyc = round_cycles(scn.local_iterations, table.cycles_per_pixel[k],
                           d.r_grid.astype(float), table.frames[k])
        t_cmp = (cyc[None, :] / d.f_grid[:, None]).ravel()
        e_cmp = cmos_energy(table.kappa[k], cyc[None, :], d.f_grid[:, None]).ravel()
        loss = 1.0 - detection_accuracy(d.r_grid, scn.accuracy_model)
        base = d.w1_rounds * e_cmp + w.w3 * np.tile(loss, d.f_grid.size)
        columns.append((t_cmp, base))
    uploads, links, fields = _links(scn, table, dgrids, grid)
    best, alloc = math.inf, None
    for link, row in enumerate(links):
        times, costs = [], []
        for d, (t_cmp, base), i in zip(dgrids, columns, row):
            _, t_com, e_com, _ = uploads[i]
            times.append((t_com[:, None] + t_cmp).ravel())
            costs.append((d.w1_rounds * e_com[:, None] + base).ravel())
        hit = dense_min_over_grid(times, costs, w.w2 * scn.global_rounds)
        if hit is None or hit[0] >= best:
            continue
        best = hit[0]
        picks = []
        for d, (t_cmp, _), i, pick in zip(dgrids, columns, row, hit[1]):
            p, fr = divmod(pick, t_cmp.size)
            f, r = divmod(fr, d.r_grid.size)
            picks.append((float(uploads[i].powers[p]), float(d.f_grid[f]), int(d.r_grid[r])))
        power, cpu, res = zip(*picks)
        alloc = Allocation(power_w=np.array(power), cpu_hz=np.array(cpu),
                           resolution_px=np.array(res), **fields(link))
    return objective(w, system_metrics(scn, alloc)), alloc


def pin_bounds(scn, f=False, p=False):
    """``scn`` with f_min raised to f_max (``f``) and p_min to p_max (``p``)
    on every device, so that those grids repeat one value."""
    return replace(scn, devices=[
        replace(d, **({"f_min": d.f_max} if f else {}), **({"p_min": d.p_max} if p else {}))
        for d in scn.devices])


class TestOracleMatchesDenseSearch:
    """The staircase search, on pruned columns and step times only, returns
    the report of the search over every candidate and every time."""

    EDGES = {
        "drawn": lambda s, w: (s, w),
        "w1=0": lambda s, w: (s, Weights(0.0, w.w2, w.w3)),
        "w2=0": lambda s, w: (s, Weights(w.w1, 0.0, w.w3)),
        "w3=0": lambda s, w: (s, Weights(w.w1, w.w2, 0.0)),
        "f_min=f_max": lambda s, w: (pin_bounds(s, f=True), w),
        "p_min=p_max": lambda s, w: (pin_bounds(s, p=True), w),
    }

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("pinned", [True, False])
    def test_wide_box_draws(self, pinned, edge):
        # k = 0-8 is three instances of each kind: 2-device FDMA, 2-device
        # NOMA, 3-device FDMA
        grid = GridSpec(8, 8, 8)
        for k in range(9):
            scn, w = self.EDGES[edge](wide_box_draw(k, pinned), wide_box_weights(k))
            self.check(scn, w, grid)

    def test_default_grid_three_devices(self):
        # the benchmark's 20-point grid on a 3-device FDMA draw, where each
        # share's staircase serves many splits
        self.check(wide_box_draw(2, False), wide_box_weights(2), GridSpec())

    @pytest.mark.parametrize("edge", ["w1=0", "w2=0"])
    @pytest.mark.parametrize("k, pinned", [(0, False), (1, False), (2, False), (32, True)])
    def test_default_grid_edges(self, k, pinned, edge):
        # the 20-point grid, at the weights where a link's J can be NaN, on a
        # 2-device FDMA, a NOMA and a 3-device draw, and on the draw among
        # k < 96 whose candidates span the most pricing blocks (43, with
        # 3,862 round times priced at the drawn weights)
        self.check(*self.EDGES[edge](wide_box_draw(k, pinned), wide_box_weights(k)), GridSpec())

    @staticmethod
    def check(scn, w, grid):
        value, alloc = dense_oracle(scn, w, grid)
        report = brute_force_oracle(scn, w, grid)
        assert report.objective == value
        got = report.allocation
        for name in ("power_w", "cpu_hz", "resolution_px"):
            assert getattr(got, name).tobytes() == getattr(alloc, name).tobytes()
        if scn.scheme == "fdma":
            assert got.bandwidth_hz.tobytes() == alloc.bandwidth_hz.tobytes()
        else:
            assert got.pairing == alloc.pairing


class TestGridConstruction:
    def test_undominated_matches_the_pairwise_rule(self):
        # every (earlier, later) column pair compared, on a coarse lattice
        # with duplicated columns so that many tie, now and then with a NaN
        # cost, which beats nothing and is beaten by nothing
        rng = np.random.default_rng(41)
        for trial in range(400):
            m = int(rng.integers(1, 60))
            t_cmp = rng.integers(1, 8, size=m) * 0.5
            cost = rng.integers(0, 8, size=m) * 0.25
            if trial % 9 == 0:
                cost[rng.integers(0, m)] = np.nan
            expected = [not any(t_cmp[i] <= t_cmp[j] and cost[i] <= cost[j] for i in range(j))
                        for j in range(m)]
            assert _undominated(t_cmp, cost).tolist() == expected, trial

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fdma_splits_are_unit_compositions(self, n):
        # every split of S = points + 1 units, at least one per device, in
        # lexicographic order; unit u is linspace(0, 1, S + 1)[u] of the
        # band, for the last device too, bit for bit, and each link names
        # its devices' uploads at their shares
        for points in (2, 3, 7, 20, 41):
            s = points + 1
            expected = [u for u in itertools.product(range(1, s + 1), repeat=n) if sum(u) == s]
            assert len(expected) == math.comb(s - 1, n - 1)
            for total in (1.0, 3e6, 7.3e6):
                scn = make_scenario([1e-9, 5e-10, 2e-10][:n], bandwidth=total)
                grid = GridSpec(2, 2, points)
                dgrids = [_DeviceGrid(scn, scn.devices, k, Weights(0.5, 0.5, 0.5), grid)
                          for k in range(n)]
                uploads, links, fields = _links(scn, scn.devices, dgrids, grid)
                assert len(links) == len(expected), (points, total)
                for link, (units, row) in enumerate(zip(expected, links)):
                    bandwidth = fields(link)["bandwidth_hz"]
                    share = np.linspace(0, 1, s + 1)[list(units)] * total
                    assert bandwidth.tobytes() == share.tobytes(), (points, total, units)
                    for d, i, b in zip(dgrids, row, bandwidth):
                        np.testing.assert_allclose(uploads[i].t_com, _upload(scn, d, b)[0],
                                                   rtol=1e-12)


class TestStaircaseReuse:
    def test_one_staircase_per_device_share(self, monkeypatch):
        # each device's upload is tabulated once at every unit count it can
        # take, n (S - n + 1) staircases, however many splits name them
        built = []       # one entry per staircase: the tables build a row each
        real = flmar.oracle._DeviceGrid.tabulate
        monkeypatch.setattr(flmar.oracle._DeviceGrid, "tabulate",
                            lambda d, p, t, e: built.extend(t) or real(d, p, t, e))
        for k, grid, count in ((2, GridSpec(), 57), (0, GridSpec(), 40),
                               (2, GridSpec(8, 8, 8), 21)):
            built.clear()
            scn = wide_box_draw(k, False)
            brute_force_oracle(scn, wide_box_weights(k), grid)
            n, s = scn.n_devices, grid.bandwidth_points + 1
            assert len(built) == n * (s - n + 1) == count, k


class TestEnvelopeCut:
    def test_prices_few_round_times(self, monkeypatch):
        # the benchmark's grid on a 3-device FDMA draw: 190 splits, whose
        # tables have about 20,600 distinct step times between them
        priced = []
        real = flmar.oracle._price
        monkeypatch.setattr(flmar.oracle, "_price",
                            lambda s, links, t, w: priced.append(t.size) or real(s, links, t, w))
        brute_force_oracle(wide_box_draw(2, False), wide_box_weights(2))
        assert 0 < sum(priced) <= 1000

    def test_call_memory_is_bounded(self):
        # a call keeps every staircase it builds; tables, envelope folds,
        # candidate scans and pricing run in bounded blocks on top.  Peaks
        # measured at the default grid on k = 0-11: 2-device FDMA 0.49 MB
        # mean (0.67 max), NOMA 0.37 (0.54), 3-device FDMA 1.00 max
        brute_force_oracle(wide_box_draw(2, False), wide_box_weights(2))     # imports, caches
        for pinned in (True, False):
            for k in range(12):
                scn, w = wide_box_draw(k, pinned), wide_box_weights(k)
                tracemalloc.start()
                try:
                    brute_force_oracle(scn, w)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1.5e6, (k, pinned, peak)


class TestOracleContract:
    def test_deterministic(self):
        scn = make_scenario([2e-9, 5e-10], scheme="noma")
        w = Weights(0.5, 0.5, 0.5)
        grid = GridSpec(power_points=5, freq_points=5, bandwidth_points=5)
        a = brute_force_oracle(scn, w, grid)
        b = brute_force_oracle(scn, w, grid)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.allocation.power_w, b.allocation.power_w)

    def test_reported_objective_matches_allocation(self):
        scn = make_scenario([2e-9, 5e-10])
        w = Weights(0.3, 0.7, 0.5)
        report = brute_force_oracle(scn, w, GridSpec(5, 5, 5))
        recomputed = objective(w, system_metrics(scn, report.allocation))
        assert report.objective == pytest.approx(recomputed, rel=1e-12)
        assert report.allocation.validate(scn) == []

    def test_beats_any_snapped_configuration(self):
        scn = make_scenario([2e-9, 5e-10])
        w = Weights(0.5, 0.5, 0.5)
        grid = GridSpec(6, 6, 6)
        report = brute_force_oracle(scn, w, grid)
        rng = np.random.default_rng(9)
        total = scn.total_bandwidth_hz
        fracs = np.linspace(0.0, 1.0, 8)[1:-1]
        for _ in range(20):
            alloc = equal_split_alloc(scn)
            for i, dev in enumerate(scn.devices):
                p_grid = np.linspace(dev.p_min, dev.p_max, 6)
                p_grid = p_grid[p_grid > 0]
                alloc.power_w[i] = rng.choice(p_grid)
                alloc.cpu_hz[i] = rng.choice(np.linspace(dev.f_min, dev.f_max, 6))
                alloc.resolution_px[i] = rng.choice(dev.resolutions)
            x = rng.choice(fracs)
            alloc.bandwidth_hz[:] = (x * total, (1 - x) * total)
            j = objective(w, system_metrics(scn, alloc))
            assert report.objective <= j + 1e-9

    def test_rejects_more_than_three_devices(self):
        scn = make_scenario([1e-9, 2e-9, 3e-9, 4e-9])
        with pytest.raises(ValueError, match="3"):
            brute_force_oracle(scn, Weights(0.5, 0.5, 0.5))

    def test_grid_spec_needs_two_points(self):
        with pytest.raises(ValueError):
            GridSpec(power_points=1)

    def test_grid_spec_rejects_float_power_points(self):
        with pytest.raises(ValueError, match="power_points"):
            GridSpec(power_points=20.0)

    def test_grid_spec_rejects_fractional_bandwidth_points(self):
        with pytest.raises(ValueError, match="bandwidth_points"):
            GridSpec(bandwidth_points=2.5)

    def test_grid_spec_rejects_bool_points(self):
        with pytest.raises(ValueError, match="freq_points"):
            GridSpec(freq_points=True)

    def test_grid_spec_takes_numpy_integers(self):
        scn, w = make_scenario([2e-9, 5e-10]), Weights(0.5, 0.5, 0.5)
        grid = GridSpec(np.int64(5), np.int32(4), np.int16(3))
        assert repr(brute_force_oracle(scn, w, grid)) == repr(
            brute_force_oracle(scn, w, GridSpec(5, 4, 3)))
