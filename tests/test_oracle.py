"""Exhaustive grid reference: checked against a from-scratch enumerator.

The naive enumerator below mirrors the documented grid contract (power and
frequency are linspace over device bounds with zero power dropped; every FDMA
device but the last takes an interior fraction of linspace(0, 1, points+2) of
the bandwidth and the last takes the rest) but
computes every objective with plain ``math`` formulas, no library calls, so
the two implementations share nothing beyond the problem statement.
"""

import itertools
import math

import numpy as np
import pytest

from flmar import GridSpec, Weights, brute_force_oracle, objective, system_metrics
from flmar.oracle import _min_over_grid

from conftest import make_scenario, equal_split_alloc

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
            value, picks = _min_over_grid(times, costs, w2g)
            best = math.inf
            for combo in itertools.product(range(m), repeat=n):
                t = max(times[d, k] for d, k in enumerate(combo))
                c = sum(costs[d, k] for d, k in enumerate(combo))
                best = min(best, w2g * t + c)
            assert value == pytest.approx(best, rel=1e-12)
            chosen = w2g * max(times[d, picks[d]] for d in range(n)) + sum(
                costs[d, picks[d]] for d in range(n))
            assert chosen == pytest.approx(best, rel=1e-12)


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
