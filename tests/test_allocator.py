"""Joint resource allocation: subproblems, the outer loop, the baseline."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flmar import (
    Allocation,
    InfeasibleBudgetError,
    Weights,
    comp_time,
    cycles_per_frame,
    objective,
    optimize,
    random_baseline,
    solve_comm_subproblem_fdma,
    solve_comm_subproblem_noma,
    solve_cpu_frequencies,
    sweep_resolutions,
    system_metrics,
)
from flmar import ScenarioSpec, generate_scenario, pair_users
import flmar.allocator
from flmar.allocator import (
    _assemble,
    _bisect,
    _continuous_solve,
    _Env,
    _fdma_resplit,
    _noma_resplit,
    _root,
    _sweep_core,
    _u_from_k,
)

from conftest import make_scenario, equal_split_alloc

N0 = 3.98e-21
W = Weights(0.5, 0.5, 0.5)


def required_power(bits, budget, bandwidth, gain):
    """Deadline-binding FDMA power, written independently of the library."""
    rho = bits / budget
    return (N0 * bandwidth / gain) * (2.0 ** (rho / bandwidth) - 1.0)


def comp_seconds(scn, index, resolution, cpu):
    dev = scn.devices[index]
    cyc = cycles_per_frame(resolution, dev.cycles_per_pixel)
    return comp_time(scn.local_iterations, cyc, dev.dataset_frames, cpu)


class TestBisect:
    def test_lanes_end_within_one_spacing_of_their_root(self):
        roots = np.array([-3.7, -1e-3, 1e-9, 0.5, 123.456, 7e5])
        lo = np.array([-10.0, -2.0, 0.0, 0.25, 100.0, -1e6])
        hi = np.array([0.0, 1.0, 1.0, 0.75, 1e4, 1e6])
        low_side = lambda x: x < roots  # noqa: E731
        lo_end, hi_end = _bisect(low_side, lo, hi)
        spacing = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(hi_end - lo_end <= spacing)
        assert np.all(low_side(lo_end)) and not np.any(low_side(hi_end))

    def test_reversed_and_zero_width_lanes_are_unchanged(self):
        lo, hi = np.array([2.0, 5.0]), np.array([1.0, 5.0])
        lo_end, hi_end = _bisect(lambda x: x < 1.5, lo, hi)
        np.testing.assert_array_equal(lo_end, lo)
        np.testing.assert_array_equal(hi_end, hi)
        # a zero-width lane also stays put beside a lane that is bisected
        lo_end, hi_end = _bisect(lambda x: x < 3.0, np.array([5.0, 0.0]),
                                 np.array([5.0, 4.0]))
        assert lo_end[0] == hi_end[0] == 5.0

    def test_scalar_bounds(self):
        lo, hi = _bisect(lambda x: x * x < 2.0, 1.0, 2.0)
        assert 0.0 < float(hi) - float(lo) <= np.spacing(2.0)
        assert float(lo) ** 2 < 2.0 <= float(hi) ** 2


class TestRoot:
    roots = np.array([-3.7, -1e-3, 1e-9, 0.5, 123.456, 7e5])
    lo = np.array([-10.0, -2.0, 0.0, 0.25, 100.0, -1e6])
    hi = np.array([0.0, 1.0, 1.0, 0.75, 1e4, 1e6])
    slope = np.array([1.0, 5.0, 1e-3, 0.01, 30.0, 1e-3])

    @staticmethod
    def counted(f):
        def g(x):
            g.calls += 1
            return f(x)
        g.calls = 0
        return g

    @pytest.mark.parametrize("shape", ["smooth", "corner"])
    def test_lanes_end_at_their_root(self, shape):
        r, k = self.roots, self.slope
        if shape == "smooth":
            f = self.counted(lambda x: np.arctan(r - x) + 0.3 * np.tanh(k * (r - x)))
        else:   # the slope changes at the root
            f = self.counted(lambda x: np.where(x < r, r - x, k * (r - x)))
        lo_end, hi_end = _root(f, self.lo, self.hi)
        spacing = np.spacing(np.maximum(np.abs(lo_end), np.abs(hi_end)))
        straddle = (f(lo_end) > 0.0) & (f(hi_end) < 0.0) & (hi_end - lo_end <= spacing)
        hit = (lo_end == hi_end) & (f(lo_end) == 0.0)
        assert np.all(straddle | hit)
        assert np.all(np.abs(lo_end - r) <= np.spacing(np.abs(r)))
        # the widest lane needs 54 halvings to reach one float spacing
        assert f.calls - 2 <= 30

    def test_bracket_halves_at_least_every_three_probes(self):
        # powers below 1 on both sides of the root defeat interpolation;
        # without forced midpoints this lane takes thousands of probes
        f = self.counted(lambda x: np.where(x < 0.14, np.abs(0.14 - x) ** 0.85,
                                            -1e-4 * np.abs(x - 0.14) ** 0.3))
        lo, hi = _root(f, 0.0, 1.0)
        assert float(hi) - float(lo) <= np.spacing(0.14)
        # 53 halvings take [0, 1] to one float spacing at 1
        assert f.calls - 2 <= 3 * 53

    def test_roots_at_or_beyond_an_end_settle_without_a_probe(self):
        lo, hi = np.array([1.0, 1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0, 2.0])
        r = np.array([0.5, 1.0, 2.0, 3.0])
        f = self.counted(lambda x: r - x)
        lo_end, hi_end = _root(f, lo, hi)
        np.testing.assert_array_equal(lo_end, [1.0, 1.0, 2.0, 2.0])
        np.testing.assert_array_equal(hi_end, lo_end)
        assert f.calls == 2

    def test_scalar_bounds(self):
        lo, hi = _root(lambda x: 2.0 - x * x, 1.0, 2.0)
        assert 0.0 < float(hi) - float(lo) <= np.spacing(2.0)
        assert float(lo) ** 2 < 2.0 < float(hi) ** 2


def test_u_from_k_residual():
    # k/ln2 - 1 from just above the ln 2 floor to 1e7, and densely across the
    # switch from the series to the Lambert W form at 1e-2
    eps = np.concatenate([np.logspace(-10, 7, 1701), np.linspace(5e-3, 2e-2, 1501)])
    k = np.unique(math.log(2.0) * (1.0 + eps))
    u = _u_from_k(k)
    assert not np.isnan(u).any()
    # the budget-floor search needs feasibility monotone in the deadline
    assert np.all(np.diff(u) > 0.0)
    residual = np.abs(np.expm1(u * math.log(2.0)) / u - k) / k
    assert residual.max() <= 1e-13


def test_u_from_k_stays_finite_to_the_top_of_the_float_range():
    # u is about 1006 at k/ln2 = 1e300; no step on the way may overflow
    k = math.log(2.0) * np.logspace(7, 300, 294)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = _u_from_k(k)
    assert np.all(np.isfinite(u)) and np.all(np.diff(u) > 0.0)


def _bisect_to_float(low_side, lo, hi):
    """Halve each lane until no float lies strictly between its ends."""
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not np.any(open_):
            return lo, hi
        side = low_side(mid)
        lo = np.where(open_ & side, mid, lo)
        hi = np.where(open_ & ~side, mid, hi)


def reference_fdma_split(scn, deadlines):
    """Minimum-energy FDMA powers and bandwidths, by bisection alone.

    Written apart from the library: each device's energy marginal -dE/db
    on its deadline branch and on its p_min branch, its demand at a price
    as a float-precision bisection on b, and the price as a float-precision
    bisection on its log.  The feasible end of the price bracket is kept
    and the split is scaled up to fill the band.
    """
    g = np.array([dv.gain for dv in scn.devices])
    p_min = np.array([dv.p_min for dv in scn.devices])
    p_max = np.array([dv.p_max for dv in scn.devices])
    s, band, n0 = scn.model_size_bits, scn.total_bandwidth_hz, scn.noise_psd
    d = np.asarray(deadlines, dtype=float)
    ln2 = math.log(2.0)

    def p_req(b):
        with np.errstate(over="ignore"):
            return n0 * b / g * np.expm1(s / (d * b) * ln2)

    def marginal(b):
        u = s / (d * b)
        with np.errstate(over="ignore", invalid="ignore"):
            v1 = d * n0 / g * ((u * ln2 - 1.0) * np.exp2(u) + 1.0)
        x = g * p_min / (n0 * b)
        rate = b * np.log2(1.0 + x)
        with np.errstate(divide="ignore", invalid="ignore"):
            v2 = p_min * s * (np.log2(1.0 + x) - x / ((1.0 + x) * ln2)) / rate**2
        return np.where(p_req(b) >= p_min, v1, v2)

    _, floor = _bisect_to_float(
        lambda b: p_req(b) > p_max, np.full(len(g), band * 1e-12), np.full(len(g), band)
    )

    def demand(lam):
        lo, _ = _bisect_to_float(lambda b: marginal(b) >= lam, floor, np.full(len(g), band))
        return lo

    # every device demands the whole band at the lowest of the marginals at
    # B, and shrinks to its floor at the highest of those at the floors
    log_lo = math.log(marginal(np.full(len(g), band)).min())
    log_hi = math.log(marginal(floor).max())
    _, log_lam = _bisect_to_float(
        lambda x: demand(math.exp(x)).sum() > band, log_lo, log_hi
    )
    b = demand(math.exp(log_lam))
    b = b * (band / b.sum())
    return np.clip(p_req(b), p_min, p_max), b, floor


def wide_box_draw(k):
    """Instance k of the benchmark's wide parameter box with p_min raised to
    5-50 % of p_max, rebuilt here from its draws."""
    n, scheme = ((2, "fdma"), (2, "noma"), (3, "fdma"))[k % 3]
    rng = np.random.default_rng((8324, k))
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))  # noqa: E731
    bandwidth = log_uniform(0.3e6, 30e6)
    model_bits = log_uniform(1e5, 1e7)
    rng.uniform(0.1, 0.9)           # w1
    log_uniform(0.1, 1000.0)        # w3
    share = rng.uniform(0.05, 0.5, size=n)
    spec = ScenarioSpec(n_devices=n, scheme=scheme, p_max_range=(0.1, 0.5),
                        f_max_range=(0.5e9, 3e9), total_bandwidth_hz=bandwidth,
                        model_size_bits=model_bits)
    scn = generate_scenario(spec, seed=int(rng.integers(2**62)))
    return replace(scn, devices=[replace(dv, p_min=float(x) * dv.p_max)
                                 for dv, x in zip(scn.devices, share)])


def comm_inputs(scn, deadlines):
    """CPU speeds, resolutions and a round-time budget that leave
    ``deadlines`` for upload, and those deadlines as the solver sees them.

    The budget is twice the longest deadline, so that computing the
    deadlines back from it loses only a few float spacings.
    """
    budget = 2.0 * float(np.max(deadlines))
    res = np.array([min(dv.resolutions) for dv in scn.devices])
    cyc = np.array([scn.local_iterations * cycles_per_frame(r, dv.cycles_per_pixel)
                    * dv.dataset_frames for dv, r in zip(scn.devices, res)])
    cpu = cyc / (budget - np.asarray(deadlines))
    return cpu, res, budget, budget - np.array(
        [comp_seconds(scn, i, r, f) for i, (r, f) in enumerate(zip(res, cpu))]
    )


def kink_deadlines(scn, bandwidth):
    """Deadlines at which p_min exactly delivers the model over ``bandwidth``,
    so that every device's p_min kink sits at its share of the band."""
    g = np.array([dv.gain for dv in scn.devices])
    p_min = np.array([dv.p_min for dv in scn.devices])
    rate = bandwidth * np.log2(1.0 + g * p_min / (scn.noise_psd * bandwidth))
    return scn.model_size_bits / rate


def flat_demand_case(k):
    """Wide-box draw k at deadlines where every device sits at its p_min kink.

    A first solve at loose deadlines pins every device at p_min, where all
    share one marginal on the p_min branch.  Deadlines that put each kink at
    that split then make demand flat in the price across the root.
    """
    scn = wide_box_draw(k)
    p, b = solve_comm_subproblem_fdma(scn, W, *comm_inputs(scn, np.full(scn.n_devices, 1e3))[:3])
    assert np.all(p == [dv.p_min for dv in scn.devices])
    return (scn, *comm_inputs(scn, kink_deadlines(scn, b)), b)


class TestFdmaCommSubproblem:
    def test_single_device_gets_all_bandwidth(self):
        scn = make_scenario([1e-9])
        cpu, res = np.array([1e9]), np.array([400])
        budget = comp_seconds(scn, 0, 400, 1e9) + 5.0
        p, b = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        assert b[0] == pytest.approx(scn.total_bandwidth_hz, rel=1e-9)
        # 5 seconds of airtime for 2e6 bits: the closed-form power matches
        expect = required_power(scn.model_size_bits, 5.0, b[0], 1e-9)
        assert p[0] == pytest.approx(expect, rel=1e-6)

    def test_identical_devices_split_evenly(self):
        scn = make_scenario([1e-9, 1e-9])
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        budget = comp_seconds(scn, 0, 400, 1e9) + 3.0
        p, b = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        assert b[0] == pytest.approx(b[1], rel=1e-6)
        assert p[0] == pytest.approx(p[1], rel=1e-5)
        assert b.sum() == pytest.approx(scn.total_bandwidth_hz, rel=1e-9)

    def test_weak_device_gets_more_bandwidth(self):
        scn = make_scenario([1e-8, 1e-10])
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        budget = comp_seconds(scn, 0, 400, 1e9) + 3.0
        _, b = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        assert b[1] > b[0]

    def test_beats_grid_of_bandwidth_splits(self):
        # energy from the solver's split is no worse than a fine brute grid
        scn = make_scenario([2e-9, 5e-10])
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        slack = 4.0
        budget = comp_seconds(scn, 0, 400, 1e9) + slack
        p, b = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        d = [budget - comp_seconds(scn, i, 400, 1e9) for i in range(2)]
        e_solver = sum(
            required_power(scn.model_size_bits, d[i], b[i], scn.devices[i].gain) * d[i]
            for i in range(2)
        )
        total = scn.total_bandwidth_hz
        best = math.inf
        for frac in np.linspace(0.01, 0.99, 1999):
            b0 = frac * total
            e = sum(
                required_power(scn.model_size_bits, d[i], bw, scn.devices[i].gain) * d[i]
                for i, bw in enumerate((b0, total - b0))
            )
            best = min(best, e)
        assert e_solver <= best * (1 + 1e-6)

    def test_powers_respect_limits(self):
        scn = make_scenario([1e-10, 5e-10], p_max=0.15)
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        budget = comp_seconds(scn, 0, 400, 1e9) + 0.4
        p, b = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        assert np.all(p <= 0.15 + 1e-12)
        assert np.all(p >= 0.0)
        assert b.sum() <= scn.total_bandwidth_hz * (1 + 1e-9)

    def test_infeasible_budget_raises(self):
        scn = make_scenario([1e-10])
        cpu, res = np.array([1e9]), np.array([400])
        budget = comp_seconds(scn, 0, 400, 1e9) + 1e-9
        with pytest.raises(InfeasibleBudgetError):
            solve_comm_subproblem_fdma(scn, W, cpu, res, budget)

    def test_power_floor_is_enforced(self):
        scn = make_scenario([1e-7, 1e-7], p_min=0.05)
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        budget = comp_seconds(scn, 0, 400, 1e9) + 50.0
        p, _ = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        assert np.all(p >= 0.05 - 1e-12)


class TestFdmaMatchesBisectionReference:
    """The root searches land where float-precision bisections do."""

    @staticmethod
    def solve_and_compare(scn, cpu, res, budget, deadlines):
        p, b = solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        p_ref, b_ref, floor = reference_fdma_split(scn, deadlines)
        np.testing.assert_allclose(b, b_ref, rtol=1e-9)
        np.testing.assert_allclose(p, p_ref, rtol=1e-9)
        assert np.all(b >= floor * (1.0 - 1e-12))
        assert b.sum() == pytest.approx(scn.total_bandwidth_hz, rel=1e-12)
        return p, b

    def test_default_scenario(self):
        scn = generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma"))
        self.solve_and_compare(scn, *comm_inputs(scn, np.linspace(0.2, 0.8, 40)))

    def test_partly_pinned(self):
        base = generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma"))
        scn = replace(base, devices=[replace(dv, p_min=2e-3 if i % 3 == 0 else 0.0)
                                     for i, dv in enumerate(base.devices)])
        p, _ = self.solve_and_compare(scn, *comm_inputs(scn, np.linspace(0.3, 1.2, 40)))
        floored = p[::3] == 2e-3
        assert floored.any() and not floored.all()

    def test_flat_demand_every_device_at_its_kink(self):
        scn, cpu, res, budget, d, b_kink = flat_demand_case(5)
        p, b = self.solve_and_compare(scn, cpu, res, budget, d)
        np.testing.assert_allclose(b, b_kink, rtol=1e-12)
        np.testing.assert_allclose(p, [dv.p_min for dv in scn.devices], rtol=1e-12)

    def test_pinned_single_device_takes_the_whole_band(self):
        # its p_min marginal at B exceeds the price: the floor split's root
        # lies at the top of its bracket
        scn = make_scenario([1e-8], p_min=0.05)
        p, b = self.solve_and_compare(scn, *comm_inputs(scn, np.array([1.0])))
        assert b[0] == scn.total_bandwidth_hz and p[0] == 0.05

    def test_flat_demand_price_search_stays_short(self, monkeypatch):
        scn, cpu, res, budget, _, _ = flat_demand_case(0)
        assert scn.n_devices == 2
        calls = []
        real = flmar.allocator.lambertw

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(flmar.allocator, "lambertw", counting)
        solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        # a float-precision bisection on the price takes about 55
        assert len(calls) <= 30


def upload_seconds(bits, bandwidth, noise_w, gain, power):
    return bits / (bandwidth * math.log2(1.0 + gain * power / noise_w))


def split_energy(kappa, cyc, tau, d, noise_w, gain, bits, bandwidth):
    """Compute plus deadline-binding upload energy of a device whose upload
    takes d of the round time tau, written independently of the library."""
    upload = (noise_w / gain) * (2.0 ** (bits / (bandwidth * d)) - 1.0) * d
    return kappa * cyc**3 / (tau - d) ** 2 + upload


def deadline_range(dev, tau, cyc, bits, bandwidth, noise_w):
    """The upload deadlines a device can meet: at most p_max, at least p_min,
    with its CPU within [f_min, f_max] on the rest of tau."""
    lo = max(tau - cyc / dev.f_min, upload_seconds(bits, bandwidth, noise_w, dev.gain, dev.p_max))
    hi = tau - cyc / dev.f_max
    if dev.p_min > 0.0:
        hi = min(hi, max(upload_seconds(bits, bandwidth, noise_w, dev.gain, dev.p_min), lo))
    return lo, hi


def assert_minimises(energy, d, lo, hi):
    assert lo * (1.0 - 1e-12) <= d <= hi * (1.0 + 1e-12)
    assert energy(d) <= energy(np.linspace(lo, hi, 20001)).min() * (1.0 + 1e-12)


class TestTimeSplit:
    """Each device's compute/upload split at a fixed round time minimises its
    energy within the deadlines it can meet, checked against a grid scan."""

    TAU = 3.0
    FRAMES = [100, 60, 150, 40]
    FDMA_BANDWIDTH = np.array([2e6, 4e6, 6e6, 8e6])

    def cycles(self, scn):
        return np.array([scn.local_iterations * dv.cycles_per_pixel * 100.0**2
                         * dv.dataset_frames for dv in scn.devices])

    def fdma_scenario(self):
        base = make_scenario([1e-9, 2e-11, 5e-12, 3e-12], frames=self.FRAMES)
        return replace(base, devices=base.devices[:3] + [replace(base.devices[3], p_min=0.15)])

    def noma_scenario(self):
        base = make_scenario([1e-10, 2e-11, 5e-12, 3e-12], scheme="noma", frames=self.FRAMES)
        return replace(base, devices=[replace(dv, p_min=p)
                                     for dv, p in zip(base.devices, (0.15, 0.0, 0.1, 0.0))])

    def noma_deadlines(self, scn, cyc):
        return self.TAU - cyc / np.array([dv.f_max for dv in scn.devices])

    def test_fdma(self):
        scn = self.fdma_scenario()
        cyc = self.cycles(scn)
        b = self.FDMA_BANDWIDTH
        d = _fdma_resplit(_Env(scn), self.TAU, cyc, b)
        bits = scn.model_size_bits
        for n, dv in enumerate(scn.devices):
            noise_w = N0 * b[n]
            lo, hi = deadline_range(dv, self.TAU, cyc[n], bits, b[n], noise_w)
            if dv.p_min > 0.0:
                assert hi == upload_seconds(bits, b[n], noise_w, dv.gain, dv.p_min)
            assert_minimises(
                lambda x: split_energy(dv.kappa, cyc[n], self.TAU, x, noise_w, dv.gain,
                                       bits, b[n]),
                d[n], lo, hi,
            )

    def test_noma(self):
        scn = self.noma_scenario()
        env = _Env(scn)
        cyc = self.cycles(scn)
        d_in = self.noma_deadlines(scn, cyc)
        d = _noma_resplit(env, self.TAU, cyc, d_in)
        bits, bc = scn.model_size_bits, env.channel_bw
        noise_w = N0 * bc
        for s, w in zip(env.strong, env.weak):
            strong, weak = scn.devices[s], scn.devices[w]

            # weak half-step, with the strong deadline still at its input value:
            # each watt of weak power costs the strong user (2**x_s - 1) g_w / g_s
            # watts for d_s seconds
            cross = d_in[s] * (2.0 ** (bits / (bc * d_in[s])) - 1.0) * weak.gain / strong.gain

            def weak_energy(x):
                p_w = (noise_w / weak.gain) * (2.0 ** (bits / (bc * x)) - 1.0)
                return split_energy(weak.kappa, cyc[w], self.TAU, x, noise_w, weak.gain,
                                    bits, bc) + cross * p_w

            lo, hi = deadline_range(weak, self.TAU, cyc[w], bits, bc, noise_w)
            assert_minimises(weak_energy, d[w], lo, hi)

            # strong half-step at the weak power the weak deadline leaves
            p_w = max((noise_w / weak.gain) * (2.0 ** (bits / (bc * d[w])) - 1.0), weak.p_min)
            interference = weak.gain * p_w + noise_w
            lo, hi = deadline_range(strong, self.TAU, cyc[s], bits, bc, interference)
            if strong.p_min > 0.0:
                assert hi == upload_seconds(bits, bc, interference, strong.gain, strong.p_min)
            assert_minimises(
                lambda x: split_energy(strong.kappa, cyc[s], self.TAU, x, interference,
                                       strong.gain, bits, bc),
                d[s], lo, hi,
            )

    def test_mixed_p_min_splits_emit_no_warning(self):
        # a device with p_min = 0 has no p_min upload time to compute
        fdma, noma = self.fdma_scenario(), self.noma_scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _fdma_resplit(_Env(fdma), self.TAU, self.cycles(fdma), self.FDMA_BANDWIDTH)
            cyc = self.cycles(noma)
            _noma_resplit(_Env(noma), self.TAU, cyc, self.noma_deadlines(noma, cyc))


def test_import_leaves_scipy_optimize_out():
    code = "import sys, flmar; print('scipy.optimize' in sys.modules)"
    src = str(Path(flmar.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestNomaCommSubproblem:
    def test_matches_closed_form(self):
        scn = make_scenario([2e-9, 1e-9], scheme="noma")
        pairing = pair_users([2e-9, 1e-9], 1, scn.total_bandwidth_hz)
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        slack = 2.0
        budget = comp_seconds(scn, 0, 400, 1e9) + slack
        p = solve_comm_subproblem_noma(scn, W, pairing, cpu, res, budget)
        bc = pairing.channel_bandwidth_hz
        rho = scn.model_size_bits / slack
        p_w = (N0 * bc / 1e-9) * (2.0 ** (rho / bc) - 1.0)
        p_s = ((1e-9 * p_w + N0 * bc) / 2e-9) * (2.0 ** (rho / bc) - 1.0)
        assert p[1] == pytest.approx(p_w, rel=1e-9)
        assert p[0] == pytest.approx(p_s, rel=1e-9)

    def test_strong_power_reacts_to_weak_interference(self):
        scn = make_scenario([2e-9, 1e-9], scheme="noma")
        pairing = pair_users([2e-9, 1e-9], 1, scn.total_bandwidth_hz)
        res = np.full(2, 400)
        base = comp_seconds(scn, 0, 400, 1e9)
        loose = solve_comm_subproblem_noma(scn, W, pairing, np.full(2, 1e9), res, base + 5.0)
        tight = solve_comm_subproblem_noma(scn, W, pairing, np.full(2, 1e9), res, base + 0.5)
        # a tighter deadline raises the weak power, which raises the strong one
        assert tight[1] > loose[1]
        assert tight[0] > loose[0]

    def test_infeasible_budget_raises(self):
        scn = make_scenario([2e-9, 1e-9], scheme="noma")
        pairing = pair_users([2e-9, 1e-9], 1, scn.total_bandwidth_hz)
        cpu, res = np.full(2, 1e9), np.full(2, 400)
        budget = comp_seconds(scn, 0, 400, 1e9) + 1e-9
        with pytest.raises(InfeasibleBudgetError):
            solve_comm_subproblem_noma(scn, W, pairing, cpu, res, budget)


class TestCpuFrequencies:
    def test_interior_solution_is_exact(self):
        scn = make_scenario([1e-9])
        comm = np.array([1.0])
        budget = 41.0       # leaves a 40 s compute window, f interior
        f = solve_cpu_frequencies(scn, W, budget, comm, np.array([400]))
        cyc = (scn.local_iterations
               * cycles_per_frame(400, 737.0) * scn.devices[0].dataset_frames)
        assert scn.devices[0].f_min < f[0] < scn.devices[0].f_max
        assert f[0] == pytest.approx(cyc / 40.0, rel=1e-12)

    def test_clips_to_minimum_when_slack_is_ample(self):
        scn = make_scenario([1e-9])
        f = solve_cpu_frequencies(scn, W, 1e5, np.array([1.0]), np.array([400]))
        assert f[0] == scn.devices[0].f_min

    def test_infeasible_budget_names_the_device(self):
        scn = make_scenario([1e-9, 1e-9])
        # device 0 has a comfortable window, device 1 has almost none
        with pytest.raises(InfeasibleBudgetError, match=r"devices \[1\]"):
            solve_cpu_frequencies(scn, W, 40.0, np.array([1.0, 39.9999]),
                                  np.array([400, 400]))


class TestSweepResolutions:
    def test_zero_weight_keeps_minimum(self):
        scn = make_scenario([1e-8, 1e-8])
        alloc = equal_split_alloc(scn, resolution=100)
        r = sweep_resolutions(scn, Weights(0.5, 0.5, 0.0), alloc)
        assert list(r) == [100, 100]

    def test_accuracy_pressure_raises_resolution(self):
        scn = make_scenario([1e-7], rounds=1)
        alloc = equal_split_alloc(scn, resolution=100)
        # nearly all weight on accuracy: the top of the menu wins
        r = sweep_resolutions(scn, Weights(1e-6, 1e-6, 1e6), alloc)
        assert r[0] == max(scn.devices[0].resolutions)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(21)
        scn = make_scenario([3e-9, 8e-10, 2e-9, 5e-10])
        for _ in range(20):
            res = rng.choice(scn.devices[0].resolutions, size=4)
            alloc = equal_split_alloc(scn, power=0.1, cpu=1.5e9)
            alloc.resolution_px[:] = res
            before = objective(W, system_metrics(scn, alloc))
            r_new = sweep_resolutions(scn, W, alloc)
            m0 = system_metrics(scn, alloc)
            budget = m0.round_time_s
            comm = m0.comm_time_s
            # refit frequencies to the new resolutions at the same round time
            f_new = solve_cpu_frequencies(scn, W, budget, comm, r_new)
            after_alloc = Allocation(
                power_w=alloc.power_w, cpu_hz=f_new, resolution_px=r_new,
                bandwidth_hz=alloc.bandwidth_hz, pairing=alloc.pairing)
            after = objective(W, system_metrics(scn, after_alloc))
            assert after <= before + 1e-9


class TestOptimize:
    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_returns_feasible_allocation(self, scheme):
        gains = [3e-9, 8e-10, 2e-9, 5e-10]
        scn = make_scenario(gains, scheme=scheme)
        report = optimize(scn, W)
        assert report.allocation.validate(scn) == []
        assert report.converged
        assert report.outer_iterations <= 50

    def test_objective_matches_metrics(self):
        scn = make_scenario([3e-9, 8e-10])
        report = optimize(scn, W)
        recomputed = objective(W, system_metrics(scn, report.allocation))
        assert report.objective == pytest.approx(recomputed, rel=1e-12)

    def test_trace_is_monotone_nonincreasing(self):
        for scheme in ("fdma", "noma"):
            scn = make_scenario([3e-9, 8e-10, 2e-9, 5e-10], scheme=scheme)
            for w in (Weights(0.9, 0.1, 0.5), Weights(0.1, 0.9, 0.5)):
                trace = optimize(scn, w).objective_trace
                assert len(trace) >= 1
                assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        scn = make_scenario([3e-9, 8e-10, 2e-9, 5e-10], scheme="noma")
        a, b = optimize(scn, W), optimize(scn, W)
        np.testing.assert_array_equal(a.allocation.power_w, b.allocation.power_w)
        np.testing.assert_array_equal(a.allocation.cpu_hz, b.allocation.cpu_hz)
        np.testing.assert_array_equal(a.allocation.resolution_px,
                                      b.allocation.resolution_px)
        assert a.objective == b.objective

    def test_energy_weight_slows_cpus(self):
        # with no time pressure the energy-optimal point is the slowest CPU
        scn = make_scenario([1e-8, 1e-8])
        report = optimize(scn, Weights(1.0, 0.0, 0.5))
        f_min = scn.devices[0].f_min
        assert np.all(report.allocation.cpu_hz <= f_min * 1.5)

    def test_time_weight_speeds_cpus(self):
        scn = make_scenario([1e-8, 1e-8])
        fast = optimize(scn, Weights(0.01, 0.99, 0.5))
        slow = optimize(scn, Weights(0.99, 0.01, 0.5))
        m_fast = system_metrics(scn, fast.allocation)
        m_slow = system_metrics(scn, slow.allocation)
        assert m_fast.total_time_s < m_slow.total_time_s
        assert m_fast.total_energy_j > m_slow.total_energy_j

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_one_pass_when_resolutions_stay_at_minimum(self, scheme):
        scn = generate_scenario(ScenarioSpec(n_devices=8, scheme=scheme))
        report = optimize(scn, W)
        assert np.all(report.allocation.resolution_px == 100)
        assert report.outer_iterations == 1
        assert report.converged
        assert report.objective_trace == [report.objective]

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_stops_at_a_repeated_pass(self, scheme):
        # with w3 = 1000 the resolutions leave their minimum, so the solve
        # takes several passes; one more pass from the returned resolutions
        # repeats the last one exactly
        scn = generate_scenario(ScenarioSpec(n_devices=8, scheme=scheme))
        w = Weights(0.5, 0.5, 1000.0)
        report = optimize(scn, w)
        r = report.allocation.resolution_px
        assert np.any(r > 100) and report.outer_iterations > 1
        env = _Env(scn)
        cfg = _continuous_solve(env, w, r)
        r_again, f_again = _sweep_core(
            env, w, r, cfg.cpu, cfg.comm_time, cfg.comm_energy
        )
        alloc = _assemble(env, cfg.power, cfg.bandwidth, f_again, r_again)
        np.testing.assert_array_equal(r_again, r)
        assert objective(w, system_metrics(scn, alloc)) == report.objective

    def test_noma_pairs_strongest_with_weakest(self):
        gains = [5e-9, 1e-9, 4e-9, 2e-9]
        scn = make_scenario(gains, scheme="noma")
        report = optimize(scn, W)
        assert report.allocation.pairing.channels == ((0, 1), (2, 3))


class TestRandomBaseline:
    def test_deterministic_per_seed(self):
        scn = make_scenario([3e-9, 8e-10, 2e-9, 5e-10], scheme="noma")
        a = random_baseline(scn, W, seed=7)
        b = random_baseline(scn, W, seed=7)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.allocation.power_w, b.allocation.power_w)

    def test_seeds_differ(self):
        scn = make_scenario([3e-9, 8e-10])
        assert (random_baseline(scn, W, seed=1).objective
                != random_baseline(scn, W, seed=2).objective)

    def test_allocation_is_feasible(self):
        for scheme in ("fdma", "noma"):
            scn = make_scenario([3e-9, 8e-10, 2e-9, 5e-10], scheme=scheme)
            for seed in range(5):
                report = random_baseline(scn, W, seed=seed)
                assert report.allocation.validate(scn) == []

    def test_uses_minimum_resolution(self):
        scn = make_scenario([3e-9, 8e-10])
        report = random_baseline(scn, W, seed=3)
        assert np.all(report.allocation.resolution_px
                      == min(scn.devices[0].resolutions))

    def test_reports_zero_iterations(self):
        scn = make_scenario([3e-9, 8e-10])
        assert random_baseline(scn, W, seed=0).outer_iterations == 0
