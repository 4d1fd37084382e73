"""Joint resource allocation: subproblems, the outer loop, the baseline."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq, minimize
from scipy.special import lambertw

from flmar import (
    Allocation,
    InfeasibleBudgetError,
    Weights,
    brute_force_oracle,
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
from flmar import Scenario, ScenarioSpec, generate_scenario, pair_users
from flmar.channel import shannon_rate
from flmar.compute import cmos_energy, round_cycles
from flmar.experiments import scenario_for_cell
import flmar.allocator
from flmar.allocator import (
    InfeasibleScenarioError,
    _EPS,
    _LN2,
    _SQRT_EPS,
    _assemble,
    _budget_config,
    _comm_marginal,
    _continuous_solve,
    _Env,
    _FdmaFit,
    _fdma_floors,
    _fdma_solve,
    _noma_comm_solve,
    _noma_split,
    _priced,
    _root,
    _sweep_core,
    _time_split,
    _u_from_k,
)

from conftest import (
    equal_split_alloc, make_device, make_scenario, wide_box_draw, wide_box_weights,
)

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


def smooth(r, k):
    return lambda x: math.atan(r - x) + 0.3 * math.tanh(k * (r - x))


def corner(r, k):
    """The slope changes at the root."""
    return lambda x: r - x if x < r else k * (r - x)


def rough(r):
    """Powers below 1 on both sides of the root defeat interpolation."""
    return lambda x: abs(r - x) ** 0.85 if x < r else -1e-4 * abs(x - r) ** 0.3


def line(r):
    return lambda x: r - x


def step(r):
    return lambda x: 1.0 if x < r else -1.0


class TestRoot:
    roots = np.array([-3.7, -1e-3, 1e-9, 0.5, 123.456, 7e5])
    lo = np.array([-10.0, -2.0, 0.0, 0.25, 100.0, -1e6])
    hi = np.array([0.0, 1.0, 1.0, 0.75, 1e4, 1e6])
    slope = np.array([1.0, 5.0, 1e-3, 0.01, 30.0, 1e-3])
    shapes = {"smooth": smooth, "corner": corner}

    @staticmethod
    def counted(f):
        def g(x):
            g.calls += 1
            return f(x)
        g.calls = 0
        return g

    @staticmethod
    def assert_ends_at(f, lo_end, hi_end, r):
        spacing = np.spacing(max(abs(lo_end), abs(hi_end)))
        straddle = f(lo_end) > 0.0 > f(hi_end) and hi_end - lo_end <= spacing
        hit = lo_end == hi_end and f(lo_end) == 0.0
        assert straddle or hit
        assert abs(lo_end - r) <= np.spacing(abs(r))

    @pytest.mark.parametrize("shape", ["smooth", "corner"])
    def test_lanes_end_at_their_root(self, shape):
        for r, k, lo, hi in zip(self.roots, self.slope, self.lo, self.hi):
            f = self.counted(self.shapes[shape](r, k))
            self.assert_ends_at(f, *_root(f, lo, hi), r)
            # the widest bracket needs 54 halvings to reach one float spacing
            assert f.calls - 2 <= 30

    def test_bracket_halves_at_least_every_three_probes(self):
        # without forced midpoints this bracket takes thousands of probes
        f = self.counted(rough(0.14))
        lo, hi = _root(f, 0.0, 1.0)
        assert hi - lo <= np.spacing(0.14)
        # 53 halvings take [0, 1] to one float spacing at 1
        assert f.calls - 2 <= 3 * 53

    def test_flat_sides_end_at_the_step(self):
        # equal values on one side leave the secant undefined
        for r in (0.3, 1.0 / 3.0, 0.9):
            f = self.counted(step(r))
            self.assert_ends_at(f, *_root(f, 0.0, 1.0), r)
            assert f.calls - 2 <= 3 * 53

    def test_roots_at_or_beyond_an_end_settle_without_a_probe(self):
        for r, end in zip((0.5, 1.0, 2.0, 3.0), (1.0, 1.0, 2.0, 2.0)):
            f = self.counted(line(r))
            assert _root(f, 1.0, 2.0) == (end, end)
            assert f.calls == 2

    def test_scalar_bounds(self):
        lo, hi = _root(lambda x: 2.0 - x * x, 1.0, 2.0)
        assert type(lo) is float and type(hi) is float
        assert 0.0 < hi - lo <= np.spacing(2.0)
        assert lo**2 < 2.0 < hi**2

    @pytest.mark.parametrize("shape", ["smooth", "corner", "step"])
    def test_relative_resolution(self, shape):
        # the round-time search's resolution, 2 sqrt(eps) of the bracket's
        # larger end, on brackets of positive budgets
        make = {"smooth": lambda r: smooth(r, 3.0), "corner": lambda r: corner(r, 5.0),
                "step": step}[shape]
        xtol = 2.0 * _SQRT_EPS
        for r, lo, hi in ((0.7, 0.5, 1.5), (58.021, 39.37, 71.37), (3e4, 1e3, 1e5)):
            f = self.counted(make(r))
            a, b = _root(f, lo, hi, resolution=lambda x: xtol * x)
            assert a <= r <= b
            assert b - a <= xtol * b
            # halving 1e5 to 3e-8 of it takes 25 probes
            assert f.calls - 2 <= 3 * 25


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


def test_u_from_k_matches_the_lambert_w_form():
    # the closed form the Newton root replaced (Corless et al. 1996): with a
    # = k/ln2, -W_{-1}(-e**(-1/a) / a) = u ln2 + 1/a.  It served above eps =
    # a - 1 = 1e-2, so compare there, on the residual test's grid with its
    # dense band across the switch, in the closed form's own variable: just
    # above the switch u ln2 = -W - 1/a cancels two digits of the closed
    # form, whose u is off by up to 1.1e-12 there against a 40-digit root
    # (`_u_from_k` is within 2.2e-14).  From eps = 0.05 on u agrees too.
    eps = np.concatenate([np.logspace(-10, 7, 1701), np.linspace(5e-3, 2e-2, 1501)])
    k = np.unique(math.log(2.0) * (1.0 + eps))
    a = k / math.log(2.0)
    k, a = k[a - 1.0 >= 1e-2], a[a - 1.0 >= 1e-2]
    w = -np.real(lambertw(-np.exp(-1.0 / a) / a, -1))
    u = _u_from_k(k)
    assert np.all(np.abs(u * math.log(2.0) + 1.0 / a - w) <= 1e-13 * w)
    far = a - 1.0 >= 0.05
    u_w = (w - 1.0 / a)[far] / math.log(2.0)
    assert np.all(np.abs(u[far] - u_w) <= 1e-13 * u_w)


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


def smallest_budget(env, t_floor):
    """The smallest feasible round-time budget: `_root` on the comm margin
    from the compute floor up to a feasible budget found by doubling.  Any
    feasible upper end gives the same budget to one float spacing."""
    base = float(t_floor.max())
    hi = 2.0 * base
    while not env.comm_margin(hi - t_floor) <= 0.0:
        hi *= 2.0
    return _root(lambda tau: env.comm_margin(tau - t_floor), base, hi)[1]


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


def count_price_probes(monkeypatch):
    """Count the price probes of each FDMA price search from here on: one
    entry per `_fdma_solve` call, one count per `_FdmaFit.demand` call."""
    probes = []
    real_solve, real_demand = _fdma_solve, _FdmaFit.demand

    def solve(*args):
        probes.append(0)
        return real_solve(*args)

    def demand(fit, *args):
        probes[-1] += 1
        return real_demand(fit, *args)

    monkeypatch.setattr(flmar.allocator, "_fdma_solve", solve)
    monkeypatch.setattr(_FdmaFit, "demand", demand)
    return probes


def pinned_comm_solve(env, deadlines):
    """The FDMA price search with every deadline pinned: the comm solve that
    `solve_comm_subproblem_fdma` runs."""
    return _fdma_solve(env, math.inf, deadlines, deadlines, np.zeros(env.n))


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
        # its p_min marginal at B exceeds the price: the root of its p_min
        # edge lies beyond b = B
        scn = make_scenario([1e-8], p_min=0.05)
        p, b = self.solve_and_compare(scn, *comm_inputs(scn, np.array([1.0])))
        assert b[0] == scn.total_bandwidth_hz and p[0] == 0.05

    def test_flat_demand_price_search_stays_short(self, monkeypatch):
        scn, cpu, res, budget, _, _ = flat_demand_case(0)
        assert scn.n_devices == 2
        probes = count_price_probes(monkeypatch)
        solve_comm_subproblem_fdma(scn, W, cpu, res, budget)
        # a float-precision bisection on the price takes about 55
        assert len(probes) == 1 and probes[0] <= 6


def upload_seconds(bits, bandwidth, noise_w, gain, power):
    """inf where the SNR rounds the rate to 0, as behind an unmeetable weak
    deadline's power."""
    rate = bandwidth * math.log2(1.0 + gain * power / noise_w)
    return bits / rate if rate > 0.0 else math.inf


def split_energy(kappa, cyc, tau, d, noise_w, gain, bits, bandwidth):
    """Compute plus deadline-binding upload energy of a device whose upload
    takes d of the round time tau, written independently of the library."""
    upload = (noise_w / gain) * (2.0 ** (bits / (bandwidth * d)) - 1.0) * d
    return kappa * cyc**3 / (tau - d) ** 2 + upload


def deadline_range(dev, tau, cyc, bits, bandwidth, noise_w, floor=0.0):
    """The upload deadlines a device can meet: at most p_max, at least p_min,
    with its CPU within [f_min, f_max] on the rest of tau, and no shorter
    than ``floor``."""
    lo = max(tau - cyc / dev.f_min, upload_seconds(bits, bandwidth, noise_w, dev.gain, dev.p_max),
             floor)
    hi = tau - cyc / dev.f_max
    if dev.p_min > 0.0:
        hi = min(hi, max(upload_seconds(bits, bandwidth, noise_w, dev.gain, dev.p_min), lo))
    return lo, hi


def weak_deadline_floor(strong, weak, tau, cyc_s, bits, bc, noise_w):
    """The shortest weak upload deadline whose interference still lets the
    strong partner meet tau at p_max and f_max."""
    d_s = tau - cyc_s / strong.f_max
    # at p_max the strong SINR is exactly 2**(bits / (bc d_s)) - 1
    p_w = (strong.gain * strong.p_max / (2.0 ** (bits / (bc * d_s)) - 1.0) - noise_w) / weak.gain
    return upload_seconds(bits, bc, noise_w, weak.gain, p_w)


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
        return replace(base, devices=[*base.devices[:3], replace(base.devices[3], p_min=0.15)])

    def noma_scenario(self):
        base = make_scenario([1e-10, 2e-11, 5e-12, 3e-12], scheme="noma", frames=self.FRAMES)
        return replace(base, devices=[replace(dv, p_min=p)
                                     for dv, p in zip(base.devices, (0.15, 0.0, 0.1, 0.0))])

    def floored_noma_scenario(self):
        # one pair: the weak user's compute is costly enough that it would
        # upload at p_max, and its strong partner, with a short upload window
        # and p_max = 0.05 W, cannot overcome that much interference
        base = make_scenario([1e-12, 9e-13], scheme="noma", frames=[150, 100])
        return replace(base, devices=[replace(base.devices[0], p_max=0.05), base.devices[1]])

    def noma_split(self, scn):
        env = _Env(scn)
        cyc = self.cycles(scn)
        return env, cyc, _noma_split(env, self.TAU, cyc, self.TAU - cyc / env.dev.f_max)[0]

    def test_fdma(self):
        scn = self.fdma_scenario()
        cyc = self.cycles(scn)
        b = self.FDMA_BANDWIDTH
        d, _ = _time_split(_Env(scn), self.TAU, cyc, slice(None), b, N0 * b)
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

    def check_noma(self, scn):
        """Check each pair's split; returns the weak deadlines and their floors."""
        env, cyc, d = self.noma_split(scn)
        assert env.comm_margin(d) <= 0.0
        bits, bc = scn.model_size_bits, env.channel_bw
        noise_w = N0 * bc
        weak_split = []
        for s, w in zip(env.strong, env.weak):
            strong, weak = scn.devices[s], scn.devices[w]

            # weak half-step, with the strong deadline at full speed: each
            # watt of weak power costs the strong user (2**x_s - 1) g_w / g_s
            # watts for d_s seconds
            d_s = self.TAU - cyc[s] / strong.f_max
            cross = d_s * (2.0 ** (bits / (bc * d_s)) - 1.0) * weak.gain / strong.gain

            def weak_energy(x):
                p_w = (noise_w / weak.gain) * (2.0 ** (bits / (bc * x)) - 1.0)
                return split_energy(weak.kappa, cyc[w], self.TAU, x, noise_w, weak.gain,
                                    bits, bc) + cross * p_w

            floor = weak_deadline_floor(strong, weak, self.TAU, cyc[s], bits, bc, noise_w)
            lo, hi = deadline_range(weak, self.TAU, cyc[w], bits, bc, noise_w, floor)
            assert_minimises(weak_energy, d[w], lo, hi)
            weak_split.append((d[w], floor))

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
        return weak_split

    def test_noma(self):
        self.check_noma(self.noma_scenario())

    def test_noma_weak_deadline_floor(self):
        scn = self.floored_noma_scenario()
        [(d_w, floor)] = self.check_noma(scn)
        # the floor binds, well above the weak user's own p_max upload time
        weak = scn.devices[1]
        bits, bc = scn.model_size_bits, scn.total_bandwidth_hz
        assert upload_seconds(bits, bc, N0 * bc, weak.gain, weak.p_max) < 0.6 * floor
        assert d_w == pytest.approx(floor, rel=1e-12)

    def test_mixed_p_min_splits_emit_no_warning(self):
        # a device with p_min = 0 has no p_min upload time to compute
        fdma, noma = self.fdma_scenario(), self.noma_scenario()
        b = self.FDMA_BANDWIDTH
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _time_split(_Env(fdma), self.TAU, self.cycles(fdma), slice(None), b, N0 * b)
            self.noma_split(noma)


def fdma_lanes(tau, *devices, bandwidth=5e6):
    """`_time_split` on FDMA lanes of ``bandwidth`` hertz each, one per dict
    of device fields; returns the deadlines, each lane's p_max upload time
    (its d_lo: f_min = 1 MHz leaves no compute bound) and its d_hi."""
    base = make_scenario([1e-11] * len(devices), f_min=1e6)
    scn = replace(base, devices=[replace(dv, **kw) for dv, kw in zip(base.devices, devices)])
    env = _Env(scn)
    cyc = env.round_cycles(env.dev.min_resolution)
    b = np.full(len(devices), bandwidth)
    d, _ = _time_split(env, tau, cyc, slice(None), b, N0 * b)
    d_lo = scn.model_size_bits / shannon_rate(b, env.dev.gain * env.dev.p_max / (N0 * b))
    d_hi = tau - cyc / env.dev.f_max

    def slope(n, x):
        """dE/dd of lane n's compute plus upload energy at deadline x."""
        dv = scn.devices[n]

        def energy(y):
            return split_energy(dv.kappa, cyc[n], tau, y, N0 * bandwidth, dv.gain,
                                scn.model_size_bits, bandwidth)
        h = 1e-7 * x
        return (energy(x + h) - energy(x - h)) / (2.0 * h)

    return d, d_lo, d_hi, slope


class TestTimeSplitLanes:
    """Lanes of the split whose minimiser lies at or beyond a bracket end,
    beside lanes that search."""

    TAU = 3.0

    def test_root_below_the_bracket_ends_just_above_d_lo(self):
        # costly compute: the device would upload faster than p_max allows
        d, d_lo, d_hi, slope = fdma_lanes(self.TAU, dict(kappa=1e-20), {})
        assert slope(0, d_lo[0]) > 0.0
        # strictly inside, never on d_lo, so the comm solve has a rounding's room
        assert d_lo[0] < d[0] <= d_lo[0] + 0.5 * np.spacing(d_hi[0]) + np.spacing(d_lo[0])
        assert d_lo[1] < d[1] < d_hi[1]

    def test_root_above_the_bracket_ends_at_d_hi(self):
        # free compute: the device would upload slower than f_max allows
        d, d_lo, d_hi, slope = fdma_lanes(self.TAU, dict(kappa=1e-40), {})
        assert slope(0, d_hi[0]) < 0.0
        assert d[0] == d_hi[0]
        assert d_lo[1] < d[1] < d_hi[1]

    def test_reversed_and_zero_width_lanes_return_d_hi(self):
        # 162 frames at f_max leave less than the p_max upload time; p_min =
        # p_max pins the deadline to the p_max upload time
        d, d_lo, d_hi, _ = fdma_lanes(self.TAU, dict(dataset_frames=162), dict(p_min=0.2), {})
        assert d_hi[0] < d_lo[0] and d[0] == d_hi[0]
        assert d[1] == d_lo[1]
        assert d_lo[2] < d[2] < d_hi[2]

    def test_overflowing_lanes_emit_no_warning(self):
        # lane 0 computes at f_max until 1e-12 of tau is left, so x = a/d_hi
        # is about 2e11; lane 1's gain puts x near 1020 at its p_max upload
        # time, where (x ln2 - 1) 2**x overflows, and its minimiser lies
        # close enough that the search probes there
        tau = 5 * 737.0 * 100**2 * 100 / 2e9 * (1.0 + 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d, d_lo, d_hi, _ = fdma_lanes(tau, {}, dict(dataset_frames=10, gain=1.1e294))
        assert 2e6 / (5e6 * d_hi[0]) > 1e11 and d[0] == d_hi[0]
        assert 2e6 / (5e6 * d_lo[1]) > 1015.0
        assert d_lo[1] < d[1] < d_hi[1]

    def test_warm_starts_outside_the_bracket_end_as_cold(self):
        # lanes ending on d_lo, on d_hi, on the p_min upload time and on a
        # root; a `_NomaLanes.start` moved along its slopes can reach 0 and
        # below, whose logs are -inf and nan
        lanes = (dict(kappa=1e-20), dict(kappa=1e-40), dict(p_min=0.15), {})
        base = make_scenario([1e-11] * len(lanes), f_min=1e6)
        scn = replace(base, devices=[replace(dv, **kw) for dv, kw in zip(base.devices, lanes)])
        env = _Env(scn)
        cyc = env.round_cycles(env.dev.min_resolution)
        b = np.full(len(lanes), 5e6)
        d, dd = _time_split(env, self.TAU, cyc, slice(None), b, N0 * b)
        d_lo = scn.model_size_bits / shannon_rate(b, env.dev.gain * env.dev.p_max / (N0 * b))
        d_hi = self.TAU - cyc / env.dev.f_max
        p_min_time = upload_seconds(scn.model_size_bits, 5e6, N0 * 5e6, env.dev.gain[2], 0.15)
        assert d_lo[0] < d[0] < d[2] < d[3] < d[1] == d_hi[1] and d[2] == p_min_time
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for start in (0.5 * d_lo, 2.0 * d_hi, np.zeros(len(lanes)), np.full(len(lanes), -1.0)):
                warm, d_warm = _time_split(env, self.TAU, cyc, slice(None), b, N0 * b,
                                           start=start)
                assert warm == pytest.approx(d, rel=1e-12, abs=0.0)
                assert d_warm == pytest.approx(dd, rel=1e-12, abs=0.0)


class TestTimeSplitSteps:
    """Newton steps per `_time_split` call, one `_comm_marginal` call each,
    in default 40-device NOMA solves, whose weak and strong users each split
    once per fit."""

    def test_median_steps_on_default_scenarios(self, monkeypatch):
        # each lane starts at the split of the nearest fit of its round-time
        # search: the calls took a median of 4 steps, a mean of 4.4 and at
        # most 7; from the middle of each bracket, a mean of 7.1
        steps, inside = [], []
        real_split, real_marginal = _time_split, _comm_marginal

        def split(*args, **kwargs):
            steps.append(0)
            inside.append(True)
            d = real_split(*args, **kwargs)
            inside.pop()
            return d

        def marginal(*args):
            if inside:
                steps[-1] += 1
            return real_marginal(*args)

        monkeypatch.setattr(flmar.allocator, "_time_split", split)
        monkeypatch.setattr(flmar.allocator, "_comm_marginal", marginal)
        solve_default_scenarios("noma")
        # two calls per fit, 242 over these solves
        assert len(steps) > 200
        assert np.median(steps) <= 4


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def fdma_comm_cases(draw):
    """1-12 FDMA devices on the wide box, p_min at 5-50 % of p_max on a
    drawn subset of them, and deadlines of 1.01-100 times each device's
    p_max upload time over an equal share of the band, so the floors fit."""
    n = draw(st.integers(1, 12))
    spec = ScenarioSpec(
        n_devices=n, scheme="fdma", p_max_range=(0.1, 0.5), f_max_range=(0.5e9, 3e9),
        total_bandwidth_hz=draw(log_uniform(0.3e6, 30e6)),
        model_size_bits=draw(log_uniform(1e5, 1e7)),
    )
    scn = generate_scenario(spec, seed=draw(st.integers(0, 2**32 - 1)))
    shares = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 0.5)), min_size=n, max_size=n))
    scn = replace(scn, devices=[replace(dv, p_min=share * dv.p_max)
                                for dv, share in zip(scn.devices, shares)])
    band = scn.total_bandwidth_hz / n
    reach = [upload_seconds(scn.model_size_bits, band, scn.noise_psd * band, dv.gain, dv.p_max)
             for dv in scn.devices]
    slack = draw(st.lists(log_uniform(1.01, 100.0), min_size=n, max_size=n))
    return scn, np.array(reach) * np.array(slack)


def solve_default_scenarios(scheme="fdma"):
    """`optimize` on default 40-device scenarios, master seeds 0-3, at the
    grid's three weight pairs."""
    for seed in range(4):
        scn = generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme, master_seed=seed))
        for w1, w2 in ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)):
            optimize(scn, Weights(w1, w2, 0.5))


class TestFdmaPriceSearch:
    """The Newton search on the bandwidth price: it lands where the
    bisection reference does, in few probes, and the p_min lanes scale."""

    @settings(derandomize=True, max_examples=40, database=None, deadline=None)
    @given(fdma_comm_cases())
    def test_matches_the_bisection_reference(self, case):
        scn, deadlines = case
        TestFdmaMatchesBisectionReference.solve_and_compare(scn, *comm_inputs(scn, deadlines))

    def test_median_probes_on_default_scenarios(self, monkeypatch):
        # the Chandrupatla search on the price took a median of 13 probes on
        # these solves, and the Newton search from the bottom of its bracket 6
        probes = count_price_probes(monkeypatch)
        solve_default_scenarios()
        # one search per fit, 121 over these solves
        assert len(probes) > 100
        assert np.median(probes) <= 5

    def test_160_devices_at_their_power_floor(self):
        # every device has p_min = 0.05 W; one scalar root per pinned device
        # and price probe took 2.8 s here
        scn = generate_scenario(ScenarioSpec(n_devices=160, scheme="fdma", p_min=0.05))
        report = optimize(scn, W)
        assert report.allocation.validate(scn) == []
        assert report.objective == pytest.approx(2867.4507546327627, rel=1e-9)


def fdma_fit(scn, deadlines=None, factor=None):
    """An `_FdmaFit` for the budget ``factor`` times the smallest feasible
    one at the minimum resolutions, or with every deadline pinned to
    ``deadlines``, and the log-price on which the price search ends."""
    env = _Env(scn)
    if deadlines is not None:
        tau, d_c = math.inf, np.asarray(deadlines, dtype=float)
        d_hi, kc = d_c, np.zeros(env.n)
    else:
        cyc = env.round_cycles(env.dev.min_resolution)
        tau = factor * smallest_budget(env, cyc / env.dev.f_max)
        d_hi = tau - cyc / env.dev.f_max
        d_c, kc = np.maximum(tau - cyc / env.dev.f_min, 0.0), 2.0 * env.dev.kappa * cyc**3
    t = _fdma_solve(env, tau, d_c, d_hi, kc)[-1].log_price
    return (lambda: _FdmaFit(env, tau, d_c, d_hi, kc, *_fdma_floors(env, d_hi))), t


def demand_at(make_fit, t):
    """`_FdmaFit.demand` of a fresh fit at log-price ``t``, at full precision."""
    fit = make_fit()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return fit, fit.demand(t)


def central_slope(f, x, h=1e-5):
    """d f / d x by central differences."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestDemandSlopes:
    """The slopes of each device's demand in the log-price, from the implicit
    function theorem on its lane's root, match central differences."""

    def check_slopes(self, make_fit, t):
        fit, (b, _, slope, _, regime) = demand_at(make_fit, t)
        numeric = central_slope(lambda x: demand_at(make_fit, x)[1][0], t)
        np.testing.assert_allclose(slope, numeric, rtol=1e-6, atol=1e-9 * b.max())
        return fit, b, regime

    def test_deadline_branch(self):
        # pinned deadlines: each b meets v1(b) = (d N0 / g) m(u) = lambda
        scn = generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma"))
        d = np.linspace(0.2, 0.8, 40)
        fit, b, regime = self.check_slopes(*fdma_fit(scn, deadlines=d))
        m, _ = _comm_marginal(d * scn.noise_psd / _Env(scn).dev.gain,
                              scn.model_size_bits / (b * d))
        np.testing.assert_allclose(m, fit.lam, rtol=1e-12)
        assert not regime.any()

    def test_free_deadlines(self):
        # deadlines free within the f_min and f_max bounds of tau: the lanes
        # of H(u), some of them clipped at d_hi
        scn = generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma"))
        self.check_slopes(*fdma_fit(scn, factor=1.5))

    def test_power_floor_log_slope(self):
        # every device on its p_min edge, with free and with pinned deadlines
        scn = make_scenario([1e-9, 2e-10, 5e-11, 1e-9], p_min=0.05)
        for make_fit, t in (fdma_fit(scn, factor=30.0), fdma_fit(scn, deadlines=np.full(4, 30.0))):
            assert np.all(self.check_slopes(make_fit, t)[2] == 2)

    def test_log_slope_bounds(self):
        # without a compute term ln G rises in ln u with slope at least 2
        # along the p_min edge, so its Newton steps contract
        make_fit, t = fdma_fit(make_scenario([1e-9], p_min=0.05), deadlines=np.ones(1))
        fit = make_fit()
        fit.lam = math.exp(t)
        z = np.log(np.geomspace(1e-6, 50.0, 4000))
        edge = (np.full(z.size, a[1, 0]) for a in (fit.bk, fit.pb, fit.edge_power, fit.edge_low))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # d_hi and d_c at inf keep every lane on ln G
            r, dr, dlam = fit._edge(z, *edge, np.full(z.size, np.inf), np.full(z.size, np.inf),
                                    np.zeros(z.size))
        assert np.all(dlam == 1.0) and np.all(dr <= -2.0)

    def test_power_floor_lanes(self):
        # on their p_min edges, from starts at the bottom and the top of
        # their brackets: lanes end on their roots or, where those lie beyond
        # an end, on that end
        scn = make_scenario([1e-9, 1e-13, 1e-9, 1e-11, 1e-10], p_min=0.05)
        make_fit, _ = fdma_fit(scn, deadlines=np.array([30.0, 30.0, 0.1, 30.0, 30.0]))
        n = 5
        lanes, row = np.arange(n), np.ones(n, dtype=int)
        for t in np.linspace(math.log(3e-11), math.log(1e-7), 12):
            for start in (0.0, 1.0):
                fit = make_fit()
                fit.lam = math.exp(t)
                lo, hi = fit.z_band[1], fit.z_top[1]
                fit.z[1] = lo + start * (np.minimum(hi, 10.0) - lo)
                out = np.zeros((4, n))
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    fit._solve_edge(lanes, row, 0.0, out, 1e-9)
                    z = fit.z[1]
                    r, _, _ = fit._edge(z, fit.bk[1], fit.pb[1], fit.edge_power[1],
                                        fit.edge_low[1], fit.d_hi, fit.d_c, fit.kc)
                inside = (z > lo) & (z < hi)
                np.testing.assert_allclose(r[inside], 0.0, atol=1e-12)
                # a lane at an end has its root beyond it, or on it
                assert np.all(r[z == lo] <= 1e-12) and np.all(r[z == hi] >= -1e-12)
                if t == math.log(3e-11):
                    # the cheapest price: lane 1 takes the whole band
                    assert out[0, 1] == pytest.approx(scn.total_bandwidth_hz, rel=1e-12)


def exact_marginal_series(u):
    """sum_{k>=2} (k - 1) u**k / k! for 0 < u < 8 in fractions, summed
    until a term falls below 1e-30 of the sum; the terms past it then add
    less than 1e-29."""
    u = Fraction(u)
    total, term, k = Fraction(0), u, 2
    while True:
        term = term * u / k
        total += (k - 1) * term
        if (k - 1) * term < total * Fraction(1, 10**30):
            return total
        k += 1


class TestCommMarginal:
    """M = c ((u - 1) e**u + 1) with u = x ln2, which cancels as u falls,
    and its series below u = 0.25."""

    @staticmethod
    def relative_errors(x):
        m, _ = _comm_marginal(np.ones(x.size), x)
        u = x * _LN2
        return np.array([float(Fraction(float(mi)) / exact_marginal_series(ui) - 1)
                         for mi, ui in zip(m, u)])

    def test_series_below_the_switch(self):
        x = np.geomspace(1e-12, 0.25 / _LN2, 200, endpoint=False)
        assert np.abs(self.relative_errors(x)).max() <= 4.0 * _EPS

    def test_closed_form_above_the_switch(self):
        x = np.geomspace(0.25 / _LN2, 0.5 / _LN2, 100, endpoint=False)
        assert np.abs(self.relative_errors(x)).max() <= 24.0 * _EPS
        x = np.geomspace(0.5 / _LN2, 8.0 / _LN2, 100)
        assert np.abs(self.relative_errors(x)).max() <= 4.0 * _EPS

    def test_closed_form_cancels_below_the_switch(self):
        # what the series replaces: near u = 0.01 the closed form is off by
        # hundreds of eps
        x = np.geomspace(0.009, 0.011, 50) / _LN2
        closed = (x * _LN2 - 1.0) * np.exp2(x) + 1.0
        errors = [float(Fraction(float(c)) / exact_marginal_series(float(xi * _LN2)) - 1)
                  for c, xi in zip(closed, x)]
        assert np.abs(errors).max() > 100.0 * _EPS


@st.composite
def split_links(draw):
    """A 1-3 device FDMA or 2-device NOMA scenario on the wide box, some
    devices with p_min > 0, a budget tau of 1.01-100 times its compute
    floor and, for FDMA, a bandwidth split."""
    scheme = draw(st.sampled_from(["fdma", "noma"]))
    n = 2 if scheme == "noma" else draw(st.integers(1, 3))
    spec = ScenarioSpec(
        n_devices=n, scheme=scheme, p_max_range=(0.1, 0.5), f_max_range=(0.5e9, 3e9),
        total_bandwidth_hz=draw(log_uniform(0.3e6, 30e6)),
        model_size_bits=draw(log_uniform(1e5, 1e7)),
    )
    scn = generate_scenario(spec, seed=draw(st.integers(0, 2**32 - 1)))
    shares = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 0.5)), min_size=n, max_size=n))
    scn = replace(scn, devices=[replace(dv, p_min=share * dv.p_max)
                                for dv, share in zip(scn.devices, shares)])
    cyc = _Env(scn).round_cycles([dv.resolutions[0] for dv in scn.devices])
    tau = draw(log_uniform(1.01, 100.0)) * max(c / dv.f_max for c, dv in zip(cyc, scn.devices))
    parts = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return scn, cyc, tau, scn.total_bandwidth_hz * parts / parts.sum()


def scalar_split(dv, cyc, tau, bits, bandwidth, noise_w, price=0.0, floor=0.0):
    """One device's deadline by `_root` on the derivative of its compute plus
    upload energy, with ``price`` joules per watt of upload power, and its
    deadline range."""
    lo, hi = deadline_range(dv, tau, cyc, bits, bandwidth, noise_w, floor)
    if not lo < hi:
        return hi, lo, hi
    c = noise_w / dv.gain

    def falling(x):
        """-dE/dd: the upload marginal minus the compute marginal."""
        y = bits / (bandwidth * x)
        upload = c * ((y * math.log(2.0) - 1.0) * 2.0**y + 1.0)
        priced = price * c * 2.0**y * math.log(2.0) * y / x
        return upload + priced - 2.0 * dv.kappa * cyc**3 / (tau - x) ** 3

    a, b = _root(falling, lo, hi)
    return 0.5 * (a + b), lo, hi


class TestTimeSplitProperty:
    """On random links of the wide box, every deadline of the split agrees
    with a scalar root search on the same derivative and minimises the
    device's energy within its range."""

    @staticmethod
    def check(d, dv, cyc, tau, bits, bandwidth, noise_w, price=0.0, floor=0.0):
        ref, lo, hi = scalar_split(dv, cyc, tau, bits, bandwidth, noise_w, price, floor)
        assert d == pytest.approx(ref, rel=1e-9)
        if lo < hi:
            def energy(x):
                p = (noise_w / dv.gain) * (2.0 ** (bits / (bandwidth * x)) - 1.0)
                return split_energy(dv.kappa, cyc, tau, x, noise_w, dv.gain, bits,
                                    bandwidth) + price * p
            assert_minimises(energy, d, lo, hi)

    @settings(derandomize=True, max_examples=150, database=None, deadline=None)
    @given(split_links())
    def test_split_matches_a_scalar_root(self, link):
        scn, cyc, tau, b = link
        env = _Env(scn)
        bits, noise = scn.model_size_bits, scn.noise_psd
        if scn.scheme == "fdma":
            d, _ = _time_split(env, tau, cyc, slice(None), b, noise * b)
            for n, dv in enumerate(scn.devices):
                self.check(d[n], dv, cyc[n], tau, bits, b[n], noise * b[n])
            return
        d, _ = _noma_split(env, tau, cyc, tau - cyc / env.dev.f_max)
        [s], [w] = env.strong, env.weak
        strong, weak = scn.devices[s], scn.devices[w]
        bc = env.channel_bw
        noise_w = noise * bc
        # the weak user pays what each watt of its power costs the strong one
        d_s = tau - cyc[s] / strong.f_max
        price = d_s * (2.0 ** (bits / (bc * d_s)) - 1.0) * weak.gain / strong.gain
        # the weak SNR at which the strong user meets d_s at p_max
        snr = strong.gain * strong.p_max / (noise_w * (2.0 ** (bits / (bc * d_s)) - 1.0)) - 1.0
        floor = bits * math.log(2.0) / (bc * math.log1p(snr)) if snr > 0.0 else math.inf
        self.check(d[w], weak, cyc[w], tau, bits, bc, noise_w, price, floor)
        p_w = max((noise_w / weak.gain) * (2.0 ** (bits / (bc * d[w])) - 1.0), weak.p_min)
        self.check(d[s], strong, cyc[s], tau, bits, bc, weak.gain * p_w + noise_w)


def slsqp_fit(env, tau, cyc, start):
    """Minimum compute plus upload energy at budget tau by SLSQP, written
    apart from the library, as ``(energy, converged)``; SLSQP seldom reports
    convergence at this tolerance.

    The variables are each device's bandwidth b, power p in [p_min, p_max]
    and CPU frequency f in [f_min, f_max], each scaled by its bound; the
    upload takes s / (b log2(1 + g p / (N0 b))), which with c / f must fit
    in tau, and the bands fill B.  ``start`` holds ``(b, p, f)``.
    """
    dev, n = env.dev, env.n
    g, s, n0, band = dev.gain, env.s, env.noise, env.bw
    ln2 = math.log(2.0)
    scale = np.concatenate([np.full(n, band), dev.p_max, dev.f_max])
    lane = np.arange(n)

    def upload(x):
        b, p, f = np.split(x * scale, 3)
        snr = g * p / (n0 * b)
        ln1 = np.log1p(snr)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = s * ln2 / (b * ln1)
            dt_dp = -t * snr / (p * (1.0 + snr) * ln1)
            dt_db = -(t / b) * (1.0 - snr / ((1.0 + snr) * ln1))
        return b, p, f, t, dt_db, dt_dp

    x0 = np.concatenate(start) / scale
    e0 = 1.0

    def energy(x):
        b, p, f, t, _, _ = upload(x)
        return float((p * t + dev.kappa * cyc * f * f).sum()) / e0

    def gradient(x):
        b, p, f, t, dt_db, dt_dp = upload(x)
        return np.concatenate([p * dt_db, t + p * dt_dp, 2.0 * dev.kappa * cyc * f]) * scale / e0

    def slack(x):
        b, p, f, t, _, _ = upload(x)
        return (tau - t - cyc / f) / tau

    def slack_jacobian(x):
        b, p, f, t, dt_db, dt_dp = upload(x)
        jac = np.zeros((n, 3 * n))
        jac[lane, lane] = -dt_db
        jac[lane, n + lane] = -dt_dp
        jac[lane, 2 * n + lane] = cyc / f**2
        return jac * scale / tau

    e0 = energy(x0)
    total = np.concatenate([np.full(n, band), np.zeros(2 * n)])
    res = minimize(energy, x0, jac=gradient, method="SLSQP",
                   bounds=[(1e-12, 1.0)] * n
                   + list(zip(np.maximum(dev.p_min / dev.p_max, 1e-9), np.ones(n)))
                   + list(zip(dev.f_min / dev.f_max, np.ones(n))),
                   constraints=[dict(type="eq", fun=lambda x: np.array([x @ total / band - 1.0]),
                                     jac=lambda x: total[None, :] / band),
                                dict(type="ineq", fun=slack, jac=slack_jacobian)],
                   options=dict(ftol=1e-15, maxiter=3000))
    return res.fun * e0, res.success


def fit_energy(env, cfg, cyc):
    return float((cfg.comm_energy + cmos_energy(env.dev.kappa, cyc, cfg.cpu)).sum())


def assert_matches_slsqp(env, tau, cyc, cfg):
    """SLSQP started at the fit moves its energy by at most 1e-9: a fit that
    stops short of the minimum, as the one-pass fit of comm solve, time
    split and second comm solve did by 0.4-1.7 % on default scenarios, lets
    it descend.  From farther starts SLSQP often ends off the constraints."""
    ref, _ = slsqp_fit(env, tau, cyc, (cfg.bandwidth, cfg.power, cfg.cpu))
    assert fit_energy(env, cfg, cyc) == pytest.approx(ref, rel=1e-9)


def knife_edge_cases():
    """Criterion 2's 2-device scenario with master seed 106, and default
    40-device scenarios, seeds 0-3, at their minimum resolutions."""
    scenarios = [generate_scenario(ScenarioSpec(n_devices=2, scheme="fdma", master_seed=106))]
    scenarios += [generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma"), seed=seed)
                  for seed in range(4)]
    for scn in scenarios:
        env = _Env(scn)
        cyc = env.round_cycles(env.dev.min_resolution)
        t_floor = cyc / env.dev.f_max
        yield env, cyc, t_floor, smallest_budget(env, t_floor)


class TestFdmaFitNearTauLo:
    """At and just above the smallest feasible budget tau_lo, where the
    bandwidth floors at full power and full speed fill B.  The one-pass fit
    of comm solve, time split and second comm solve kept its unsplit first
    solve here, as close as tau_lo (1 + 1.4e-8) on seed 106."""

    F = np.geomspace(1e-9, 1.0, 40)

    def test_fits_meet_every_deadline(self):
        assert self.F[5] == pytest.approx(1.425e-8, rel=1e-3)
        for env, cyc, t_floor, tau_lo in knife_edge_cases():
            lo = _budget_config(env, tau_lo, cyc, t_floor)
            # at tau_lo every device sits at its p_max floor and f_max
            np.testing.assert_allclose(lo.bandwidth, _fdma_floors(env, tau_lo - t_floor)[1],
                                       rtol=1e-9)
            for f in (0.0, *self.F):
                tau = tau_lo * (1.0 + f)
                cfg = _budget_config(env, tau, cyc, t_floor)
                assert cfg is not None, (env.n, f)
                dev = env.dev
                assert np.all(cfg.comm_time + cyc / cfg.cpu <= tau * (1.0 + 1e-12))
                assert np.all((dev.f_min <= cfg.cpu) & (cfg.cpu <= dev.f_max))
                assert np.all((dev.p_min <= cfg.power) & (cfg.power <= dev.p_max))
                assert cfg.bandwidth.sum() <= env.bw * (1.0 + 1e-12)
                # a longer budget can only lower the energy
                assert fit_energy(env, cfg, cyc) <= fit_energy(env, lo, cyc) * (1.0 + 1e-12)

    @pytest.mark.parametrize("w1, w2", [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)])
    def test_fit_closest_to_tau_lo(self, w1, w2):
        # the one point of the grid below 1e-6 where the one-pass fit kept
        # its unsplit first solve, on seed 106 for every weight pair.  The
        # fit takes no weights, so the three cases check one fit
        env, cyc, t_floor, tau_lo = next(knife_edge_cases())
        assert env.n == 2
        tau = tau_lo * (1.0 + self.F[5])
        lo = _budget_config(env, tau_lo, cyc, t_floor)
        cfg = _budget_config(env, tau, cyc, t_floor)
        assert cfg is not None
        assert fit_energy(env, cfg, cyc) <= fit_energy(env, lo, cyc)
        assert_matches_slsqp(env, tau, cyc, cfg)

    def test_fits_match_the_slsqp_reference(self):
        for env, cyc, t_floor, tau_lo in knife_edge_cases():
            # every point of the grid on the 2-device scenario, a few on the
            # 40-device ones, where SLSQP takes about a second each
            grid = self.F if env.n == 2 else self.F[[5, 20, 39]]
            for f in grid:
                tau = tau_lo * (1.0 + f)
                cfg = _budget_config(env, tau, cyc, t_floor)
                assert_matches_slsqp(env, tau, cyc, cfg)


def reference_marginal(u):
    """m(u) = (u ln2 - 1) 2**u + 1, from its Taylor series in v = u ln2
    below v = 0.5, where the closed form cancels."""
    v = u * math.log(2.0)
    if v >= 0.5:
        return (v - 1.0) * math.exp(v) + 1.0
    term, total = v, 0.0
    for k in range(2, 40):
        term *= v / k
        total += (k - 1) * term
    return total


def reference_lane(g, cyc, tau, lam, f_min, bits, n0, band, p_max, kappa):
    """One free device's optimum (b, d) at price lam, by brentq alone: on d
    over [d_lo, d_hi], H(d) = C(d) - lam s / (u d**2) with u the root of
    m(u) = lam g / (N0 d) in ln u, which rises in d."""
    f_max = 2e9
    d_hi = tau - cyc / f_max
    d_lo = max(tau - cyc / f_min, bits / (band * math.log2(1.0 + g * p_max / (n0 * band))))

    def u_at(d):
        a = lam * g / (n0 * d)
        z = brentq(lambda z: math.log(reference_marginal(math.exp(z))) - math.log(a),
                   -60.0, 6.9, xtol=1e-15, rtol=1e-15, maxiter=500)
        return math.exp(z)

    def h(d):
        return 2.0 * kappa * cyc**3 / (tau - d) ** 3 - lam * bits / (u_at(d) * d * d)

    if d_lo >= d_hi or h(d_hi) <= 0.0:
        d = d_hi
    elif h(d_lo) >= 0.0:
        d = d_lo
    else:
        d = brentq(h, d_lo, d_hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    return bits / (u_at(d) * d), d


@st.composite
def free_lane_cases(draw):
    """Gain 1e-14 to 1e-10, cycles 10^8.5 to 10^10.5, tau 1.1 to 32 times
    the compute floor c / f_max, a price 1e-12 to 1e-4 and f_min 5 % to all
    of f_max = 2 GHz, so that some lanes end at d_lo and some at d_hi."""
    return (draw(log_uniform(1e-14, 1e-10)), draw(log_uniform(10**8.5, 10**10.5)),
            draw(log_uniform(1.1, 32.0)), draw(log_uniform(1e-12, 1e-4)),
            draw(st.floats(0.05, 1.0)))


class TestFreeLaneRoot:
    """Each free lane ends where a brentq search on H does, to 1e-9, on one
    device whose p_max (1 kW) and band (1 THz) never bind."""

    @settings(derandomize=True, max_examples=60, database=None, deadline=None)
    @given(free_lane_cases())
    @example((1e-11, 1e9, 4.0, 1e-9, 0.05))       # clipped at d_hi
    @example((1e-11, 1e9, 4.0, 1e-9, 0.9))        # clipped at d_lo, f_min's bound
    @example((1e-12, 1e10, 1.5, 1e-6, 0.5))
    def test_matches_brentq(self, case):
        g, cyc, factor, lam, share = case
        scn = make_scenario([g], p_max=1e3, bandwidth=1e12, f_min=share * 2e9)
        env = _Env(scn)
        tau = factor * cyc / 2e9
        kappa = env.dev.kappa[0]
        d_hi = np.array([tau - cyc / 2e9])
        d_c = np.maximum(tau - cyc / env.dev.f_min, 0.0)
        fit = _FdmaFit(env, tau, d_c, d_hi, np.array([2.0 * kappa * cyc**3]),
                       *_fdma_floors(env, d_hi))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            b, d, _, _, regime = fit.demand(math.log(lam))
        if regime[0]:
            # the free optimum needs more than p_max even at 1 kW
            return
        ref_b, ref_d = reference_lane(g, cyc, tau, lam, env.dev.f_min[0], scn.model_size_bits,
                                      scn.noise_psd, scn.total_bandwidth_hz, 1e3, kappa)
        assert d[0] == pytest.approx(ref_d, rel=1e-9)
        if b[0] < scn.total_bandwidth_hz:
            assert b[0] == pytest.approx(ref_b, rel=1e-9)


class TestLaneNewtonFallback:
    def test_no_evaluation_repeats_the_one_before(self, monkeypatch):
        # a lane search that falls to the bracketed search hands it the points
        # it has just evaluated, with their values; evaluating them again
        # repeated a full-width evaluation at 640 devices
        lane_newton, bracketed = flmar.allocator._lane_newton, flmar.allocator._bracketed_newton
        fallbacks, repeats = [], []

        def spied(f, z, lo, hi, args, tol):
            last = [set()]

            def probe(z, *a):
                lanes = {row.tobytes() for row in
                         np.column_stack([z, *(np.reshape(x, (z.size, -1)) for x in a)])}
                if lanes <= last[0]:
                    repeats.append(z.size)
                last[0] = lanes
                return f(z, *a)
            return lane_newton(probe, z, lo, hi, args, tol)

        def fallback(f, z, *rest):
            fallbacks.append(z.size)
            return bracketed(f, z, *rest)

        monkeypatch.setattr(flmar.allocator, "_lane_newton", spied)
        monkeypatch.setattr(flmar.allocator, "_bracketed_newton", fallback)
        for m in range(4):
            optimize(generate_scenario(ScenarioSpec(n_devices=40, master_seed=m)), W)
        optimize(scenario_for_cell(ScenarioSpec(), "fdma", 0.2, 0, 0, 640), W)
        assert len(fallbacks) >= 10 and max(fallbacks) > 600
        assert repeats == []


class TestFitMatchesSlsqp:
    """The fit at a fixed budget equals the SLSQP reference to 1e-9, on
    default 40-device scenarios, with p_min on a third of their devices,
    and on wide-box 2- and 3-device draws with and without p_min."""

    @staticmethod
    def check(scn, factors):
        env = _Env(scn)
        cyc = env.round_cycles(env.dev.min_resolution)
        t_floor = cyc / env.dev.f_max
        tau_lo = smallest_budget(env, t_floor)
        for factor in factors:
            tau = tau_lo * factor
            assert_matches_slsqp(env, tau, cyc,
                                 _budget_config(env, tau, cyc, t_floor))

    def test_default(self):
        self.check(generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma")), (1.05, 2.0))

    def test_p_min_on_a_third_of_the_devices(self):
        base = generate_scenario(ScenarioSpec(n_devices=40, scheme="fdma", master_seed=1))
        scn = replace(base, devices=[replace(dv, p_min=0.3 * dv.p_max if i % 3 == 0 else 0.0)
                                     for i, dv in enumerate(base.devices)])
        self.check(scn, (1.05, 2.0))

    @pytest.mark.parametrize("pinned", [True, False])
    def test_wide_box(self, pinned):
        for k in (0, 2, 3, 5, 6, 8):
            self.check(wide_box_draw(k, pinned), (1.001, 1.3, 5.0))


class TestNomaSplit:
    """The NOMA time split just above the smallest feasible budget, on
    default 40-device scenarios, seeds 0-3."""

    def test_deadlines_can_be_met_with_one_comm_solve(self, monkeypatch):
        solves = []
        real = flmar.allocator._noma_comm_solve
        monkeypatch.setattr(flmar.allocator, "_noma_comm_solve",
                            lambda env, d: solves.append(d) or real(env, d))
        for seed in range(4):
            scn = generate_scenario(ScenarioSpec(n_devices=40, scheme="noma"), seed=seed)
            env = _Env(scn)
            r = env.dev.min_resolution
            cyc = env.round_cycles(r)
            t_floor = cyc / env.dev.f_max
            tau_lo = smallest_budget(env, t_floor)
            for f in np.geomspace(1e-9, 1.0, 40):
                tau = tau_lo * (1.0 + f)
                # a split that ignored the strong partner left a pair that
                # could not meet tau on 57 of these 160 budgets
                assert env.comm_margin(_noma_split(env, tau, cyc, tau - t_floor)[0]) <= 0.0
                solves.clear()
                assert _budget_config(env, tau, cyc, t_floor) is not None
                assert len(solves) == 1


def test_import_leaves_scipy_out():
    # the runtime needs numpy alone: in a fresh interpreter neither the
    # package nor its command line loads any scipy module
    code = ("import sys\n"
            "def loaded(): return [m for m in sys.modules if m.startswith('scipy')]\n"
            "import flmar\n"
            "print(loaded())\n"
            "import flmar.cli\n"
            "print(loaded())\n")
    src = str(Path(flmar.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["[]", "[]"]


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


def reference_sweep(env, weights, resolution_px, cpu_hz, t_com, e_com):
    """The per-device resolution sweep the array pass replaced: one device at
    a time, scoring the whole objective of each candidate state.  A candidate
    whose frequency fills tau unclipped ends at tau itself."""
    dev = env.dev
    w1g = weights.w1 * env.rounds
    w2g = weights.w2 * env.rounds
    r_out = np.asarray(resolution_px, dtype=int).copy()
    f_out = np.asarray(cpu_hz, dtype=float).copy()
    cyc = env.round_cycles(r_out)
    t_cmp = cyc / f_out
    e_cmp = cmos_energy(dev.kappa, cyc, f_out)
    t_tot = t_cmp + t_com
    e_sum = float((e_cmp + e_com).sum())
    loss = 1.0 - env.accuracy(r_out)
    loss_sum = float(loss.sum())
    tau = float(t_tot.max())
    for n in range(env.n):
        cand = np.array(dev.resolutions[n], dtype=float)
        cyc_c = round_cycles(env.iters, dev.cycles_per_pixel[n], cand, dev.frames[n])
        f_fill = cyc_c / (tau - t_com[n])
        f_c = np.clip(f_fill, dev.f_min[n], dev.f_max[n])
        t_c = cyc_c / f_c
        total_c = np.where(f_c == f_fill, tau, t_com[n] + t_c)
        e_c = cmos_energy(dev.kappa[n], cyc_c, f_c)
        hold = t_tot[n]
        t_tot[n] = -math.inf
        others = float(t_tot.max())
        t_tot[n] = hold
        round_c = np.maximum(others, total_c)
        loss_c = 1.0 - env.accuracy(cand)
        j_c = (
            w1g * (e_sum - e_cmp[n] + e_c)
            + w2g * round_c
            + weights.w3 * (loss_sum - loss[n] + loss_c)
        )
        k = int(np.argmin(j_c))
        r_out[n] = int(cand[k])
        f_out[n] = float(f_c[k])
        e_sum += float(e_c[k]) - float(e_cmp[n])
        e_cmp[n] = e_c[k]
        loss_sum += float(loss_c[k]) - float(loss[n])
        loss[n] = loss_c[k]
        t_tot[n] = total_c[k]
        tau = float(t_tot.max())
    return r_out, f_out


# menus are subsets of this pool; entries below r = 70 all lose the whole accuracy
MENU_POOL = np.array([20, 45, 69, 70, 100, 130, 200, 250, 320, 400, 500, 640, 800,
                      1000, 1400, 2000])


@st.composite
def sweep_states(draw):
    """1-40 devices with ragged menus, each at a resolution of its menu and a
    frequency anywhere in [f_min, f_max], with upload times of 0 to 10 s and
    weights whose w3 spans 1e-2 to 1e4."""
    devices, r, f = [], [], []
    for i in range(draw(st.integers(1, 40))):
        mask = draw(st.integers(1, 2**MENU_POOL.size - 1))
        menu = tuple(int(x) for x in MENU_POOL[(mask >> np.arange(MENU_POOL.size)) & 1 == 1])
        f_min = draw(log_uniform(1e7, 1e9))
        f_max = f_min * draw(log_uniform(1.0, 100.0))
        devices.append(make_device(id=i, frames=draw(st.integers(1, 300)), f_min=f_min,
                                   f_max=f_max, kappa=draw(log_uniform(1e-29, 1e-27)),
                                   resolutions=menu))
        r.append(menu[draw(st.integers(0, len(menu) - 1))])
        f.append(min(f_min + draw(st.floats(0.0, 1.0)) * (f_max - f_min), f_max))
    n = len(devices)
    scn = Scenario(devices=devices, global_rounds=draw(st.integers(1, 100)),
                   local_iterations=draw(st.integers(1, 20)))
    t_com = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    e_com = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    w = Weights(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
                draw(log_uniform(1e-2, 1e4)))
    return _Env(scn), w, np.array(r), np.array(f), t_com, e_com


class TestSweepMatchesReference:
    """The array pass returns exactly the resolutions and frequencies of the
    per-device reference sweep."""

    @staticmethod
    def check(env, w, r, f, t_com, e_com=None):
        e_com = np.zeros(env.n) if e_com is None else e_com
        r_ref, f_ref = reference_sweep(env, w, r, f, t_com, e_com)
        r_new, f_new = _sweep_core(env, w, r, f, t_com)
        np.testing.assert_array_equal(r_new, r_ref)
        np.testing.assert_array_equal(f_new, f_ref)
        return r_new, f_new

    @settings(derandomize=True, max_examples=100, database=None, deadline=None)
    @given(sweep_states())
    def test_random_ragged_menus(self, state):
        self.check(*state)

    @staticmethod
    def totals(env, r, f, t_com):
        return env.round_cycles(r) / f + t_com

    def test_candidate_at_f_max_raises_tau_mid_pass(self):
        # with most weight on accuracy device 0 takes the top of its menu,
        # which at f_max runs past the round time the other two then fill
        scn = make_scenario([1e-9] * 3, rounds=1)
        env = _Env(scn)
        r, f, t_com = np.full(3, 100), np.full(3, 1e9), np.array([1.0, 0.5, 0.2])
        w = Weights(0.5, 0.5, 1e3)
        r_new, f_new = self.check(env, w, r, f, t_com)
        tau = self.totals(env, r, f, t_com).max()
        assert r_new[0] == 500 and f_new[0] == env.dev.f_max[0]
        assert self.totals(env, r_new[:1], f_new[:1], t_com[:1])[0] > tau
        assert np.all(f_new[1:] < env.dev.f_max[1:])

    def test_unique_slowest_device_drops_tau(self):
        # device 0 alone holds the round time, and its f_min keeps it from
        # filling that time at a smaller resolution; once it drops, the two
        # devices after it fill a far shorter round
        scn = make_scenario([1e-9] * 3, f_min=1e7)
        scn = replace(scn, devices=[make_device(id=0, f_min=1e9), *scn.devices[1:]])
        env = _Env(scn)
        r, f, t_com = np.array([500, 100, 100]), np.full(3, 1e9), np.array([1.0, 0.4, 0.3])
        before = self.totals(env, r, f, t_com)
        assert np.flatnonzero(before == before.max()).tolist() == [0]
        r_new, f_new = self.check(env, W, r, f, t_com)
        after = self.totals(env, r_new, f_new, t_com)
        assert r_new[0] < 500 and after.max() < 0.1 * before.max()
        at_old_tau = env.round_cycles(r_new)[1:] / (before.max() - t_com[1:])
        assert np.all(f_new[1:] > 10.0 * at_old_tau)

    def test_ragged_menu_tie_goes_to_the_smaller_resolution(self):
        # device 1's two entries both lose all accuracy and finish inside
        # device 0's round time; with no energy weight they tie exactly
        scn = make_scenario([1e-9] * 2)
        scn = replace(scn, devices=[scn.devices[0], make_device(id=1, resolutions=(30, 50))])
        env = _Env(scn)
        assert env.menu[1].tolist() == [30, 50, 50, 50, 50]
        r, f, t_com = np.array([500, 50]), np.full(2, 1e9), np.array([1.0, 0.1])
        r_new, f_new = self.check(env, Weights(0.0, 0.5, 0.5), r, f, t_com)
        assert r_new[1] == 30

    def test_one_pass_at_640_devices(self):
        # at w3 = 500 resolutions leave the bottom of the menu, and tau moves
        scn = generate_scenario(ScenarioSpec(n_devices=640, scheme="noma"), seed=0)
        env = _Env(scn)
        w = Weights(0.5, 0.5, 500.0)
        r = env.dev.min_resolution
        cfg = _continuous_solve(env, w, r)
        r_new, _ = self.check(env, w, r, cfg.cpu, cfg.comm_time, cfg.comm_energy)
        assert np.any(r_new > r)


class TestSweepSegments:
    @pytest.mark.parametrize("w3", [0.5, 500.0])
    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_640_device_passes_commit_in_at_most_two_segments(self, monkeypatch, scheme, w3):
        # a candidate that fills tau ends at tau, so a segment ends only where
        # the round time really rises; when such totals rounded a few
        # spacings above tau these passes scored 14-68 segments.  Each
        # segment prices its candidates' compute energy once.
        core = flmar.allocator._sweep_core
        segments = []

        def counted(*args):
            segments[-1] += 1
            return cmos_energy(*args)

        def sweep(*args):
            segments.append(0)
            monkeypatch.setattr(flmar.allocator, "cmos_energy", counted)
            try:
                return core(*args)
            finally:
                monkeypatch.setattr(flmar.allocator, "cmos_energy", cmos_energy)

        monkeypatch.setattr(flmar.allocator, "_sweep_core", sweep)
        for seed in range(4):
            segments.clear()
            report = optimize(scenario_for_cell(ScenarioSpec(), scheme, 0.2, seed, 0, 640),
                              Weights(0.5, 0.5, w3))
            assert len(segments) == report.outer_iterations
            assert 1 <= max(segments) <= 2, (seed, segments)


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

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_only_weights_on_default_scenarios(self, scheme, seed):
        # with w2 = 0 the march reaches budgets so long (about 7e7 s on
        # seed 2) that the FDMA bandwidth price's low end cancels to 0
        scn = generate_scenario(ScenarioSpec(scheme=scheme), seed=seed)
        w = Weights(1.0, 0.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = optimize(scn, w)
        assert report.allocation.validate(scn) == []
        recomputed = objective(w, system_metrics(scn, report.allocation))
        assert report.objective == pytest.approx(recomputed, rel=1e-12)

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
        r_again, f_again = _sweep_core(env, w, r, cfg.cpu, cfg.comm_time)
        alloc = _assemble(env, cfg.power, cfg.bandwidth, f_again, r_again)
        np.testing.assert_array_equal(r_again, r)
        assert objective(w, system_metrics(scn, alloc)) == report.objective

    def test_noma_pairs_strongest_with_weakest(self):
        gains = [5e-9, 1e-9, 4e-9, 2e-9]
        scn = make_scenario(gains, scheme="noma")
        report = optimize(scn, W)
        assert report.allocation.pairing.channels == ((0, 1), (2, 3))


class TestRoundTimeSearch:
    """The tau search of `_continuous_solve` in default 40-device solves,
    seeds 0-3 times the grid's three weight pairs, on both schemes."""

    @pytest.fixture(scope="class")
    def searches(self):
        """One ``(pricing, bracket, value, fits)`` per `_continuous_solve`
        call: the context, weights, cycles, compute floor and accuracy loss
        it priced its fits with, the march's last three probes' span, around
        the bracket the root of dV/dtau was searched on, the value returned
        and the fits made."""
        real_fit, real_root, real_solve = _budget_config, _root, _continuous_solve
        found, fit_args, march = [], [], []

        def fit(*args):
            fit_args.append(args)
            return real_fit(*args)

        def root(*args, **kwargs):
            if kwargs.get("resolution"):
                march[:] = [args[1] for args in fit_args]
            return real_root(*args, **kwargs)

        def solve(env, w, r):
            fit_args.clear()
            march.clear()
            cfg = real_solve(env, w, r)
            taus = march or [args[1] for args in fit_args]
            cyc = env.round_cycles(r)
            loss = w.w3 * float((1.0 - env.accuracy(r)).sum())
            found.append(((env, w, cyc, cyc / env.dev.f_max, loss),
                          (taus[max(len(taus) - 3, 0)], taus[-1]),
                          _priced(env, w, loss, cfg)[0], len(fit_args)))
            return cfg

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flmar.allocator, "_budget_config", fit)
            mp.setattr(flmar.allocator, "_root", root)
            mp.setattr(flmar.allocator, "_continuous_solve", solve)
            for scheme in ("fdma", "noma"):
                for seed in range(4):
                    scn = generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme),
                                            seed=seed)
                    for w1, w2 in ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)):
                        optimize(scn, Weights(w1, w2, 0.5))
        return found

    def test_no_budget_on_a_grid_beats_the_search(self, searches):
        # a 101-point grid over the bracket would find a second basin the
        # search missed, or a search stopped short (2,001 points pass too,
        # in about two minutes)
        for (env, w, cyc, t_floor, loss), (a, b), value, _ in searches:
            grid = [_budget_config(env, float(tau), cyc, t_floor)
                    for tau in np.linspace(a, b, 101)]
            best = min(_priced(env, w, loss, cfg)[0] for cfg in grid if cfg is not None)
            assert value <= best * (1.0 + 1e-12)

    def test_fit_count(self, searches):
        # golden section to 1e-4 of the bracket took 25-29 fits per search
        # here (median 28), and Brent's minimisation of the value 12-23
        # (median 17); the root of dV/dtau takes 7-13 (median 10)
        fits = [count for *_, count in searches]
        assert len(fits) == 24
        assert np.median(fits) <= 10


class TestKinkedRootNearSmallestBudget:
    """Wide-box FDMA draws, at the weights the benchmark draws for them,
    whose root of dV/dtau lies just above tau_lo.  There dE/dtau grows like
    a power of tau - tau_lo, which the root search's interpolants could not
    follow on tau: it halved its bracket toward tau_lo 8-10 times.  On
    y = ln(tau - tau_lo), where it searches for the root of h =
    ln(-dE/dtau) - ln(w2/w1), that power law is close to a line."""

    # (k, pinned), then the fits of one solve (17, 14 and 14 on tau) and the
    # objective the search on tau found
    CASES = [((3, False), 9, 1513.037111554761),
             ((0, True), 10, 605.7783961471748),
             ((0, False), 9, 605.5186842349137)]

    @pytest.fixture(scope="class")
    def solves(self):
        """Per case, its report, its fits and one ``(env, weights,
        resolutions, fit)`` per `_continuous_solve` call."""
        real_fit, real_solve = _budget_config, _continuous_solve
        made, searches, found = [], [], []

        def solve(env, w, r):
            cfg = real_solve(env, w, r)
            searches.append((env, w, r, cfg))
            return cfg

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flmar.allocator, "_budget_config",
                       lambda *args: made.append(args) or real_fit(*args))
            mp.setattr(flmar.allocator, "_continuous_solve", solve)
            for (k, pinned), *_ in self.CASES:
                made.clear()
                searches.clear()
                report = optimize(wide_box_draw(k, pinned), wide_box_weights(k))
                found.append((report, len(made), list(searches)))
        return found

    def test_no_budget_on_a_grid_beats_the_search(self, solves):
        # a linear grid over the march's last three probes cannot see a root
        # 0.1 % above tau_lo, so budgets 2**-j of the way from tau_lo to the
        # march's last probe, j = 1-40, join it
        for _, _, searches in solves:
            for env, w, r, cfg in searches:
                cyc = env.round_cycles(r)
                t_floor = cyc / env.dev.f_max
                loss = w.w3 * float((1.0 - env.accuracy(r)).sum())
                march = env.marches[tuple(np.asarray(r).tolist())]
                tau_lo, b = march.budgets[0], march.budgets[len(march.fits) - 1]
                a = march.budgets[max(len(march.fits) - 3, 0)]
                assert cfg.tau < tau_lo * 1.002
                taus = np.concatenate([np.linspace(a, b, 101),
                                       tau_lo + (b - tau_lo) * 2.0 ** -np.arange(1, 41)])
                grid = [_budget_config(env, float(tau), cyc, t_floor) for tau in taus]
                best = min(_priced(env, w, loss, g)[0] for g in grid if g is not None)
                assert _priced(env, w, loss, cfg)[0] <= best * (1.0 + 1e-12)

    def test_fit_count(self, solves):
        assert [fits for _, fits, _ in solves] == [fits for _, fits, _ in self.CASES]

    def test_objective_as_on_tau(self, solves):
        for (report, _, _), (_, _, value) in zip(solves, self.CASES):
            assert report.objective == pytest.approx(value, rel=1e-12)


class TestValueSlope:
    """Each fit's dV/dtau, whose root the round-time search finds, matches a
    central difference of fitted values (h = 1e-6 tau) at 1.05, 1.3, 2 and 4
    times the budget tau* the search returns, on default 40-device
    scenarios, seeds 0-1, and on wide-box draws with p_min at 5-50 % of
    p_max and without, 2- and 3-device FDMA and 2-device NOMA."""

    @staticmethod
    def cases():
        for scheme in ("fdma", "noma"):
            for seed in range(2):
                yield generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme), seed=seed)
        for k in range(6):
            yield wide_box_draw(k)
            yield wide_box_draw(k, pinned=False)

    def test_matches_a_central_difference(self):
        for scn in self.cases():
            env = _Env(scn)
            r = env.dev.min_resolution
            cyc = env.round_cycles(r)
            t_floor = cyc / env.dev.f_max
            loss = W.w3 * float((1.0 - env.accuracy(r)).sum())
            best = _continuous_solve(env, W, r)
            tau_star = float((best.comm_time + cyc / best.cpu).max())
            for factor in (1.05, 1.3, 2.0, 4.0):
                tau = factor * tau_star
                h = 1e-6 * tau
                ahead, behind = (_priced(env, W, loss, _budget_config(env, x, cyc, t_floor))[0]
                                 for x in (tau + h, tau - h))
                slope = _priced(env, W, loss, _budget_config(env, tau, cyc, t_floor))[1]
                assert slope == pytest.approx((ahead - behind) / (2.0 * h), rel=1e-5)


    def test_at_the_smallest_budget_it_is_the_slope_to_the_right(self):
        # at tau_lo bounds meet: the NOMA weak user's floor and its p_min
        # upload time or its f_max bound, the strong user's p_max upload
        # time and its f_max bound.  The search ends there where the slope
        # is not negative, so its sign must be the one a forward difference
        # (second order, h = 1e-8 tau) shows.  Where V falls faster than
        # 1e4 per second the difference cannot follow its curvature; on the
        # other 47 of these 120 draws the two agree to 4.5e-6.
        for k in range(60):
            for pinned in (True, False):
                env = _Env(wide_box_draw(k, pinned))
                r = env.dev.min_resolution
                cyc = env.round_cycles(r)
                t_floor = cyc / env.dev.f_max
                tau = smallest_budget(env, t_floor)
                h = 1e-8 * tau
                (v0, s0), (v1, _), (v2, _) = (
                    _priced(env, W, 0.0, _budget_config(env, tau + j * h, cyc, t_floor))
                    for j in range(3))
                ahead = (4.0 * v1 - 3.0 * v0 - v2) / (2.0 * h)
                assert np.sign(s0) == np.sign(ahead)
                if abs(ahead) < 1e4:
                    assert s0 == pytest.approx(ahead, rel=1e-4)


class TestEnergyOnlySearch:
    """At w2 = 0 the value falls at every budget, dV/dtau < 0, so the march
    ends on its rule that the value fall by more than 1e-9 of itself, and
    the root search settles on the last probe without a fit."""

    # Brent's minimisation of the value made 44 and 51 fits in these solves
    # and found these objectives
    @pytest.mark.parametrize("scheme, brent_fits, brent_value", [
        ("fdma", 44, 14.359813133923186),
        ("noma", 51, 14.359813135056708),
    ])
    def test_default_10_devices(self, monkeypatch, scheme, brent_fits, brent_value):
        made = []
        real_fit = _budget_config
        monkeypatch.setattr(flmar.allocator, "_budget_config",
                            lambda *args: made.append(real_fit(*args)) or made[-1])
        report = optimize(generate_scenario(ScenarioSpec(n_devices=10, scheme=scheme)),
                          Weights(1.0, 0.0, 0.5))
        assert report.outer_iterations == 1
        assert all(cfg.slope < 0.0 for cfg in made)
        # the march's probes, tau_lo first, each fitted once: 26 here
        assert len(made) <= brent_fits
        assert report.objective == pytest.approx(brent_value, rel=1e-9)

    def test_kinked_wide_box_draw(self, monkeypatch):
        # wide-box draw 3 without p_min, whose root at its own weights lies
        # just above tau_lo (`TestKinkedRootNearSmallestBudget`): w2 = 0
        # gives the log coordinates no finite target, so the search runs on
        # tau, and makes the march's 28 fits alone
        made = []
        real_fit = _budget_config
        monkeypatch.setattr(flmar.allocator, "_budget_config",
                            lambda *args: made.append(real_fit(*args)) or made[-1])
        w = Weights(1.0, 0.0, wide_box_weights(3).w3)
        report = optimize(wide_box_draw(3, pinned=False), w)
        assert report.outer_iterations == 1
        assert all(cfg.slope < 0.0 for cfg in made)
        assert len(made) == 28
        assert report.objective == 7.878122806116676
        assert report.metrics.round_time_s == 238681467.53446117
        assert report.metrics.total_energy_j == 4.580646764450464


class TestKinkedMinimum:
    """Wide-box draw 10 with p_min (2-device NOMA) at the weights the
    benchmark draws for it: V kinks at its minimum, where the weak user's
    floor starts to bind, and dV/dtau jumps there from -37.8 to +9.0."""

    def test_the_tangents_crossing_is_fitted(self):
        # the root search closes in on the kink only to 2 sqrt(eps) tau,
        # which left the best fit 6.6e-9 above Brent's; the crossing of the
        # tangents at the bracket's ends lands on the kink
        report = optimize(wide_box_draw(10), wide_box_weights(10))
        brent = 291.25153247033813
        assert report.objective <= brent
        assert report.objective == pytest.approx(291.25153222593536, rel=1e-12)


ITEM_11 = ("ROADMAP item 11: the priced NOMA split's fitted V has a local minimum just "
           "above tau_lo (594.104 at tau = 4.39106) and a lower one (581.208 at 1.177 "
           "tau_lo); the tangents' bound, sound only where V is convex, ends the root "
           "search on dV/dtau between them, and the solve keeps its best probe, 585.853")


class TestPinnedNomaRegression:
    """Three pinned wide-box 2-device NOMA draws, at the weights the
    benchmark draws for them, that rose when a root search on dV/dtau
    replaced Brent's value search.  At k = 346 the fit at tau_lo returns a
    positive slope, and a search that ended there kept 433.158, although
    the fitted V falls to about 400.9 further on; the march now always fits
    the next grid point.  Pinned at Brent's values and at criterion 2's 2 %
    oracle bound."""

    @pytest.mark.parametrize("k, before", [
        (346, 400.84239691629335),
        (241, 2074.2736547767854),
        pytest.param(514, 581.2077122276829, marks=pytest.mark.xfail(strict=True, reason=ITEM_11)),
    ])
    def test_no_higher_than_the_value_search(self, k, before):
        report = optimize(wide_box_draw(k), wide_box_weights(k))
        assert report.objective <= before * (1.0 + 1e-9)

    def test_within_two_percent_of_the_oracle(self):
        scn, w = wide_box_draw(346), wide_box_weights(346)
        assert optimize(scn, w).objective <= 1.02 * brute_force_oracle(scn, w).objective


class TestRisingAtSmallestBudget:
    """At w1 = 0 the value is w2 R tau plus the accuracy loss, so dV/dtau > 0
    from tau_lo on.  Each round-time search then fits tau_lo and the next
    grid point only, and keeps tau_lo's fit, on default 40-device
    scenarios of both schemes and on one wide-box FDMA draw."""

    @staticmethod
    def solve(monkeypatch, scn, w):
        """The report of one solve, checking each of its round-time
        searches."""
        made, kept = [], []     # per round-time search: its fits by budget, its result
        real_fit, real_solve = _budget_config, _continuous_solve

        def fit(*args):
            made[-1].append((args[1], real_fit(*args)))
            return made[-1][-1][1]

        def solve(*args):
            made.append([])
            kept.append(real_solve(*args))
            return kept[-1]

        monkeypatch.setattr(flmar.allocator, "_budget_config", fit)
        monkeypatch.setattr(flmar.allocator, "_continuous_solve", solve)
        report = optimize(scn, w)
        assert made
        for ((tau_lo, first), (tau, _)), cfg in zip(made, kept):
            assert tau > tau_lo and cfg is first
        return report

    @pytest.mark.parametrize("scheme, expected", [("fdma", 721.3313810102784),
                                                  ("noma", 730.8868250355681)])
    def test_one_fit_past_tau_lo(self, scheme, expected, monkeypatch):
        scn = generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme))
        assert self.solve(monkeypatch, scn, Weights(0.0, 1.0, 0.5)).objective == expected

    def test_kinked_wide_box_draw(self, monkeypatch):
        # wide-box draw 3 without p_min (`TestKinkedRootNearSmallestBudget`):
        # at w1 = 0 there is no root to search for, on tau or on its log
        report = self.solve(monkeypatch, wide_box_draw(3, pinned=False),
                            Weights(0.0, 1.0, wide_box_weights(3).w3))
        assert report.objective == 1743.2578266401972
        assert report.metrics.round_time_s == 17.39960350598531
        assert report.metrics.total_energy_j == 848.6603166826575


class TestWideBoxNomaOracleBound:
    """Criterion 2's 2 % bound against the grid oracle on every wide-box
    NOMA draw, k = 1 (mod 3) below 600, with p_min pinned and without, at
    the weights the benchmark draws.  FDMA draws stay out: 8 of its 800 lie
    past the bound (ROADMAP item 4)."""

    @pytest.mark.parametrize("pinned", [True, False])
    def test_within_two_percent(self, pinned):
        past = []
        for k in range(1, 600, 3):
            scn, w = wide_box_draw(k, pinned), wide_box_weights(k)
            joint, oracle = optimize(scn, w).objective, brute_force_oracle(scn, w).objective
            if joint > 1.02 * oracle:
                past.append((k, joint / oracle - 1.0))
        assert past == []


class TestNearestFitStart:
    """Every fit of a round-time search but the first starts its searches
    from the nearest fit the search has made, and equals the same fit made
    cold.  Default 40-device scenarios, seeds 0-3 on both schemes at the
    grid's three weight pairs, and wide-box draws with and without p_min."""

    @staticmethod
    def cases():
        for scheme in ("fdma", "noma"):
            for seed in range(4):
                scn = generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme), seed=seed)
                for w1, w2 in ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)):
                    yield scn, Weights(w1, w2, 0.5)
        for k in range(12):
            yield wide_box_draw(k), W
            yield wide_box_draw(k, pinned=False), W

    def test_every_fit_equals_its_cold_fit(self, monkeypatch):
        made = []
        real_fit = _budget_config

        def fit(*args):
            made.append((args, real_fit(*args)))
            return made[-1][1]

        monkeypatch.setattr(flmar.allocator, "_budget_config", fit)
        warm = 0
        for scn, w in self.cases():
            env = _Env(scn)
            r = env.dev.min_resolution
            loss = w.w3 * float((1.0 - env.accuracy(r)).sum())
            made.clear()
            _continuous_solve(env, w, r)
            # tau_lo, the first fit, starts cold
            assert made[0][0][-1] is None
            for (*args, near), cfg in made:
                cold = real_fit(*args)
                assert (cfg is None) == (cold is None)
                if near is not None and cfg is not None:
                    warm += 1
                    assert _priced(env, w, loss, cfg)[0] == pytest.approx(
                        _priced(env, w, loss, cold)[0], rel=1e-12, abs=0.0)
        # 482 warm fits over these solves
        assert warm > 400


class TestMarchStore:
    """A solver context keeps each resolution set's weight-free march, which
    a later round-time search on the same resolutions takes up: the search
    returns the fit it returns on a fresh context, whatever searches the
    context ran before, under whatever weights and resolutions."""

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_a_used_context_gives_the_fresh_result(self, scheme):
        scn = generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme), seed=1)
        env = _Env(scn)
        lowest, third = env.dev.min_resolution, env.menu[:, 2].astype(int)
        pairs = ((0.5, 0.5), (1.0, 0.0), (0.1, 0.9), (0.9, 0.1), (0.0, 1.0))
        for r in (lowest, third, lowest):
            for w1, w2 in pairs:
                w = Weights(w1, w2, 0.5)
                used, fresh = (_continuous_solve(e, w, r) for e in (env, _Env(scn)))
                assert used.tau == fresh.tau
                for name in ("energy", "slope", "power", "cpu", "comm_time", "comm_energy"):
                    np.testing.assert_array_equal(getattr(used, name), getattr(fresh, name))
        # one march per resolution set, tau_lo and at least the next grid point fitted
        assert len(env.marches) == 2
        assert all(len(march.fits) >= 2 for march in env.marches.values())


class TestSmallestBudget:
    """The smallest feasible budget tau_lo that the march of
    `_continuous_solve` finds, on default 40-device scenarios, seeds 0-3 on
    both schemes, and on wide-box 2- and 3-device draws with p_min > 0."""

    @staticmethod
    def scenarios():
        for scheme in ("fdma", "noma"):
            for seed in range(4):
                yield generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme), seed=seed)
        for k in range(6):
            yield wide_box_draw(k)

    def test_exact_and_short(self, monkeypatch):
        # and no budget's margin is evaluated twice: `_root` took the values
        # at its bracket's ends again, 438 of 7,138 margin evaluations over
        # the benchmark's solves
        fits = []
        real_fit = _budget_config
        monkeypatch.setattr(flmar.allocator, "_budget_config",
                            lambda env, tau, *rest: fits.append(tau)
                            or real_fit(env, tau, *rest))
        probes = []
        for scn in self.scenarios():
            env = _Env(scn)
            r = env.dev.min_resolution
            t_floor = env.round_cycles(r) / env.dev.f_max
            calls = []
            margin = env.comm_margin
            env.comm_margin = lambda d: calls.append(d) or margin(d)
            fits.clear()
            _continuous_solve(env, W, r)
            probes.append(len(calls))
            assert len({d.tobytes() for d in calls}) == len(calls)
            # the march fits tau_lo first
            tau_lo = fits[0]
            below = np.nextafter(tau_lo, 0.0)
            assert margin(tau_lo - t_floor) <= 0.0
            assert margin(below - t_floor) > 0.0
            # the comm solve agrees with the margin on both sides
            solve = pinned_comm_solve if env.scheme == "fdma" else _noma_comm_solve
            assert solve(env, tau_lo - t_floor) is not None
            assert solve(env, below - t_floor) is None
        # grid included; with a float-precision bisection this took 46-54
        # (median 51.5) here
        assert np.median(probes) <= 20


class TestMarchGrid:
    """The march of `_continuous_solve` probes budgets on a grid that
    depends only on n s / B and the compute floor."""

    def test_power_caps_leave_the_grid_alone(self, monkeypatch):
        # wide-box draw 2547 (2-device FDMA, p_min = 0) and the same draw
        # with every p_max doubled: tau_lo moves, the grid above it does not.
        # A grid spaced by the doublings that bracketed tau_lo marched
        # 5.2106, 5.5410, 6.2019 ... s on the first and 5.1242, 5.3682,
        # 5.8562 ... s on the second.
        fits, marches = [], []
        real_fit, real_root = _budget_config, _root
        monkeypatch.setattr(flmar.allocator, "_budget_config",
                            lambda env, tau, *rest: fits.append(tau)
                            or real_fit(env, tau, *rest))
        # the march ends where the root of dV/dtau is searched for
        monkeypatch.setattr(flmar.allocator, "_root",
                            lambda *args, **kw: (kw and marches.append(fits[1:]))
                            or real_root(*args, **kw))
        scn = wide_box_draw(2547, pinned=False)
        doubled = replace(scn, devices=[replace(dv, p_max=2.0 * dv.p_max)
                                        for dv in scn.devices])
        for s in (scn, doubled):
            env = _Env(s)
            fits.clear()
            _continuous_solve(env, W, env.dev.min_resolution)
        lo, hi = marches
        assert len(lo) >= 3
        assert lo == hi
        assert lo[:3] == pytest.approx([5.1242, 5.3682, 5.8562], abs=1e-4)

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_no_feasible_grid_point_raises(self, scheme):
        # a gain of 1e-300 needs an upload deadline past 1e287 s at p_max,
        # far beyond the grid's last point
        scn = make_scenario([1e-9, 1e-300], scheme=scheme)
        with pytest.raises(InfeasibleScenarioError, match="power and bandwidth"):
            optimize(scn, W)


class TestWideBoxOracleGaps:
    """Wide-box 2-device draws where the joint solve lands more than
    criterion 2's 2 % above the grid oracle.  2-device draws with p_min at
    5-50 % of p_max on a random subset, w1 0.1-0.9 and w3 0.1-1000
    log-uniform found 7 of 200 FDMA and 4 of 1,200 NOMA draws past the
    bound."""

    @staticmethod
    def gap(scheme, bandwidth, model_bits, seed, shares, w1, w3):
        spec = ScenarioSpec(n_devices=2, scheme=scheme, p_max_range=(0.1, 0.5),
                            f_max_range=(0.5e9, 3e9), total_bandwidth_hz=bandwidth,
                            model_size_bits=model_bits)
        scn = generate_scenario(spec, seed=seed)
        scn = replace(scn, devices=[replace(dv, p_min=x * dv.p_max)
                                    for dv, x in zip(scn.devices, shares)])
        w = Weights(w1, 1.0 - w1, w3)
        return optimize(scn, w).objective, brute_force_oracle(scn, w).objective

    def test_fdma_without_p_min(self):
        # the one-pass fit ended 4.6 % above the oracle here
        joint, oracle = self.gap("fdma", 2825850.7343773106, 1790023.85481611, 2630983611,
                                 (0.0, 0.0), 0.6992590743089132, 32.6469190531469)
        assert joint <= 1.02 * oracle

    def test_fdma_with_p_min(self):
        # the one-pass fit ended 12.3 % above the oracle here, with p_min on
        # device 0
        joint, oracle = self.gap("fdma", 758915.0381508177, 2184955.673862047, 2738320143,
                                 (0.4998779700539054, 0.0), 0.7755573888699705,
                                 3.7767738412659)
        assert joint <= 1.02 * oracle

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: at w3 ~ 984 the first sweep "
                       "keeps the minimum resolutions and the solve stops 24.8 % above "
                       "the oracle")
    def test_noma_heavy_accuracy_weight(self):
        joint, oracle = self.gap("noma", 968600.4142161967, 671993.0011527399, 2925124134,
                                 (0.4114160157539099, 0.43547439598469656),
                                 0.8393739270746517, 983.6004613454498)
        assert joint <= 1.02 * oracle


@st.composite
def oracle_draws(draw):
    """A 2-device draw of the wide box with p_min at 5-50 % of p_max on both
    devices, as `TestWideBoxOracleGaps.gap` takes it: scheme, B 0.3-30 MHz,
    model size 1e5-1e7 bits, the scenario seed (p_max 0.1-0.5 W, f_max
    0.5-3 GHz), the p_min shares, w1 0.1-0.9 and w3 0.1-1000."""
    return (draw(st.sampled_from(["fdma", "noma"])), draw(log_uniform(0.3e6, 30e6)),
            draw(log_uniform(1e5, 1e7)), draw(st.integers(0, 2**32 - 1)),
            (draw(st.floats(0.05, 0.5)), draw(st.floats(0.05, 0.5))),
            draw(st.floats(0.1, 0.9)), draw(log_uniform(0.1, 1000.0)))


class TestOracleGapProperty:
    """Criterion 2's 2 % bound against the grid oracle, on random 2-device
    draws of the wide box.  400 draws of this strategy found none past it;
    the draws pinned below are `TestWideBoxOracleGaps`'."""

    @settings(derandomize=True, max_examples=80, database=None, deadline=None)
    @given(oracle_draws())
    @example(("fdma", 2825850.7343773106, 1790023.85481611, 2630983611, (0.0, 0.0),
              0.6992590743089132, 32.6469190531469))
    @example(("fdma", 758915.0381508177, 2184955.673862047, 2738320143,
              (0.4998779700539054, 0.0), 0.7755573888699705, 3.7767738412659))
    @example(("noma", 968600.4142161967, 671993.0011527399, 2925124134,
              (0.4114160157539099, 0.43547439598469656), 0.8393739270746517,
              983.6004613454498)).xfail(
        reason="ROADMAP item 4: at w3 ~ 984 the first sweep keeps the minimum resolutions "
               "and the solve stops 24.8 % above the oracle", raises=AssertionError)
    def test_joint_within_two_percent(self, draw):
        joint, oracle = TestWideBoxOracleGaps.gap(*draw)
        assert joint <= 1.02 * oracle


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
