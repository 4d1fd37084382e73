"""Joint allocation of transmit power, bandwidth, CPU frequency and frame
resolution for synchronous federated rounds.

The solver runs a block-coordinate descent around an epigraph variable: for
a candidate round-time budget tau the communication subproblem is solved in
closed form (FDMA: minimum-energy bandwidth split via one bracketed root
search on the multiplier with a Lambert-W inversion; NOMA: per-channel power
fixed point), CPU frequencies follow by deadline inversion, and tau itself is
located by golden-section search.  Frame resolutions then improve through
exact per-device coordinate moves, and the outer loop repeats until the sweep
returns resolutions it has already solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .accounting import (
    Allocation,
    Scenario,
    SystemMetrics,
    Weights,
    device_table,
    objective,
    system_metrics,
)
from .channel import ChannelPairing, power_for_rate, shannon_rate
from .compute import cmos_energy, detection_accuracy, round_cycles
from .scenario import ScenarioValidationError

_LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_U_SERIES = (38698 / 42525, -524 / 567, 386 / 405, -136 / 135, 10 / 9, -4 / 3, 2.0, 0.0)

MAX_OUTER_ITERATIONS = 50
GOLDEN_TOL_FRACTION = 1e-4


class InfeasibleBudgetError(ValueError):
    """The round-time budget cannot be met within the power/bandwidth limits."""


class InfeasibleScenarioError(RuntimeError):
    """No round-time budget satisfies the power and bandwidth limits."""


@dataclass
class SolveReport:
    """Result of one solver run.

    ``objective_trace`` records the best objective seen after each outer
    iteration, so it is non-increasing by construction.
    """

    allocation: Allocation
    metrics: SystemMetrics
    objective: float
    outer_iterations: int
    converged: bool
    objective_trace: list


class _Env:
    """Solver context: the scenario's device table, its shared knobs and
    the NOMA pairing in use.  Raises :class:`ScenarioValidationError` for
    an invalid scenario."""

    def __init__(self, scenario: Scenario):
        errors = scenario.validate()
        if errors:
            raise ScenarioValidationError(errors)
        self.dev = device_table(scenario)
        self.n = len(self.dev.ids)
        self.iters = float(scenario.local_iterations)
        self.rounds = float(scenario.global_rounds)
        self.s = float(scenario.model_size_bits)
        self.noise = float(scenario.noise_psd)
        self.bw = float(scenario.total_bandwidth_hz)
        self.scheme = scenario.scheme
        self.acc_model = scenario.accuracy_model
        if self.scheme == "noma":
            self.use_pairing(self.dev.noma_pairing(self.bw / scenario.n_channels))

    def use_pairing(self, pairing: ChannelPairing) -> None:
        self.strong = self.dev.positions(s for s, _ in pairing.channels)
        self.weak = self.dev.positions(w for _, w in pairing.channels)
        self.channel_bw = pairing.channel_bandwidth_hz
        self.pairing = pairing

    def round_cycles(self, resolution_px) -> np.ndarray:
        r = np.asarray(resolution_px, dtype=float)
        return round_cycles(self.iters, self.dev.cycles_per_pixel, r, self.dev.frames)

    def accuracy(self, resolution_px) -> np.ndarray:
        return np.atleast_1d(
            np.asarray(detection_accuracy(resolution_px, self.acc_model), dtype=float)
        )

    def comm_solve(self, deadlines):
        if self.scheme == "fdma":
            return _fdma_comm_solve(self, deadlines)
        return _noma_comm_solve(self, deadlines)

    def comm_feasible(self, deadlines) -> bool:
        if self.scheme == "fdma":
            return _fdma_min_bandwidth(self, deadlines) is not None
        return _noma_comm_solve(self, deadlines) is not None


def _bisect(low_side, lo, hi):
    """Bisect every lane of the bracket [lo, hi] down to float precision.

    ``low_side(mid)`` is True in the lanes whose sought point lies above
    ``mid``.  The step count is fixed once per call: enough halvings that
    every lane ends no wider than one float spacing at its starting top end
    max(|lo|, |hi|), so the loop needs no convergence test.  Lanes with
    hi <= lo take no part in the count.  Returns the final ``(lo, hi)``.
    """
    width = np.max((hi - lo) / np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    for _ in range(math.ceil(math.log2(width)) if width > 1.0 else 0):
        mid = 0.5 * (lo + hi)
        side = low_side(mid)
        lo = np.where(side, mid, lo)
        hi = np.where(side, hi, mid)
    return lo, hi


def _root(f, lo, hi):
    """Bracketed root search on every lane of [lo, hi] (Chandrupatla 1997).

    ``f`` is positive below each lane's root and negative above it.  Each
    step probes the first of: the inverse quadratic through the last three
    points, where it is monotone on the bracket; the secant through the two
    points on the newest point's side, which lands on a root that sits at a
    corner of f; the midpoint.  It takes the midpoint whenever the last two
    steps did not halve the bracket, so the bracket halves at least every
    three steps.  A lane whose ends share a sign has its root outside the
    bracket and settles at the nearer end without a probe.  A lane stops
    when f is exactly zero at a probe or when its bracket is no wider than
    one float spacing at its larger end; every probe keeps that spacing from
    both ends, so each step shrinks the bracket.  Returns the final
    ``(lo, hi)``: f(lo) > 0 > f(hi), or lo == hi at a zero or a settled end.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    f_lo, f_hi = np.asarray(f(lo), dtype=float), np.asarray(f(hi), dtype=float)
    at_lo = f_lo <= 0.0
    at_hi = ~at_lo & (f_hi >= 0.0)
    # a is the newest point, b the bracket's other end, c the point dropped
    # last, which lies on a's side; a settled lane starts with a == b
    a, fa = np.where(at_lo, lo, hi), np.where(at_lo, f_lo, f_hi)
    b, fb = np.where(at_hi, hi, lo), np.where(at_hi, f_hi, f_lo)
    c, fc = a, fa
    t = np.full_like(a, 0.5)
    width_1 = width_2 = np.full_like(a, np.inf)   # widths one and two steps back
    active = np.full(a.shape, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            width = np.abs(b - a)
            spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
            active &= (fa != 0.0) & (width > spacing)
            if not active.any():
                break
            t = np.where(width > 0.5 * width_2, 0.5, t)
            width_2, width_1 = width_1, width
            tl = np.minimum(0.5, spacing / width)
            x = np.where(active, a + np.clip(t, tl, 1.0 - tl) * (b - a), a)
            fx = np.asarray(f(x), dtype=float)
            same = (fx > 0.0) == (fa > 0.0)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = x, fx
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            t_iqi = (
                fa / (fb - fa) * fc / (fb - fc)
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            )
            t_sec = fa / (fc - fa) * (a - c) / (b - a)
            t = np.where(
                (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                t_iqi,
                np.where((t_sec > 0.0) & (t_sec < 1.0), t_sec, 0.5),
            )
    return np.where(fa < 0.0, b, a), np.where(fa > 0.0, b, a)


def _u_from_k(k: np.ndarray) -> np.ndarray:
    """Solve (2**u - 1) / u = k for u > 0; k must exceed ln 2.

    With a = k / ln2 and v = u ln2 this is e**v = 1 + a v, whose positive
    root is v = -W_{-1}(-e**(-1/a) / a) - 1/a (Corless et al. 1996).  That
    argument nears the branch point as eps = a - 1 falls (scipy's W_{-1} is
    exactly -1 below eps = 1e-4), so below eps = 1e-2 v comes from
    `_U_SERIES`, the series inverse of (e**v - 1)/v = 1 + eps through eps**7.
    """
    a = k / _LN2
    eps = np.minimum(a - 1.0, 1e-2)     # past the switch the series could overflow
    v = -np.real(lambertw(-np.exp(-1.0 / a) / a, -1)) - 1.0 / a
    return np.where(eps < 1e-2, np.polyval(_U_SERIES, eps), v) / _LN2


def _fdma_min_bandwidth(env: _Env, deadlines):
    """Per-device bandwidth floors at full power, or None when infeasible.

    A device transmitting at p_max with bandwidth below its floor cannot
    meet its deadline; a split is feasible iff the floors fit into B.
    """
    rho = env.s / deadlines
    k_max = env.dev.gain * env.dev.p_max / (env.noise * rho)
    if np.any(k_max <= _LN2 * (1.0 + 1e-12)):
        return None
    b_floor = rho / _u_from_k(k_max)
    if float(b_floor.sum()) > env.bw:
        return None
    return b_floor


def _floor_marginal(env: _Env, b, g, pmin):
    """-dE/db for a device pinned at its power floor p_min."""
    x = g * pmin / (env.noise * b)
    rate = shannon_rate(b, x)
    drate = rate / b - x / ((1.0 + x) * _LN2)
    return pmin * env.s * drate / (rate * rate)


def _fdma_comm_solve(env: _Env, deadlines):
    """Minimum-energy powers and bandwidth split meeting per-device deadlines.

    For a deadline-binding device the energy E(b) = p_req(b) * d is convex
    and decreasing in bandwidth, with marginal -dE/db equal to

        v1(b) = (d N0 / g) * ((u ln2 - 1) 2**u + 1),   u = rho / b,

    which a Lambert-W evaluation inverts in closed form.  Once p_req drops
    to p_min the power pins there and the marginal switches to the flatter
    v2 curve of `_floor_marginal`, which `_root` inverts numerically.
    Equalising marginals across devices via an outer `_root` search on the
    log of the bandwidth price lambda yields the optimal split; leftover
    bandwidth is then spread proportionally, which can only reduce energy
    further.

    Returns ``(power, bandwidth, comm_time, comm_energy)`` or None when the
    deadlines cannot be met.
    """
    dev = env.dev
    d = np.asarray(deadlines, dtype=float)
    rho = env.s / d
    b_floor = _fdma_min_bandwidth(env, d)
    if b_floor is None:
        return None

    k_min = dev.gain * dev.p_min / (env.noise * rho)
    b_kink = np.full(env.n, np.inf)
    kinked = k_min > _LN2 * (1.0 + 1e-9)
    if kinked.any():
        b_kink[kinked] = rho[kinked] / _u_from_k(k_min[kinked])
    b_kink = np.maximum(b_kink, b_floor)
    b_cap = np.minimum(b_kink, env.bw)

    def split_at(lam: float) -> np.ndarray:
        c = lam * dev.gain / (d * env.noise) - 1.0
        u = (np.real(lambertw(c / math.e)) + 1.0) / _LN2
        with np.errstate(divide="ignore"):
            b1 = np.where(u > 0.0, rho / u, np.inf)
        b = np.clip(b1, b_floor, b_cap)
        floored = (b1 > b_kink) & (b_kink < env.bw)
        if floored.any():
            # devices pinned at p_min: v2(b) = lam on [b_kink, B]
            g, pmin = dev.gain[floored], dev.p_min[floored]
            b[floored], _ = _root(
                lambda x: _floor_marginal(env, x, g, pmin) - lam, b_kink[floored], env.bw
            )
        return b

    # Price bracket.  At lam_hi, the highest marginal at the bandwidth
    # floors, every device shrinks to its floor, and the floors fit.  At
    # lam_lo, the highest marginal at b = B (v2 where the device is pinned
    # there, v1 elsewhere), the device that sets it demands the whole band
    # by itself, so demand is at least B.
    c_dev = d * env.noise / dev.gain
    lam_hi = float(np.minimum(_comm_marginal(c_dev, rho / b_floor), 1e300).max())
    top = _comm_marginal(c_dev, rho / env.bw)
    pin_top = b_kink < env.bw
    top[pin_top] = _floor_marginal(env, env.bw, dev.gain[pin_top], dev.p_min[pin_top])
    lam_lo = float(top.max())

    # Demand within 16 float spacings of B counts as the root.  When every
    # device sits at its kink, demand is flat in the price at the sum of the
    # kinks.  The time resplit puts the kinks at the previous split, so that
    # sum misses B only by the rounding of the searches behind it (up to 12
    # spacings on the wide parameter box), and a bracket search could only
    # creep along the plateau.
    tol = 16.0 * np.spacing(env.bw)

    def excess(log_lam):
        e = float(split_at(math.exp(log_lam)).sum()) - env.bw
        return 0.0 if abs(e) <= tol else e

    # search log(lam), since the bracket can span many decades, and take its
    # feasible end; the fill then spreads any leftover (or trims the excess
    # the guard allows) so that the split sums to B
    _, log_lam = _root(excess, math.log(lam_lo), math.log(lam_hi))
    b = split_at(math.exp(log_lam))
    b = b * (env.bw / float(b.sum()))

    p_req = power_for_rate(b, rho, env.noise * b, dev.gain)
    p = np.clip(p_req, dev.p_min, dev.p_max)
    t = env.s / shannon_rate(b, dev.gain * p / (env.noise * b))
    return p, b, t, p * t


def _noma_comm_solve(env: _Env, deadlines):
    """Minimum-energy per-channel powers meeting both users' deadlines.

    Both the weak user's rate and the strong user's rate rise with the
    user's own power, and the strong user sees the weak signal as noise, so
    the cheapest feasible point is the componentwise-smallest one: set the
    weak power to exactly meet its deadline (or its floor), then the strong
    power given that interference.

    Returns ``(power, None, comm_time, comm_energy)`` or None.
    """
    d = np.asarray(deadlines, dtype=float)
    s_idx, w_idx = env.strong, env.weak
    g, p_min, p_max = env.dev.gain, env.dev.p_min, env.dev.p_max
    bc = env.channel_bw
    noise = env.noise * bc
    with np.errstate(over="ignore"):
        p_w = np.maximum(
            power_for_rate(bc, env.s / d[w_idx], noise, g[w_idx]), p_min[w_idx]
        )
        if np.any(p_w > p_max[w_idx] * (1.0 + 1e-12)):
            return None
        interference = g[w_idx] * p_w + noise
        p_s = np.maximum(
            power_for_rate(bc, env.s / d[s_idx], interference, g[s_idx]), p_min[s_idx]
        )
    if np.any(p_s > p_max[s_idx] * (1.0 + 1e-12)):
        return None
    p = np.empty(env.n, dtype=float)
    p[w_idx] = np.clip(p_w, p_min[w_idx], p_max[w_idx])
    p[s_idx] = np.clip(p_s, p_min[s_idx], p_max[s_idx])
    rate = np.empty(env.n, dtype=float)
    rate[w_idx] = shannon_rate(bc, g[w_idx] * p[w_idx] / noise)
    rate[s_idx] = shannon_rate(bc, g[s_idx] * p[s_idx] / (g[w_idx] * p[w_idx] + noise))
    t = env.s / rate
    return p, None, t, p * t


@dataclass
class _Budget:
    """Continuous variables fitted to one round-time budget tau."""

    value: float
    tau: float
    power: np.ndarray
    bandwidth: np.ndarray | None
    cpu: np.ndarray
    comm_time: np.ndarray
    comm_energy: np.ndarray


def _comm_marginal(c, x):
    """-dE/dd for a deadline-binding upload: E(d) = c d (2**x - 1), x ~ 1/d.

    Equals c ((x ln2 - 1) 2**x + 1), positive and decreasing in d, so the
    total per-device energy (compute plus upload) is convex in the split.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = c * ((x * _LN2 - 1.0) * np.exp2(x) + 1.0)
    return out


def _split_bisect(tau, two_k_cyc3, comm_marginal_at, d_lo, d_hi):
    """Minimise kappa cyc^3/(tau-d)^2 + E_com(d) over d in [d_lo, d_hi].

    The derivative 2 kappa cyc^3/(tau-d)^3 - comm_marginal(d) is increasing
    (both energies are convex), so sign bisection lands on the minimiser and
    collapses to the binding bound when the sign never flips.
    """
    lo, hi = _bisect(
        lambda d: ~(two_k_cyc3 / (tau - d) ** 3 >= comm_marginal_at(d)),
        np.minimum(d_lo, d_hi),
        d_hi,
    )
    return 0.5 * (lo + hi)


def _deadline_bounds(env: _Env, tau: float, cyc, idx, bw, denom):
    """Upload-deadline range ``(d_lo, d_hi)`` of the devices at ``idx``.

    The devices upload on ``bw`` hertz against ``denom`` watts of noise plus
    interference.  d_lo is the later of the upload time at p_max and the
    deadline that leaves f_min the rest of tau; d_hi leaves f_max the rest
    of tau and, where p_min > 0, is capped at the upload time at p_min (no
    slower upload exists), but not below d_lo.
    """
    dev = env.dev
    g = dev.gain[idx]
    d_feas = env.s / shannon_rate(bw, g * dev.p_max[idx] / denom)
    d_hi = tau - cyc[idx] / dev.f_max[idx]
    d_lo = np.maximum(tau - cyc[idx] / dev.f_min[idx], d_feas)
    pinned = dev.p_min[idx] > 0.0
    if pinned.any():
        # the p_min upload time; inf where p_min = 0 leaves d_hi as it is
        rate = shannon_rate(bw, g * dev.p_min[idx] / denom)
        d_pin = np.divide(env.s, rate, out=np.full(pinned.shape, np.inf), where=pinned)
        d_hi = np.minimum(d_hi, np.maximum(d_pin, d_lo))
    return d_lo, d_hi


def _fdma_resplit(env: _Env, tau: float, cyc, b):
    """Per-device upload deadlines balancing CPU and transmit energy at fixed b."""
    dev = env.dev
    c = env.noise * b / dev.gain
    a = env.s / b
    d_lo, d_hi = _deadline_bounds(env, tau, cyc, slice(None), b, env.noise * b)
    return _split_bisect(
        tau,
        2.0 * dev.kappa * cyc**3,
        lambda d: _comm_marginal(c, a / d),
        d_lo,
        d_hi,
    )


def _noma_resplit(env: _Env, tau: float, cyc, deadlines):
    """One weak-then-strong pass of per-channel deadline rebalancing.

    The weak user's power raises the interference the strong user must
    overcome, so the weak split also prices d_s A_s g_w / g_s extra joules
    per watt of weak power; both half-steps stay 1-D convex.
    """
    dev = env.dev
    g = dev.gain
    s_idx, w_idx = env.strong, env.weak
    bc = env.channel_bw
    noise = env.noise * bc
    d = deadlines.copy()

    # weak half-step: account for the interference cost on the strong user;
    # k_cross is d_s times the strong power bought per watt of weak power
    c_w = noise / g[w_idx]
    with np.errstate(over="ignore"):
        k_cross = d[s_idx] * power_for_rate(bc, env.s / d[s_idx], g[w_idx], g[s_idx])
    x_of = lambda dd: env.s / (bc * dd)  # noqa: E731

    def weak_marginal(dd):
        x = x_of(dd)
        with np.errstate(over="ignore", invalid="ignore"):
            dpw = c_w * np.exp2(x) * _LN2 * x / dd
        return _comm_marginal(c_w, x) + k_cross * dpw

    d_lo, d_hi = _deadline_bounds(env, tau, cyc, w_idx, bc, noise)
    d[w_idx] = _split_bisect(
        tau, 2.0 * dev.kappa[w_idx] * cyc[w_idx] ** 3, weak_marginal, d_lo, d_hi
    )

    # strong half-step against the updated weak interference
    with np.errstate(over="ignore"):
        p_w = np.maximum(
            power_for_rate(bc, env.s / d[w_idx], noise, g[w_idx]), dev.p_min[w_idx]
        )
    denom_s = g[w_idx] * p_w + noise
    c_s = denom_s / g[s_idx]
    d_lo, d_hi = _deadline_bounds(env, tau, cyc, s_idx, bc, denom_s)
    d[s_idx] = _split_bisect(
        tau,
        2.0 * dev.kappa[s_idx] * cyc[s_idx] ** 3,
        lambda dd: _comm_marginal(c_s, x_of(dd)),
        d_lo,
        d_hi,
    )
    return d


def _budget_config(env: _Env, weights: Weights, tau: float, cyc, t_floor, loss_term):
    """Fit powers, bandwidths and frequencies to budget tau; None if impossible.

    One pass of three exact steps: solve the shared bandwidth / channel
    powers at the full-speed upload deadlines, re-split each device's time
    between compute and upload for that solution (1-D convex, handled by
    `_split_bisect`), and solve the communication again at the new
    deadlines, keeping the first solution when they cannot be met.  The
    CPUs then slow to exactly fill tau minus the achieved upload time.
    """
    d = tau - t_floor
    if np.any(d <= 0.0):
        return None
    sol = env.comm_solve(d)
    if sol is None:
        return None
    if env.scheme == "fdma":
        d = _fdma_resplit(env, tau, cyc, sol[1])
    else:
        d = _noma_resplit(env, tau, cyc, d)
    resplit = env.comm_solve(d)
    p, b, t_com, e_com = sol if resplit is None else resplit
    f = np.clip(cyc / (tau - t_com), env.dev.f_min, env.dev.f_max)
    e_cmp = cmos_energy(env.dev.kappa, cyc, f)
    value = (
        weights.w1 * env.rounds * float((e_cmp + e_com).sum())
        + weights.w2 * env.rounds * tau
        + loss_term
    )
    return _Budget(value, tau, p, b, f, t_com, e_com)


def _continuous_solve(env: _Env, weights: Weights, resolution_px) -> _Budget:
    """Best continuous variables for fixed resolutions via a search over tau."""
    cyc = env.round_cycles(resolution_px)
    t_floor = cyc / env.dev.f_max
    base = float(t_floor.max())
    loss_term = weights.w3 * float((1.0 - env.accuracy(resolution_px)).sum())

    def feasible(tau: float) -> bool:
        return tau > base and env.comm_feasible(tau - t_floor)

    step = env.n * env.s / env.bw + 1e-9
    for _ in range(80):
        if feasible(base + step):
            break
        step *= 2.0
    else:
        raise InfeasibleScenarioError(
            "no round-time budget satisfies the power and bandwidth limits"
        )
    _, tau_lo = _bisect(lambda tau: not feasible(float(tau)), base, base + step)
    tau_lo = float(tau_lo)

    best: list = [math.inf, None]

    def evaluate(tau: float) -> float:
        cfg = _budget_config(env, weights, tau, cyc, t_floor, loss_term)
        if cfg is None:
            return math.inf
        if cfg.value < best[0]:
            best[0] = cfg.value
            best[1] = cfg
        return cfg.value

    # Three-point bracket: march doubling steps until the value stops
    # falling; the minimum then lies within the last three probes.  The
    # march grid is anchored at the compute floor, not at tau_lo, so two
    # scenarios that differ only in constraints slack at the optimum (say a
    # higher power cap that never binds) probe identical budgets and return
    # bit-identical solutions.
    h = max(step, 0.05 * max(base, 1e-12))
    # first march point above tau_lo: tau_lo <= base + step <= base + h
    k0 = int(base + h <= tau_lo)
    points = [(tau_lo, evaluate(tau_lo))]
    for k in range(k0, k0 + 48):
        x = base + h * (2.0**k)
        v = evaluate(x)
        prev_v = points[-1][1]
        points.append((x, v))
        if not v < prev_v - max(1e-12, 1e-9 * abs(prev_v)):
            break
    a = points[-3][0] if len(points) >= 3 else points[0][0]
    b = points[-1][0]
    tol = GOLDEN_TOL_FRACTION * (b - a)
    c = b - _INVPHI * (b - a)
    d_pt = a + _INVPHI * (b - a)
    fc, fd = evaluate(c), evaluate(d_pt)
    while (b - a) > tol:
        if fc <= fd:
            b, d_pt, fd = d_pt, c, fc
            c = b - _INVPHI * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d_pt, fd
            d_pt = a + _INVPHI * (b - a)
            fd = evaluate(d_pt)
    if best[1] is None:
        raise InfeasibleScenarioError(
            "no round-time budget satisfies the power and bandwidth limits"
        )
    return best[1]


def _sweep_core(env: _Env, weights: Weights, resolution_px, cpu_hz, t_com, e_com):
    """One pass of exact per-device resolution moves at fixed communication.

    Each device scans its resolution menu; a candidate's CPU frequency fills
    the current round time exactly (clipped to the device's range), and the
    candidate objective is the true objective of the resulting state, so
    every applied move is non-increasing.
    """
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
        slack = tau - t_com[n]
        if slack <= 0.0:
            continue
        f_c = np.clip(cyc_c / slack, dev.f_min[n], dev.f_max[n])
        t_c = cyc_c / f_c
        e_c = cmos_energy(dev.kappa[n], cyc_c, f_c)
        hold = t_tot[n]
        t_tot[n] = -math.inf
        others = float(t_tot.max())
        t_tot[n] = hold
        round_c = np.maximum(others, t_com[n] + t_c)
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
        t_tot[n] = t_com[n] + t_c[k]
        tau = float(t_tot.max())
    return r_out, f_out


def _assemble(env: _Env, power, bandwidth, cpu_hz, resolution_px) -> Allocation:
    return Allocation(
        power_w=np.clip(power, env.dev.p_min, env.dev.p_max),
        cpu_hz=np.clip(cpu_hz, env.dev.f_min, env.dev.f_max),
        resolution_px=np.asarray(resolution_px, dtype=int),
        bandwidth_hz=None if bandwidth is None else np.asarray(bandwidth, dtype=float),
        pairing=env.pairing if env.scheme == "noma" else None,
    )


def optimize(scenario: Scenario, weights: Weights) -> SolveReport:
    """Jointly allocate power, bandwidth, CPU frequency and resolution.

    Each outer pass fits the continuous variables to the current resolutions
    and sweeps the resolutions once; the solve stops, converged, when the
    sweep returns resolutions an earlier pass already solved, and reports
    ``converged=False`` only when ``MAX_OUTER_ITERATIONS`` passes run out.
    Deterministic: equal inputs give identical reports.  Raises
    :class:`InfeasibleScenarioError` when no round-time budget works at all.
    """
    env = _Env(scenario)
    r = env.dev.min_resolution
    solved = set()
    best = None
    trace: list = []
    converged = False
    for iterations in range(1, MAX_OUTER_ITERATIONS + 1):
        solved.add(tuple(r.tolist()))
        cfg = _continuous_solve(env, weights, r)
        r_new, f_new = _sweep_core(
            env, weights, r, cfg.cpu, cfg.comm_time, cfg.comm_energy
        )
        alloc = _assemble(env, cfg.power, cfg.bandwidth, f_new, r_new)
        metrics = system_metrics(scenario, alloc)
        value = objective(weights, metrics)
        if best is None or value < best[0]:
            best = (value, alloc, metrics)
        trace.append(best[0])
        # a pass depends only on r, so from an r already solved every later
        # pass would repeat an earlier one
        if tuple(r_new.tolist()) in solved:
            converged = True
            break
        r = r_new
    value, alloc, metrics = best
    return SolveReport(
        allocation=alloc,
        metrics=metrics,
        objective=value,
        outer_iterations=iterations,
        converged=converged,
        objective_trace=trace,
    )


def random_baseline(scenario: Scenario, weights: Weights, seed: int) -> SolveReport:
    """Feasible reference point: uniform random powers and frequencies,
    minimum resolutions, equal FDMA split.

    Only the per-device knobs are randomised; NOMA keeps the scheme's
    gain-sorted pairing, the same one the joint solver uses.  Draw order is
    fixed (powers, then frequencies), so a given seed always produces the
    same allocation, and the identical draws land on both schemes when the
    device populations match.
    """
    env = _Env(scenario)
    rng = np.random.default_rng(seed)
    p = rng.uniform(env.dev.p_min, env.dev.p_max)
    f = rng.uniform(env.dev.f_min, env.dev.f_max)
    bandwidth = np.full(env.n, env.bw / env.n) if env.scheme == "fdma" else None
    alloc = _assemble(env, p, bandwidth, f, env.dev.min_resolution)
    metrics = system_metrics(scenario, alloc)
    value = objective(weights, metrics)
    return SolveReport(
        allocation=alloc,
        metrics=metrics,
        objective=value,
        outer_iterations=0,
        converged=True,
        objective_trace=[value],
    )


def solve_comm_subproblem_fdma(
    scenario: Scenario,
    weights: Weights,
    cpu_hz,
    resolution_px,
    round_time_budget: float,
):
    """Minimum-energy powers and bandwidth split for fixed f, r and budget.

    The deadline-binding power is the unique energy minimiser for any
    positive energy weight, so ``weights`` does not change the argmin; it is
    part of the signature for symmetry with the other subproblems.  Raises
    :class:`InfeasibleBudgetError` when the budget cannot be met even at
    p_max with all bandwidth.
    """
    env = _Env(scenario)
    if scenario.scheme != "fdma":
        raise ValueError("scenario scheme must be 'fdma'")
    deadlines = _comm_deadlines(env, cpu_hz, resolution_px, round_time_budget)
    sol = _fdma_comm_solve(env, deadlines)
    if sol is None:
        raise InfeasibleBudgetError(
            f"deadlines unreachable within p_max and {env.bw} Hz total bandwidth"
        )
    p, b, _, _ = sol
    return p, b


def solve_comm_subproblem_noma(
    scenario: Scenario,
    weights: Weights,
    pairing: ChannelPairing,
    cpu_hz,
    resolution_px,
    round_time_budget: float,
):
    """Minimum-energy per-channel powers for fixed pairing, f, r and budget."""
    env = _Env(scenario)
    if scenario.scheme != "noma":
        raise ValueError("scenario scheme must be 'noma'")
    env.use_pairing(pairing)
    deadlines = _comm_deadlines(env, cpu_hz, resolution_px, round_time_budget)
    sol = _noma_comm_solve(env, deadlines)
    if sol is None:
        raise InfeasibleBudgetError("deadlines unreachable within the power limits")
    return sol[0]


def _comm_deadlines(env: _Env, cpu_hz, resolution_px, round_time_budget: float):
    cyc = env.round_cycles(resolution_px)
    t_cmp = cyc / np.asarray(cpu_hz, dtype=float)
    deadlines = round_time_budget - t_cmp
    if np.any(deadlines <= 0.0):
        stuck = [env.dev.ids[k] for k in np.nonzero(deadlines <= 0.0)[0]]
        raise InfeasibleBudgetError(
            f"compute alone exceeds the budget for devices {stuck}"
        )
    return deadlines


def solve_cpu_frequencies(
    scenario: Scenario,
    weights: Weights,
    round_time_budget: float,
    comm_time_s,
    resolution_px,
):
    """Energy-optimal CPU frequencies under a round-time budget.

    Compute energy rises with f while the deadline needs f at least
    cycles / (budget - comm_time), so the optimum is that quotient clipped
    into [f_min, f_max].  Raises :class:`InfeasibleBudgetError`, naming the
    devices, when even f_max cannot meet the budget.
    """
    env = _Env(scenario)
    t_com = np.asarray(comm_time_s, dtype=float)
    slack = round_time_budget - t_com
    cyc = env.round_cycles(resolution_px)
    bad = slack <= 0.0
    needed = np.full(env.n, math.inf)
    np.divide(cyc, slack, out=needed, where=~bad)
    bad |= needed > env.dev.f_max * (1.0 + 1e-9)
    if np.any(bad):
        stuck = [env.dev.ids[k] for k in np.nonzero(bad)[0]]
        raise InfeasibleBudgetError(
            f"budget {round_time_budget} unreachable even at f_max for devices {stuck}"
        )
    return np.clip(needed, env.dev.f_min, env.dev.f_max)


def sweep_resolutions(
    scenario: Scenario, weights: Weights, allocation: Allocation
) -> np.ndarray:
    """Exact coordinate-descent pass over per-device frame resolutions.

    Devices are visited in position order; each picks the resolution (with
    its CPU frequency refitted to the current round time) that minimises the
    full objective, ties going to the smaller resolution.  The returned
    resolutions never increase the objective.
    """
    env = _Env(scenario)
    if allocation.pairing is not None:
        env.use_pairing(allocation.pairing)
    metrics = system_metrics(scenario, allocation)
    r_new, _ = _sweep_core(
        env,
        weights,
        allocation.resolution_px,
        allocation.cpu_hz,
        metrics.comm_time_s,
        metrics.comm_energy_j,
    )
    return r_new
