"""Joint allocation of transmit power, bandwidth, CPU frequency and frame
resolution for synchronous federated rounds.

The solver runs a block-coordinate descent around an epigraph variable: for
a candidate round-time budget tau each device's time is split between
compute and upload by one convex 1-D search on a fixed link, written once
for both schemes; the communication subproblem is solved in closed form
(FDMA: minimum-energy bandwidth split via a safeguarded Newton search on
the log of the multiplier, with a Lambert-W inversion and closed-form
demand slopes; NOMA: per-channel power fixed point),
CPU frequencies follow by deadline inversion, and tau itself is located by
a doubling march and Brent's minimisation.  Every fit of one tau search but
its first starts the price searches and the time split from the fit nearest
in tau that the search has already made; those fits are never kept past the
search.  Frame resolutions then improve through exact per-device coordinate
moves, and the outer loop repeats until the sweep returns resolutions it has
already solved.
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
    objective,
    system_metrics,
)
from .channel import ChannelPairing, power_for_rate, shannon_rate
from .compute import cmos_energy, detection_accuracy, round_cycles
from .scenario import ScenarioValidationError

_LN2 = math.log(2.0)
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
_U_SERIES = (38698 / 42525, -524 / 567, 386 / 405, -136 / 135, 10 / 9, -4 / 3, 2.0, 0.0)
# (k - 1) / k! for k = 2 to 13: the series of `_comm_marginal` over u**2
_M_SERIES = np.array([(k - 1) / math.factorial(k) for k in range(2, 14)])

MAX_OUTER_ITERATIONS = 50


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
    """Solver context: the scenario's stored device table, its shared knobs
    and the NOMA pairing in use.  Raises :class:`ScenarioValidationError` for
    an invalid scenario."""

    def __init__(self, scenario: Scenario):
        errors = scenario.validate()
        if errors:
            raise ScenarioValidationError(errors)
        self.dev = scenario.devices
        self.n = len(self.dev)
        self.iters = float(scenario.local_iterations)
        self.rounds = float(scenario.global_rounds)
        self.s = float(scenario.model_size_bits)
        self.noise = float(scenario.noise_psd)
        self.bw = float(scenario.total_bandwidth_hz)
        self.scheme = scenario.scheme
        self.acc_model = scenario.accuracy_model
        # each distinct menu padded with its own last entry to the widest
        # one, so a padded lane repeats the entry before it and a first-index
        # argmin still gives ties to the smaller resolution
        menus, which = self.dev.distinct_menus
        width = max(map(len, menus))
        self.menu = np.array(
            [menu + menu[-1:] * (width - len(menu)) for menu in menus], dtype=float
        )[which]
        self.menu_cycles = round_cycles(
            self.iters, self.dev.cycles_per_pixel[:, None], self.menu, self.dev.frames[:, None]
        )
        self.menu_loss = 1.0 - detection_accuracy(self.menu, self.acc_model)
        if self.scheme == "noma":
            self.use_pairing(scenario.noma_pairing)

    def use_pairing(self, pairing: ChannelPairing) -> None:
        self.strong, self.weak = self.dev.pair_positions(pairing.channels)
        self.channel_bw = pairing.channel_bandwidth_hz
        self.pairing = pairing

    def round_cycles(self, resolution_px) -> np.ndarray:
        r = np.asarray(resolution_px, dtype=float)
        return round_cycles(self.iters, self.dev.cycles_per_pixel, r, self.dev.frames)

    def accuracy(self, resolution_px) -> np.ndarray:
        return np.atleast_1d(
            np.asarray(detection_accuracy(resolution_px, self.acc_model), dtype=float)
        )

    def comm_margin(self, deadlines) -> float:
        """Signed infeasibility margin of the upload deadlines: they can be
        met iff it is <= 0, and it is +inf where one is <= 0."""
        if np.any(deadlines <= 0.0):
            return math.inf
        if self.scheme == "fdma":
            return _fdma_floors(self, deadlines)[0]
        return _noma_powers(self, deadlines)[0]


def _root(f, lo: float, hi: float, f_lo=None, f_hi=None):
    """Bracketed root search on [lo, hi] (Chandrupatla 1997).

    ``f`` takes and returns floats; it is positive below the root and
    negative above it.  ``f_lo`` and ``f_hi``, where given, are its values
    at the ends, which the search then does not evaluate again.  Each step
    probes the first of: the inverse quadratic through the last three
    points, where it is monotone on the bracket; the secant through the two
    points on the newest point's side, which lands on a root that sits at a
    corner of f; the midpoint.  It takes the midpoint whenever the last two
    steps did not halve the bracket, so the bracket halves at least every
    three steps.  Where the
    ends share a sign the root lies outside the bracket, and the search
    settles at the nearer end without a probe.  It stops when f is exactly
    zero at a probe or when the bracket is no wider than one float spacing
    at its larger end; every probe keeps that spacing from both ends, so
    each step shrinks the bracket.  Returns the final ``(lo, hi)``:
    f(lo) > 0 > f(hi), or lo == hi at a zero or a settled end.
    """
    lo, hi = float(lo), float(hi)
    f_lo = float(f(lo) if f_lo is None else f_lo)
    f_hi = float(f(hi) if f_hi is None else f_hi)
    if f_lo <= 0.0:
        return lo, lo
    if f_hi >= 0.0:
        return hi, hi
    # a is the newest point, b the bracket's other end, c the point dropped
    # last, which lies on a's side
    a, fa, b, fb = hi, f_hi, lo, f_lo
    c, fc = a, fa
    t = 0.5
    width_2 = width_1 = math.inf   # widths two and one steps back
    while True:
        width = abs(b - a)
        spacing = math.ulp(max(abs(a), abs(b)))
        if fa == 0.0 or not width > spacing:
            return (b if fa < 0.0 else a), (b if fa > 0.0 else a)
        if width > 0.5 * width_2:
            t = 0.5
        width_2, width_1 = width_1, width
        tl = min(0.5, spacing / width)
        x = a + min(max(t, tl), 1.0 - tl) * (b - a)
        fx = float(f(x))
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        # c and b lie on opposite sides of the root and b != a, so only
        # fc - fa can be zero; then phi == 1 and the secant is undefined
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = (
                fa / (fb - fa) * fc / (fb - fc)
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            )
        else:
            t_sec = fa / (fc - fa) * (a - c) / (b - a) if fc != fa else 0.5
            t = t_sec if 0.0 < t_sec < 1.0 else 0.5


def _brent_min(f, a, b, x=None, fx=None):
    """Minimise f on a bracket 0 < a < b by Brent's method (Brent 1973, ch. 5).

    Each step probes the vertex of the parabola through the three best
    points, where it falls inside the bracket and moves less than half the
    step before last; else the golden-section point of the larger side of
    the best point x.  Every probe lies at least tol = sqrt(eps) |x| from
    x, the spacing to which float arithmetic can place a minimum.
    The search starts from ``(x, fx)`` when given, else from the golden
    point, and stops once the bracket lies within 2 tol of x.  Values may
    be inf.  Returns the best point and its value.
    """
    if x is None:
        x = a + _CGOLD * (b - a)
        fx = f(x)
    w = v = x
    fw = fv = fx
    d = e = 0.0             # the last step and the one before it
    while True:
        m, tol = 0.5 * (a + b), _SQRT_EPS * abs(x)
        if max(x - a, b - x) <= 2.0 * tol:
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = tol if x <= m else -tol
        else:
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else tol if d >= 0.0 else -tol)
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


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


def _fdma_floors(env: _Env, deadlines):
    """Per-device bandwidth floors at full power and the margin by which
    they overrun B, as ``(margin, b_floor)``.

    A device transmitting at p_max with bandwidth below its floor cannot
    meet its deadline, so a split is feasible iff the margin is <= 0.  A
    deadline no bandwidth can meet gives margin +inf and no floors.
    """
    rho = env.s / deadlines
    k_max = env.dev.gain * env.dev.p_max / (env.noise * rho)
    if np.any(k_max <= _LN2 * (1.0 + 1e-12)):
        return math.inf, None
    b_floor = rho / _u_from_k(k_max)
    return float(b_floor.sum()) - env.bw, b_floor


def _floor_marginal(env: _Env, b, g, pmin):
    """v2 = -dE/db for a device pinned at its power floor p_min, and its
    negated log slope D = -d ln v2 / d ln b, as ``(v2, D)``.

    With x = g p_min / (N0 b), L = ln(1 + x) and q = L - x / (1 + x), v2 =
    p_min s q ln2 / (b L)**2, and D = 2 + x**2 / ((1 + x)**2 q) - 2 x / ((1
    + x) L), which is positive: v2 falls with b.
    """
    x = g * pmin / (env.noise * b)
    ln1x = np.log1p(x)
    y = x / (1.0 + x)
    q = ln1x - y
    v2 = pmin * env.s * q * _LN2 / (b * ln1x) ** 2
    return v2, 2.0 + y * y / q - 2.0 * y / ln1x


def _floor_split(env: _Env, lam: float, g, pmin, lo, v_lo, v_hi, start):
    """Bandwidths b of devices pinned at p_min with v2(b) = lam on [lo, B],
    and their slopes db/d ln lam, as ``(b, slope)``.

    ``v_lo`` and ``v_hi`` hold v2 at lo and at B.  A root at or beyond an
    end settles there with slope 0: at lo where lam >= v_lo, at B where lam
    <= v_hi.  The other devices are lanes of one Newton search on ln v2 in
    ln b, from ``start``, each probe clamped one spacing inside (lo, B).
    D = -d ln v2 / d ln b lies in (1.79, 2] for every x, so each step
    shrinks the distance to the root by a factor of at least 9, and a step
    of length s in ln b leaves an error below 0.02 s**2.  A lane therefore
    ends on the point its first step of at most sqrt(eps) reaches, with
    slope -b / D.
    """
    b = np.where(lam >= v_lo, lo, env.bw)
    slope = np.zeros(b.shape)
    k = np.flatnonzero((lam < v_lo) & (lam > v_hi))
    g, pmin = g[k], pmin[k]
    low, high = np.nextafter(lo[k], np.inf), np.nextafter(env.bw, 0.0)
    x = np.fmin(np.fmax(start[k], low), high)
    while k.size:
        v, dv = _floor_marginal(env, x, g, pmin)
        step = np.log(v / lam) / dv
        x = np.fmin(np.fmax(x * np.exp(step), low), high)
        done = np.abs(step) <= _SQRT_EPS
        if np.count_nonzero(done):
            b[k[done]] = x[done]
            slope[k[done]] = -x[done] / dv[done]
            go = ~done
            k, x, low, g, pmin = k[go], x[go], low[go], g[go], pmin[go]
    return b, slope


def _v1_inverse(lam: float, c, rho):
    """Bandwidths b at which v1(b) = lam, their slopes db / d ln lam and
    the demand that rounding moves, as ``(b, slope, stair)``, for uploads
    of ``rho`` bit/s with c = d N0 / g.

    With a = lam / c and v = u ln2, v1(b) = lam reads (v - 1) e**v + 1 = a,
    whose root is v = W((a - 1) / e) + 1 (Lambert W, principal branch), and
    db / d ln lam = -b a 2**-u / v**2.  a - 1 and its quotient by e each
    round by up to eps |a - 1|, which moves ln lam by up to 2 eps |a - 1| /
    a: near a = 0 b climbs in stairs that times its slope, as ``stair``
    holds.  Below a = 1e-8 a stair would span most of b, and v comes from
    its branch-point series p - p**2/3 + 11 p**3/72 in p = sqrt(2a) instead
    (Corless et al. 1996), within 2e-13 and with no stair.  Where v rounds
    to 0, b is inf.
    """
    a = lam / c
    a1 = a - 1.0
    v = np.real(lambertw(a1 / math.e)) + 1.0
    tiny = a < 1e-8
    if np.count_nonzero(tiny):
        p = np.sqrt(2.0 * a[tiny])
        v[tiny] = p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
    u = v / _LN2
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(v > 0.0, rho / u, np.inf)
        slope = -b * a * np.exp2(-u) / (v * v)
        stair = np.where(tiny, 0.0, 2.0 * _EPS * np.abs(slope * a1 / a))
    return b, slope, stair


def _fdma_comm_solve(env: _Env, deadlines, start: float = -math.inf):
    """Minimum-energy powers and bandwidth split meeting per-device deadlines.

    For a deadline-binding device the energy E(b) = p_req(b) * d is convex
    and decreasing in bandwidth, with marginal -dE/db equal to

        v1(b) = (d N0 / g) * ((u ln2 - 1) 2**u + 1),   u = rho / b,

    which a Lambert-W evaluation inverts in closed form.  Once p_req drops
    to p_min the power pins there and the marginal switches to the flatter
    v2 curve of `_floor_marginal`, which `_floor_split` inverts for all the
    pinned devices at once.  Equalising marginals across devices at one
    bandwidth price lambda yields the optimal split; leftover bandwidth is
    then spread proportionally, which can only reduce energy further.

    The price comes from a safeguarded Newton search on t = ln lambda for
    ln(demand / B).  Demand S falls with t, and each probe gives its slope
    in closed form: db/dt = -b (c + 1) 2**-u / (u ln2)**2 for a device
    whose v1 demand lies strictly inside its floor and cap, with c = lambda
    g / (d N0) - 1, and -b / D for a pinned one strictly inside [b_kink, B];
    a device at either end adds 0.  The bracket's ends need no probe:
    demand is at least B at the low end, and at the high end every device
    sits at its floor.  The search starts at ``start``, the log-price on
    which the nearest fit of the same round-time search ended, clamped one
    spacing of t inside the bracket; from the default -inf that is one
    spacing above the low end.  It takes the Newton step where that lands
    inside the bracket and the bracket halved over the last two probes, or
    the step is at most half as long as the last one, or the probe is near
    the root (below); else the secant through the bracket's ends where the Newton step left
    the bracket, else the midpoint.  Every probe keeps one spacing of t
    from both ends.  A probe's grain is the demand that one spacing of t
    moves plus the stairs of `_v1_inverse`; the probe is the root once its
    demand lies within 16 float spacings of B above, or within those and
    two grains below, and the Newton step aims at the middle of that
    window.  "Near" means within four such half-windows of it.  The search
    ends on the high end's split, the floors or the last probe on that
    side, once its demand lies in the window or the bracket closes.

    Returns ``(power, bandwidth, comm_time, comm_energy, log_price)``, with
    the t of the split it ended on, or None when the deadlines cannot be met.
    """
    dev = env.dev
    d = np.asarray(deadlines, dtype=float)
    rho = env.s / d
    margin, b_floor = _fdma_floors(env, d)
    if margin > 0.0:
        return None

    k_min = dev.gain * dev.p_min / (env.noise * rho)
    b_kink = np.full(env.n, np.inf)
    kinked = k_min > _LN2 * (1.0 + 1e-9)
    if kinked.any():
        b_kink[kinked] = rho[kinked] / _u_from_k(k_min[kinked])
    b_kink = np.maximum(b_kink, b_floor)
    b_cap = np.minimum(b_kink, env.bw)
    # devices that can pin at p_min below B, with v2 at their kink and at B
    pin = np.flatnonzero(b_kink < env.bw)
    g_pin, pmin_pin, kink_pin = dev.gain[pin], dev.p_min[pin], b_kink[pin]
    v_kink, _ = _floor_marginal(env, kink_pin, g_pin, pmin_pin)
    v_top, _ = _floor_marginal(env, env.bw, g_pin, pmin_pin)
    c_dev = d * env.noise / dev.gain

    def demand(t: float, start):
        """Each device's demand at price e**t, its slope in t and the demand
        that rounding moves, as ``(b, slope, stair)``; pinned devices start
        their search from ``start``."""
        lam = math.exp(t)
        b1, slope, stair = _v1_inverse(lam, c_dev, rho)
        b = np.clip(b1, b_floor, b_cap)
        free = (b1 > b_floor) & (b1 < b_cap)
        slope = np.where(free, slope, 0.0)
        stair = float(stair[free].sum())
        floored = b1[pin] > kink_pin
        if np.count_nonzero(floored):
            i = pin[floored]
            b[i], slope[i] = _floor_split(
                env, lam, g_pin[floored], pmin_pin[floored], kink_pin[floored],
                v_kink[floored], v_top[floored], start[i],
            )
        return b, slope, stair

    # Price bracket.  At lam_hi, the highest marginal at the bandwidth
    # floors, every device shrinks to its floor, and the floors fit.  At
    # lam_lo, the highest marginal at b = B (v2 where the device is pinned
    # there, v1 elsewhere), the device that sets it demands the whole band
    # by itself, so demand is at least B.  On a budget so long that this
    # marginal underflows to 0, the floor at the smallest normal float still
    # has every device demand its cap.
    with np.errstate(over="ignore", invalid="ignore"):
        lam_hi = float(np.minimum(_comm_marginal(c_dev, rho / b_floor)[0], 1e300).max())
        top = _comm_marginal(c_dev, rho / env.bw)[0]
    top[pin] = v_top
    lam_lo = max(float(top.max()), np.finfo(float).tiny)

    # When every device sits at its kink, demand is flat in the price at the
    # sum of the kinks.  The time split puts the kinks at the previous
    # split, so that sum misses B only by the rounding of the searches
    # behind it (up to 12 spacings on the wide parameter box), inside tol.
    tol = 16.0 * np.spacing(env.bw)
    lo, hi = math.log(lam_lo), math.log(lam_hi)
    spacing = math.ulp(max(abs(lo), abs(hi)))
    # demand at the ends: at least B at lo, and the floors at hi
    total_lo, total_hi, b_hi = math.inf, env.bw + margin, b_floor
    t, b, target, half = start, b_cap, env.bw, tol
    width_2 = width_1 = step_1 = math.inf     # widths two and one probes back
    while hi - lo > spacing and abs(total_hi - target) > half:
        t = min(max(t, lo + spacing), hi - spacing)
        b, slope, stair = demand(t, b)
        total, fall = float(b.sum()), -float(slope.sum())
        grain = fall * spacing + stair
        target, half = env.bw - grain, tol + grain
        miss = abs(total - target)
        if miss <= half:
            break
        if total > env.bw:
            lo, total_lo = t, total
        else:
            hi, total_hi, b_hi = t, total, b
        width = hi - lo
        newton = t + math.log(total / target) * total / fall if fall else lo
        if not lo < newton < hi and total_lo < math.inf:
            # the secant through the ends, which lies inside
            newton = lo + (hi - lo) * (total_lo - target) / (total_lo - total_hi)
        step = abs(newton - t)
        take = lo < newton < hi and (
            width <= 0.5 * width_2 or step <= 0.5 * step_1 or miss <= 4.0 * half
        )
        t_next = newton if take else 0.5 * (lo + hi)
        step_1, width_2, width_1 = abs(t_next - t), width_1, width
        t = t_next
    else:
        t, b = hi, b_hi
    # spread the leftover in proportion to b, but trim an excess from the
    # room above the floors, which it cannot exceed
    total = float(b.sum())
    room = b - b_floor if total > env.bw else b
    b = b + (env.bw - total) * (room / float(room.sum()))

    p_req = power_for_rate(b, rho, env.noise * b, dev.gain)
    p = np.clip(p_req, dev.p_min, dev.p_max)
    t_com = env.s / shannon_rate(b, dev.gain * p / (env.noise * b))
    return p, b, t_com, p * t_com, t


def _noma_powers(env: _Env, d):
    """Required channel powers for deadlines ``d`` and their margin, as
    ``(margin, p_w, p_s)``.

    Each weak user needs the power that meets its deadline, and at least
    p_min; each strong user then needs the same against that weak power as
    interference.  The margin is the largest excess of a required power
    over p_max (1 + 1e-12), so the deadlines can be met iff it is <= 0.
    Where a weak user already fails, the margin is the weak users' alone
    and no strong powers are returned.
    """
    s_idx, w_idx = env.strong, env.weak
    g, p_min, cap = env.dev.gain, env.dev.p_min, env.dev.p_max * (1.0 + 1e-12)
    bc = env.channel_bw
    noise = env.noise * bc
    with np.errstate(over="ignore"):
        p_w = np.maximum(
            power_for_rate(bc, env.s / d[w_idx], noise, g[w_idx]), p_min[w_idx]
        )
        margin = float(np.max(p_w - cap[w_idx]))
        if margin > 0.0:
            return margin, p_w, None
        interference = g[w_idx] * p_w + noise
        p_s = np.maximum(
            power_for_rate(bc, env.s / d[s_idx], interference, g[s_idx]), p_min[s_idx]
        )
    return max(margin, float(np.max(p_s - cap[s_idx]))), p_w, p_s


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
    margin, p_w, p_s = _noma_powers(env, d)
    if margin > 0.0:
        return None
    s_idx, w_idx = env.strong, env.weak
    g, p_min, p_max = env.dev.gain, env.dev.p_min, env.dev.p_max
    bc = env.channel_bw
    noise = env.noise * bc
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
    """Continuous variables fitted to one round-time budget tau, with the
    split deadlines and, for FDMA, the log-prices of the first and the
    second comm solve, from which a nearby fit starts its searches."""

    value: float
    power: np.ndarray
    bandwidth: np.ndarray | None
    cpu: np.ndarray
    comm_time: np.ndarray
    comm_energy: np.ndarray
    deadlines: np.ndarray
    log_prices: tuple | None


def _comm_marginal(c, x):
    """M = -dE/dd for a deadline-binding upload, E(d) = c d (2**x - 1) with
    x = a/d, and its slope in log d, dM = -d dM/dd, as ``(M, dM)``.

    M = c ((u - 1) e**u + 1) with u = x ln2 is positive and decreasing in d,
    so the total per-device energy (compute plus upload) is convex in the
    split.  That form cancels as u falls: its error is 3 eps from u = 0.5
    up, 22 eps at u = 0.25 and 800 at 0.05.  Below u = 0.25 M comes from
    its series c sum_{k>=2} (k - 1) u**k / k! instead, whose terms are all
    positive; past k = 13 its tail is below eps / 10 of M.  dM/dx = c x
    ln2**2 2**x and dx/dd = -x/d give dM = c u**2 e**u, which does not
    cancel.  Both overflow to inf past x = 1024; callers that reach it
    ignore that.
    """
    e = np.exp2(x)
    u = x * _LN2
    m = (u - 1.0) * e + 1.0
    small = u < 0.25
    if np.count_nonzero(small):
        us = u[small]
        m[small] = us * us * (us[:, None] ** np.arange(_M_SERIES.size) @ _M_SERIES)
    return c * m, c * (u * u) * e


def _time_split(env: _Env, tau: float, cyc, idx, bw, denom, price=None, floor=None,
                start=None):
    """Upload deadlines of the devices at ``idx`` that minimise each one's
    compute plus upload energy within budget tau, on a fixed link.

    The devices upload on ``bw`` hertz against ``denom`` watts of noise plus
    interference.  ``price`` charges that many joules per watt of upload
    power, and ``floor`` is a lowest deadline.  Each device's bracket [lo,
    hi] starts at the latest of the upload time at p_max, the deadline that
    leaves f_min the rest of tau and the floor; it ends where f_max fills
    the rest of tau and, where p_min > 0, at the upload time at p_min (no
    slower upload exists), but not below its start.

    Compute and upload energy are both convex in the deadline d, so with M
    the upload marginal -dE/dd, price included, phi(d) = ln(2 kappa cyc^3 /
    ((tau - d)^3 M(d))) rises with d, and its root is the minimiser.  Each
    device is one lane of a safeguarded Newton search on phi in log d.  A
    lane starts at its deadline in ``start``, the split of the nearest fit
    of the same round-time search, clamped one spacing inside its bracket;
    without ``start``, at the geometric midpoint of its bracket.  A step
    goes to d exp(-phi / (d phi')), clamped to one spacing inside the
    bracket, where the last probe halved ln(hi / lo) or the step is at most
    half as long as the last one; otherwise to the geometric midpoint, which
    halves ln(hi / lo).  The spacing is one float spacing at hi's starting
    value.  Every probe lies strictly inside the bracket, so each step
    shrinks it, and either the bracket halves at least every other step or
    the steps shrink geometrically: the search ends without a step cap.  A lane stops at its
    probe once the Newton step there is at most one spacing, or once its
    bracket is no wider than one spacing.  It then ends at hi if no probe
    fell above the root, which lies at or beyond hi, and else half a
    spacing above lo, never on lo itself: where the root lies at or below
    lo, the deadline keeps a rounding's room above the p_max upload time
    for the comm solve.  An empty bracket ends at hi.
    """
    dev = env.dev
    g = dev.gain[idx]
    d_feas = env.s / shannon_rate(bw, g * dev.p_max[idx] / denom)
    d_hi = tau - cyc[idx] / dev.f_max[idx]
    d_lo = np.maximum(tau - cyc[idx] / dev.f_min[idx], d_feas)
    if floor is not None:
        d_lo = np.maximum(d_lo, floor)
    pinned = dev.p_min[idx] > 0.0
    if pinned.any():
        # the p_min upload time; inf where p_min = 0 leaves d_hi as it is
        rate = shannon_rate(bw, g * dev.p_min[idx] / denom)
        d_pin = np.divide(env.s, rate, out=np.full(pinned.shape, np.inf), where=pinned)
        d_hi = np.minimum(d_hi, np.maximum(d_pin, d_lo))

    out = d_hi.copy()
    k = np.flatnonzero(d_lo < d_hi)
    lo, hi = d_lo[k], d_hi[k]
    spacing = np.spacing(hi)
    c = np.broadcast_to(denom / g, out.shape)[k]
    a = np.broadcast_to(env.s / bw, out.shape)[k]
    two_k_cyc3 = (2.0 * dev.kappa[idx] * cyc[idx] ** 3)[k]
    # the price term of M, price * -dp/dd = price c 2**x ln2 x / d, is
    # lead dM with lead = price / (a ln2)
    lead = None if price is None else price[k] / (a * _LN2)
    if start is None:
        d = np.sqrt(lo * hi)
    else:
        d = np.fmin(np.fmax(start[idx][k], lo + spacing), hi - spacing)
    # hi / lo and the step length, one step back
    ratio_1 = step_1 = np.full(k.size, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while k.size:
            x = a / d
            m, dm = _comm_marginal(c, x)
            if lead is not None:
                # -d dw/dd = w (x ln2 + 2) for the price term w
                w = lead * dm
                m, dm = m + w, dm + w * (x * _LN2 + 2.0)
            t = tau - d
            phi = np.log(two_k_cyc3 / (t * t * t * m))
            newton = d * np.exp(-phi / (3.0 * d / t + dm / m))
            above = phi < 0.0
            lo = np.where(above, d, lo)
            hi = np.where(above, hi, d)
            step = np.abs(newton - d)
            converged = step <= spacing
            stop = converged | (hi - lo <= spacing)
            ratio = hi / lo
            take = (ratio * ratio <= ratio_1) | (step <= 0.5 * step_1)
            d_next = np.where(take, newton, np.sqrt(lo * hi))
            d_next = np.fmin(np.fmax(d_next, lo + spacing), hi - spacing)
            step_1, ratio_1 = np.abs(d_next - d), ratio
            if np.count_nonzero(stop):
                inside = np.maximum(lo + 0.5 * spacing, np.nextafter(lo, np.inf))
                end = np.where(hi == d_hi[k], hi, inside)
                out[k[stop]] = np.where(converged, d, end)[stop]
                go = ~stop
                k, d_next, lo, hi, spacing, ratio_1, step_1 = (
                    v[go] for v in (k, d_next, lo, hi, spacing, ratio_1, step_1)
                )
                c, a, two_k_cyc3 = c[go], a[go], two_k_cyc3[go]
                if lead is not None:
                    lead = lead[go]
            d = d_next
    return out


def _noma_split(env: _Env, tau: float, cyc, d, start=None):
    """NOMA upload deadlines for budget tau: the weak users' split, then the
    strong users' against the weak power it leaves.

    ``d`` holds the full-speed deadlines tau - cyc / f_max, and ``start``
    the deadlines both splits start from, as `_time_split` takes them.  At
    its partner's full-speed deadline d_s each watt of weak power costs the
    strong user d_s (2**x_s - 1) g_w / g_s joules, which the weak split
    prices.  The weak deadline is floored where the strong partner, at p_max
    and f_max, can still meet tau against the weak interference, so for
    every feasible tau the strong split has deadlines it can meet.
    """
    s_idx, w_idx = env.strong, env.weak
    g, bc = env.dev.gain, env.channel_bw
    noise = env.noise * bc
    d = d.copy()
    with np.errstate(over="ignore", divide="ignore"):
        price = d[s_idx] * power_for_rate(bc, env.s / d[s_idx], g[w_idx], g[s_idx])
        # the largest weak SNR under which the strong user meets d_s at p_max
        snr = env.dev.p_max[s_idx] / power_for_rate(bc, env.s / d[s_idx], noise, g[s_idx])
        floor = env.s / shannon_rate(bc, np.maximum(snr - 1.0, 0.0))
    d[w_idx] = _time_split(env, tau, cyc, w_idx, bc, noise, price, floor, start)
    _, p_w, _ = _noma_powers(env, d)
    d[s_idx] = _time_split(env, tau, cyc, s_idx, bc, g[w_idx] * p_w + noise, start=start)
    return d


def _budget_config(env: _Env, weights: Weights, tau: float, cyc, t_floor, loss_term,
                   near=None):
    """Fit powers, bandwidths and frequencies to budget tau; None if impossible.

    The upload deadlines come from a compute/upload time split on a fixed
    link, then one comm solve meets them.  FDMA first solves the bandwidth
    split at the full-speed deadlines tau - t_floor and splits the time on
    those bandwidths; at tau_lo that split can miss feasibility by a
    rounding, and the fit then keeps the first solution.  NOMA splits the
    time by `_noma_split`, which always leaves deadlines that a feasible tau
    can meet.  The CPUs then slow to exactly fill tau minus the achieved
    upload time.  Each search starts from its counterpart in ``near``, a fit
    to a nearby budget, when one is given.
    """
    d = tau - t_floor
    if np.any(d <= 0.0):
        return None
    start = None if near is None else near.deadlines
    if env.scheme == "fdma":
        t_first, t_second = (-math.inf, -math.inf) if near is None else near.log_prices
        first = _fdma_comm_solve(env, d, t_first)
        if first is None:
            return None
        b = first[1]
        d = _time_split(env, tau, cyc, slice(None), b, env.noise * b, start=start)
        p, b, t_com, e_com, t_second = _fdma_comm_solve(env, d, t_second) or first
        log_prices = (first[4], t_second)
    else:
        d = _noma_split(env, tau, cyc, d, start)
        sol = _noma_comm_solve(env, d)
        if sol is None:
            return None
        p, b, t_com, e_com = sol
        log_prices = None
    f = np.clip(cyc / (tau - t_com), env.dev.f_min, env.dev.f_max)
    e_cmp = cmos_energy(env.dev.kappa, cyc, f)
    value = (
        weights.w1 * env.rounds * float((e_cmp + e_com).sum())
        + weights.w2 * env.rounds * tau
        + loss_term
    )
    return _Budget(value, p, b, f, t_com, e_com, d, log_prices)


def _continuous_solve(env: _Env, weights: Weights, resolution_px) -> _Budget:
    """Best continuous variables for fixed resolutions via a search over tau.

    Each fit but the first starts its searches from the fit nearest in tau
    that this search has made.  Those fits live only in this call, so the
    result depends only on the resolutions.
    """
    cyc = env.round_cycles(resolution_px)
    t_floor = cyc / env.dev.f_max
    base = float(t_floor.max())
    loss_term = weights.w3 * float((1.0 - env.accuracy(resolution_px)).sum())

    fits: list = []     # (tau, fit) of every budget that could be met

    def evaluate(tau: float) -> float:
        near = min(fits, key=lambda fit: abs(fit[0] - tau))[1] if fits else None
        cfg = _budget_config(env, weights, tau, cyc, t_floor, loss_term, near)
        if cfg is None:
            return math.inf
        fits.append((tau, cfg))
        return cfg.value

    def margin(tau: float) -> float:
        return env.comm_margin(tau - t_floor)

    # One march on the grid base + h 2**k.  Its first feasible point and the
    # point before it (base for the first) bracket the smallest feasible
    # budget tau_lo, which `_root` finds; from there the march goes on
    # until the value stops falling, and the minimum then lies within the
    # last three probes.  The grid depends only on n s / B and the compute
    # floor, not on the power caps or on tau_lo, so two scenarios that
    # differ only in constraints slack at the optimum (say a higher power
    # cap that never binds) probe identical budgets and return
    # bit-identical solutions.
    h = max(env.n * env.s / env.bw + 1e-9, 0.05 * max(base, 1e-12))
    points: list = []
    prev_x, prev_m = base, None
    for k in range(128):
        x = base + h * (2.0**k)
        if not points:
            m = margin(x)
            if not m <= 0.0:
                prev_x, prev_m = x, m
                continue
            _, tau_lo = _root(margin, prev_x, x, prev_m, m)
            points.append((tau_lo, evaluate(tau_lo)))
            if x == tau_lo:
                continue
        v = evaluate(x)
        prev_v = points[-1][1]
        points.append((x, v))
        if not v < prev_v - max(1e-12, 1e-9 * abs(prev_v)):
            break
    # Brent's method on that bracket, from its middle probe when there is one
    if len(points) >= 3:
        _brent_min(evaluate, points[-3][0], points[-1][0], *points[-2])
    elif points:
        _brent_min(evaluate, points[0][0], points[-1][0])
    if not fits:
        raise InfeasibleScenarioError(
            "no round-time budget satisfies the power and bandwidth limits"
        )
    # the first of the lowest values, as the search met them
    return min((cfg for _, cfg in fits), key=lambda cfg: cfg.value)


def _sweep_core(env: _Env, weights: Weights, resolution_px, cpu_hz, t_com):
    """One Gauss-Seidel pass of exact per-device resolution moves at fixed
    communication.

    Devices are visited in position order.  Each scans its menu: a
    candidate's CPU frequency fills the current round time tau exactly
    (clipped to the device's range), and the candidate scores its energy,
    the round time max(others, its own total) and its accuracy loss, where
    ``others`` is the largest total of the other devices.  The rest of the
    objective is the same for every candidate, so the best one lowers the
    true objective of the resulting state the most, ties going to the
    smaller resolution; every applied move is non-increasing.

    The pass runs in segments, each scoring every remaining device's whole
    menu on the padded table `_Env` holds, at the tau and ``others`` the
    segment starts with.  A device's choice depends only on those two, and
    tau is the larger of ``others`` and the device's own starting total.  So
    the segment commits each device up to the first whose ``others``, with
    the totals chosen before it, differs from the one assumed; that device
    starts the next segment.  A commit that changes tau changes the next
    device's ``others``, so it also ends the segment.  The first device of a
    segment always commits, so a pass ends within n segments.
    """
    dev = env.dev
    w1g = weights.w1 * env.rounds
    w2g = weights.w2 * env.rounds
    r_out = np.asarray(resolution_px, dtype=int).copy()
    f_out = np.asarray(cpu_hz, dtype=float).copy()
    t_tot = env.round_cycles(r_out) / f_out + t_com
    s = 0
    while s < env.n:
        lane = np.arange(env.n - s)
        head = float(t_tot[:s].max(initial=-math.inf))
        start = t_tot[s:]
        tau = max(head, float(start.max()))
        # the largest total after each device, and before it, as they start
        after = np.append(np.maximum.accumulate(start[:0:-1])[::-1], -math.inf)
        others = np.maximum(np.maximum.accumulate(np.append(head, start[:-1])), after)

        cyc = env.menu_cycles[s:]
        tc = t_com[s:, None]
        f_c = np.clip(cyc / (tau - tc), dev.f_min[s:, None], dev.f_max[s:, None])
        total = tc + cyc / f_c
        score = (
            w1g * cmos_energy(dev.kappa[s:, None], cyc, f_c)
            + w2g * np.maximum(others[:, None], total)
            + weights.w3 * env.menu_loss[s:]
        )
        k = np.argmin(score, axis=1)
        chosen = total[lane, k]
        actual = np.maximum(np.maximum.accumulate(np.append(head, chosen[:-1])), after)
        moved = np.flatnonzero(actual != others)
        m = int(moved[0]) if moved.size else lane.size
        r_out[s:s + m] = env.menu[s:s + m][lane[:m], k[:m]]
        f_out[s:s + m] = f_c[lane[:m], k[:m]]
        t_tot[s:s + m] = chosen[:m]
        s += m
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
        r_new, f_new = _sweep_core(env, weights, r, cfg.cpu, cfg.comm_time)
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
    p, b, *_ = sol
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
    full objective, ties going to the smaller resolution.  The menus of all
    devices not yet visited are scored in one array pass and committed in
    that order, with the results of visiting one device at a time.  The
    returned resolutions never increase the objective.
    """
    env = _Env(scenario)
    if allocation.pairing is not None:
        env.use_pairing(allocation.pairing)
    metrics = system_metrics(scenario, allocation)
    r_new, _ = _sweep_core(
        env, weights, allocation.resolution_px, allocation.cpu_hz, metrics.comm_time_s
    )
    return r_new
