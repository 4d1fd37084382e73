"""Joint allocation of transmit power, bandwidth, CPU frequency and frame
resolution for synchronous federated rounds.

The solver fits the continuous variables to a candidate round-time
budget tau, each fit returning its energy and the exact slope in tau,
from which the weights give the value V and dV/dtau, and locates tau by
a doubling march and a root search on that slope.  For FDMA that search
runs in log-log coordinates anchored at the smallest feasible budget
tau_lo, on ln(-dE/dtau) over ln(tau - tau_lo), where the power law the
slope follows near tau_lo is close to a line; NOMA's search stays on tau
until its fit is convex.  FDMA fits every device's bandwidth and upload
deadline at once, by one search on the bandwidth price in which each
device's optimum is one lane of a vectorised Newton search (`_FdmaFit`),
with no special function in it; its p_max floors and p_min kinks solve
(2**u - 1) / u = k by a monotone Newton search of their own
(`_u_from_k`), so the module needs numpy alone.  NOMA splits each
device's time between compute and upload on a fixed link, each device
one lane of the same Newton search on a convex 1-D problem
(`_time_split`), then meets those deadlines by a per-channel power fixed
point.  CPU frequencies follow by deadline inversion.  Every fit of one
tau search but its first starts its searches from the fit nearest in tau
that the search has already made, NOMA's deadlines moved along their
slopes to the new budget.  The march's fits carry no weight, so a solver
context keeps them, and a later search on the same resolutions, under
any weights, takes them up; the root search's fits are never kept past
it.  Frame resolutions then improve through exact per-device coordinate
moves, and the outer loop repeats until the sweep returns resolutions it
has already solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .accounting import (
    Allocation,
    Scenario,
    SystemMetrics,
    Weights,
    objective,
    read_only,
    system_metrics,
)
from .channel import ChannelPairing, power_for_rate, shannon_rate
from .compute import cmos_energy, detection_accuracy, round_cycles
from .scenario import ScenarioValidationError

_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
# the longest last step of a lane of `_lane_newton`, in the log of its
# variable: of every time-split lane, and of an FDMA lane once the price
# search nears its root
_LANE_TOL = 1e-9
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
    """Solver context: the scenario's stored device table, its shared knobs,
    the NOMA pairing in use and the weight-free round-time marches its
    solves have made (`_March`).  Raises :class:`ScenarioValidationError` for
    an invalid scenario."""

    def __init__(self, scenario: Scenario):
        errors = scenario.validate()
        if errors:
            raise ScenarioValidationError(errors)
        self.scenario = scenario
        # the march of each resolution set a round-time search has run on,
        # which a later search on them takes up (`_continuous_solve`); it
        # lives as long as this context, one solve or one run_grid group
        self.marches: dict = {}
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

    @cached_property
    def fdma_edges(self):
        """Each FDMA device's N0 / g and the parameters of its two power
        edges (`_FdmaFit`), rows p_max and p_min: the power, the power that
        stays below the f_min bound, pb and bk with b = pb / (2**u - 1) and d
        = bk (2**u - 1) / u, the efficiency u where b = B and its log; and
        the p_max upload time over the whole band."""
        dev = self.dev
        cg = self.noise / dev.gain
        power = np.array([dev.p_max, dev.p_min])
        low = np.array([np.zeros(self.n), dev.p_min])
        pb = power / cg
        with np.errstate(divide="ignore"):
            bk = cg * self.s / power
            u_band = np.log1p(pb / self.bw) / _LN2
            z_band = np.log(u_band)
        return (cg, power, low, pb, bk, u_band, z_band,
                bk[0] * np.expm1(u_band[0] * _LN2) / u_band[0])

    def use_pairing(self, pairing: ChannelPairing) -> None:
        self.strong, self.weak = self.dev.pair_positions(pairing)
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


def _root(f, lo: float, hi: float, f_lo=None, f_hi=None, resolution=None, enough=None):
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
    zero at a probe or when the bracket is no wider than its resolution:
    ``resolution(x)`` of its larger end x, where given, and at least one
    float spacing there; every probe keeps that resolution from both ends,
    so each step shrinks the bracket.  ``enough(lo, hi)``, where given,
    ends it sooner, once it holds on the bracket.  Returns the final ``(lo, hi)``: f(lo) > 0 >
    f(hi), or lo == hi at a zero or a settled end.
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
        if resolution is not None:
            spacing = max(spacing, resolution(max(a, b)))
        if fa == 0.0 or not width > spacing or (
                enough is not None and enough(*((b, a) if fa < 0.0 else (a, b)))):
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


def _u_from_k(k: np.ndarray) -> np.ndarray:
    """Solve (2**u - 1) / u = k for u > 0; k must exceed ln 2.

    With a = k / ln2 and v = u ln2 this is e**v = 1 + a v, the positive root
    of g(v) = v - log1p(a v), which is convex with g(0) = 0 and g'(0) = 1 -
    a < 0, so negative below the root and positive above it.  2 ln a lies
    above the root, as a**2 >= 1 + 2 a ln a for a >= 1, and so does its
    image under the increasing map v -> log1p(a v), which lies nearer.  From
    there Newton's method falls monotonically onto the root, its relative
    error at most about squaring at each step (v g'' / 2 g' < 1 at the
    root), so the search ends once no lane steps by more than 1e-8 of its
    start, with under 2e-16 of v left: 3 or 4 steps.  Near a = 1 the root is
    ill-conditioned (g' = 1 - a e**-v falls to 0 there), so below eps = a -
    1 = 1e-2 v comes from `_U_SERIES`, the series inverse of (e**v - 1)/v =
    1 + eps through eps**7, and those lanes' Newton runs at eps = 1e-2.
    """
    a = k / _LN2
    branch = float(a.min()) - 1.0 < 1e-2
    if branch:
        eps = np.minimum(a - 1.0, 1e-2)     # past the switch the series could overflow
        a = np.maximum(a, 1.0 + 1e-2)
    v = np.log1p(np.log(a) * (2.0 * a))
    tol = 1e-8 * v
    while True:
        av = a * v
        step = (v - np.log1p(av)) / (1.0 - a / (av + 1.0))
        v -= step
        if not (step > tol).any():
            break
    if branch:
        v = np.where(eps < 1e-2, np.polyval(_U_SERIES, eps), v)
    return v / _LN2


def _fdma_floors(env: _Env, deadlines):
    """Per-device bandwidth floors at full power, the margin by which they
    overrun B and their spectral efficiency s / (b d), as ``(margin,
    b_floor, u_floor)``.

    A device transmitting at p_max with bandwidth below its floor cannot
    meet its deadline, so a split is feasible iff the margin is <= 0.  A
    deadline no bandwidth can meet gives margin +inf and no floors.
    """
    rho = env.s / deadlines
    k_max = env.dev.gain * env.dev.p_max / (env.noise * rho)
    if np.any(k_max <= _LN2 * (1.0 + 1e-12)):
        return math.inf, None, None
    u = _u_from_k(k_max)
    b_floor = rho / u
    return float(b_floor.sum()) - env.bw, b_floor, u


@dataclass
class _FdmaLanes:
    """Where an FDMA fit's price search ended, for a nearby fit to start
    from: the budget, the log-price and each device's free and edge lane
    ends."""

    tau: float
    log_price: float
    z: np.ndarray


def _lane_newton(f, z, lo, hi, args, tol):
    """Roots of many falling functions at once, by one Newton search whose
    lanes are the functions.

    ``f(z, *args)`` returns, for each lane, its value r, positive below the
    root, its slope dr/dz and the derivative of r in the parameter whose
    slope the caller wants, such as the log-price ln lambda of an FDMA fit.
    Lane i searches [lo[i], hi[i]] from z[i]; a root outside settles at the
    nearer end.  Every lane takes the Newton step z - r / r', clamped into
    its bracket, and the search ends once no lane steps further than
    ``tol``, on the points those steps reach.  While every moving lane's
    Newton step, before the clamp, shrinks by a tenth or more at each probe
    the steps converge; once one does not, the lanes still moving go on by
    `_bracketed_newton`, from the points just evaluated, whose safeguards
    end it without a step cap.  Returns the end points and the slope of
    each in that parameter, as dz / d ln lambda = -(dr/d ln lambda) / r',
    at each lane's last probe.
    """
    z = np.fmin(np.fmax(z, lo), hi)
    last = math.inf
    while True:
        r, dr, dlam = f(z, *args)
        step = r / dr
        z_next = np.fmin(np.fmax(z - step, lo), hi)
        size = np.abs(z_next - z)
        moving = size > tol
        if not moving.any():
            dz = -dlam / dr
            dz[~np.isfinite(dz)] = 0.0
            return z_next, dz
        step = np.abs(step)
        if not np.all(step[moving] <= 0.9 * (last if np.ndim(last) == 0 else last[moving])):
            break
        last, z = step, z_next
    k = np.flatnonzero(moving)
    dz = -dlam / dr
    dz[~np.isfinite(dz)] = 0.0
    z_next[k], dz[k] = _bracketed_newton(f, z[k], lo[k], hi[k], tuple(a[k] for a in args),
                                         tol, (r[k], dr[k], dlam[k]))
    return z_next, dz


def _bracketed_newton(f, z, lo, hi, args, tol, at_z):
    """`_lane_newton`'s safeguarded search, from points ``z`` whose
    evaluation ``at_z`` = f(z, *args) the caller has made.  Each later
    probe lies one spacing of its ends inside the bracket, which the signs
    of r shrink.  A step goes to z - r / r' where the last probe halved the
    bracket or the step is at most half as long as the last one; otherwise
    to the midpoint.  Every probe lies strictly inside the bracket, so each
    shrinks it, and either the bracket halves at least every other step or
    the steps shrink geometrically: the search ends without a step cap.  A
    lane ends on the point its first step of at most ``tol`` reaches,
    clamped into its bracket, or once the bracket is no wider than one
    spacing on its end beyond the last probe, so that a root outside the
    bracket settles on its end.  Finished lanes leave the search."""
    z_end = np.empty(z.size)
    dz = np.empty(z.size)
    k = np.arange(z.size)
    spacing = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    width_1 = step_1 = np.full(z.size, np.inf)       # one step back
    r, dr, dlam = at_z
    while True:
        step = r / dr
        size = np.abs(step)
        above = r < 0.0
        lo = np.where(above, lo, z)
        hi = np.where(above, z, hi)
        width = hi - lo
        take = (width <= 0.5 * width_1) | (size <= 0.5 * step_1)
        z_next = np.where(take, z - step, 0.5 * (lo + hi))
        z_next = np.minimum(np.maximum(z_next, lo + spacing), hi - spacing)
        width_1, step_1 = width, np.abs(z_next - z)
        converged = size <= tol
        done = converged | (width <= spacing)
        if np.count_nonzero(done):
            i = k[done]
            z_end[i] = np.where(converged, np.minimum(np.maximum(z - step, lo), hi),
                                np.where(above, lo, hi))[done]
            dz[i] = -dlam[done] / dr[done]
            go = ~done
            k, z_next, lo, hi, spacing, width_1, step_1 = (
                v[go] for v in (k, z_next, lo, hi, spacing, width_1, step_1))
            args = tuple(a[go] for a in args)
        if not k.size:
            break
        z = z_next
        r, dr, dlam = f(z, *args)
    dz[~np.isfinite(dz)] = 0.0
    return z_end, dz


class _FdmaFit:
    """The FDMA devices' own optima at a bandwidth price lambda, for one
    budget tau: each device's bandwidth b and upload deadline d minimise its
    upload plus compute energy plus lambda b.

    With u = s / (b d) the upload energy is (N0 s / g) (2**u - 1) / u, and
    stationarity in b gives d(u) = lambda g / (N0 m(u)), m(u) = (u ln2 - 1)
    2**u + 1.  Along d(u), H(u) = C(d) - lambda s / (u d**2), with C(d) = 2
    kappa c**3 / (tau - d)**3, is the derivative in d of the energy already
    minimised over b, which is convex in d; d(u) falls in u, so H falls in u
    and its root is the optimum.  There is no special function in it.

    Each probe solves every device free, as one lane search of
    `_lane_newton` on ln H in ln u, with d clipped to [d_lo, d_hi] (the
    f_min and f_max bounds): a clipped lane solves d(u) = d_lo or d_hi,
    the clip of ln H between ln(d(u) / d_hi) and ln(d(u) / d_lo), all
    falling in u.  Where that optimum needs power within [p_min, p_max] it
    is the device's; where it needs more than p_max, or less than p_min, the
    problem being convex, the optimum lies on that power's edge, and a
    second lane search solves those devices there (`_edge`).  Along the
    edge of power P, d = (N0 s / (g P)) (2**u - 1) / u and b = g P / (N0
    (2**u - 1)), and the derivative in d, G = P + C(d) - lambda (-db/dd),
    rises in u.  d ends at d_hi, the p_max floor or the p_min kink, and b at
    B; on the p_max edge d also ends at the f_min bound, and on the p_min
    edge, where d is the upload time, the compute term leaves G below it.
    Above v_top a device sits at its corner, the p_max floor at d_hi.  When
    every device sat on an edge at the last probe, the probe solves the
    edges alone, and keeps them where each edge's multiplier, lambda g /
    (N0 m(u)) - d, negated on the p_min edge, is not negative: the free
    optimum then lies beyond the edge.

    ``d_c`` holds the f_min bound tau - c / f_min (at least 0), ``kc`` 2
    kappa c**3 and ``d_hi`` tau - c / f_max; d_lo is the later of the f_min
    bound and the p_max upload time over the whole band.  With d_c = d_hi,
    kc = 0 and tau = inf every deadline is pinned: a comm solve.  A lane
    starts from its end at the last probe, moved along its slope to the new
    price, or in a fit's first probe from its end in ``near``, a nearby
    fit's `_FdmaLanes`, else from the middle of its bracket.
    """

    def __init__(self, env: _Env, tau: float, d_c, d_hi, kc, margin, b_floor, u_floor,
                 near=None):
        dev = env.dev
        s, g, n = env.s, dev.gain, env.n
        self.env, self.tau, self.d_hi, self.kc = env, tau, d_hi, kc
        (self.cg, self.edge_power, self.edge_low, self.pb, self.bk, u_band, self.z_band,
         d_band) = env.fdma_edges
        # the efficiency where each edge meets d_hi: the floor, and the p_min
        # kink below
        self.z_top = np.empty((2, n))
        self.z_top[0], self.z_top[1] = np.log(u_floor), np.inf
        self.d_c = d_c
        self.d_lo = np.minimum(np.maximum(d_c, d_band), d_hi)
        self.clip_gap = np.log(d_hi / self.d_lo)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            m_f = _comm_marginal(1.0, u_floor)[0]
            # v1 at the floor: above it every deadline needs more than p_max
            self.v_floor = self.cg * d_hi * m_f
            # the price above which p_max + C(d_hi) no longer pays for a
            # shorter deadline along the edge; m 2**-u is u ln2 - 1 once 2**u
            # overflows
            m_2u = np.where(u_floor < 1000.0, m_f * np.exp2(-u_floor), u_floor * _LN2 - 1.0)
            v_corner = (dev.p_max + kc / (tau - d_hi) ** 3) * d_hi * m_2u / (
                b_floor * u_floor * _LN2)
            # at and above this price a device sits at its corner
            self.v_top = np.minimum(np.maximum(self.v_floor, v_corner), 1e300)
            top = np.minimum(self.cg * d_hi * _comm_marginal(1.0, s / (env.bw * d_hi))[0],
                             1e300)

        # devices that can pin at p_min below B: the p_min kink at d_hi
        k_min = g * dev.p_min * d_hi / (env.noise * s)
        pin = np.flatnonzero(k_min > _LN2 * (1.0 + 1e-9))
        if pin.size:
            z_kink = np.minimum(np.log(_u_from_k(k_min[pin])), self.z_top[0, pin])
            pin, z_kink = pin[z_kink > self.z_band[1, pin]], z_kink[z_kink > self.z_band[1, pin]]
            self.z_top[1, pin] = z_kink
            # demand is at least B below the p_min edge's marginal at B too
            u = u_band[1, pin]
            em1 = np.expm1(u * _LN2)
            m = _comm_marginal(1.0, u)[0]
            top[pin] = np.minimum(top[pin], dev.p_min[pin] * self.bk[1, pin] * m / (
                self.pb[1, pin] * u * u * _LN2 * (em1 + 1.0)) * em1 * em1)
        self.pinnable = np.zeros(n, dtype=bool)
        self.pinnable[pin] = True
        self.lam_lo = max(float(top.max()), np.finfo(float).tiny)
        self.lam_hi = float(self.v_top.max())
        self.total_hi = env.bw + margin

        self.cold = near is None
        self.edges = None       # the regimes of the last probe, if all on edges
        # each device's demand row at its corner
        self.corners = np.zeros((4, n))
        self.corners[0], self.corners[1] = b_floor, d_hi
        # the free and edge lane ends, and their slopes in ln lambda
        self.z = np.full((2, n), np.nan) if near is None else near.z.copy()
        self.dz = np.zeros((2, n))
        self.log_lam = math.nan if near is None else near.log_price

    def _free(self, z, lam_c, d_hi, clip_gap, kc):
        """The free regime's lanes at z = ln u, with lam_c = lambda g / N0."""
        u = np.exp(z)
        m, dm = _comm_marginal(1.0, u)
        q = dm / m
        d = lam_c / m
        gap = self.tau - d
        t3 = 3.0 * d / gap
        h = np.log(kc / gap**3 * u * d * d / (self.lam * self.env.s))
        h[gap <= 0.0] = np.inf
        a = np.log(d / d_hi)
        inner = (h > a) & (h < a + clip_gap)
        r = np.minimum(np.maximum(h, a), a + clip_gap)
        return r, np.where(inner, 1.0 - q * (2.0 + t3), -q), np.where(inner, 1.0 + t3, 1.0)

    def _edge(self, z, bk, pb, power, low, d_hi, d_c, kc):
        """The edge lanes at z = ln u, negated to fall in u.

        With D the log of everything in G's second term but lambda, g1 =
        ln(P + C(d)) - D and g0 = ln(low) - D (-inf on the p_max edge) are
        ln G's two pieces, with and without the compute term, and ell =
        ln(d / d_c) switches between them; max(clip(ell, g0, g1), ln(d /
        d_hi)), all rising in u, ends d at d_hi."""
        u = np.exp(z)
        ul = u * _LN2
        em1 = np.expm1(ul)
        m, dm = _comm_marginal(1.0, u)
        d = bk * em1 / u
        gap = self.tau - d
        c_d = kc / gap**3
        mr = m / em1                                # d ln d / d ln u
        base = np.log(d * m * em1 / (self.lam * pb * ul * (em1 + 1.0)))
        d_base = mr + dm / m + ul * (em1 + 1.0) / em1 - 1.0 - ul
        g0 = np.log(low) + base
        g1 = np.log(power + c_d) + base
        ell = np.log(d / d_c)
        e = np.log(d / d_hi)
        inner = np.minimum(np.maximum(ell, g0), g1)
        on_g = (ell <= g0) | (ell >= g1)
        slope = np.where(ell <= g0, d_base, d_base + c_d / (power + c_d) * 3.0 * d / gap * mr)
        top = e >= inner
        on_g &= ~top
        return (-np.maximum(inner, e), -np.where(on_g, slope, mr), np.where(on_g, 1.0, 0.0))

    def _solve_free(self, shift, out, tol):
        """Every device's optimum in the free regime: writes ``out`` and
        returns the regime each one's optimum names."""
        lam_c = self.lam / self.cg
        z_hi = self.z_top[0]
        # m(u) <= (u ln2)**2 for u ln2 <= 1, so d(u) >= d_hi below this
        z_lo = np.minimum(np.log(np.minimum(np.sqrt(lam_c / self.d_hi), 1.0) / _LN2), z_hi)
        z = self.z[0]
        if self.cold:
            z = np.where(np.isnan(z), 0.5 * (z_lo + z_hi), z)
        z, dz = _lane_newton(self._free, z + self.dz[0] * shift, z_lo, z_hi,
                             (lam_c, self.d_hi, self.clip_gap, self.kc), tol)
        self.z[0], self.dz[0] = z, dz
        u = np.exp(z)
        m, dm = _comm_marginal(1.0, u)
        out[1] = d = lam_c / m
        out[0] = b = self.env.s / (u * d)
        g_b = dm / m - 1.0                          # d ln b / d ln u
        out[2] = b * (g_b * dz - 1.0)
        out[3] = b * g_b * (1.0 + np.abs(z))
        p_req = self.cg * b * np.expm1(u * _LN2)
        to = (p_req > self.env.dev.p_max).astype(np.int8)
        if self.pinnable.any():
            to[(p_req < self.env.dev.p_min) & self.pinnable] = 2
        return to

    def _solve_edge(self, lanes, row, shift, out, tol):
        """The optima of devices ``lanes`` on their edges, rows ``row`` of
        the edge parameters: writes their columns of ``out`` and returns
        whether each one's free optimum lies beyond its edge."""
        args = (self.bk[row, lanes], self.pb[row, lanes], self.edge_power[row, lanes],
                self.edge_low[row, lanes], self.d_hi[lanes], self.d_c[lanes], self.kc[lanes])
        z_lo, z_hi = self.z_band[row, lanes], self.z_top[row, lanes]
        z = self.z[1, lanes]
        if self.cold:
            z = np.where(np.isnan(z), 0.5 * (z_lo + z_hi), z)
        z, dz = _lane_newton(self._edge, z + self.dz[1, lanes] * shift, z_lo, z_hi, args,
                             tol)
        self.z[1, lanes], self.dz[1, lanes] = z, dz
        u = np.exp(z)
        em1 = np.expm1(u * _LN2)
        b = args[1] / em1
        g_b = u * _LN2 * (em1 + 1.0) / em1          # -d ln b / d ln u
        d = args[0] * em1 / u
        out[:, lanes] = b, d, -b * g_b * dz, b * g_b * (1.0 + np.abs(z))
        # whether the free optimum lies beyond the edge: the edge's
        # multiplier, lambda g / (N0 m(u)) - d on the p_max edge and its
        # negation on the p_min edge, is not negative
        m, _ = _comm_marginal(1.0, u)
        return (self.lam / m - self.cg[lanes] * d) * (1 - 2 * row) >= 0.0

    def demand(self, t: float, tol=_LANE_TOL):
        """Each device's optimum at price e**t, its lanes ending on steps of
        at most ``tol``, as ``(b, d, slope, stair, regime)``: bandwidth,
        capped at B, deadline, db / dt, the demand that one rounding of ln u
        moves, and the regime, 1 and 2 on the p_max and p_min edges.  Float
        warnings are the caller's to silence."""
        env = self.env
        self.lam = math.exp(t)
        shift = t - self.log_lam if math.isfinite(self.log_lam) else 0.0
        self.log_lam = t
        out = np.empty((4, env.n))
        # above v_floor every deadline needs more than p_max in the free
        # regime, and above v_top a device sits at its corner
        floored = self.lam >= self.v_floor
        corner = self.lam >= self.v_top
        lanes = np.flatnonzero(~corner)
        if self.edges is not None:
            # every device sat on an edge at the last probe: where each
            # edge's multiplier still holds, its optimum lies there
            regime = self.edges.copy()
            regime[floored] = 1
            if self._solve_edge(lanes, regime[lanes] - 1, shift, out, tol).all():
                out[:, corner] = self.corners[:, corner]
                b, d, slope, stair = out
                return np.minimum(b, env.bw), d, slope, stair, regime
        regime = self._solve_free(shift, out, tol)
        regime[floored] = 1
        lanes = np.flatnonzero((regime > 0) & ~corner)
        if lanes.size:
            self._solve_edge(lanes, regime[lanes] - 1, shift, out, tol)
        out[:, corner] = self.corners[:, corner]
        self.edges = regime if regime.all() else None
        b, d, slope, stair = out
        return np.minimum(b, env.bw), d, slope, stair, regime


def _fdma_solve(env: _Env, tau: float, d_c, d_hi, kc, near=None):
    """Minimum-energy FDMA bandwidths, powers and deadlines for budget tau,
    each deadline in [d_c, d_hi] (`_FdmaFit`) and the bands sharing B.

    Every device's optimum at one bandwidth price lambda (`_FdmaFit.demand`)
    solves the whole problem once its demands fill B; leftover bandwidth is
    then spread proportionally, which can only reduce energy further.  The
    price comes from a safeguarded Newton search on t = ln lambda for
    ln(demand / B), with the slope of every lane's root from the implicit
    function theorem.  The bracket's ends need no probe: demand is at least
    B at the bottom, and at the top every device sits at its corner, whose
    floors fill B up to the margin.  The search starts on the log-price of
    ``near``; with none, one spacing inside the end nearer the root: the top
    where the floors fill B within 1e-3, as at the smallest feasible budget,
    else the bottom.  It takes the Newton step, bent by the curvature of ln
    S from the last two probes' slopes where that moves it by less than
    half, where the step lands inside the bracket and the bracket halved
    over the last two probes, or the step is at most half the last, or the
    probe is near the root; else the secant through the ends where the
    Newton step left the bracket and the bracket halved over the last two
    probes; else the midpoint.  Every probe keeps one spacing of t from
    both ends.  A probe's grain is the demand that one spacing of t moves
    plus its stair, the demand that 4 roundings of each lane's ln u move;
    the probe is the root once its demand lies within 16 float spacings of
    B above, or within those and two grains below, and the Newton step aims
    at the middle of that window; "near" means within four half-windows.
    The search ends on the last probe or corners on the high side once their
    demand lies in the window or the bracket closes, at the smallest
    feasible budget without a probe.  A fit 1e-3 or more from ``near``'s
    budget, or with none, probes with lanes that end on steps of 1e-4 until
    a probe lands within 10 % of B; a loose probe within 1e-6 of B is made
    again with tight lanes before it counts.

    Returns ``(power, bandwidth, comm_time, comm_energy, slope, lanes)``,
    with the energy's slope in tau (`_fdma_slope`) and the `_FdmaLanes`
    where the search ended, or None when the deadlines d_hi cannot be met.
    """
    margin, b_floor, u_floor = _fdma_floors(env, d_hi)
    if margin > 0.0:
        return None
    fit = _FdmaFit(env, tau, d_c, d_hi, kc, margin, b_floor, u_floor, near)
    # with no nearby fit, start one spacing inside the end nearer the root:
    # the top when the floors fill B within 1e-3, as near the smallest
    # feasible budget, else the bottom
    start = near.log_price if near is not None else (
        math.inf if -margin < 1e-3 * env.bw else -math.inf)

    tol = 16.0 * np.spacing(env.bw)
    lo, hi = math.log(fit.lam_lo), math.log(fit.lam_hi)
    spacing = math.ulp(max(abs(lo), abs(hi)))
    # demand at the ends: at least B at lo, and the floors at hi
    total_lo, total_hi = math.inf, fit.total_hi
    split_hi = (b_floor, d_hi, np.ones(env.n, dtype=np.int8))
    t, target, half = start, env.bw, tol
    width_2 = width_1 = step_1 = math.inf     # widths two and one probes back
    t_1 = slope_1 = math.nan                  # the last probe's t and d ln S / dt
    # a fit far from its start probes first with loose lanes
    lane_tol = _LANE_TOL if near is not None and abs(tau - near.tau) < 1e-3 * tau else 1e-4
    # the lanes' float exceptions are handled where they arise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while hi - lo > spacing and abs(total_hi - target) > half:
            t = min(max(t, lo + spacing), hi - spacing)
            b, d, slope, stair, regime = fit.demand(t, lane_tol)
            total, fall = float(b.sum()), -float(slope.sum())
            if lane_tol > _LANE_TOL and abs(total - env.bw) < 1e-6 * env.bw:
                # too close to the root for the loose lanes' demand to tell
                # which side of it the probe lies on
                lane_tol = _LANE_TOL
                b, d, slope, stair, regime = fit.demand(t, lane_tol)
                total, fall = float(b.sum()), -float(slope.sum())
            grain = fall * spacing + 4.0 * _EPS * float(stair.sum())
            target, half = env.bw - grain, tol + grain
            miss = abs(total - target)
            if miss <= half:
                break
            if miss < 0.1 * env.bw:
                lane_tol = _LANE_TOL
            if total > env.bw:
                lo, total_lo = t, total
            else:
                hi, total_hi, split_hi = t, total, (b, d, regime)
            width = hi - lo
            phi, phi_1 = math.log(total / target), -fall / total
            newton = lo
            if fall:
                # Newton on ln S, bent by its curvature from the last two
                # slopes where that changes the step by less than half
                bend = 0.0 if t == t_1 else (
                    (phi_1 - slope_1) / (t - t_1) * phi / (2.0 * phi_1 * phi_1))
                newton = t - phi / phi_1 * (1.0 + (bend if abs(bend) <= 0.5 else 0.0))
            t_1, slope_1 = t, phi_1
            step = abs(newton - t)
            take = lo < newton < hi and (
                width <= 0.5 * width_2 or step <= 0.5 * step_1 or miss <= 4.0 * half
            )
            if not lo < newton < hi and total_lo < math.inf:
                # the secant through the ends, which lies inside, where the
                # bracket halved over the last two probes
                newton = lo + (hi - lo) * (total_lo - target) / (total_lo - total_hi)
                take = width <= 0.5 * width_2
            t_next = newton if take else 0.5 * (lo + hi)
            step_1, width_2, width_1 = abs(t_next - t), width_1, width
            t = t_next
        else:
            t, (b, d, regime) = hi, split_hi
    # spread the leftover in proportion to b, but trim an excess only from
    # the room devices off their p_max floor have above the floor at d_hi
    total = float(b.sum())
    room = np.where(regime == 1, 0.0, b - b_floor) if total > env.bw else b
    if room.any():
        b = b + (env.bw - total) * (room / float(room.sum()))

    # a device on an edge transmits at its power
    dev = env.dev
    p = np.clip(power_for_rate(b, env.s / d, env.noise * b, dev.gain), dev.p_min, dev.p_max)
    p[regime == 1] = dev.p_max[regime == 1]
    p[regime == 2] = dev.p_min[regime == 2]
    t_com = env.s / shannon_rate(b, dev.gain * p / (env.noise * b))
    slope = _fdma_slope(env, math.exp(t), p, b, d, regime)
    return p, b, t_com, p * t_com, slope, _FdmaLanes(tau, t, fit.z)


def _fdma_slope(env: _Env, lam: float, p, b, d, regime) -> float:
    """dE/dtau of the fitted energy E at price ``lam``, by the envelope
    theorem (Milgrom and Segal 2002).

    Measured in the compute time tau - d, each device's bounds do not move
    with tau and its upload deadline d moves one to one.  A free device's
    upload energy depends on b d alone, so its marginal in d is b / d times
    the one in b, -lambda; one on a power edge P spends P more per second
    and frees -db/dd = (P g / N0)**2 ln2 2**u u**2 / (s (2**u - 1)**2 m(u))
    of band, u = s / (b d).
    """
    saved = lam * b / d         # -dE/dtau, device by device
    edge = regime > 0
    if edge.any():
        u = env.s / (b[edge] * d[edge])
        pb = p[edge] / env.fdma_edges[0][edge]
        with np.errstate(over="ignore"):
            em1 = np.expm1(u * _LN2)
            freed = pb * pb / env.s * _LN2 * u * u * (1.0 + 1.0 / em1) / (
                em1 * _comm_marginal(1.0, u)[0])
        saved[edge] = lam * freed - p[edge]
    return -float(saved.sum())


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
class _NomaLanes:
    """Where a NOMA fit's time splits ended, for a nearby fit to start
    from: the budget, the deadlines and their slopes in tau."""

    tau: float
    deadlines: np.ndarray
    slopes: np.ndarray

    def start(self, tau: float) -> np.ndarray:
        """The deadlines moved along their slopes to budget ``tau``."""
        return self.deadlines + self.slopes * (tau - self.tau)


@dataclass
class _Budget:
    """Continuous variables fitted to one round-time budget tau, with no
    weight in them: the round's energy E over all devices, compute plus
    upload, its slope dE/dtau, and where the scheme's searches ended
    (`_FdmaLanes`, `_NomaLanes`), from which a nearby fit starts its own."""

    tau: float
    energy: float
    slope: float
    power: np.ndarray
    bandwidth: np.ndarray | None
    cpu: np.ndarray
    comm_time: np.ndarray
    comm_energy: np.ndarray
    lanes: _FdmaLanes | _NomaLanes


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
                start=None, slopes=(0.0, 0.0, 0.0)):
    """Upload deadlines of the devices at ``idx`` that minimise each one's
    compute plus upload energy within budget tau, on a fixed link, and
    their slopes in tau, as ``(d, dd)``.

    The devices upload on ``bw`` hertz against ``denom`` watts of noise plus
    interference.  ``price`` charges that many joules per watt of upload
    power, and ``floor`` is a lowest deadline; ``slopes`` holds the slopes
    of denom, price and floor in tau.  Each device's bracket [lo,
    hi] starts at the latest of the upload time at p_max, the deadline that
    leaves f_min the rest of tau and the floor; it ends where f_max fills
    the rest of tau and, where p_min > 0, at the upload time at p_min (no
    slower upload exists), but not below its start.

    Compute and upload energy are both convex in the deadline d, so with M
    the upload marginal -dE/dd, price included, phi(d) = ln(2 kappa cyc^3 /
    ((tau - d)^3 M(d))) rises with d, and its root is the minimiser.  Each
    device is one lane of `_lane_newton` on -phi in ln d, over [ln lo+, ln
    hi], where lo+ lies half a spacing of hi above lo, or one of its own
    where that rounds to lo: where the root lies at or below lo, the
    deadline keeps a rounding's room above the p_max upload time for the
    comm solve.  A lane starts at the log of its deadline in ``start``, the
    split of the nearest fit of the same round-time search, or without it
    at the middle of its bracket.  A lane ending on ln hi ends on hi, one
    ending on ln lo+ on lo+ and any other on its root, e**z clipped to [lo+,
    hi].  An empty bracket ends at hi.

    A lane that ends on its root moves with tau as the implicit function
    theorem on phi gives; one that ends on a bound moves with that bound:
    one to one on the f_max and f_min bounds, with denom on the upload
    times at p_max and p_min, and with the floor on it.  Where bounds meet,
    each end takes the slope to the right of tau, of the bound that a
    larger tau makes the end.
    """
    dev = env.dev
    g = dev.gain[idx]
    d_denom, d_price, d_floor = slopes
    moving = isinstance(d_denom, np.ndarray)
    rel_denom = d_denom / denom if moving else 0.0     # d ln denom / dtau

    def upload_time(power):
        """The upload time at ``power`` (inf at power 0) and its slope in tau."""
        snr = g * power / denom
        t = env.s / shannon_rate(bw, snr)
        if not moving:
            return t, 0.0
        slope = t * t * bw * snr / (env.s * (1.0 + snr) * _LN2) * rel_denom
        return t, np.where(t < np.inf, slope, 0.0)

    def later(bound, other):
        """The later of two bounds, each (value, slope in tau); the slope is
        that of the one a larger tau makes the later, judged a step h on,
        so that where they meet it is the slope to the right."""
        (v, dv), (w, dw) = bound, other
        return np.maximum(v, w), np.where(w + dw * h > v + dv * h, dw, dv)

    def earlier(bound, other):
        """The earlier of two bounds, as `later` picks the later."""
        (v, dv), (w, dw) = bound, other
        return np.minimum(v, w), np.where(w + dw * h < v + dv * h, dw, dv)

    def marginal(d, c, a, lead):
        """M, its slope dM in -ln d and the unpriced part of dM at d."""
        x = a / d
        m, dm = m_up, dm_up = _comm_marginal(c, x)
        if lead is not None:
            # -d dw/dd = w (x ln2 + 2) for the price term w
            w = lead * dm
            m, dm = m + w, dm + w * (x * _LN2 + 2.0)
        return m, dm, dm_up

    def neg_phi(z, c, a, two_k_cyc3, lead=None):
        """-phi at d = e**z and its slope in z, returned twice: the search
        needs the slope, and its own slope output goes unused."""
        d = np.exp(z)
        m, dm, _ = marginal(d, c, a, lead)
        t = tau - d
        slope = -(3.0 * d / t + dm / m)
        return -np.log(two_k_cyc3 / (t * t * t * m)), slope, slope

    # the float exceptions of lanes at p_min = 0 or past overflow are
    # handled where they arise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the bounds as (value, slope in tau): the latest lower one, and the
        # earlier of the f_max bound and the p_min upload time, where p_min >
        # 0 (no slower upload exists), but not below the lower one.  Bounds
        # that meet to rounding are told apart a step h on, which outruns
        # the rounding and stays clear of kinks further on
        h = 1e-12 * tau
        d_lo, s_lo = later((tau - cyc[idx] / dev.f_min[idx], 1.0), upload_time(dev.p_max[idx]))
        if floor is not None:
            d_lo, s_lo = later((d_lo, s_lo), (floor, d_floor))
        d_hi, s_hi = tau - cyc[idx] / dev.f_max[idx], np.ones(d_lo.shape)
        if np.any(dev.p_min[idx] > 0.0):
            d_hi, s_hi = earlier((d_hi, s_hi), later(upload_time(dev.p_min[idx]), (d_lo, s_lo)))

        c = np.broadcast_to(denom / g, d_hi.shape)
        a = np.broadcast_to(env.s / bw, d_hi.shape)
        two_k_cyc3 = 2.0 * dev.kappa[idx] * cyc[idx] ** 3
        # the price term of M, price * -dp/dd = price c 2**x ln2 x / d, is
        # lead dM with lead = price / (a ln2)
        lead = None if price is None else price / (a * _LN2)

        out = d_hi.copy()
        # where each lane ended: 0 on its root, 1 on d_hi, 2 on d_lo, 3 on a
        # bracket that is one point
        ends = np.full(out.shape, 3, dtype=np.int8)
        k = np.flatnonzero(d_lo < d_hi)
        hi = d_hi[k]
        lo = np.maximum(d_lo[k] + 0.5 * np.spacing(hi), np.nextafter(d_lo[k], np.inf))
        z_lo, z_hi = np.log(lo), np.log(hi)
        z = 0.5 * (z_lo + z_hi) if start is None else np.log(start[idx][k])
        args = (c[k], a[k], two_k_cyc3[k]) + (() if lead is None else (lead[k],))
        z, _ = _lane_newton(neg_phi, z, z_lo, z_hi, args, _LANE_TOL)
        # the ends told by z, as exp(log x) can miss x by a spacing
        out[k] = np.where(z == z_hi, hi,
                          np.where(z == z_lo, lo, np.fmin(np.fmax(np.exp(z), lo), hi)))
        ends[k] = np.where(z == z_hi, 1, np.where(z == z_lo, 2, 0))

        # the slopes: on a root, -(dphi/dtau) / (dphi/dd), with denom and
        # price moving; on a bound, that bound's; on a one-point bracket, as
        # where bounds meet at the smallest feasible tau, a larger tau opens
        # it, and the deadline goes with the end phi points to
        m, dm, dm_up = marginal(out, c, a, lead)
        t = tau - out
        lift = rel_denom if price is None else rel_denom + d_price / (a * _LN2) * dm_up / m
        root = out * (3.0 / t + lift) / (3.0 * out / t + dm / m)
        low = (ends == 2) | ((ends == 3) & (two_k_cyc3 > t * t * t * m)
                             & (d_lo + s_lo * h < d_hi + s_hi * h))
        slope = np.where(ends == 0, root, np.where(low, s_lo, s_hi))
    return out, slope


def _noma_split(env: _Env, tau: float, cyc, d, start=None):
    """NOMA upload deadlines for budget tau, the weak users' split, then the
    strong users' against the weak power it leaves, and their slopes in tau,
    as ``(d, dd)``.

    ``d`` holds the full-speed deadlines tau - cyc / f_max, and ``start``
    the deadlines both splits start from, as `_time_split` takes them.  At
    its partner's full-speed deadline d_s each watt of weak power costs the
    strong user d_s (2**x_s - 1) g_w / g_s joules, which the weak split
    prices.  The weak deadline is floored where the strong partner, at p_max
    and f_max, can still meet tau against the weak interference, so for
    every feasible tau the strong split has deadlines it can meet.  The
    price and the floor move with d_s, so with tau, and the weak split
    takes their slopes; the strong split takes the slope of the weak power
    it hears.
    """
    s_idx, w_idx = env.strong, env.weak
    g, bc = env.dev.gain, env.channel_bw
    noise = env.noise * bc
    d = d.copy()
    dd = np.empty(d.shape)
    d_s = d[s_idx]
    x_s = env.s / (bc * d_s)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        price = d_s * power_for_rate(bc, env.s / d_s, g[w_idx], g[s_idx])
        d_price = -g[w_idx] / g[s_idx] * _comm_marginal(1.0, x_s)[0]
        # the largest weak SNR under which the strong user meets d_s at p_max
        snr = env.dev.p_max[s_idx] / power_for_rate(bc, env.s / d_s, noise, g[s_idx])
        floor = env.s / shannon_rate(bc, np.maximum(snr - 1.0, 0.0))
        # the floor falls as d_s, and with it the SNR, grows
        d_floor = -floor * floor * bc / env.s * x_s / (-np.expm1(-x_s * _LN2) * d_s)
        d_floor[~(floor < np.inf)] = 0.0
    d[w_idx], dd[w_idx] = _time_split(env, tau, cyc, w_idx, bc, noise, price, floor, start,
                                      (0.0, d_price, d_floor))
    _, p_w, _ = _noma_powers(env, d)
    with np.errstate(over="ignore", invalid="ignore"):
        dp_w = _power_slope(env, w_idx, d[w_idx], dd[w_idx], p_w, noise, 0.0)[1]
    d[s_idx], dd[s_idx] = _time_split(env, tau, cyc, s_idx, bc, g[w_idx] * p_w + noise,
                                      start=start, slopes=(g[w_idx] * dp_w, 0.0, 0.0))
    return d, dd


def _power_slope(env: _Env, idx, t, dd, p, denom, d_denom):
    """The slopes in tau of the upload times ``t`` and powers ``p`` of the
    NOMA devices at ``idx``, whose deadlines move by ``dd`` and whose noise
    plus interference ``denom`` by ``d_denom``, as ``(dt, dp)``.  A device
    above p_min meets its deadline, t, and so does one at p_min whose
    deadline shrinks, as at the smallest feasible tau, where the weak user
    sits on its floor at p_min; any other at p_min uploads in t at that
    power, which moves with denom alone.  Float warnings are the caller's to
    silence."""
    g = env.dev.gain[idx]
    a = env.s / env.channel_bw
    x = a / t
    snr = g * p / denom
    rel = d_denom / denom
    bind = (p > env.dev.p_min[idx]) | (dd < 0.0)
    dt = np.where(bind, dd, t * t * snr / (a * (1.0 + snr) * _LN2) * rel)
    dp = np.where(bind, p * rel - denom / g * np.exp2(x) * _LN2 * x / t * dt, 0.0)
    return dt, dp


def _noma_slope(env: _Env, tau: float, cyc, p, t, dd) -> float:
    """dE/dtau of a NOMA fit's energy E, by the chain rule through each
    deadline's slope ``dd`` and, for a strong user, the weak power it hears
    as interference; ``p`` and ``t`` are the fit's powers and upload times.
    Each device spends p t on upload and kappa cyc f**2 on compute, with f =
    cyc / (tau - t) clipped to [f_min, f_max]; the slope is the one to the
    right, so f at a bound moves only where the rest of tau leads it back
    inside."""
    s_idx, w_idx = env.strong, env.weak
    g = env.dev.gain
    noise = env.noise * env.channel_bw
    dt, dp = np.empty(env.n), np.empty(env.n)
    with np.errstate(over="ignore", invalid="ignore"):
        dt[w_idx], dp[w_idx] = _power_slope(env, w_idx, t[w_idx], dd[w_idx], p[w_idx], noise,
                                            0.0)
        dt[s_idx], dp[s_idx] = _power_slope(env, s_idx, t[s_idx], dd[s_idx], p[s_idx],
                                            g[w_idx] * p[w_idx] + noise, g[w_idx] * dp[w_idx])
    f = cyc / (tau - t)
    inside = np.where(f >= env.dev.f_max, dt < 1.0, (f > env.dev.f_min) | (dt > 1.0))
    d_cmp = np.where(inside, -2.0 * env.dev.kappa * f**3 * (1.0 - dt), 0.0)
    return float((p * dt + t * dp + d_cmp).sum())


def _budget_config(env: _Env, tau: float, cyc, t_floor, near=None):
    """Fit powers, bandwidths and frequencies to budget tau; None if impossible.

    FDMA fits every device's bandwidth and upload deadline at once, by one
    search on the bandwidth price (`_fdma_solve`) in which each device finds
    its own optimum over both, its deadline between the f_min and f_max
    bounds of the rest of tau.  At the smallest feasible tau every device
    sits at its p_max floor with its deadline at the f_max bound, and the fit
    returns that point.  NOMA splits the time by `_noma_split`, which always
    leaves deadlines that a feasible tau can meet, then one comm solve meets
    them.  The CPUs then slow to exactly fill tau minus the achieved upload
    time.  Each search starts from its counterpart in ``near``, a fit to a
    nearby budget, when one is given.

    The fit minimises the energy, which no weight changes, and returns its
    slope in tau: for FDMA by the envelope theorem at the bandwidth price
    (`_fdma_slope`); for NOMA, whose weak split prices the strong user's
    cost of its power only at the full-speed deadline, by the chain rule
    through every deadline's slope (`_noma_slope`).
    """
    d = tau - t_floor
    if np.any(d <= 0.0):
        return None
    if env.scheme == "fdma":
        d_c = np.maximum(tau - cyc / env.dev.f_min, 0.0)
        sol = _fdma_solve(env, tau, d_c, d, 2.0 * env.dev.kappa * cyc**3,
                          None if near is None else near.lanes)
        if sol is None:
            return None
        p, b, t_com, e_com, slope, lanes = sol
    else:
        d, dd = _noma_split(env, tau, cyc, d, None if near is None else near.lanes.start(tau))
        sol = _noma_comm_solve(env, d)
        if sol is None:
            return None
        p, b, t_com, e_com = sol
        slope = _noma_slope(env, tau, cyc, p, t_com, dd)
        lanes = _NomaLanes(tau, d, dd)
    f = np.clip(cyc / (tau - t_com), env.dev.f_min, env.dev.f_max)
    e_cmp = cmos_energy(env.dev.kappa, cyc, f)
    return _Budget(tau, float((e_cmp + e_com).sum()), slope, p, b, f, t_com, e_com, lanes)


def _priced(env: _Env, weights: Weights, loss_term: float, cfg: _Budget):
    """The value V = w1 R E + w2 R tau + ``loss_term`` of a fit under
    ``weights``, R the number of rounds, and its slope dV/dtau, as
    ``(V, dV/dtau)``."""
    return (weights.w1 * env.rounds * cfg.energy + weights.w2 * env.rounds * cfg.tau
            + loss_term, env.rounds * (weights.w1 * cfg.slope + weights.w2))


@dataclass
class _March:
    """The weight-free part of one resolution set's round-time march, as far
    as any search on those resolutions has gone: the march's budgets, the
    smallest feasible one tau_lo first, then the grid points above it
    (`_march_budgets`), and the fits made to its first ones in order, None
    where a budget cannot be met.  Each fit starts from the nearest of the
    fits before it, or cold for tau_lo, so none of them depends on weights."""

    budgets: list
    fits: list


def _march_budgets(env: _Env, t_floor) -> list:
    """The budgets of the round-time march on deadlines ``tau - t_floor``,
    empty where no grid point can be met.

    The grid is base + h 2**k, k < 128, base the compute floor.  Its first
    feasible point and the point before it (base for the first) bracket the
    smallest feasible budget tau_lo, the root of the comm margin, which
    comes first; the grid points from that first feasible one on follow.
    The grid depends only on n s / B and the compute floor, not on the power
    caps or on tau_lo, so two scenarios that differ only in constraints
    slack at the optimum (say a higher power cap that never binds) probe
    identical budgets and return bit-identical solutions.
    """
    base = float(t_floor.max())
    h = max(env.n * env.s / env.bw + 1e-9, 0.05 * max(base, 1e-12))
    grid = [base + h * (2.0**k) for k in range(128)]
    prev_x, prev_m = base, None
    for k, x in enumerate(grid):
        m = env.comm_margin(x - t_floor)
        if m <= 0.0:
            _, tau_lo = _root(lambda tau: env.comm_margin(tau - t_floor), prev_x, x, prev_m, m)
            return [tau_lo] + [y for y in grid[k:] if y != tau_lo]
        prev_x, prev_m = x, m
    return []


def _continuous_solve(env: _Env, weights: Weights, resolution_px) -> _Budget:
    """Best continuous variables for fixed resolutions via a search over tau.

    The search finds the root of dV/dtau (`_priced`), which every fit
    returns with its value, and keeps the first of the lowest values among
    its fits.  For FDMA at weights w1, w2 > 0 it searches on y = ln(tau -
    tau_lo), tau_lo the smallest feasible budget, for the root of h =
    ln(-dE/dtau) - ln(w2/w1): where that root lies just above tau_lo,
    dE/dtau grows like a power of tau - tau_lo, close to a line in (y, h),
    which the root search's interpolants follow where on tau they only
    halve the bracket.  NOMA's priced fit is not convex, and the same search
    on it ends past criterion 2's oracle bound on a pinned wide-box draw, so
    it searches on tau until its fit is exact (ROADMAP item 11).

    Each fit but the first starts its searches from the fit nearest in tau
    that this search has made.  Neither the fits nor the march's budgets
    carry a weight, so the march's fits are kept on ``env`` (`_March`), and
    a later search on the same resolutions takes up as much of them as its
    own march goes over: they are the fits it would make.  It fits afresh
    past them, adding to the march, and in its root search, whose fits
    start from fits that depend on the weights and so live only in this
    call.  So the result depends only on the resolutions and the weights,
    whatever the searches before it.
    """
    cyc = env.round_cycles(resolution_px)
    t_floor = cyc / env.dev.f_max
    loss_term = weights.w3 * float((1.0 - env.accuracy(resolution_px)).sum())
    key = tuple(np.asarray(resolution_px).tolist())
    march = env.marches.get(key)
    if march is None:
        march = env.marches[key] = _March(_march_budgets(env, t_floor), [])

    fits: dict = {}     # fit by budget, of every budget that could be met
    priced: dict = {}   # (V, dV/dtau) of those fits, by budget

    def make(tau: float):
        near = fits[min(fits, key=lambda made: abs(made - tau))] if fits else None
        return _budget_config(env, tau, cyc, t_floor, near)

    def take(tau: float, cfg) -> None:
        """Keep ``cfg``, the fit at tau, and its (V, dV/dtau), unless the
        budget cannot be met."""
        if cfg is not None:
            fits[tau] = cfg
            priced[tau] = _priced(env, weights, loss_term, cfg)

    def fit(tau: float) -> None:
        take(tau, make(tau))

    # The march fits tau_lo, then goes on through the grid points while the
    # value falls, by its slope and by more than 1e-9 of itself, and the
    # minimum then lies between its last two probes.  A value rising at
    # tau_lo does not end it: NOMA's fitted V is not convex, and may rise
    # there only to fall lower further on.
    marched: list = []
    for i, tau in enumerate(march.budgets):
        if i == len(march.fits):
            march.fits.append(make(tau))
        take(tau, march.fits[i])
        marched.append(tau)
        if i:
            a, b = priced.get(marched[-2]), priced.get(tau)
            if a is None or b is None or not (
                    b[1] < 0.0 and b[0] < a[0] - max(1e-12, 1e-9 * abs(a[0]))):
                break
    # the root of dV/dtau between the march's last two probes.  Where V is
    # convex the tangents at the bracket's ends bound it below, lowest
    # where they cross; the search ends once that bound lies within 1e-12
    # of the best value at the ends, or once the bracket is 2 sqrt(eps) tau
    # wide, the resolution at which floats can place a smooth minimum.
    # Where V kinks, as where a p_min or the NOMA weak floor starts to bind,
    # the slope jumps there and the crossing, near the kink, is fitted too.
    # Where the value still fell at the march's last probe the search
    # settles there unprobed, and where it rose already at tau_lo, at tau_lo.
    if len(marched) >= 2:

        def loose(lo: float, hi: float):
            """The tangents' crossing where the bound there lies more than
            1e-12 below the ends' best value, lo where an end has no fit,
            else None."""
            if lo not in priced or hi not in priced:
                return lo
            (v_a, s_a), (v_b, s_b) = priced[lo], priced[hi]
            x = (v_b - v_a + s_a * lo - s_b * hi) / (s_a - s_b)
            low = min(v_a, v_b)
            return x if low - (v_a + s_a * (x - lo)) > 1e-12 * abs(low) else None

        # FDMA searches on y = ln(tau - tau_lo) for the root of h =
        # ln(-dE/dtau) - ln(w2/w1), which has the sign of -dV/dtau, -inf
        # where dE/dtau >= 0.  A lower end at tau_lo stands at y = ln(2
        # sqrt(eps) tau_lo), and the resolution on y keeps the 2 sqrt(eps)
        # tau width on tau.  At w1 = 0 there is no root to search for and
        # at w2 = 0 no finite h, so these, like NOMA, search on tau for the
        # root of -dV/dtau.
        lo, hi = marched[-2:]
        if env.scheme == "fdma" and weights.w1 > 0.0 and weights.w2 > 0.0:
            tau_lo, target = marched[0], math.log(weights.w2 / weights.w1)
            a = math.log(lo - tau_lo if lo > tau_lo else 2.0 * _SQRT_EPS * tau_lo)
            b = math.log(hi - tau_lo)
            taus = {a: lo, b: hi}

            def at(y: float) -> float:
                return taus.setdefault(y, tau_lo + math.exp(y))

            def sign(tau: float) -> float:
                cfg = fits.get(tau)
                if cfg is None:
                    return math.inf
                return math.log(-cfg.slope) - target if cfg.slope < 0.0 else -math.inf

            def resolution(y: float) -> float:
                """The width on y of a bracket whose upper end y lies 2
                sqrt(eps) tau above its lower end."""
                q = 2.0 * _SQRT_EPS * (tau_lo * math.exp(-y) + 1.0)
                return -math.log1p(-q) if q < 1.0 else math.inf
        else:
            a, b = lo, hi

            def at(tau: float) -> float:
                return tau

            def sign(tau: float) -> float:
                return -priced[tau][1] if tau in priced else math.inf

            def resolution(tau: float) -> float:
                return 2.0 * _SQRT_EPS * tau

        def probe(y: float) -> float:
            tau = at(y)
            fit(tau)
            return sign(tau)

        a, b = _root(probe, a, b, sign(lo), sign(hi), resolution=resolution,
                     enough=lambda a, b: loose(at(a), at(b)) is None)
        lo, hi = at(a), at(b)
        x = loose(lo, hi) if lo < hi else None
        if x is not None and lo < x < hi:
            fit(x)
    if not fits:
        raise InfeasibleScenarioError(
            "no round-time budget satisfies the power and bandwidth limits"
        )
    # the first of the lowest values, as the search met them
    return fits[min(priced, key=lambda tau: priced[tau][0])]


def _sweep_core(env: _Env, weights: Weights, resolution_px, cpu_hz, t_com):
    """One Gauss-Seidel pass of exact per-device resolution moves at fixed
    communication.

    Devices are visited in position order.  Each scans its menu: a
    candidate's CPU frequency fills the current round time tau exactly
    (clipped to the device's range), and the candidate scores its energy,
    the round time max(others, its own total) and its accuracy loss, where
    ``others`` is the largest total of the other devices.  A candidate
    whose frequency is not clipped fills tau, and its total is tau itself,
    in its score and once committed; t_com + cyc / f would round a few
    spacings above tau.  A clipped one keeps t_com + cyc / f.  The rest of
    the objective is the same for every candidate, so the best one lowers
    the true objective of the resulting state the most, ties going to the
    smaller resolution; every applied move is non-increasing.

    The pass runs in segments, each scoring every remaining device's whole
    menu on the padded table `_Env` holds, at the tau and ``others`` the
    segment starts with.  A device's choice depends only on those two, and
    tau is the larger of ``others`` and the device's own starting total.  So
    the segment commits each device up to the first whose ``others``, with
    the totals chosen before it, differs from the one assumed; that device
    starts the next segment.  A commit that changes tau changes the next
    device's ``others``, so it also ends the segment; a filled candidate
    leaves tau as it is, so that happens only where a clipped one, such as
    a candidate at f_max that runs past tau, really raises the round time,
    or where the device alone held it.  The first device of a segment
    always commits, so a pass ends within n segments.
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
        f_fill = cyc / (tau - tc)
        f_c = np.clip(f_fill, dev.f_min[s:, None], dev.f_max[s:, None])
        # an unclipped candidate fills tau and ends at tau itself
        total = np.where(f_c == f_fill, tau, tc + cyc / f_c)
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
    # read-only arrays of the report's own, which its metrics hold as they are
    return Allocation(
        power_w=read_only(np.clip(power, env.dev.p_min, env.dev.p_max)),
        cpu_hz=read_only(np.clip(cpu_hz, env.dev.f_min, env.dev.f_max)),
        resolution_px=read_only(np.asarray(resolution_px, dtype=int)),
        bandwidth_hz=(None if bandwidth is None
                      else read_only(np.asarray(bandwidth, dtype=float))),
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
    return _optimize(_Env(scenario), weights)


def _optimize(env: _Env, weights: Weights) -> SolveReport:
    """`optimize` on the solver context ``env``.  The report is the same
    whatever solves ``env`` has run before, since the marches it keeps
    carry no weight; solving several weight pairs on one context saves
    their shared fits."""
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
        metrics = system_metrics(env.scenario, alloc)
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
    return _random_baseline(_Env(scenario), weights, seed)


def _random_baseline(env: _Env, weights: Weights, seed: int) -> SolveReport:
    """`random_baseline` on the solver context ``env``."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(env.dev.p_min, env.dev.p_max)
    f = rng.uniform(env.dev.f_min, env.dev.f_max)
    bandwidth = np.full(env.n, env.bw / env.n) if env.scheme == "fdma" else None
    alloc = _assemble(env, p, bandwidth, f, env.dev.min_resolution)
    metrics = system_metrics(env.scenario, alloc)
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
    sol = _fdma_solve(env, math.inf, deadlines, deadlines, np.zeros(env.n))
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
