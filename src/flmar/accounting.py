"""Synchronous federated-round accounting.

Given a scenario and a resource allocation, compute per-device compute and
upload costs, the synchronous round time (slowest device), campaign totals
across global rounds, and the scalarised objective

    J = w1 * E_total + w2 * T_total + w3 * sum_n (1 - A(r_n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (
    ChannelPairing,
    LinkParams,
    comm_energy,
    comm_time,
    fdma_rate,
    noma_channel_rates,
)
from .compute import (
    AccuracyModel,
    DeviceTable,
    comp_energy,
    comp_time,
    cycles_per_frame,
    detection_accuracy,
)

SCHEMES = ("fdma", "noma")


@dataclass(frozen=True)
class Weights:
    """Finite, non-negative objective weights for energy, time and accuracy
    loss."""

    w1: float
    w2: float
    w3: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0.0 for w in (self.w1, self.w2, self.w3)):
            raise ValueError("weights must be finite and non-negative")


@dataclass(frozen=True)
class Scenario:
    """One federated-learning deployment: devices plus shared system knobs.

    Immutable; build a changed scenario with :func:`dataclasses.replace`.
    ``devices`` takes any sequence of :class:`~flmar.compute.DeviceProfile`
    rows and stores it as a :class:`~flmar.compute.DeviceTable`, the
    scenario's one form of its devices, so the table, its validation and
    its NOMA pairing are each made once per scenario.
    """

    devices: DeviceTable
    total_bandwidth_hz: float = 20e6
    noise_psd: float = 3.98e-21        # W/Hz (about -174 dBm/Hz)
    model_size_bits: float = 1e6
    global_rounds: int = 100
    local_iterations: int = 10
    scheme: str = "fdma"
    n_channels: int | None = None      # NOMA only; 2 users per channel
    accuracy_model: AccuracyModel = field(default_factory=AccuracyModel)

    def __post_init__(self):
        if not isinstance(self.devices, DeviceTable):
            object.__setattr__(self, "devices", DeviceTable.from_rows(self.devices))

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def validate(self) -> list:
        """Collect every violated constraint instead of stopping at the first."""
        return list(self._errors)

    @cached_property
    def _errors(self) -> tuple:
        errors = []
        if not self.devices:
            errors.append("scenario: needs at least one device")
        ids = self.devices.ids
        if len(set(ids)) != len(ids):
            errors.append("scenario: device ids must be unique")
        errors.extend(self.devices.validate())
        for name in ("total_bandwidth_hz", "noise_psd", "model_size_bits"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                errors.append(f"scenario: {name} must be positive and finite, got {value}")
        if self.global_rounds < 1:
            errors.append(
                f"scenario: global_rounds must be at least 1, got {self.global_rounds}"
            )
        if self.local_iterations < 1:
            errors.append(
                f"scenario: local_iterations must be at least 1, "
                f"got {self.local_iterations}"
            )
        if self.scheme not in SCHEMES:
            errors.append(f"scenario: scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "noma":
            n = len(self.devices)
            if self.n_channels is None:
                errors.append("scenario: NOMA needs n_channels")
            elif n != 2 * self.n_channels:
                errors.append(
                    f"scenario: NOMA multiplexes 2 users per channel, so "
                    f"{self.n_channels} channels need {2 * self.n_channels} "
                    f"devices, got {n}"
                )
        return tuple(errors)

    @cached_property
    def noma_pairing(self) -> ChannelPairing:
        """The gain-sorted NOMA pairing of device ids on equal channels:
        k-th strongest with k-th weakest, ties to the lower id.  Made once,
        so every solve of the scenario shares it."""
        return ChannelPairing.by_gain(
            self.devices.ids, self.devices.gain, self.total_bandwidth_hz / self.n_channels
        )

    def device_index(self) -> dict:
        """Map device id to its position in the device table."""
        return {uid: k for k, uid in enumerate(self.devices.ids)}


@dataclass
class Allocation:
    """Per-device decision variables, indexed like ``scenario.devices``.

    FDMA allocations carry ``bandwidth_hz``; NOMA allocations carry a
    ``pairing`` (all channels share one width).  The allocations of
    `optimize`, `random_baseline` and `brute_force_oracle` reports hold
    read-only arrays of their own, which their metrics share.
    """

    power_w: np.ndarray
    cpu_hz: np.ndarray
    resolution_px: np.ndarray
    bandwidth_hz: np.ndarray | None = None
    pairing: ChannelPairing | None = None

    def __post_init__(self):
        self.power_w = np.asarray(self.power_w, dtype=float)
        self.cpu_hz = np.asarray(self.cpu_hz, dtype=float)
        self.resolution_px = np.asarray(self.resolution_px, dtype=int)
        if self.bandwidth_hz is not None:
            self.bandwidth_hz = np.asarray(self.bandwidth_hz, dtype=float)

    def validate(self, scenario: Scenario) -> list:
        """Check bounds and structure against the scenario; returns violations."""
        rel_tol = 1e-9  # slack for round-off in the bound checks
        errors = []
        n = scenario.n_devices
        for name in ("power_w", "cpu_hz", "resolution_px"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                errors.append(f"allocation: {name} must have shape ({n},), got {arr.shape}")
        if errors:
            return errors
        table = scenario.devices
        slack_p = rel_tol * np.maximum(table.p_max, 1.0)
        slack_f = rel_tol * table.f_max
        resolution = self.resolution_px.tolist()
        broken = (
            ~((table.p_min - slack_p <= self.power_w) & (self.power_w <= table.p_max + slack_p)),
            ~((table.f_min - slack_f <= self.cpu_hz) & (self.cpu_hz <= table.f_max + slack_f)),
            np.array([r not in menu for r, menu in zip(resolution, table.resolutions)],
                     dtype=bool),
        )
        for k in np.flatnonzero(np.any(broken, axis=0)).tolist():
            dev = table[k]
            messages = (
                f"power {self.power_w[k]} outside [{dev.p_min}, {dev.p_max}]",
                f"cpu_hz {self.cpu_hz[k]} outside [{dev.f_min}, {dev.f_max}]",
                f"resolution {resolution[k]} not in its menu {dev.resolutions}",
            )
            errors.extend(f"device {dev.id}: {m}" for m, bad in zip(messages, broken) if bad[k])
        if scenario.scheme == "fdma":
            if self.bandwidth_hz is None:
                errors.append("allocation: FDMA needs bandwidth_hz")
            else:
                if self.bandwidth_hz.shape != (n,):
                    errors.append(
                        f"allocation: bandwidth_hz must have shape ({n},), "
                        f"got {self.bandwidth_hz.shape}"
                    )
                elif not np.all((self.bandwidth_hz >= 0.0) & (self.bandwidth_hz < math.inf)):
                    errors.append("allocation: bandwidths must be non-negative and finite")
                else:
                    total = float(self.bandwidth_hz.sum())
                    if total > scenario.total_bandwidth_hz * (1.0 + rel_tol):
                        errors.append(
                            f"allocation: bandwidth sum {total} exceeds "
                            f"{scenario.total_bandwidth_hz}"
                        )
        else:
            if self.pairing is None:
                errors.append("allocation: NOMA needs a pairing")
            else:
                if sorted(self.pairing.user_ids) != sorted(table.ids):
                    errors.append("allocation: pairing must cover every device exactly once")
                else:
                    expected = scenario.total_bandwidth_hz / len(self.pairing.strong)
                    if abs(self.pairing.channel_bandwidth_hz - expected) > rel_tol * expected:
                        errors.append(
                            f"allocation: channel width {self.pairing.channel_bandwidth_hz} "
                            f"inconsistent with total bandwidth (expected {expected})"
                        )
                    strong, weak = table.pair_positions(self.pairing)
                    flipped = table.gain[strong] < table.gain[weak]
                    errors.extend(
                        f"allocation: pair ({s_id}, {w_id}) lists the weaker user first"
                        for s_id, w_id in zip(self.pairing.strong[flipped].tolist(),
                                              self.pairing.weak[flipped].tolist())
                    )
        return errors


# the fields, in order, of the dataclass that stored every array, which
# `SystemMetrics.__repr__` keeps
_REPR_FIELDS = ("comp_time_s", "comp_energy_j", "comm_time_s", "comm_energy_j",
                "round_time_s", "total_time_s", "total_energy_j", "accuracy",
                "accuracy_loss")


@dataclass(frozen=True, eq=False, repr=False)
class SystemMetrics:
    """Costs of one configuration: campaign totals, and per-device arrays.

    The totals are stored as floats: ``round_time_s``, ``total_time_s``,
    ``total_energy_j``, ``accuracy_loss`` and ``mean_accuracy``.  The
    per-device arrays ``comp_time_s``, ``comp_energy_j``, ``comm_time_s``,
    ``comm_energy_j`` and ``accuracy`` are computed on their first read,
    from the scenario and the allocation the metrics were made from, by the
    same kernels as the totals, so they equal the arrays those were summed
    from bit for bit.  They are read-only.  Made by :func:`system_metrics`,
    which holds an allocation's arrays themselves where they are read-only
    and own their data, as the solver's and the oracle's are, and a copy of
    any other, so that changing a caller's allocation later changes neither
    the totals nor the arrays.
    """

    round_time_s: float
    total_time_s: float
    total_energy_j: float
    accuracy_loss: float
    mean_accuracy: float
    source: tuple       # (scenario, allocation) the arrays are computed from

    @cached_property
    def _costs(self) -> tuple:
        costs = _device_costs(*self.source)
        for a in costs:
            a.flags.writeable = False
        return costs

    comp_time_s = property(lambda self: self._costs[0])
    comp_energy_j = property(lambda self: self._costs[1])
    comm_time_s = property(lambda self: self._costs[2])
    comm_energy_j = property(lambda self: self._costs[3])
    accuracy = property(lambda self: self._costs[4])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _REPR_FIELDS)
        return f"{type(self).__qualname__}({fields})"


def read_only(a):
    """``a`` itself where it is a read-only array that owns its data, else a
    read-only copy; ``None`` stays ``None``."""
    if a is None or (not a.flags.writeable and a.base is None):
        return a
    a = a.copy()
    a.flags.writeable = False
    return a


def uplink_rates(scenario: Scenario, allocation: Allocation) -> np.ndarray:
    """Per-device uplink rate in bit/s under the scenario's access scheme."""
    table = scenario.devices
    gains = table.gain
    if scenario.scheme == "fdma":
        if allocation.bandwidth_hz is None:
            raise ValueError("FDMA allocation is missing bandwidth_hz")
        link = LinkParams(gain=gains, noise_psd=scenario.noise_psd)
        return np.asarray(
            fdma_rate(allocation.bandwidth_hz, allocation.power_w, link)
        )
    if allocation.pairing is None:
        raise ValueError("NOMA allocation is missing a pairing")
    strong, weak = table.pair_positions(allocation.pairing)
    rate_s, rate_w = noma_channel_rates(
        allocation.pairing.channel_bandwidth_hz,
        (gains[strong], allocation.power_w[strong]),
        (gains[weak], allocation.power_w[weak]),
        scenario.noise_psd,
    )
    rates = np.empty(len(table.ids), dtype=float)
    rates[strong] = rate_s
    rates[weak] = rate_w
    return rates


def system_metrics(scenario: Scenario, allocation: Allocation) -> SystemMetrics:
    """Evaluate one allocation: per-device costs, round time, campaign totals.

    The round is synchronous, so its duration is the slowest device's
    compute-plus-upload time; totals scale with the number of global rounds.
    Raises :class:`~flmar.channel.InfeasibleLinkError` when a device's
    uplink rate is zero (for instance zero power or zero FDMA bandwidth).
    """
    held = Allocation(
        power_w=read_only(allocation.power_w),
        cpu_hz=read_only(allocation.cpu_hz),
        resolution_px=read_only(allocation.resolution_px),
        bandwidth_hz=read_only(allocation.bandwidth_hz),
        pairing=allocation.pairing,
    )
    t_cmp, e_cmp, t_com, e_com, acc = _device_costs(scenario, held)
    round_time = float((t_cmp + t_com).max())
    rounds = scenario.global_rounds
    return SystemMetrics(
        round_time_s=round_time,
        total_time_s=rounds * round_time,
        total_energy_j=rounds * float((e_cmp + e_com).sum()),
        accuracy_loss=float((1.0 - acc).sum()),
        mean_accuracy=float(acc.mean()),
        source=(scenario, held),
    )


def _device_costs(scenario: Scenario, allocation: Allocation) -> tuple:
    """Per-device compute time and energy, upload time and energy, and
    accuracy, as float arrays."""
    table = scenario.devices
    cyc = cycles_per_frame(allocation.resolution_px, table.cycles_per_pixel)
    iters = scenario.local_iterations
    t_cmp = comp_time(iters, cyc, table.frames, allocation.cpu_hz)
    e_cmp = comp_energy(table.kappa, iters, cyc, table.frames, allocation.cpu_hz)
    rates = uplink_rates(scenario, allocation)
    t_com = comm_time(scenario.model_size_bits, rates)
    e_com = comm_energy(allocation.power_w, t_com)
    acc = detection_accuracy(allocation.resolution_px, scenario.accuracy_model)
    return tuple(
        np.atleast_1d(np.asarray(x, dtype=float)) for x in (t_cmp, e_cmp, t_com, e_com, acc)
    )


def objective(weights: Weights, metrics: SystemMetrics) -> float:
    """Scalarised cost: w1 * energy + w2 * time + w3 * accuracy loss."""
    return (
        weights.w1 * metrics.total_energy_j
        + weights.w2 * metrics.total_time_s
        + weights.w3 * metrics.accuracy_loss
    )
