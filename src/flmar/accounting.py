"""Synchronous federated-round accounting.

Given a scenario and a resource allocation, compute per-device compute and
upload costs, the synchronous round time (slowest device), campaign totals
across global rounds, and the scalarised objective

    J = w1 * E_total + w2 * T_total + w3 * sum_n (1 - A(r_n)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelPairing,
    LinkParams,
    comm_energy,
    comm_time,
    fdma_rate,
    gain_sorted_pairs,
    noma_channel_rates,
)
from .compute import (
    AccuracyModel,
    comp_energy,
    comp_time,
    cycles_per_frame,
    detection_accuracy,
)

SCHEMES = ("fdma", "noma")


@dataclass(frozen=True)
class Weights:
    """Non-negative objective weights for energy, time and accuracy loss."""

    w1: float
    w2: float
    w3: float = 0.5

    def __post_init__(self):
        if self.w1 < 0.0 or self.w2 < 0.0 or self.w3 < 0.0:
            raise ValueError("weights must be non-negative")


@dataclass
class Scenario:
    """One federated-learning deployment: devices plus shared system knobs."""

    devices: list
    total_bandwidth_hz: float = 20e6
    noise_psd: float = 3.98e-21        # W/Hz (about -174 dBm/Hz)
    model_size_bits: float = 1e6
    global_rounds: int = 100
    local_iterations: int = 10
    scheme: str = "fdma"
    n_channels: int | None = None      # NOMA only; 2 users per channel
    accuracy_model: AccuracyModel = field(default_factory=AccuracyModel)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def validate(self) -> list:
        """Collect every violated constraint instead of stopping at the first."""
        errors = []
        if not self.devices:
            errors.append("scenario: needs at least one device")
        ids = [d.id for d in self.devices]
        if len(set(ids)) != len(ids):
            errors.append("scenario: device ids must be unique")
        for dev in self.devices:
            errors.extend(dev.validate())
        if self.total_bandwidth_hz <= 0.0:
            errors.append(
                f"scenario: total_bandwidth_hz must be positive, "
                f"got {self.total_bandwidth_hz}"
            )
        if self.noise_psd <= 0.0:
            errors.append(f"scenario: noise_psd must be positive, got {self.noise_psd}")
        if self.model_size_bits <= 0.0:
            errors.append(
                f"scenario: model_size_bits must be positive, got {self.model_size_bits}"
            )
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
        return errors

    def device_index(self) -> dict:
        """Map device id to its position in the device list."""
        return {d.id: k for k, d in enumerate(self.devices)}


@dataclass(frozen=True)
class DeviceTable:
    """A scenario's devices as parallel arrays, indexed by list position.

    Built by :func:`device_table` once per public call and never cached on
    the mutable :class:`Scenario`, which callers may edit between calls.
    ``strong`` and ``weak`` are the positions of the gain-sorted NOMA
    pairing (k-th strongest with k-th weakest, ties to the lower id); both
    are None for FDMA.
    """

    ids: tuple
    gain: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    f_min: np.ndarray
    f_max: np.ndarray
    kappa: np.ndarray
    cycles_per_pixel: np.ndarray
    frames: np.ndarray
    resolutions: tuple          # each device's ascending menu, a tuple of ints
    strong: np.ndarray | None
    weak: np.ndarray | None

    @property
    def min_resolution(self) -> np.ndarray:
        return np.array([menu[0] for menu in self.resolutions], dtype=int)

    def positions(self, ids) -> np.ndarray:
        """Positions of the given device ids."""
        index = {uid: k for k, uid in enumerate(self.ids)}
        return np.array([index[uid] for uid in ids], dtype=int)

    def noma_pairing(self, channel_bandwidth_hz: float) -> ChannelPairing:
        """The gain-sorted pairing as a :class:`ChannelPairing` of device ids."""
        return ChannelPairing(
            channels=tuple(
                (self.ids[s], self.ids[w]) for s, w in zip(self.strong, self.weak)
            ),
            channel_bandwidth_hz=channel_bandwidth_hz,
        )


def device_table(scenario: Scenario) -> DeviceTable:
    """Unpack ``scenario.devices`` into a :class:`DeviceTable`.

    The only place device profiles become arrays; every layer reads the
    table instead.
    """
    devices = scenario.devices
    ids = tuple(d.id for d in devices)
    # one contiguous row per field, in DeviceTable's field order
    columns = np.array(
        [(d.gain, d.p_min, d.p_max, d.f_min, d.f_max, d.kappa, d.cycles_per_pixel,
          d.dataset_frames) for d in devices],
        dtype=float,
    ).reshape(-1, 8).T.copy()
    strong = weak = None
    if scenario.scheme == "noma":
        index = {uid: k for k, uid in enumerate(ids)}
        pairs = gain_sorted_pairs(zip(ids, columns[0].tolist()))
        strong = np.array([index[s] for s, _ in pairs], dtype=int)
        weak = np.array([index[w] for _, w in pairs], dtype=int)
    return DeviceTable(
        ids, *columns, tuple(d.resolutions for d in devices), strong, weak
    )


@dataclass
class Allocation:
    """Per-device decision variables, indexed like ``scenario.devices``.

    FDMA allocations carry ``bandwidth_hz``; NOMA allocations carry a
    ``pairing`` (all channels share one width).
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
        for k, dev in enumerate(scenario.devices):
            slack_p = rel_tol * max(dev.p_max, 1.0)
            if not dev.p_min - slack_p <= self.power_w[k] <= dev.p_max + slack_p:
                errors.append(
                    f"device {dev.id}: power {self.power_w[k]} outside "
                    f"[{dev.p_min}, {dev.p_max}]"
                )
            slack_f = rel_tol * dev.f_max
            if not dev.f_min - slack_f <= self.cpu_hz[k] <= dev.f_max + slack_f:
                errors.append(
                    f"device {dev.id}: cpu_hz {self.cpu_hz[k]} outside "
                    f"[{dev.f_min}, {dev.f_max}]"
                )
            if int(self.resolution_px[k]) not in dev.resolutions:
                errors.append(
                    f"device {dev.id}: resolution {int(self.resolution_px[k])} not in "
                    f"its menu {dev.resolutions}"
                )
        if scenario.scheme == "fdma":
            if self.bandwidth_hz is None:
                errors.append("allocation: FDMA needs bandwidth_hz")
            else:
                if self.bandwidth_hz.shape != (n,):
                    errors.append(
                        f"allocation: bandwidth_hz must have shape ({n},), "
                        f"got {self.bandwidth_hz.shape}"
                    )
                elif np.any(self.bandwidth_hz < 0.0):
                    errors.append("allocation: bandwidths must be non-negative")
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
                idx = scenario.device_index()
                ids = self.pairing.user_ids
                if sorted(ids) != sorted(idx.keys()):
                    errors.append("allocation: pairing must cover every device exactly once")
                else:
                    expected = scenario.total_bandwidth_hz / len(self.pairing.channels)
                    if abs(self.pairing.channel_bandwidth_hz - expected) > rel_tol * expected:
                        errors.append(
                            f"allocation: channel width {self.pairing.channel_bandwidth_hz} "
                            f"inconsistent with total bandwidth (expected {expected})"
                        )
                    for s_id, w_id in self.pairing.channels:
                        g_s = scenario.devices[idx[s_id]].gain
                        g_w = scenario.devices[idx[w_id]].gain
                        if g_s < g_w:
                            errors.append(
                                f"allocation: pair ({s_id}, {w_id}) lists the weaker "
                                f"user first"
                            )
        return errors


@dataclass
class SystemMetrics:
    """Costs of one configuration: per-device arrays plus campaign totals."""

    comp_time_s: np.ndarray
    comp_energy_j: np.ndarray
    comm_time_s: np.ndarray
    comm_energy_j: np.ndarray
    round_time_s: float
    total_time_s: float
    total_energy_j: float
    accuracy: np.ndarray
    accuracy_loss: float

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracy.mean())


def uplink_rates(scenario: Scenario, allocation: Allocation) -> np.ndarray:
    """Per-device uplink rate in bit/s under the scenario's access scheme."""
    return _uplink_rates(scenario, device_table(scenario), allocation)


def _uplink_rates(scenario: Scenario, table: DeviceTable, allocation: Allocation):
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
    strong = table.positions(s for s, _ in allocation.pairing.channels)
    weak = table.positions(w for _, w in allocation.pairing.channels)
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
    table = device_table(scenario)
    cyc = cycles_per_frame(allocation.resolution_px, table.cycles_per_pixel)
    iters = scenario.local_iterations
    t_cmp = comp_time(iters, cyc, table.frames, allocation.cpu_hz)
    e_cmp = comp_energy(table.kappa, iters, cyc, table.frames, allocation.cpu_hz)
    rates = _uplink_rates(scenario, table, allocation)
    t_com = comm_time(scenario.model_size_bits, rates)
    e_com = comm_energy(allocation.power_w, t_com)
    acc = detection_accuracy(allocation.resolution_px, scenario.accuracy_model)
    t_cmp, e_cmp, t_com, e_com, acc = (
        np.atleast_1d(np.asarray(x, dtype=float))
        for x in (t_cmp, e_cmp, t_com, e_com, acc)
    )
    round_time = float((t_cmp + t_com).max())
    rounds = scenario.global_rounds
    return SystemMetrics(
        comp_time_s=t_cmp,
        comp_energy_j=e_cmp,
        comm_time_s=t_com,
        comm_energy_j=e_com,
        round_time_s=round_time,
        total_time_s=rounds * round_time,
        total_energy_j=rounds * float((e_cmp + e_com).sum()),
        accuracy=acc,
        accuracy_loss=float((1.0 - acc).sum()),
    )


def objective(weights: Weights, metrics: SystemMetrics) -> float:
    """Scalarised cost: w1 * energy + w2 * time + w3 * accuracy loss."""
    return (
        weights.w1 * metrics.total_energy_j
        + weights.w2 * metrics.total_time_s
        + weights.w3 * metrics.accuracy_loss
    )
