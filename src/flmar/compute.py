"""Per-device training workload: cycle counts, compute time and energy under
DVFS, the analytic detection-accuracy curve, and the device table that
stores a scenario's devices as columns.

A device trains on ``dataset_frames`` video frames per local iteration.  The
cycle cost of one frame scales with its pixel count, i.e. quadratically in
the frame side length ``resolution_px``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_RESOLUTIONS = tuple(range(100, 1001, 100))


@dataclass(frozen=True)
class AccuracyModel:
    """Object-detection accuracy as a function of frame side length r:

        A(r) = clamp(1 - scale * exp(-decay * r), 0, 1)

    The defaults fit a YOLO-style detector; accuracy saturates towards 1 for
    large frames and clamps to 0 below roughly r = 70.
    """

    scale: float = 1.578
    decay: float = 6.5e-3

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 < self.decay < math.inf:
            raise ValueError(f"decay must be positive and finite, got {self.decay}")


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """Static description of one participating device: one row of a
    :class:`DeviceTable`.

    Use :meth:`validate` to collect constraint violations; construction does
    not raise so that loaders can report every problem in a file at once.
    """

    id: int
    gain: float                 # linear uplink power gain
    dataset_frames: int         # frames trained per local iteration
    cycles_per_pixel: float = 737.0
    kappa: float = 1e-28        # effective switched capacitance, J/(cycle Hz^2)
    f_min: float = 1e8          # Hz
    f_max: float = 2e9          # Hz
    p_min: float = 0.0          # W
    p_max: float = 0.2          # W
    resolutions: tuple = DEFAULT_RESOLUTIONS

    def __post_init__(self):
        # a menu that is already a tuple of ints is kept, so the rows of one
        # table share its menus instead of each holding a copy
        menu = self.resolutions
        if type(menu) is not tuple or any(type(r) is not int for r in menu):
            object.__setattr__(self, "resolutions", tuple(int(r) for r in menu))

    def validate(self) -> list:
        """Return a list of human-readable constraint violations (empty if
        ok): the one-row case of :meth:`DeviceTable.validate`."""
        return DeviceTable.from_rows([self]).validate()


# DeviceTable's float columns, in field order; `frames` holds dataset_frames
_COLUMNS = ("gain", "p_min", "p_max", "f_min", "f_max", "kappa", "cycles_per_pixel", "frames")


def _row(uid, gain, p_min, p_max, f_min, f_max, kappa, cycles_per_pixel, frames, menu):
    return DeviceProfile(
        id=uid, gain=gain, dataset_frames=int(frames) if frames.is_integer() else frames,
        cycles_per_pixel=cycles_per_pixel, kappa=kappa, f_min=f_min, f_max=f_max,
        p_min=p_min, p_max=p_max, resolutions=menu,
    )


def _positive_finite(name: str):
    return (lambda t: ~((0.0 < getattr(t, name)) & (getattr(t, name) < math.inf)),
            lambda d: f"{name} must be positive and finite, got {getattr(d, name)}")


def _menu_rule(test, message: str):
    """A rule on each device's menu, tested once per distinct menu."""
    def broken(t):
        menus, which = t.distinct_menus
        return np.array([test(menu) for menu in menus], dtype=bool)[which]
    return broken, lambda d: message


# Each device rule as (where a table breaks it, its message from a failing
# device's row), in report order.  NaN breaks every rule it enters.
_DEVICE_RULES = (
    _positive_finite("gain"),
    (lambda t: ~(np.isfinite(t.frames) & (t.frames == np.floor(t.frames)) & (t.frames >= 1.0)),
     lambda d: f"dataset_frames must be an integer of at least 1, got {d.dataset_frames}"),
    _positive_finite("cycles_per_pixel"),
    _positive_finite("kappa"),
    (lambda t: ~((0.0 < t.f_min) & (t.f_min <= t.f_max) & (t.f_max < math.inf)),
     lambda d: f"need 0 < f_min <= f_max < inf, got f_min={d.f_min}, f_max={d.f_max}"),
    (lambda t: ~((0.0 <= t.p_min) & (t.p_min <= t.p_max)),
     lambda d: f"need 0 <= p_min <= p_max, got p_min={d.p_min}, p_max={d.p_max}"),
    _positive_finite("p_max"),
    _menu_rule(lambda m: len(m) == 0, "resolutions must be non-empty"),
    _menu_rule(lambda m: any(r <= 0 for r in m), "resolutions must be positive"),
    _menu_rule(lambda m: any(a >= b for a, b in zip(m, m[1:])),
               "resolutions must be strictly ascending"),
)


@dataclass(frozen=True, eq=False)
class DeviceTable(Sequence):
    """A scenario's devices as read-only parallel arrays, indexed by position.

    The one stored form of a scenario's devices: :class:`~flmar.accounting.Scenario`
    holds one, and every layer reads these columns.  It is also a read-only
    sequence of :class:`DeviceProfile` rows: an index builds that device's
    row, a slice gives the table of those devices, and iteration yields each
    row in turn.  Rows are not stored, so every index or iteration builds
    them anew from the columns; code that runs per solve reads the columns.
    """

    ids: Sequence              # a tuple, or a range for the ids 0..n-1 of a drawn table
    gain: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    f_min: np.ndarray
    f_max: np.ndarray
    kappa: np.ndarray
    cycles_per_pixel: np.ndarray
    frames: np.ndarray
    resolutions: tuple          # each device's ascending menu, a tuple of ints

    def __post_init__(self):
        # each column a read-only array of its own; one whose values all have
        # the same bits is stored once and broadcast, which under a fixed
        # spec range (the default, and every grid cell) halves a drawn table
        block = np.array([getattr(self, c) for c in _COLUMNS], dtype=float)
        bits = block.view(np.int64)
        constant = (bits == bits[:, :1]).all(axis=1).tolist()
        for name, col, same in zip(_COLUMNS, block, constant):
            col = col.copy() if not same or col.size == 0 else np.ndarray(
                col.shape, float, col[:1].copy(), strides=(0,))    # broadcast
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def from_rows(cls, rows) -> DeviceTable:
        """The table of the given :class:`DeviceProfile` rows, in order."""
        rows = list(rows)
        columns = np.array(
            [(d.gain, d.p_min, d.p_max, d.f_min, d.f_max, d.kappa, d.cycles_per_pixel,
              d.dataset_frames) for d in rows],
            dtype=float,
        ).reshape(-1, len(_COLUMNS)).T
        return cls(tuple(d.id for d in rows), *columns, tuple(d.resolutions for d in rows))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return DeviceTable(
                self.ids[key], *(getattr(self, c)[key] for c in _COLUMNS),
                self.resolutions[key],
            )
        return _row(self.ids[key], *(getattr(self, c)[key].item() for c in _COLUMNS),
                    self.resolutions[key])

    def __iter__(self):
        return map(_row, self.ids, *(getattr(self, c).tolist() for c in _COLUMNS),
                   self.resolutions)

    def __eq__(self, other):
        if not isinstance(other, DeviceTable):
            return NotImplemented
        same_ids = (self.ids == other.ids if type(self.ids) is type(other.ids)
                    else tuple(self.ids) == tuple(other.ids))
        return (
            same_ids
            and self.resolutions == other.resolutions
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)
        )

    @property
    def min_resolution(self) -> np.ndarray:
        return np.array([menu[0] for menu in self.resolutions], dtype=int)

    @cached_property
    def distinct_menus(self) -> tuple:
        """The distinct menus in order of first use, and each device's
        position among them as a read-only int array; one menu shared by
        every device (a drawn table's) is indexed by a broadcast 0."""
        menus = self.resolutions
        if menus and menus.count(menus[0]) == len(menus):
            which = np.ndarray((len(menus),), np.intp, np.zeros(1, np.intp), strides=(0,))
            menus = menus[:1]
        else:
            index = {}
            which = np.array([index.setdefault(menu, len(index)) for menu in menus],
                             dtype=np.intp)
            menus = tuple(index)
        which.flags.writeable = False
        return menus, which

    def pair_positions(self, pairing) -> tuple:
        """Positions of the strong and of the weak user of each channel of
        a :class:`~flmar.channel.ChannelPairing`, looked up by id in one
        array step: a range of ids gives them by arithmetic (for the ids
        0..n-1 of a drawn table, positions are the ids), other ids by a
        sorted search.  An id not in the table raises ``KeyError``."""
        both = np.concatenate((pairing.strong, pairing.weak))
        ids = self.ids
        if type(ids) is range:
            pos = (both - ids.start) // ids.step
            found = (0 <= pos) & (pos < len(ids)) & (ids.start + pos * ids.step == both)
        else:
            ids = np.array(ids)
            order = np.argsort(ids, kind="stable")
            pos = order[np.minimum(np.searchsorted(ids, both, sorter=order), len(ids) - 1)]
            found = ids[pos] == both
        if not found.all():
            raise KeyError(both[np.argmin(found)].item())
        return pos[:len(pairing.strong)], pos[len(pairing.strong):]

    def validate(self) -> list:
        """Every device's constraint violations, devices in position order and
        each device's in rule order.  The rules run as array predicates over
        the columns; messages are built only for the devices that break one.
        """
        broken = [rule(self) for rule, _ in _DEVICE_RULES]
        errors = []
        for k in np.flatnonzero(np.logical_or.reduce(broken)).tolist():
            dev = self[k]
            errors.extend(f"device {dev.id}: {message(dev)}"
                          for (_, message), bad in zip(_DEVICE_RULES, broken) if bad[k])
        return errors


def round_cycles(local_iterations, cycles_per_pixel, resolution_px, frames):
    """Unchecked cycles kernel: one round of local training, I * c * r**2 * D.

    The one place the cycle count is written.  The checked functions below
    pass 1 for the factors their arguments already include.
    """
    return local_iterations * (cycles_per_pixel * resolution_px * resolution_px) * frames


def cmos_energy(kappa, cycles, cpu_hz):
    """Unchecked energy kernel: kappa * cycles * f**2 joules.

    The classic CMOS dynamic-power model: energy per cycle grows with the
    square of the clock.
    """
    return kappa * cycles * cpu_hz * cpu_hz


def _maybe_scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def cycles_per_frame(resolution_px, cycles_per_pixel):
    """CPU cycles to process one r-by-r frame: cycles_per_pixel * r**2."""
    r = np.asarray(resolution_px, dtype=float)
    c = np.asarray(cycles_per_pixel, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("resolution_px must be positive")
    if np.any(c <= 0.0):
        raise ValueError("cycles_per_pixel must be positive")
    return _maybe_scalar(round_cycles(1.0, c, r, 1.0))


def comp_time(local_iterations, cycles_per_frame, frames, cpu_hz):
    """Seconds of local training per round: I * C * D / f."""
    i, c, d, f = (np.asarray(v, dtype=float) for v in
                  (local_iterations, cycles_per_frame, frames, cpu_hz))
    if np.any(i < 0.0) or np.any(c < 0.0) or np.any(d < 0.0):
        raise ValueError("iterations, cycles and frames must be non-negative")
    if np.any(f <= 0.0):
        raise ValueError("cpu_hz must be positive")
    return _maybe_scalar(round_cycles(i, c, 1.0, d) / f)


def comp_energy(kappa, local_iterations, cycles_per_frame, frames, cpu_hz):
    """Joules of local training per round: kappa * I * C * D * f**2."""
    k, i, c, d, f = (np.asarray(v, dtype=float) for v in
                     (kappa, local_iterations, cycles_per_frame, frames, cpu_hz))
    if np.any(k < 0.0) or np.any(i < 0.0) or np.any(c < 0.0) or np.any(d < 0.0):
        raise ValueError("kappa, iterations, cycles and frames must be non-negative")
    if np.any(f <= 0.0):
        raise ValueError("cpu_hz must be positive")
    return _maybe_scalar(cmos_energy(k, round_cycles(i, c, 1.0, d), f))


def detection_accuracy(resolution_px, model: AccuracyModel = AccuracyModel()):
    """Detection accuracy A(r) in [0, 1] for frame side length r."""
    r = np.asarray(resolution_px, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("resolution_px must be positive")
    return _maybe_scalar(np.clip(1.0 - model.scale * np.exp(-model.decay * r), 0.0, 1.0))
