"""Per-device training workload: cycle counts, compute time and energy under
DVFS, and the analytic detection-accuracy curve.

A device trains on ``dataset_frames`` video frames per local iteration.  The
cycle cost of one frame scales with its pixel count, i.e. quadratically in
the frame side length ``resolution_px``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.decay <= 0.0:
            raise ValueError("decay must be positive")


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one participating device.

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
        object.__setattr__(self, "resolutions", tuple(int(r) for r in self.resolutions))

    def validate(self) -> list:
        """Return a list of human-readable constraint violations (empty if ok)."""
        errors = []
        tag = f"device {self.id}"
        if self.gain <= 0.0:
            errors.append(f"{tag}: gain must be positive, got {self.gain}")
        if self.dataset_frames < 1:
            errors.append(
                f"{tag}: dataset_frames must be at least 1, got {self.dataset_frames}"
            )
        if self.cycles_per_pixel <= 0.0:
            errors.append(
                f"{tag}: cycles_per_pixel must be positive, got {self.cycles_per_pixel}"
            )
        if self.kappa <= 0.0:
            errors.append(f"{tag}: kappa must be positive, got {self.kappa}")
        if not 0.0 < self.f_min <= self.f_max:
            errors.append(
                f"{tag}: need 0 < f_min <= f_max, got f_min={self.f_min}, "
                f"f_max={self.f_max}"
            )
        if not 0.0 <= self.p_min <= self.p_max:
            errors.append(
                f"{tag}: need 0 <= p_min <= p_max, got p_min={self.p_min}, "
                f"p_max={self.p_max}"
            )
        if self.p_max <= 0.0:
            errors.append(f"{tag}: p_max must be positive, got {self.p_max}")
        if len(self.resolutions) == 0:
            errors.append(f"{tag}: resolutions must be non-empty")
        else:
            if any(r <= 0 for r in self.resolutions):
                errors.append(f"{tag}: resolutions must be positive")
            if any(
                a >= b for a, b in zip(self.resolutions, self.resolutions[1:])
            ):
                errors.append(f"{tag}: resolutions must be strictly ascending")
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
