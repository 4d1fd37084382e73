"""Scenario generation and JSON persistence.

Channel gains follow an urban-macro path-loss law with optional Rayleigh
fading.  Every per-device draw uses its own counter-based generator keyed by
``(seed, device_index)``, so a device's parameters do not depend on how many
other devices exist or in which order they are generated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .accounting import Scenario
from .compute import DEFAULT_RESOLUTIONS, AccuracyModel, DeviceProfile

SCHEMA_VERSION = 1


class ScenarioFormatError(ValueError):
    """The file is not syntactically valid scenario JSON."""


class ScenarioValidationError(ValueError):
    """The scenario parsed but violates constraints; ``errors`` lists all of them."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioSpec:
    """Distributional description a concrete :class:`Scenario` is drawn from."""

    n_devices: int = 40
    scheme: str = "fdma"
    distance_range_km: tuple = (0.05, 0.5)
    pathloss_intercept_db: float = 128.1
    pathloss_exponent_db: float = 37.6     # dB per decade of distance
    rayleigh_fading: bool = True
    p_min: float = 0.0
    p_max_range: tuple = (0.2, 0.2)
    f_min: float = 1e8
    f_max_range: tuple = (2e9, 2e9)
    frames_range: tuple = (50, 200)
    cycles_per_pixel: float = 737.0
    kappa: float = 1e-28
    resolutions: tuple = DEFAULT_RESOLUTIONS
    total_bandwidth_hz: float = 20e6
    noise_psd: float = 3.98e-21
    model_size_bits: float = 1e6
    global_rounds: int = 100
    local_iterations: int = 10
    accuracy_model: AccuracyModel = AccuracyModel()
    master_seed: int = 0

    def validate(self) -> list:
        errors = []
        if self.n_devices < 1:
            errors.append(f"spec: n_devices must be at least 1, got {self.n_devices}")
        if self.scheme not in ("fdma", "noma"):
            errors.append(f"spec: scheme must be 'fdma' or 'noma', got {self.scheme!r}")
        if self.scheme == "noma" and self.n_devices % 2 != 0:
            errors.append(
                f"spec: NOMA pairs two users per channel, n_devices must be even, "
                f"got {self.n_devices}"
            )
        for name, rng in (
            ("distance_range_km", self.distance_range_km),
            ("p_max_range", self.p_max_range),
            ("f_max_range", self.f_max_range),
            ("frames_range", self.frames_range),
        ):
            lo, hi = rng
            if not 0 < lo <= hi:
                errors.append(f"spec: {name} must satisfy 0 < lo <= hi, got {rng}")
        if self.p_min < 0.0:
            errors.append(f"spec: p_min must be non-negative, got {self.p_min}")
        if self.p_max_range[0] < self.p_min:
            errors.append(
                f"spec: p_max_range low end {self.p_max_range[0]} below p_min {self.p_min}"
            )
        if self.f_min <= 0.0 or self.f_max_range[0] < self.f_min:
            errors.append(
                f"spec: need 0 < f_min <= f_max_range low end, got f_min={self.f_min}, "
                f"f_max_range={self.f_max_range}"
            )
        return errors


def _device_gain(spec: ScenarioSpec, distance_km: float, fading: float) -> float:
    pl_db = spec.pathloss_intercept_db + spec.pathloss_exponent_db * np.log10(distance_km)
    return float(10.0 ** (-pl_db / 10.0) * fading)


def generate_scenario(spec: ScenarioSpec, seed: int | None = None) -> Scenario:
    """Draw a concrete scenario from a ``ScenarioSpec``.

    ``seed`` overrides ``spec.master_seed``.  Per-device draw order is fixed:
    distance, fading, p_max, f_max, frames.
    """
    errors = spec.validate()
    if errors:
        raise ScenarioValidationError(errors)
    if seed is None:
        seed = spec.master_seed
    devices = []
    for k in range(spec.n_devices):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        d_km = rng.uniform(*spec.distance_range_km)
        fading = rng.exponential(1.0) if spec.rayleigh_fading else 1.0
        p_max = rng.uniform(*spec.p_max_range)
        f_max = rng.uniform(*spec.f_max_range)
        frames = int(rng.integers(spec.frames_range[0], spec.frames_range[1] + 1))
        devices.append(
            DeviceProfile(
                id=k,
                gain=_device_gain(spec, d_km, fading),
                dataset_frames=frames,
                cycles_per_pixel=spec.cycles_per_pixel,
                kappa=spec.kappa,
                f_min=spec.f_min,
                f_max=f_max,
                p_min=spec.p_min,
                p_max=p_max,
                resolutions=spec.resolutions,
            )
        )
    scenario = Scenario(
        devices=devices,
        total_bandwidth_hz=spec.total_bandwidth_hz,
        noise_psd=spec.noise_psd,
        model_size_bits=spec.model_size_bits,
        global_rounds=spec.global_rounds,
        local_iterations=spec.local_iterations,
        scheme=spec.scheme,
        n_channels=spec.n_devices // 2 if spec.scheme == "noma" else None,
        accuracy_model=spec.accuracy_model,
    )
    remaining = scenario.validate()
    if remaining:
        raise ScenarioValidationError(remaining)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scheme": scenario.scheme,
        "total_bandwidth_hz": scenario.total_bandwidth_hz,
        "noise_psd": scenario.noise_psd,
        "model_size_bits": scenario.model_size_bits,
        "global_rounds": scenario.global_rounds,
        "local_iterations": scenario.local_iterations,
        "n_channels": scenario.n_channels,
        "accuracy_model": asdict(scenario.accuracy_model),
        "devices": [
            {
                "id": d.id,
                "gain": d.gain,
                "dataset_frames": d.dataset_frames,
                "cycles_per_pixel": d.cycles_per_pixel,
                "kappa": d.kappa,
                "f_min": d.f_min,
                "f_max": d.f_max,
                "p_min": d.p_min,
                "p_max": d.p_max,
                "resolutions": list(d.resolutions),
            }
            for d in scenario.devices
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario JSON must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    try:
        acc = data.get("accuracy_model") or {}
        devices = [
            DeviceProfile(
                id=int(d["id"]),
                gain=float(d["gain"]),
                dataset_frames=int(d["dataset_frames"]),
                cycles_per_pixel=float(d.get("cycles_per_pixel", 737.0)),
                kappa=float(d.get("kappa", 1e-28)),
                f_min=float(d.get("f_min", 1e8)),
                f_max=float(d.get("f_max", 2e9)),
                p_min=float(d.get("p_min", 0.0)),
                p_max=float(d.get("p_max", 0.2)),
                resolutions=tuple(d.get("resolutions", DEFAULT_RESOLUTIONS)),
            )
            for d in data.get("devices", [])
        ]
        scenario = Scenario(
            devices=devices,
            total_bandwidth_hz=float(data["total_bandwidth_hz"]),
            noise_psd=float(data["noise_psd"]),
            model_size_bits=float(data["model_size_bits"]),
            global_rounds=int(data["global_rounds"]),
            local_iterations=int(data["local_iterations"]),
            scheme=str(data["scheme"]),
            n_channels=None if data.get("n_channels") is None else int(data["n_channels"]),
            accuracy_model=AccuracyModel(
                scale=float(acc.get("scale", 1.578)),
                decay=float(acc.get("decay", 6.5e-3)),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed scenario JSON: {exc}") from exc
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    """Write the scenario as JSON; loading it back reproduces it exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file.

    Raises :class:`ScenarioFormatError` with line/column context on syntax
    errors and :class:`ScenarioValidationError` listing every violated
    constraint otherwise.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    scenario = scenario_from_dict(data)
    errors = scenario.validate()
    if errors:
        raise ScenarioValidationError(errors)
    return scenario
