"""Scenario generation and JSON persistence.

Channel gains follow an urban-macro path-loss law with optional Rayleigh
fading.  Every per-device draw uses its own counter-based generator keyed by
``(seed, device_index)``, so a device's parameters do not depend on how many
other devices exist or in which order they are generated.

Device k's stream is ``Generator(Philox(SeedSequence((seed, k))))``.  The
draw computes all of its Philox keys, ``SeedSequence((seed, k))
.generate_state(2, np.uint64)``, at once, by numpy's SeedSequence hash
(NEP 19) written over uint32 words held in uint64 arrays and masked to 32
bits after each product: the seed's words are Python ints shared by every
device, and k is one array lane (a Python int per device in a small draw,
where the array's fixed cost would dominate).  One Philox generator is then
re-keyed through its ``state`` setter for each device in turn, which gives
the stream a fresh ``Philox(key=...)`` would.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .accounting import Scenario
from .compute import DEFAULT_RESOLUTIONS, AccuracyModel, DeviceProfile, DeviceTable

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
            if not 0 < lo <= hi < math.inf:
                errors.append(f"spec: {name} must satisfy 0 < lo <= hi < inf, got {rng}")
        if not 0.0 <= self.p_min < math.inf:
            errors.append(f"spec: p_min must be non-negative and finite, got {self.p_min}")
        if self.p_max_range[0] < self.p_min:
            errors.append(
                f"spec: p_max_range low end {self.p_max_range[0]} below p_min {self.p_min}"
            )
        if not 0.0 < self.f_min <= self.f_max_range[0]:
            errors.append(
                f"spec: need 0 < f_min <= f_max_range low end, got f_min={self.f_min}, "
                f"f_max_range={self.f_max_range}"
            )
        return errors


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# from this many devices on, the keys are hashed as one array of indices:
# the array pass costs about as much as 8 hashes of Python-int indices
_ARRAY_KEYS_FROM = 8


def _seed_words(seed) -> list:
    """The seed's uint32 entropy words, least significant first, as
    SeedSequence assembles them; a seed it rejects raises its own error."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        np.random.SeedSequence((seed, 0))
        raise TypeError(f"seed must be a non-negative int, got {seed!r}")
    seed = int(seed)
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """numpy's ``hashmix``: xor the running constant in, step the constant,
    multiply by it and fold the high half down.  Every product of two 32-bit
    values fits 64 bits, so masking to 32 bits gives numpy's uint32 result
    for an int and for a uint64 array alike."""
    def hashmix(value):
        nonlocal const
        const, value = const * mult & _MASK32, value ^ const
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    # an array difference wraps modulo 2**64, a multiple of 2**32
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _philox_key(words: list, k) -> tuple:
    """``SeedSequence((seed, k)).generate_state(2, np.uint64)`` as two
    64-bit halves, for the seed's ``words``.  ``k`` is a device index, an
    int, or a uint64 array of them; each half is then an array too."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    entropy = [*words, k]
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # a seed of 2**96 or more leaves entropy words past the pool
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = list(map(_hasher(_INIT_B, _MULT_B), pool))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox_keys(seed, n: int):
    """The Philox key of each of devices 0..n-1, a pair of ints each."""
    words = _seed_words(seed)
    if n < _ARRAY_KEYS_FROM:
        return [_philox_key(words, k) for k in range(n)]
    low, high = _philox_key(words, np.arange(n, dtype=np.uint64))
    return zip(low.tolist(), high.tolist())


def _device_gain(spec: ScenarioSpec, distance_km: float, fading: float) -> float:
    # per device, not over arrays: numpy's array log10 and power differ from
    # the scalar ones in the last bit on some hosts (SIMD loops)
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
    n = spec.n_devices
    gain, p_max, f_max, frames = (np.empty(n) for _ in range(4))
    # one generator, set before each device to a fresh Philox's state with
    # that device's key
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for k, key in enumerate(_philox_keys(seed, n)):
        state["state"]["key"] = key
        bit_generator.state = state
        d_km = rng.uniform(*spec.distance_range_km)
        fading = rng.exponential(1.0) if spec.rayleigh_fading else 1.0
        p_max[k] = rng.uniform(*spec.p_max_range)
        f_max[k] = rng.uniform(*spec.f_max_range)
        frames[k] = rng.integers(spec.frames_range[0], spec.frames_range[1] + 1)
        gain[k] = _device_gain(spec, d_km, fading)
    devices = DeviceTable(
        ids=range(n),      # no int object per device
        gain=gain,
        p_min=np.full(n, spec.p_min, dtype=float),
        p_max=p_max,
        f_min=np.full(n, spec.f_min, dtype=float),
        f_max=f_max,
        kappa=np.full(n, spec.kappa, dtype=float),
        cycles_per_pixel=np.full(n, spec.cycles_per_pixel, dtype=float),
        frames=frames,
        resolutions=(tuple(int(r) for r in spec.resolutions),) * n,
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
        "devices": [asdict(d) for d in scenario.devices],
    }


# Device keys a file may omit, with their casts; an omitted key takes the
# DeviceProfile field default, as an omitted accuracy key takes AccuracyModel's.
_OPTIONAL_DEVICE_KEYS = {
    "cycles_per_pixel": float,
    "kappa": float,
    "f_min": float,
    "f_max": float,
    "p_min": float,
    "p_max": float,
    "resolutions": tuple,
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
                **{key: cast(d[key]) for key, cast in _OPTIONAL_DEVICE_KEYS.items()
                   if key in d},
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
                **{key: float(acc[key]) for key in ("scale", "decay") if key in acc}
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
