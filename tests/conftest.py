"""Shared builders for the test suite.

Most tests want a small hand-made scenario with known numbers rather than a
randomly generated one, so the factories here keep every constant explicit.
"""

import math
from dataclasses import replace

import numpy as np

from flmar import (
    Allocation,
    DeviceProfile,
    Scenario,
    ScenarioSpec,
    Weights,
    generate_scenario,
    pair_users,
)

RESOLUTIONS = (100, 200, 300, 400, 500)


def make_device(id=0, gain=1e-9, frames=100, **kw):
    params = dict(
        cycles_per_pixel=737.0,
        kappa=1e-28,
        f_min=1e8,
        f_max=2e9,
        p_min=0.0,
        p_max=0.2,
        resolutions=RESOLUTIONS,
    )
    params.update(kw)
    return DeviceProfile(id=id, gain=gain, dataset_frames=frames, **params)


def make_scenario(gains, scheme="fdma", frames=None, bandwidth=20e6, rounds=10,
                  iterations=5, model_bits=2e6, **device_kw):
    if frames is None:
        frames = [100] * len(gains)
    devices = [
        make_device(id=i, gain=g, frames=fr, **device_kw)
        for i, (g, fr) in enumerate(zip(gains, frames))
    ]
    n_channels = len(gains) // 2 if scheme == "noma" else None
    return Scenario(
        devices=devices,
        total_bandwidth_hz=bandwidth,
        model_size_bits=model_bits,
        global_rounds=rounds,
        local_iterations=iterations,
        scheme=scheme,
        n_channels=n_channels,
    )


def equal_split_alloc(scn, power=0.1, cpu=1e9, resolution=400):
    """Feasible allocation: equal bandwidth split or deterministic pairing."""
    n = scn.n_devices
    power_w = np.full(n, power)
    cpu_hz = np.full(n, cpu)
    res = np.full(n, resolution)
    if scn.scheme == "fdma":
        bw = np.full(n, scn.total_bandwidth_hz / n)
        return Allocation(power_w=power_w, cpu_hz=cpu_hz, resolution_px=res,
                          bandwidth_hz=bw, pairing=None)
    gains = [d.gain for d in scn.devices]
    pairing = pair_users(gains, scn.n_channels, scn.total_bandwidth_hz)
    return Allocation(power_w=power_w, cpu_hz=cpu_hz, resolution_px=res,
                      bandwidth_hz=None, pairing=pairing)


def wide_box_draw(k, pinned=True):
    """Instance k of the benchmark's wide parameter box, rebuilt here from
    its draws; ``pinned`` raises p_min to 5-50 % of p_max."""
    n, scheme = ((2, "fdma"), (2, "noma"), (3, "fdma"))[k % 3]
    rng = np.random.default_rng((8324, k))
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))  # noqa: E731
    bandwidth = log_uniform(0.3e6, 30e6)
    model_bits = log_uniform(1e5, 1e7)
    rng.uniform(0.1, 0.9)           # w1
    log_uniform(0.1, 1000.0)        # w3
    share = rng.uniform(0.05, 0.5, size=n)
    spec = ScenarioSpec(n_devices=n, scheme=scheme, p_max_range=(0.1, 0.5),
                        f_max_range=(0.5e9, 3e9), total_bandwidth_hz=bandwidth,
                        model_size_bits=model_bits)
    scn = generate_scenario(spec, seed=int(rng.integers(2**62)))
    if not pinned:
        return scn
    return replace(scn, devices=[replace(dv, p_min=float(x) * dv.p_max)
                                 for dv, x in zip(scn.devices, share)])


def wide_box_weights(k):
    """The weights the benchmark draws for wide-box instance k."""
    rng = np.random.default_rng((8324, k))
    draw = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))  # noqa: E731
    draw(0.3e6, 30e6)           # bandwidth
    draw(1e5, 1e7)              # model size
    w1 = rng.uniform(0.1, 0.9)
    return Weights(w1, 1.0 - w1, draw(0.1, 1000.0))
