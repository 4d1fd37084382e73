"""Host-speed calibration for the reported times.

On a shared host the speed of this process switches between a fast and a
slow phase within seconds, and drifts by 30-50 % over minutes, as other
tenants load the machine; every solve slows with it.  The benchmark runs a
fixed kernel after every batch of ops and scales the batch's times by
``(REFERENCE_MS / mean kernel time around it) ** SENSITIVITY``, which
reports them at the speed at which the kernel takes ``REFERENCE_MS`` and
removes most of that drift.  The kernel mimics the solver's work
(bisections over small numpy arrays, a Lambert-W evaluation, Python
bookkeeping) so that it slows when the solver does, and it shares no code
with flmar, so changes to flmar cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.special import lambertw

REFERENCE_MS = 5.0          # kernel time at the reference speed
MIN_RUNS = 3
SHARE = 0.02                # of the measured time spent calibrating after it
# Solves slow down less than the kernel.  Re-fitted on two sets of ten runs
# of each workload, the exponent that minimises a gated time's run-to-run
# spread ranged from 0.5 to 1.0; 0.7 brought the spread below the unscaled one
# for 23 of the 24 gated times (4 workloads x 3 times x 2 sets).
SENSITIVITY = 0.7


def kernel_ms() -> float:
    """Run the calibration kernel once; returns its wall time in ms."""
    started = perf_counter()
    gain = np.linspace(1e-9, 1e-7, 40)
    log = []
    for rep in range(7):
        lo = np.full(40, 1e-3)
        hi = np.full(40, 1e3)
        for _ in range(48):
            mid = np.sqrt(lo * hi)
            below = mid * np.log1p(gain * 1e9 / (mid + 1.0)) < 1.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        w = lambertw(-0.3 * np.exp(-1.0 - lo / (lo + 1.0)), k=0).real
        log.append({"rep": rep, "sum": float(w.sum())})
    return (perf_counter() - started) * 1e3


def sample_ms(measured_s: float) -> float:
    """Mean kernel time over enough runs to cost ``SHARE`` of ``measured_s``.

    The mean, not the median, because the host switches between a fast and
    a slow phase within seconds and the mean follows the mix of the two.
    """
    runs = [kernel_ms() for _ in range(MIN_RUNS)]
    while sum(runs) < SHARE * measured_s * 1e3:
        runs.append(kernel_ms())
    return statistics.fmean(runs)


def time_scale(samples) -> float:
    """Multiplier taking a time measured alongside ``samples`` to the reference speed."""
    return (REFERENCE_MS / statistics.fmean(samples)) ** SENSITIVITY
