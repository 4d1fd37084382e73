"""Uplink channel models: FDMA and two-user NOMA with successive interference
cancellation.

Rates follow the Shannon AWGN capacity with the noise power scaled by the
allocated bandwidth.  All rate/time/energy functions accept scalars or numpy
arrays and are pure, so they can be evaluated from worker threads without any
coordination.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

_LN2 = math.log(2.0)


class InfeasibleLinkError(ValueError):
    """A link with zero rate cannot carry the scheduled upload."""


def _maybe_scalar(x: np.ndarray):
    """Return a python float for 0-d results, the array otherwise."""
    if x.ndim == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class LinkParams:
    """Point-to-point link: linear channel power gain and noise PSD in W/Hz.

    Fields may hold scalars or equal-shape arrays for batch evaluation.
    """

    gain: float | np.ndarray
    noise_psd: float | np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.gain) <= 0.0):
            raise ValueError("gain must be positive")
        if np.any(np.asarray(self.noise_psd) <= 0.0):
            raise ValueError("noise_psd must be positive")


def shannon_rate(bandwidth_hz, snr):
    """Unchecked rate kernel: b * log2(1 + snr) in bit/s.

    The one place the Shannon rate is written.  No validation and no
    scalar conversion, so solver inner loops call it directly; the checked
    functions below validate first and then call it.
    """
    return bandwidth_hz * np.log1p(snr) / _LN2


def power_for_rate(bandwidth_hz, rate_bps, noise_w, gain):
    """Unchecked inverse kernel: the power that reaches ``rate_bps`` on
    ``bandwidth_hz`` against ``noise_w`` watts of noise plus interference,

        p = noise_w / gain * (2**(rate / b) - 1).

    Large rates overflow to inf; callers that expect them silence numpy.
    """
    return noise_w / gain * np.expm1(rate_bps / bandwidth_hz * _LN2)


def fdma_rate(bandwidth_hz, power_w, link: LinkParams):
    """Achievable uplink rate on an interference-free channel, in bit/s.

    rate = b * log2(1 + g * p / (N0 * b))

    The rate is zero exactly when the bandwidth or the transmit power is
    zero.  It is strictly increasing in both arguments and approaches the
    bandwidth-unlimited ceiling g * p / (N0 * ln 2) as b grows.
    """
    b = np.asarray(bandwidth_hz, dtype=float)
    p = np.asarray(power_w, dtype=float)
    if np.any(b < 0.0):
        raise ValueError("bandwidth_hz must be non-negative")
    if np.any(p < 0.0):
        raise ValueError("power_w must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = shannon_rate(b, link.gain * p / (np.asarray(link.noise_psd) * b))
    rate = np.where((b > 0.0) & (p > 0.0), rate, 0.0)
    return _maybe_scalar(rate)


def noma_channel_rates(channel_bandwidth_hz, strong, weak, noise_psd):
    """Rates of the two users multiplexed on one NOMA uplink channel.

    ``strong`` and ``weak`` are ``(gain, power_w)`` tuples ordered so that
    gain(strong) >= gain(weak).  The receiver decodes the strong user first,
    treating the weak signal as noise, then cancels it and decodes the weak
    user interference-free:

        rate_strong = B_c * log2(1 + g_s p_s / (g_w p_w + N0 B_c))
        rate_weak   = B_c * log2(1 + g_w p_w / (N0 B_c))

    Returns ``(rate_strong, rate_weak)`` in bit/s.
    """
    bc = np.asarray(channel_bandwidth_hz, dtype=float)
    g_s = np.asarray(strong[0], dtype=float)
    p_s = np.asarray(strong[1], dtype=float)
    g_w = np.asarray(weak[0], dtype=float)
    p_w = np.asarray(weak[1], dtype=float)
    if np.any(bc <= 0.0):
        raise ValueError("channel_bandwidth_hz must be positive")
    if np.any(g_s <= 0.0) or np.any(g_w <= 0.0):
        raise ValueError("gains must be positive")
    if np.any(p_s < 0.0) or np.any(p_w < 0.0):
        raise ValueError("powers must be non-negative")
    if np.any(g_s < g_w):
        raise ValueError("strong user must have the larger gain")
    noise = np.asarray(noise_psd, dtype=float) * bc
    rate_s = shannon_rate(bc, g_s * p_s / (g_w * p_w + noise))
    rate_s = np.where(p_s > 0.0, rate_s, 0.0)
    rate_w = shannon_rate(bc, g_w * p_w / noise)
    return _maybe_scalar(rate_s), _maybe_scalar(rate_w)


def sic_decode_order(users) -> list:
    """Decode order for successive interference cancellation.

    ``users`` is an iterable of ``(id, gain)``.  Stronger users are decoded
    first; equal gains fall back to ascending id so the order is total.
    """
    users = list(users)
    for uid, gain in users:
        if gain <= 0.0:
            raise ValueError(f"gain of user {uid} must be positive")
    return [uid for uid, gain in sorted(users, key=lambda ug: (-ug[1], ug[0]))]


class ChannelPairing:
    """Assignment of users to NOMA channels, two users per channel.

    ``channels[k] = (strong_id, weak_id)`` with gain(strong) >= gain(weak).
    Every user id appears exactly once.  All channels share the same width.

    The ids are stored as two read-only int arrays, ``strong`` and
    ``weak``, one entry per channel; ``channels`` builds the tuple of
    ``(strong_id, weak_id)`` pairs from them on each access, and equality,
    hash and repr are those of that tuple with the width.
    """

    __slots__ = ("strong", "weak", "channel_bandwidth_hz")

    def __init__(self, channels, channel_bandwidth_hz: float):
        pairs = [(int(s), int(w)) for s, w in channels]
        if channel_bandwidth_hz <= 0.0:
            raise ValueError("channel_bandwidth_hz must be positive")
        if not pairs:
            raise ValueError("pairing needs at least one channel")
        strong, weak = zip(*pairs)
        self._set(strong, weak, channel_bandwidth_hz)
        ids = strong + weak
        if len(set(ids)) != len(ids):
            raise ValueError("a user id appears on more than one channel")

    @classmethod
    def by_gain(cls, ids, gains, channel_bandwidth_hz: float) -> ChannelPairing:
        """The NOMA pairing rule on users ``ids`` with ``gains``, an even
        count: the k-th strongest user with the k-th weakest, strongest pair
        first; equal gains go to the lower id first, as in
        :func:`sic_decode_order`.  The caller has checked the users."""
        ids = np.array(ids)
        order = ids[np.lexsort((ids, -np.asarray(gains, dtype=float)))]
        half = len(order) // 2
        pairing = object.__new__(cls)
        pairing._set(order[:half], order[::-1][:half], channel_bandwidth_hz)
        return pairing

    def _set(self, strong, weak, channel_bandwidth_hz) -> None:
        for name, ids in (("strong", strong), ("weak", weak)):
            ids = np.array(ids)         # a copy, so no view keeps a larger base
            ids.flags.writeable = False
            object.__setattr__(self, name, ids)
        object.__setattr__(self, "channel_bandwidth_hz", channel_bandwidth_hz)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def channels(self) -> tuple:
        return tuple(zip(self.strong.tolist(), self.weak.tolist()))

    @property
    def user_ids(self) -> list:
        return np.column_stack((self.strong, self.weak)).ravel().tolist()

    def _key(self) -> tuple:
        return self.channels, self.channel_bandwidth_hz

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self):
        return (f"{type(self).__qualname__}(channels={self.channels!r}, "
                f"channel_bandwidth_hz={self.channel_bandwidth_hz!r})")


def pair_users(gains, n_channels: int, total_bandwidth_hz: float) -> ChannelPairing:
    """Pair 2*n_channels users onto channels: k-th strongest with k-th weakest.

    ``gains`` is indexed by user id.  The strongest user shares a channel
    with the weakest, the second strongest with the second weakest, and so
    on; this maximises the gain disparity the interference cancellation
    relies on.  Ties in gain are broken by ascending user id.
    """
    gains = np.asarray(gains, dtype=float)
    if n_channels < 1:
        raise ValueError("n_channels must be at least 1")
    if len(gains) != 2 * n_channels:
        raise ValueError(
            f"need exactly {2 * n_channels} users for {n_channels} channels, "
            f"got {len(gains)}"
        )
    if np.any(gains <= 0.0):
        raise ValueError("gains must be positive")
    if total_bandwidth_hz <= 0.0:
        raise ValueError("total_bandwidth_hz must be positive")
    return ChannelPairing.by_gain(
        np.arange(len(gains)), gains, total_bandwidth_hz / n_channels
    )


def comm_time(model_size_bits, rate_bps):
    """Upload duration in seconds: model size divided by link rate."""
    s = np.asarray(model_size_bits, dtype=float)
    r = np.asarray(rate_bps, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("model_size_bits must be non-negative")
    if np.any(r < 0.0):
        raise ValueError("rate_bps must be non-negative")
    if np.any(r == 0.0):
        raise InfeasibleLinkError("zero rate: upload never completes")
    return _maybe_scalar(s / r)


def comm_energy(power_w, comm_time_s):
    """Transmit energy in joules: power times upload duration."""
    p = np.asarray(power_w, dtype=float)
    t = np.asarray(comm_time_s, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("power_w must be non-negative")
    if np.any(t < 0.0):
        raise ValueError("comm_time_s must be non-negative")
    return _maybe_scalar(p * t)
