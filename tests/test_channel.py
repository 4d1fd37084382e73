"""Uplink rate models: FDMA, two-user NOMA with SIC, and pairing."""

import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from flmar import (
    ChannelPairing,
    InfeasibleLinkError,
    LinkParams,
    comm_energy,
    comm_time,
    fdma_rate,
    noma_channel_rates,
    pair_users,
    sic_decode_order,
)

N0 = 3.98e-21

# Reference values computed with 50-digit arithmetic, held to float precision.
FDMA_RATE_REF = 21260728.807635124        # b=1 MHz, p=0.1 W, g=1e-7
NOMA_STRONG_REF = 1584924.2222283917      # Bc=1 MHz, g=(2e-9, 1e-9), p=(0.1, 0.1)
NOMA_WEAK_REF = 14616929.461787902
RATE_CEILING_REF = 3624861911781.3151     # g*p/(N0*ln2) for the FDMA case above


class TestFdmaRate:
    def test_reference_value(self):
        link = LinkParams(gain=1e-7, noise_psd=N0)
        assert fdma_rate(1e6, 0.1, link) == pytest.approx(FDMA_RATE_REF, rel=1e-12)

    def test_zero_power_gives_zero_rate(self):
        link = LinkParams(gain=1e-7, noise_psd=N0)
        assert fdma_rate(1e6, 0.0, link) == 0.0

    def test_scalar_in_scalar_out(self):
        link = LinkParams(gain=1e-7, noise_psd=N0)
        assert isinstance(fdma_rate(1e6, 0.1, link), float)

    def test_vectorized_matches_scalar(self):
        link = LinkParams(gain=np.array([1e-7, 1e-9]), noise_psd=N0)
        rates = fdma_rate(np.array([1e6, 2e6]), np.array([0.1, 0.05]), link)
        one = fdma_rate(2e6, 0.05, LinkParams(gain=1e-9, noise_psd=N0))
        assert rates.shape == (2,)
        assert rates[0] == pytest.approx(FDMA_RATE_REF, rel=1e-12)
        assert rates[1] == pytest.approx(one, rel=1e-15)

    def test_monotone_in_power_and_bandwidth(self):
        rng = np.random.default_rng(7)
        b = 10.0 ** rng.uniform(3, 8, size=2000)
        p = 10.0 ** rng.uniform(-4, 0, size=2000)
        g = 10.0 ** rng.uniform(-12, -6, size=2000)
        link = LinkParams(gain=g, noise_psd=N0)
        base = fdma_rate(b, p, link)
        assert np.all(fdma_rate(b, p * 1.01, link) > base)
        # rate = b*log2(1 + snr/b) is increasing in b for fixed received power
        assert np.all(fdma_rate(b * 1.01, p, link) > base)

    def test_bandwidth_ceiling(self):
        # as b grows the rate approaches g*p/(N0*ln2) from below
        link = LinkParams(gain=1e-7, noise_psd=N0)
        wide = fdma_rate(1e19, 0.1, link)
        assert wide < RATE_CEILING_REF
        assert wide == pytest.approx(RATE_CEILING_REF, rel=1e-6)

    def test_zero_bandwidth_gives_zero_rate(self):
        # b=0 means "no spectrum assigned", not an error
        link = LinkParams(gain=1e-7, noise_psd=N0)
        assert fdma_rate(0.0, 0.1, link) == 0.0

    def test_tiny_bandwidth_does_not_overflow(self):
        link = LinkParams(gain=1e-7, noise_psd=N0)
        r = fdma_rate(1e-9, 0.1, link)
        assert np.isfinite(r) and r > 0.0

    @pytest.mark.parametrize("b,p", [(-1.0, 0.1), (1e6, -0.1)])
    def test_rejects_bad_inputs(self, b, p):
        link = LinkParams(gain=1e-7, noise_psd=N0)
        with pytest.raises(ValueError):
            fdma_rate(b, p, link)

    def test_rejects_bad_link(self):
        with pytest.raises(ValueError):
            fdma_rate(1e6, 0.1, LinkParams(gain=0.0, noise_psd=N0))
        with pytest.raises(ValueError):
            fdma_rate(1e6, 0.1, LinkParams(gain=1e-7, noise_psd=0.0))


class TestNomaRates:
    def test_reference_values(self):
        rs, rw = noma_channel_rates(1e6, (2e-9, 0.1), (1e-9, 0.1), N0)
        assert rs == pytest.approx(NOMA_STRONG_REF, rel=1e-12)
        assert rw == pytest.approx(NOMA_WEAK_REF, rel=1e-12)

    def test_sum_rate_identity(self):
        # SIC makes the pair exactly fill the 2-user multiple-access capacity:
        # rate_s + rate_w == Bc*log2(1 + (g_s p_s + g_w p_w)/(N0 Bc))
        rng = np.random.default_rng(11)
        n = 1000
        bc = 10.0 ** rng.uniform(4, 7, size=n)
        g_w = 10.0 ** rng.uniform(-12, -7, size=n)
        g_s = g_w * 10.0 ** rng.uniform(0, 3, size=n)
        p_s = 10.0 ** rng.uniform(-3, 0, size=n)
        p_w = 10.0 ** rng.uniform(-3, 0, size=n)
        rs, rw = noma_channel_rates(bc, (g_s, p_s), (g_w, p_w), N0)
        agg = bc * np.log1p((g_s * p_s + g_w * p_w) / (N0 * bc)) / math.log(2)
        np.testing.assert_allclose(rs + rw, agg, rtol=1e-9)

    def test_weak_decodes_interference_free(self):
        _, rw = noma_channel_rates(1e6, (2e-9, 0.1), (1e-9, 0.1), N0)
        solo = fdma_rate(1e6, 0.1, LinkParams(gain=1e-9, noise_psd=N0))
        assert rw == pytest.approx(solo, rel=1e-12)

    def test_strong_rate_suffers_from_interference(self):
        rs, _ = noma_channel_rates(1e6, (2e-9, 0.1), (1e-9, 0.1), N0)
        solo = fdma_rate(1e6, 0.1, LinkParams(gain=2e-9, noise_psd=N0))
        assert rs < solo

    def test_zero_powers(self):
        rs, rw = noma_channel_rates(1e6, (2e-9, 0.0), (1e-9, 0.0), N0)
        assert rs == 0.0 and rw == 0.0

    def test_rejects_weaker_strong_user(self):
        with pytest.raises(ValueError):
            noma_channel_rates(1e6, (1e-9, 0.1), (2e-9, 0.1), N0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            noma_channel_rates(0.0, (2e-9, 0.1), (1e-9, 0.1), N0)


class TestSicDecodeOrder:
    def test_descending_gain(self):
        order = sic_decode_order([(0, 1e-9), (1, 5e-9), (2, 3e-9)])
        assert order == [1, 2, 0]

    def test_ties_break_by_id(self):
        assert sic_decode_order([(3, 1e-9), (1, 1e-9), (2, 2e-9)]) == [2, 1, 3]

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            sic_decode_order([(0, 0.0)])


class TestPairUsers:
    def test_strongest_with_weakest(self):
        pairing = pair_users([9.0, 7.0, 5.0, 3.0, 1.0, 0.5], 3, 6e6)
        assert pairing.channels == ((0, 5), (1, 4), (2, 3))
        assert pairing.channel_bandwidth_hz == pytest.approx(2e6)

    def test_unsorted_input(self):
        pairing = pair_users([1.0, 9.0, 3.0, 7.0], 2, 4e6)
        # indices refer to the input order: 9 pairs with 1, 7 with 3
        assert pairing.channels == ((1, 0), (3, 2))

    def test_perfect_matching_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = 2 * int(rng.integers(1, 12))
            gains = 10.0 ** rng.uniform(-12, -6, size=n)
            pairing = pair_users(gains, n // 2, 1e7)
            seen = [u for ch in pairing.channels for u in ch]
            assert sorted(seen) == list(range(n))
            for s, w in pairing.channels:
                assert gains[s] >= gains[w]

    def test_user_ids(self):
        pairing = pair_users([4.0, 2.0, 3.0, 1.0], 2, 4e6)
        assert sorted(pairing.user_ids) == [0, 1, 2, 3]

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            pair_users([1.0, 2.0, 3.0, 4.0], 3, 1e6)

    def test_rejects_odd_user_count(self):
        with pytest.raises(ValueError):
            pair_users([1.0, 2.0, 3.0], 1, 1e6)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            pair_users([1.0, 0.0], 1, 1e6)

    def test_pairing_keeps_the_tuple_form(self):
        # ids stored as two read-only arrays; equality, hash and repr are
        # those of the (strong, weak) tuple with the width
        pairing = pair_users([9.0, 7.0, 5.0, 3.0, 1.0, 0.5], 3, 6e6)
        channels = ((0, 5), (1, 4), (2, 3))
        built = ChannelPairing(channels=channels, channel_bandwidth_hz=2e6)
        assert pairing == built and hash(pairing) == hash(built) == hash((channels, 2e6))
        assert repr(pairing) == repr(built) == (
            "ChannelPairing(channels=((0, 5), (1, 4), (2, 3)), "
            "channel_bandwidth_hz=2000000.0)"
        )
        assert all(type(u) is int for pair in pairing.channels for u in pair)
        assert pairing.strong.tolist() == [0, 1, 2] and pairing.weak.tolist() == [5, 4, 3]
        assert pairing != ChannelPairing(channels=channels, channel_bandwidth_hz=3e6)
        assert pairing != ChannelPairing(channels=((0, 5), (2, 4), (1, 3)),
                                         channel_bandwidth_hz=2e6)
        assert pickle.loads(pickle.dumps(pairing)) == pairing
        with pytest.raises(ValueError):
            pairing.strong[0] = 1
        with pytest.raises(FrozenInstanceError):
            pairing.channel_bandwidth_hz = 1e6

    def test_pairing_structural_validation(self):
        with pytest.raises(ValueError):
            ChannelPairing(channels=((0, 0),), channel_bandwidth_hz=1e6)
        with pytest.raises(ValueError):
            ChannelPairing(channels=((0, 1), (1, 2)), channel_bandwidth_hz=1e6)


class TestCommTimeEnergy:
    def test_time_is_bits_over_rate(self):
        assert comm_time(2e6, 1e6) == pytest.approx(2.0)

    def test_energy_is_power_times_time(self):
        assert comm_energy(0.1, 2.0) == pytest.approx(0.2)

    def test_zero_rate_is_infeasible(self):
        with pytest.raises(InfeasibleLinkError):
            comm_time(2e6, 0.0)

    def test_vectorized_zero_rate_is_infeasible(self):
        with pytest.raises(InfeasibleLinkError):
            comm_time(2e6, np.array([1e6, 0.0]))

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            comm_time(-1.0, 1e6)
