"""Round-level bookkeeping: per-device costs, system totals, the objective."""

import numpy as np
import pytest

from flmar import (
    Allocation,
    InfeasibleLinkError,
    Weights,
    noma_channel_rates,
    objective,
    pair_users,
    system_metrics,
    uplink_rates,
)

from conftest import make_scenario, equal_split_alloc

# 50-digit references for the two-device FDMA case below:
# device 0: g=1e-7, p=0.1, b=1e6, r=400, f=1e9, 30 frames
# device 1: g=1e-8, p=0.05, b=5e5, r=200, f=5e8, 20 frames
# shared: I=5, cpp=737, kappa=1e-28, s=2e6 bits, G=10 rounds
T_ROUND_0 = 17.782070152443775
E_ROUND_0 = 1.7782070152443775
T_ROUND_1 = 6.1189802823361161
E_ROUND_1 = 0.084849014116805806
E_TOTAL = 18.630560293611833
T_TOTAL = 177.82070152443775
J_REF = 114.41827447002233      # weights (0.4, 0.6, 0.5)
ACC_400 = 0.88279629357778114
ACC_200 = 0.56994483059232811


def two_device_fdma():
    scn = make_scenario([1e-7, 1e-8], frames=[30, 20], rounds=10,
                        iterations=5, model_bits=2e6)
    alloc = Allocation(
        power_w=np.array([0.1, 0.05]),
        cpu_hz=np.array([1e9, 5e8]),
        resolution_px=np.array([400, 200]),
        bandwidth_hz=np.array([1e6, 5e5]),
        pairing=None,
    )
    return scn, alloc


class TestDeviceRoundCost:
    """Each device's per-round costs, read off system_metrics' arrays."""

    def test_reference_values(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        t_cmp0, t_cmp1 = m.comp_time_s
        e_cmp0, e_cmp1 = m.comp_energy_j
        t_com0, t_com1 = m.comm_time_s
        e_com0, e_com1 = m.comm_energy_j
        assert t_cmp0 + t_com0 == pytest.approx(T_ROUND_0, rel=1e-12)
        assert e_cmp0 + e_com0 == pytest.approx(E_ROUND_0, rel=1e-12)
        assert t_cmp1 + t_com1 == pytest.approx(T_ROUND_1, rel=1e-12)
        assert e_cmp1 + e_com1 == pytest.approx(E_ROUND_1, rel=1e-12)
        # the compute parts alone are simple closed forms
        assert t_cmp0 == pytest.approx(17.688, rel=1e-15)
        assert e_cmp0 == pytest.approx(1.7688, rel=1e-15)

    def test_zero_power_is_infeasible(self):
        scn, alloc = two_device_fdma()
        alloc.power_w[0] = 0.0
        with pytest.raises(InfeasibleLinkError):
            system_metrics(scn, alloc)


class TestSystemMetrics:
    def test_totals_and_round_time(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        assert m.round_time_s == pytest.approx(T_ROUND_0, rel=1e-12)
        assert m.total_time_s == pytest.approx(T_TOTAL, rel=1e-12)
        assert m.total_energy_j == pytest.approx(E_TOTAL, rel=1e-12)

    def test_round_time_is_slowest_device(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        t0, t1 = m.comp_time_s + m.comm_time_s
        assert m.round_time_s == max(t0, t1)

    def test_accuracy_fields(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        np.testing.assert_allclose(m.accuracy, [ACC_400, ACC_200], rtol=1e-12)
        assert m.accuracy_loss == pytest.approx((1 - ACC_400) + (1 - ACC_200), rel=1e-12)
        assert m.mean_accuracy == pytest.approx((ACC_400 + ACC_200) / 2, rel=1e-12)

    def test_per_device_arrays(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        assert m.comp_time_s.shape == (2,)
        np.testing.assert_allclose(
            m.comp_time_s + m.comm_time_s, [T_ROUND_0, T_ROUND_1], rtol=1e-12)
        np.testing.assert_allclose(
            m.comp_energy_j + m.comm_energy_j, [E_ROUND_0, E_ROUND_1], rtol=1e-12)


class TestObjective:
    def test_reference_value(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        j = objective(Weights(0.4, 0.6, 0.5), m)
        assert j == pytest.approx(J_REF, rel=1e-12)

    def test_linear_in_weights(self):
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        j_e = objective(Weights(1.0, 0.0, 0.0), m)
        j_t = objective(Weights(0.0, 1.0, 0.0), m)
        j_a = objective(Weights(0.0, 0.0, 1.0), m)
        combined = objective(Weights(0.4, 0.6, 0.5), m)
        assert combined == pytest.approx(0.4 * j_e + 0.6 * j_t + 0.5 * j_a, rel=1e-12)
        assert j_e == pytest.approx(E_TOTAL, rel=1e-12)
        assert j_t == pytest.approx(T_TOTAL, rel=1e-12)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Weights(-0.1, 1.1, 0.5)
        with pytest.raises(ValueError):
            Weights(0.5, 0.5, -1.0)


class TestUplinkRates:
    def test_noma_rates_match_channel_model(self):
        scn = make_scenario([4e-9, 1e-9, 3e-9, 2e-9], scheme="noma")
        alloc = equal_split_alloc(scn, power=0.1)
        rates = uplink_rates(scn, alloc)
        # pairing is strongest-with-weakest: (0,1) and (2,3) by gain order
        bc = alloc.pairing.channel_bandwidth_hz
        rs, rw = noma_channel_rates(bc, (4e-9, 0.1), (1e-9, 0.1), scn.noise_psd)
        assert rates[0] == pytest.approx(rs, rel=1e-12)
        assert rates[1] == pytest.approx(rw, rel=1e-12)
        rs2, rw2 = noma_channel_rates(bc, (3e-9, 0.1), (2e-9, 0.1), scn.noise_psd)
        assert rates[2] == pytest.approx(rs2, rel=1e-12)
        assert rates[3] == pytest.approx(rw2, rel=1e-12)

    def test_fdma_missing_bandwidth_rejected(self):
        scn = make_scenario([1e-7, 1e-8])
        alloc = equal_split_alloc(scn)
        bad = Allocation(power_w=alloc.power_w, cpu_hz=alloc.cpu_hz,
                         resolution_px=alloc.resolution_px,
                         bandwidth_hz=None, pairing=None)
        with pytest.raises(ValueError):
            uplink_rates(scn, bad)


class TestAllocationValidate:
    def test_feasible_allocation_passes(self):
        scn, alloc = two_device_fdma()
        assert alloc.validate(scn) == []
        noma = make_scenario([4e-9, 1e-9], scheme="noma")
        assert equal_split_alloc(noma).validate(noma) == []

    def test_violations_collected(self):
        scn, alloc = two_device_fdma()
        alloc.power_w[0] = 0.5              # above p_max=0.2
        alloc.cpu_hz[1] = 1e7               # below f_min
        alloc.resolution_px[0] = 450        # not on the menu
        alloc.bandwidth_hz[1] = 25e6        # blows the bandwidth budget
        errors = alloc.validate(scn)
        assert len(errors) >= 4
        joined = " ".join(errors)
        for frag in ("power", "cpu", "resolution", "bandwidth"):
            assert frag in joined

    def test_noma_pairing_must_cover_devices(self):
        scn = make_scenario([4e-9, 1e-9, 3e-9, 2e-9], scheme="noma")
        alloc = equal_split_alloc(scn)
        bad_pairing = pair_users([4e-9, 1e-9], 1, scn.total_bandwidth_hz)
        bad = Allocation(power_w=alloc.power_w, cpu_hz=alloc.cpu_hz,
                         resolution_px=alloc.resolution_px,
                         bandwidth_hz=None, pairing=bad_pairing)
        assert any("pairing" in e for e in bad.validate(scn))

    def test_noma_strong_slot_must_have_larger_gain(self):
        from flmar import ChannelPairing
        scn = make_scenario([4e-9, 1e-9], scheme="noma")
        alloc = equal_split_alloc(scn)
        flipped = ChannelPairing(channels=((1, 0),),
                                 channel_bandwidth_hz=scn.total_bandwidth_hz)
        bad = Allocation(power_w=alloc.power_w, cpu_hz=alloc.cpu_hz,
                         resolution_px=alloc.resolution_px,
                         bandwidth_hz=None, pairing=flipped)
        assert any("weaker" in e for e in bad.validate(scn))


class TestScenarioValidate:
    def test_collects_multiple_errors(self):
        scn = make_scenario([1e-7, 1e-8])
        scn.devices[1] = scn.devices[0]     # duplicate id
        scn.global_rounds = 0
        errors = scn.validate()
        assert any("unique" in e for e in errors)
        assert any("global_rounds" in e for e in errors)

    def test_noma_needs_matching_channel_count(self):
        scn = make_scenario([1e-7, 1e-8, 1e-9, 1e-10], scheme="noma")
        scn.n_channels = 3
        assert any("channels" in e for e in scn.validate())
