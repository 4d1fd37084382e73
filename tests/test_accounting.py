"""Round-level bookkeeping: per-device costs, system totals, the objective."""

import gc
import math
import tracemalloc
from dataclasses import make_dataclass, replace

import numpy as np
import pytest

from flmar import (
    Allocation,
    InfeasibleLinkError,
    LinkParams,
    ScenarioSpec,
    Weights,
    brute_force_oracle,
    comm_energy,
    comm_time,
    comp_energy,
    comp_time,
    cycles_per_frame,
    detection_accuracy,
    fdma_rate,
    generate_scenario,
    noma_channel_rates,
    objective,
    optimize,
    pair_users,
    random_baseline,
    system_metrics,
    uplink_rates,
)
from flmar.experiments import scenario_for_cell

from conftest import make_scenario, equal_split_alloc, wide_box_draw, wide_box_weights

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


def eager_costs(scn, alloc):
    """Every per-device array and total of ``alloc``, computed at once from
    the compute and channel kernels."""
    table = scn.devices
    cyc = cycles_per_frame(alloc.resolution_px, table.cycles_per_pixel)
    t_cmp = comp_time(scn.local_iterations, cyc, table.frames, alloc.cpu_hz)
    e_cmp = comp_energy(table.kappa, scn.local_iterations, cyc, table.frames, alloc.cpu_hz)
    if scn.scheme == "fdma":
        rates = fdma_rate(alloc.bandwidth_hz, alloc.power_w,
                          LinkParams(gain=table.gain, noise_psd=scn.noise_psd))
    else:
        strong, weak = table.pair_positions(alloc.pairing)
        rates = np.empty(scn.n_devices)
        rates[strong], rates[weak] = noma_channel_rates(
            alloc.pairing.channel_bandwidth_hz, (table.gain[strong], alloc.power_w[strong]),
            (table.gain[weak], alloc.power_w[weak]), scn.noise_psd)
    t_com = comm_time(scn.model_size_bits, rates)
    e_com = comm_energy(alloc.power_w, t_com)
    acc = detection_accuracy(alloc.resolution_px, scn.accuracy_model)
    arrays = [np.atleast_1d(np.asarray(x, dtype=float)) for x in (t_cmp, e_cmp, t_com, e_com, acc)]
    t_cmp, e_cmp, t_com, e_com, acc = arrays
    round_time = float((t_cmp + t_com).max())
    totals = (round_time, scn.global_rounds * round_time,
              scn.global_rounds * float((e_cmp + e_com).sum()), float((1.0 - acc).sum()),
              float(acc.mean()))
    return arrays, totals


ARRAYS = ("comp_time_s", "comp_energy_j", "comm_time_s", "comm_energy_j", "accuracy")
TOTALS = ("round_time_s", "total_time_s", "total_energy_j", "accuracy_loss", "mean_accuracy")


def assert_matches_eager(scn, alloc, metrics):
    arrays, totals = eager_costs(scn, alloc)
    assert [getattr(metrics, name) for name in TOTALS] == list(totals)
    for name, want in zip(ARRAYS, arrays):
        got = getattr(metrics, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def report_cases():
    """(name, scenario, weights) for default 40-device, pinned and wide-box
    draws and 640-device scenarios."""
    for scheme in ("fdma", "noma"):
        yield (f"default40-{scheme}",
               generate_scenario(ScenarioSpec(n_devices=40, scheme=scheme, master_seed=1)),
               Weights(0.5, 0.5, 0.5))
        yield (f"scale640-{scheme}", scenario_for_cell(ScenarioSpec(), scheme, 0.2, 1, 0, 640),
               Weights(0.5, 0.5, 500.0))
    for k in (0, 1, 2, 5):
        for pinned in (True, False):
            yield f"wide{k}-{'pinned' if pinned else 'free'}", wide_box_draw(k, pinned), \
                wide_box_weights(k)


class TestMetricsOnRead:
    """Totals are stored at the call and the per-device arrays computed on
    first read, equal bit for bit to computing both at once."""

    @pytest.mark.parametrize("case", list(report_cases()), ids=lambda case: case[0])
    def test_reports_match_an_eager_computation(self, case):
        _, scn, w = case
        reports = [optimize(scn, w), random_baseline(scn, w, seed=3)]
        if scn.n_devices <= 3:
            reports.append(brute_force_oracle(scn, w))
        for report in reports:
            alloc = report.allocation
            assert_matches_eager(scn, alloc, report.metrics)
            assert objective(w, report.metrics) == report.objective
            # the report's arrays are read-only and its metrics hold them
            held = report.metrics.source[1]
            for name in ("power_w", "cpu_hz", "resolution_px", "bandwidth_hz"):
                a = getattr(alloc, name)
                assert getattr(held, name) is a
                assert a is None or not a.flags.writeable
            for name in ARRAYS:
                assert not getattr(report.metrics, name).flags.writeable

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_mutating_the_callers_allocation_changes_nothing(self, scheme):
        scn = make_scenario([4e-9, 1e-9, 3e-9, 2e-9], scheme=scheme)
        alloc = equal_split_alloc(scn)
        unread = system_metrics(scn, alloc)
        read = system_metrics(scn, alloc)
        want = eager_costs(scn, alloc)
        arrays = [getattr(read, name).copy() for name in ARRAYS]
        alloc.power_w[:] = 0.05
        alloc.cpu_hz *= 2.0
        alloc.resolution_px[0] = 100
        if scheme == "fdma":
            alloc.bandwidth_hz[:2] = (1e6, 3e6)
        alloc.power_w = np.full(4, 0.01)
        for metrics in (unread, read):
            assert [getattr(metrics, name) for name in TOTALS] == list(want[1])
            for name, before in zip(ARRAYS, want[0]):
                assert getattr(metrics, name).tobytes() == before.tobytes(), name
        for name, before in zip(ARRAYS, arrays):
            assert getattr(read, name).tobytes() == before.tobytes(), name

    def test_repr_keeps_the_stored_fields_format(self):
        # the fields, their order and their format of the dataclass that
        # stored every array, so reports still compare by repr
        scn, alloc = two_device_fdma()
        m = system_metrics(scn, alloc)
        names = ("comp_time_s", "comp_energy_j", "comm_time_s", "comm_energy_j",
                 "round_time_s", "total_time_s", "total_energy_j", "accuracy", "accuracy_loss")
        stored = make_dataclass("SystemMetrics", names)
        assert repr(m) == repr(stored(**{name: getattr(m, name) for name in names}))

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_640_device_report_retains_little(self, scheme):
        # the allocation's arrays, held once; the metrics' five per-device
        # arrays kept 25.6 KB more before they were computed on read
        scn = scenario_for_cell(ScenarioSpec(), scheme, 0.2, 0, 0, 640)
        w = Weights(0.5, 0.5, 0.5)
        optimize(scn, w)                # the scenario's own caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = optimize(scn, w)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.allocation.power_w.size == 640 and retained <= 24_000, retained


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_weights_must_be_finite(self, bad, position):
        values = [0.5, 0.5, 0.5]
        values[position] = bad
        with pytest.raises(ValueError, match="finite"):
            Weights(*values)


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

    def test_non_finite_values_reported(self):
        scn, alloc = two_device_fdma()
        alloc.power_w[0] = math.nan
        alloc.cpu_hz[1] = math.inf
        # a NaN bandwidth passed both the sign test and the sum test
        alloc.bandwidth_hz[:] = (math.nan, 1e6)
        joined = " ".join(alloc.validate(scn))
        for frag in ("power nan", "cpu_hz inf", "bandwidths"):
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


    def test_flipped_pair_is_reported_by_device_id(self):
        from flmar import ChannelPairing
        scn = make_scenario([4e-9, 1e-9, 3e-9, 2e-9], scheme="noma")
        scn = replace(scn, devices=[replace(d, id=uid)
                                    for d, uid in zip(scn.devices, (7, 3, 9, 1))])
        alloc = equal_split_alloc(scn)
        flipped = ChannelPairing(channels=((7, 3), (1, 9)),
                                 channel_bandwidth_hz=scn.total_bandwidth_hz / 2)
        bad = Allocation(power_w=alloc.power_w, cpu_hz=alloc.cpu_hz,
                         resolution_px=alloc.resolution_px,
                         bandwidth_hz=None, pairing=flipped)
        assert bad.validate(scn) == ["allocation: pair (1, 9) lists the weaker user first"]


class TestScenarioValidate:
    def test_collects_multiple_errors(self):
        scn = make_scenario([1e-7, 1e-8])
        scn = replace(scn, devices=[scn.devices[0], scn.devices[0]],   # duplicate id
                      global_rounds=0)
        errors = scn.validate()
        assert any("unique" in e for e in errors)
        assert any("global_rounds" in e for e in errors)

    def test_noma_needs_matching_channel_count(self):
        scn = replace(make_scenario([1e-7, 1e-8, 1e-9, 1e-10], scheme="noma"), n_channels=3)
        assert any("channels" in e for e in scn.validate())
