"""Local training cost model and the resolution/accuracy curve."""

from dataclasses import replace

import numpy as np
import pytest

from flmar import (
    AccuracyModel,
    DeviceProfile,
    ScenarioValidationError,
    Weights,
    comp_energy,
    comp_time,
    cycles_per_frame,
    detection_accuracy,
    optimize,
)

from conftest import make_scenario

# 50-digit references for the defaults (scale=1.578, decay=6.5e-3)
ACC_400_REF = 0.88279629357778114
CLAMP_BOUNDARY = 70.178            # below this the raw curve is negative


class TestCycles:
    def test_reference_value(self):
        # 737 cycles/px * 400^2 px, exact in float64
        assert cycles_per_frame(400, 737.0) == 117920000.0

    def test_quadratic_in_resolution(self):
        assert cycles_per_frame(800, 737.0) == 4 * cycles_per_frame(400, 737.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cycles_per_frame(0, 737.0)
        with pytest.raises(ValueError):
            cycles_per_frame(400, -1.0)


class TestCompTimeEnergy:
    def test_time_reference(self):
        # 5 iterations * 117.92 Mcycles/frame * 30 frames at 1 GHz
        t = comp_time(5, 117920000.0, 30, 1e9)
        assert t == pytest.approx(17.688, rel=1e-15)

    def test_energy_reference(self):
        e = comp_energy(1e-28, 5, 117920000.0, 30, 1e9)
        assert e == pytest.approx(1.7688, rel=1e-15)

    def test_frequency_scaling(self):
        # doubling f halves time and quadruples energy (quantities exact
        # in binary because the factor is a power of two)
        t1 = comp_time(5, 117920000.0, 30, 1e9)
        t2 = comp_time(5, 117920000.0, 30, 2e9)
        assert t2 == t1 / 2
        e1 = comp_energy(1e-28, 5, 117920000.0, 30, 1e9)
        e2 = comp_energy(1e-28, 5, 117920000.0, 30, 2e9)
        assert e2 == 4 * e1

    def test_scaling_law_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cyc = 10.0 ** rng.uniform(6, 9)
            f = 10.0 ** rng.uniform(8, 9.5)
            alpha = rng.uniform(1.1, 4.0)
            t, ts = comp_time(3, cyc, 10, f), comp_time(3, cyc, 10, alpha * f)
            e, es = comp_energy(1e-28, 3, cyc, 10, f), comp_energy(1e-28, 3, cyc, 10, alpha * f)
            assert ts == pytest.approx(t / alpha, rel=1e-12)
            assert es == pytest.approx(alpha**2 * e, rel=1e-12)

    def test_vectorized(self):
        t = comp_time(5, np.array([117920000.0, 117920000.0]), 30, np.array([1e9, 2e9]))
        np.testing.assert_allclose(t, [17.688, 8.844], rtol=1e-15)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            comp_time(5, 1e8, 30, 0.0)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            comp_energy(-1e-28, 5, 1e8, 30, 1e9)


class TestDetectionAccuracy:
    def test_reference_value(self):
        assert detection_accuracy(400) == pytest.approx(ACC_400_REF, rel=1e-12)

    def test_clamped_to_zero_at_low_resolution(self):
        assert detection_accuracy(70) == 0.0
        assert detection_accuracy(1) == 0.0

    def test_saturates_at_one(self):
        assert detection_accuracy(1e7) == 1.0

    def test_monotone_nondecreasing(self):
        r = np.linspace(1, 2000, 500)
        acc = detection_accuracy(r)
        assert np.all(np.diff(acc) >= 0.0)
        assert np.all((acc >= 0.0) & (acc <= 1.0))

    def test_clamp_boundary(self):
        assert detection_accuracy(CLAMP_BOUNDARY - 0.01) == 0.0
        assert detection_accuracy(CLAMP_BOUNDARY + 0.01) > 0.0

    def test_custom_model(self):
        model = AccuracyModel(scale=0.5, decay=1e-3)
        # raw value 1 - 0.5*exp(-0.1), never clamped for scale < 1
        assert detection_accuracy(100, model) == pytest.approx(
            1 - 0.5 * np.exp(-0.1), rel=1e-15
        )

    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ValueError):
            detection_accuracy(0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            AccuracyModel(scale=-1.0, decay=1e-3)
        with pytest.raises(ValueError):
            AccuracyModel(scale=1.0, decay=0.0)


class TestDeviceProfile:
    def test_valid_profile_has_no_errors(self):
        dev = DeviceProfile(
            id=3, gain=1e-9, dataset_frames=100, cycles_per_pixel=737.0,
            kappa=1e-28, f_min=1e8, f_max=2e9, p_min=0.0, p_max=0.2,
            resolutions=(100, 200, 300),
        )
        assert dev.validate() == []

    def test_all_violations_reported_and_named(self):
        dev = DeviceProfile(
            id=7, gain=1e-9, dataset_frames=100, cycles_per_pixel=737.0,
            kappa=-1e-28, f_min=3e9, f_max=2e9, p_min=0.5, p_max=0.2,
            resolutions=(300, 100),
        )
        errors = dev.validate()
        assert len(errors) == 4
        joined = " ".join(errors)
        assert "device 7" in joined
        assert "kappa" in joined and "f_min" in joined
        assert "p_min" in joined and "resolutions" in joined

    @pytest.mark.parametrize("frames", [float("inf"), float("nan"), 100.5, 0])
    def test_dataset_frames_must_be_an_integer_of_at_least_one(self, frames):
        dev = DeviceProfile(id=0, gain=1e-9, dataset_frames=frames)
        assert [e for e in dev.validate() if "dataset_frames" in e]

    def test_infinite_frame_count_fails_the_solve_by_name(self):
        # it validated before, and the solve then warned of a division by
        # zero and raised "no round-time budget"
        scn = make_scenario([1e-9, 2e-9])
        scn = replace(scn, devices=[replace(scn.devices[0], dataset_frames=float("inf")),
                                    scn.devices[1]])
        with pytest.raises(ScenarioValidationError, match="device 0: dataset_frames"):
            optimize(scn, Weights(0.5, 0.5, 0.5))

    def test_empty_resolution_menu_rejected(self):
        dev = DeviceProfile(
            id=0, gain=1e-9, dataset_frames=100, cycles_per_pixel=737.0,
            kappa=1e-28, f_min=1e8, f_max=2e9, p_min=0.0, p_max=0.2,
            resolutions=(),
        )
        assert any("resolutions" in e for e in dev.validate())
