"""Scenario generation, validation, and the JSON config round trip."""

import json

import pytest

from flmar import (
    AccuracyModel,
    DeviceProfile,
    ScenarioFormatError,
    ScenarioSpec,
    ScenarioValidationError,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from flmar.scenario import SCHEMA_VERSION

# gain at 0.1 km with fading off: 10^(-(128.1 + 37.6*log10(0.1))/10)
GAIN_100M_REF = 8.912509381337441e-10


def small_spec(**kw):
    params = dict(n_devices=4, scheme="fdma", master_seed=42)
    params.update(kw)
    return ScenarioSpec(**params)


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        a = generate_scenario(small_spec())
        b = generate_scenario(small_spec())
        assert a == b

    def test_seed_argument_overrides_spec(self):
        a = generate_scenario(small_spec(), seed=1)
        b = generate_scenario(small_spec(master_seed=1))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_scenario(small_spec(), seed=1)
        b = generate_scenario(small_spec(), seed=2)
        assert a != b

    def test_device_streams_are_independent_of_count(self):
        # adding devices must not disturb the draws of existing ones
        a = generate_scenario(small_spec(n_devices=3))
        b = generate_scenario(small_spec(n_devices=5))
        assert a.devices == b.devices[:3]

    def test_pathloss_without_fading(self):
        spec = small_spec(distance_range_km=(0.1, 0.1), rayleigh_fading=False)
        scn = generate_scenario(spec)
        for dev in scn.devices:
            assert dev.gain == pytest.approx(GAIN_100M_REF, rel=1e-12)

    def test_fading_spreads_gains(self):
        spec = small_spec(n_devices=20, distance_range_km=(0.1, 0.1))
        gains = [d.gain for d in generate_scenario(spec).devices]
        assert min(gains) < max(gains)

    def test_draws_respect_ranges(self):
        spec = small_spec(
            n_devices=30,
            p_max_range=(0.1, 0.3),
            f_max_range=(1e9, 2e9),
            frames_range=(50, 60),
        )
        scn = generate_scenario(spec)
        for dev in scn.devices:
            assert 0.1 <= dev.p_max <= 0.3
            assert 1e9 <= dev.f_max <= 2e9
            assert 50 <= dev.dataset_frames <= 60

    def test_fixed_ranges_give_every_device_one_shared_value(self):
        scn = generate_scenario(small_spec(n_devices=5, p_max_range=(0.25, 0.25)))
        first = scn.devices[0]
        for dev in scn.devices:
            assert dev.p_max == 0.25 and dev.p_max is first.p_max
            assert dev.f_max == 2e9 and dev.f_max is first.f_max

    def test_noma_gets_half_as_many_channels(self):
        scn = generate_scenario(small_spec(n_devices=40, scheme="noma"))
        assert scn.n_channels == 20
        assert scn.scheme == "noma"

    def test_generated_scenario_is_valid(self):
        scn = generate_scenario(small_spec(n_devices=10, scheme="noma"))
        assert scn.validate() == []

    def test_spec_validation(self):
        assert small_spec().validate() == []
        bad = small_spec(n_devices=0, distance_range_km=(0.5, 0.1))
        errors = bad.validate()
        assert any("n_devices" in e for e in errors)
        assert any("distance" in e for e in errors)

    @pytest.mark.parametrize("kw", [
        dict(p_max_range=(float("inf"), float("inf"))),
        dict(p_max_range=(0.1, float("nan"))),
        dict(f_max_range=(2e9, float("inf"))),
        dict(distance_range_km=(0.05, float("inf"))),
        dict(p_min=float("nan")),
        dict(f_min=float("nan")),
    ])
    def test_spec_rejects_non_finite_values(self, kw):
        [name] = kw
        errors = small_spec(**kw).validate()
        assert any(e.startswith(f"spec: {name}") or f" {name}=" in e for e in errors), errors

    def test_generate_rejects_bad_spec(self):
        with pytest.raises(ScenarioValidationError):
            generate_scenario(small_spec(n_devices=3, scheme="noma"))


class TestSerialization:
    def test_dict_round_trip(self):
        scn = generate_scenario(small_spec(n_devices=6, scheme="noma"))
        assert scenario_from_dict(scenario_to_dict(scn)) == scn

    def test_file_round_trip(self, tmp_path):
        scn = generate_scenario(small_spec())
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        assert load_scenario(path) == scn

    def test_schema_version_written(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION == 1

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="schema_version"):
            load_scenario(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        del data["devices"][0]["gain"]
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="gain"):
            load_scenario(path)

    def test_omitted_fields_take_dataclass_defaults(self, tmp_path):
        data = scenario_to_dict(generate_scenario(small_spec()))
        data["devices"] = [
            {key: d[key] for key in ("id", "gain", "dataset_frames")}
            for d in data["devices"]
        ]
        del data["accuracy_model"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        scn = load_scenario(path)
        assert scn.devices == [
            DeviceProfile(id=d["id"], gain=d["gain"], dataset_frames=d["dataset_frames"])
            for d in data["devices"]
        ]
        assert scn.accuracy_model == AccuracyModel()

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        with pytest.raises(ScenarioFormatError, match="line 3"):
            load_scenario(path)

    def test_constraint_violations_reported_with_device_and_field(self, tmp_path):
        scn = generate_scenario(small_spec())
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        data = json.loads(path.read_text())
        data["devices"][0]["p_min"] = 0.9       # above its p_max
        data["devices"][1]["f_min"] = 9e9       # above its f_max
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(path)
        joined = " ".join(exc.value.errors)
        assert "device 0" in joined and "p_min" in joined
        assert "device 1" in joined and "f_min" in joined

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["gain", "cycles_per_pixel", "kappa", "f_min",
                                       "f_max", "p_min", "p_max"])
    def test_non_finite_device_field_rejected(self, tmp_path, field, value):
        # Python's json writes and reads NaN and Infinity; every float field
        # refuses both
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        data["devices"][1][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(path)
        assert any("device 1" in e and field in e for e in exc.value.errors)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["total_bandwidth_hz", "noise_psd", "model_size_bits"])
    def test_non_finite_scenario_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(path)
        assert any(e.startswith(f"scenario: {field}") for e in exc.value.errors)

    @pytest.mark.parametrize("key", ["scale", "decay"])
    def test_non_finite_accuracy_model_is_a_format_error(self, tmp_path, key):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        data["accuracy_model"][key] = float("nan")
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match=f"{key} must be positive and finite"):
            load_scenario(path)

    def test_infinite_frame_count_is_a_format_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(small_spec()), path)
        data = json.loads(path.read_text())
        data["devices"][0]["dataset_frames"] = float("inf")
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="infinity"):
            load_scenario(path)
