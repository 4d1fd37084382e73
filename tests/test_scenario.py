"""Scenario generation, validation, and the JSON config round trip."""

import gc
import hashlib
import json
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from flmar import (
    AccuracyModel,
    ChannelPairing,
    DeviceProfile,
    Scenario,
    ScenarioFormatError,
    ScenarioSpec,
    ScenarioValidationError,
    Weights,
    generate_scenario,
    load_scenario,
    optimize,
    random_baseline,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sic_decode_order,
)
from flmar.allocator import _Env
from flmar.compute import DEFAULT_RESOLUTIONS
from flmar.experiments import scenario_for_cell
from flmar.scenario import SCHEMA_VERSION, _device_gain, _philox_key, _seed_words

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
        for name, value in (("p_max", 0.25), ("f_max", 2e9)):
            column = getattr(scn.devices, name)
            # stored once and broadcast to every device
            assert column.tolist() == [value] * 5 and column.strides == (0,)

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


# sha256 of the gain, p_max, f_max and frames column bytes, recorded from the
# per-device draw loop that built DeviceProfile objects, before the draws went
# straight into columns.  The scheme does not enter the draws.
GOLDEN_CELL_640 = {
    0: (
        "86a498ded9f7abffa940334ab6f4dcdefc30a0497dbcd046eb8a5522cd039630",
        "7323c3139e715a12116fd420933f0da8806d21db384767f3cde2dcd77decb3b0",
        "95080579791373870d140769b7c1b35795c2c390e4c222abda69dfeab794810b",
        "4c116c74527eaacb0f0784a306a7c6dafbb037746711cf706c86b73348ce4335",
    ),
    1: (
        "f131efe9e5b0af14fa4c59e7c4b7f9e8b3f448436283a3bd90c73d6ae48f90b7",
        "7323c3139e715a12116fd420933f0da8806d21db384767f3cde2dcd77decb3b0",
        "95080579791373870d140769b7c1b35795c2c390e4c222abda69dfeab794810b",
        "5c1ab36ac1a68906c5dac97b60985902eb18e70afda86a6bbbe13a5bed564b30",
    ),
    2: (
        "0687cb2258be916bec729f3dca3cf7a5d617f1e8bea1cb311337163f2800c21c",
        "7323c3139e715a12116fd420933f0da8806d21db384767f3cde2dcd77decb3b0",
        "95080579791373870d140769b7c1b35795c2c390e4c222abda69dfeab794810b",
        "88443f04d5988b8b20ee662390e42245e069f06da98a14fdde24d830c09af610",
    ),
    3: (
        "57e5221c7362db4145f89375e2161140cae642e81a705fe387aac8d0187289d9",
        "7323c3139e715a12116fd420933f0da8806d21db384767f3cde2dcd77decb3b0",
        "95080579791373870d140769b7c1b35795c2c390e4c222abda69dfeab794810b",
        "db5c24156b5249187266eb630cde7bf28c2078726da1f6eb5c56813cd72f91e3",
    ),
}
GOLDEN_RANGED_640 = {
    True: (
        "01fb79d031d6e56130a71221f10bc1ab6f687b173b23aad9d95da498b890c49c",
        "15a1d3f96f44f91a87c7d8f2e537b4449381d0dda0329b16783fcc34668f1687",
        "d0a020eb0efb378346e2edbea640fada5a6765fef55ef100c862be9581edb449",
        "93becb8923eb6a7c0c6776a4dfe200f3e9b7afc3e187efe04729d020c66ea028",
    ),
    False: (
        "83fe9991be1213103d359cd9bec0489b0ba5413008ecd2e107d01491b6bfbeae",
        "3337309421424a1df3fffa538d8490dbfde5af78827f0755fc3a71b49adc1af8",
        "bec7d4369d036583adeff3f7ebd4cf7feaf0e3b1aca7bbb0dd6b931a5456f6d3",
        "b395e46a2a2f95d59df484784c3ed8799b39c723701e2160dcb6d88f99aabd9b",
    ),
}


def column_digests(scn):
    return tuple(
        hashlib.sha256(getattr(scn.devices, c).tobytes()).hexdigest()
        for c in ("gain", "p_max", "f_max", "frames")
    )


class TestGoldenDraws:
    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    @pytest.mark.parametrize("seed_index", range(4))
    def test_grid_cell_draws_are_unchanged(self, scheme, seed_index):
        scn = scenario_for_cell(ScenarioSpec(), scheme, 0.2, seed_index, 0, 640)
        assert column_digests(scn) == GOLDEN_CELL_640[seed_index]

    @pytest.mark.parametrize("fading", [True, False])
    def test_ranged_draws_are_unchanged(self, fading):
        spec = ScenarioSpec(n_devices=640, p_max_range=(0.1, 0.5), f_max_range=(0.5e9, 3e9),
                            rayleigh_fading=fading)
        assert column_digests(generate_scenario(spec)) == GOLDEN_RANGED_640[fading]


# seeds of 1, 2, 3, 4 and 5 uint32 words; past 3 words the key's entropy
# overflows SeedSequence's pool of 4
HASH_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**62 + 7, 2**64 - 1, 2**96, 2**130)


def reference_draw(spec, seed):
    """The draw columns as the per-device loop made them: one
    Generator(Philox(SeedSequence((seed, k)))) per device."""
    n = spec.n_devices
    gain, p_max, f_max, frames = (np.empty(n) for _ in range(4))
    for k in range(n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        d_km = rng.uniform(*spec.distance_range_km)
        fading = rng.exponential(1.0) if spec.rayleigh_fading else 1.0
        p_max[k] = rng.uniform(*spec.p_max_range)
        f_max[k] = rng.uniform(*spec.f_max_range)
        frames[k] = rng.integers(spec.frames_range[0], spec.frames_range[1] + 1)
        gain[k] = _device_gain(spec, d_km, fading)
    return gain, p_max, f_max, frames


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed", HASH_SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        k = np.arange(1000, dtype=np.uint64)
        want = np.array([np.random.SeedSequence((seed, i)).generate_state(2, np.uint64)
                         for i in range(1000)])
        words = _seed_words(seed)
        low, high = _philox_key(words, k)
        np.testing.assert_array_equal(np.column_stack((low, high)), want)
        # an index held as a Python int hashes the same
        for i in (0, 1, 7, 999):
            assert _philox_key(words, i) == tuple(want[i].tolist())

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    @pytest.mark.parametrize("seed", [5, 2**40 + 3, 2**70 + 5, 2**96, 2**140 + 9])
    def test_draws_match_the_per_device_loop(self, n, seed):
        for spec in (ScenarioSpec(n_devices=n),
                     ScenarioSpec(n_devices=n, p_max_range=(0.1, 0.5),
                                  f_max_range=(0.5e9, 3e9), rayleigh_fading=False)):
            table = generate_scenario(spec, seed=seed).devices
            for name, want in zip(("gain", "p_max", "f_max", "frames"),
                                  reference_draw(spec, seed)):
                assert getattr(table, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1),
                                      True])
    def test_integer_seeds_draw_like_their_value(self, seed):
        spec = small_spec(n_devices=9)
        table = generate_scenario(spec, seed=seed).devices
        assert table.gain.tobytes() == reference_draw(spec, seed)[0].tobytes()
        assert table == generate_scenario(spec, seed=int(seed)).devices

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, np.float64(2.0), None])
    def test_bad_seeds_raise_as_seed_sequence_does(self, seed):
        spec = small_spec(n_devices=2)
        with pytest.raises(Exception) as want:
            reference_draw(spec, seed)
        with pytest.raises(type(want.value)) as got:
            generate_scenario(replace(spec, master_seed=seed))
        assert str(got.value) == str(want.value)


def fresh_rows(scn):
    """The scenario's devices as DeviceProfile objects built field by field."""
    return [DeviceProfile(**asdict(d)) for d in scn.devices]


def solve_both(scn):
    w = Weights(0.5, 0.5, 0.5)
    return optimize(scn, w), random_baseline(scn, w, seed=5)


class TestDeviceRows:
    """``Scenario.devices`` is a read-only view of the stored column table."""

    @pytest.mark.parametrize("scheme", ["fdma", "noma"])
    def test_replace_patterns_solve_like_equal_rows(self, scheme):
        # the two ways the benchmark derives scenarios: a slice of the row
        # view, and a list of rows each changed with dataclasses.replace
        scn = generate_scenario(small_spec(n_devices=6, scheme=scheme,
                                           p_max_range=(0.1, 0.5)))
        n_channels = 2 if scheme == "noma" else None
        shares = [0.05, 0.5, 0.2, 0.3, 0.1, 0.4]
        pinned = [DeviceProfile(**{**asdict(d), "p_min": s * d.p_max})
                  for d, s in zip(fresh_rows(scn), shares)]
        cases = [
            (replace(scn, devices=scn.devices[:4], n_channels=n_channels),
             replace(scn, devices=fresh_rows(scn)[:4], n_channels=n_channels)),
            (replace(scn, devices=[replace(d, p_min=s * d.p_max)
                                   for d, s in zip(scn.devices, shares)]),
             replace(scn, devices=pinned)),
        ]
        for derived, built in cases:
            assert derived == built
            for got, want in zip(solve_both(derived), solve_both(built)):
                assert got.objective == want.objective
                for name in ("power_w", "cpu_hz", "resolution_px"):
                    np.testing.assert_array_equal(getattr(got.allocation, name),
                                                  getattr(want.allocation, name))

    def test_devices_are_read_only(self):
        scn = generate_scenario(small_spec())
        with pytest.raises(TypeError):
            scn.devices[0] = scn.devices[1]
        with pytest.raises(ValueError):
            scn.devices.gain[0] = 1e-9
        with pytest.raises(FrozenInstanceError):
            scn.global_rounds = 1

    def test_rows_read_back_the_columns(self):
        scn = generate_scenario(small_spec(n_devices=5))
        rows = list(scn.devices)
        assert [d.id for d in rows] == list(range(5))
        assert rows[2] == scn.devices[2] == scn.devices[-3]
        assert [d.gain for d in rows] == scn.devices.gain.tolist()
        assert all(type(d.dataset_frames) is int for d in rows)
        assert Scenario(devices=rows) == scn

    def test_each_device_gets_its_own_menu(self):
        # menus are tested and padded once per distinct menu; equal menus held
        # as separate tuples share an entry, and each device reads its own
        base = fresh_rows(generate_scenario(small_spec()))
        menus = [(100, 200), tuple(range(100, 201, 100)), (300, 100), (100, 200, 300)]
        scn = Scenario(devices=[replace(d, resolutions=m) for d, m in zip(base, menus)])
        distinct, which = scn.devices.distinct_menus
        assert distinct == ((100, 200), (300, 100), (100, 200, 300))
        assert which.tolist() == [0, 0, 1, 2]
        assert scn.validate() == ["device 2: resolutions must be strictly ascending"]
        menus[2] = (300,)
        scn = Scenario(devices=[replace(d, resolutions=m) for d, m in zip(base, menus)])
        np.testing.assert_array_equal(
            _Env(scn).menu,
            [[100, 200, 200], [100, 200, 200], [300, 300, 300], [100, 200, 300]],
        )

    def test_file_round_trip_of_a_ranged_640_device_table(self, tmp_path):
        # drawn and broadcast columns both, written row by row and read back
        scn = generate_scenario(small_spec(n_devices=640, scheme="noma",
                                           p_max_range=(0.1, 0.5)))
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        assert load_scenario(path) == scn


    def test_drawn_ids_are_a_range(self):
        # the ids 0..n-1 of a drawn table hold no int object per device (a
        # tuple of 640 keeps 384 of them, those from 256 up), and compare,
        # slice and pair like the tuple of the same table built from rows
        scn = generate_scenario(small_spec(n_devices=640, scheme="noma"))
        table, rows = scn.devices, fresh_rows(scn)
        built = Scenario(devices=rows, scheme="noma").devices
        assert type(table.ids) is range and type(built.ids) is tuple
        assert table == built and built == table
        assert table[300:303] == built[300:303] and table[300:303].ids == range(300, 303)
        assert table != built[::-1] and table[:3] != built[1:4]
        relabelled = Scenario(devices=[replace(d, id=d.id + 1) for d in rows]).devices
        assert table != relabelled
        pairing = scn.noma_pairing
        for got, want in zip(table.pair_positions(pairing), built.pair_positions(pairing)):
            np.testing.assert_array_equal(got, want)


class TestNomaPairing:
    def test_drawn_640_device_pairing_retains_little(self):
        # two arrays of 320 ids; the tuple of int tuples kept about 29 KB
        scn = generate_scenario(small_spec(n_devices=640, scheme="noma"))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairing = scn.noma_pairing
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(pairing.strong) == 320 and retained < 8_000

    def test_loaded_shuffled_ids_pair_as_before(self, tmp_path):
        # ids neither a range nor in order, two equal gains: the pairing is
        # the gain-sorted rule on (id, gain) and positions map back to ids
        rng = np.random.default_rng(4)
        base = generate_scenario(small_spec(n_devices=12, scheme="noma"))
        ids = rng.permutation(1000)[:12].tolist()
        rows = [replace(d, id=uid) for d, uid in zip(base.devices, ids)]
        rows[5] = replace(rows[5], gain=rows[8].gain)
        path = tmp_path / "scenario.json"
        save_scenario(replace(base, devices=rows), path)
        scn = load_scenario(path)
        order = sic_decode_order(zip(ids, scn.devices.gain.tolist()))
        assert scn.noma_pairing.channels == tuple((order[k], order[-1 - k]) for k in range(6))
        strong, weak = scn.devices.pair_positions(scn.noma_pairing)
        table_ids = np.array(scn.devices.ids)
        np.testing.assert_array_equal(table_ids[strong], scn.noma_pairing.strong)
        np.testing.assert_array_equal(table_ids[weak], scn.noma_pairing.weak)

    def test_pair_positions_of_ranges_and_missing_ids(self):
        table = generate_scenario(small_spec(n_devices=8, scheme="noma")).devices
        pairing = ChannelPairing(channels=((6, 1), (3, 4)), channel_bandwidth_hz=1e6)
        strong, weak = table.pair_positions(pairing)
        assert strong.tolist() == [6, 3] and weak.tolist() == [1, 4]
        backwards = table[::-1]
        assert type(backwards.ids) is range
        assert [p.tolist() for p in backwards.pair_positions(pairing)] == [[1, 4], [6, 3]]
        # id 1 is missing from both a range and a tuple of ids
        for short in (table[2:], replace(table[2:], ids=tuple(range(2, 8)))):
            with pytest.raises(KeyError):
                short.pair_positions(pairing)

    def test_one_shared_menu_is_indexed_by_a_broadcast(self):
        menus, which = generate_scenario(small_spec(n_devices=640)).devices.distinct_menus
        assert menus == (DEFAULT_RESOLUTIONS,)
        assert which.strides == (0,) and not which.flags.writeable
        assert which.tolist() == [0] * 640


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
        assert list(scn.devices) == [
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
