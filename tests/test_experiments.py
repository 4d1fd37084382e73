"""Experiment grid execution, CSV/JSON output, and seed discipline."""

import json

import pytest

from flmar import (
    ExperimentGrid,
    ResultRow,
    ScenarioSpec,
    derive_seed,
    read_csv,
    rows_to_csv,
    run_grid,
    write_csv,
    write_json,
)
from flmar.experiments import CSV_COLUMNS, scenario_for_cell


def tiny_grid(**kw):
    params = dict(
        schemes=("fdma",),
        weight_pairs=((0.5, 0.5),),
        w3=0.5,
        pmax_values=(0.2, 0.4),
        n_seeds=2,
        solvers=("joint", "random"),
        n_devices=2,
        master_seed=11,
    )
    params.update(kw)
    return ExperimentGrid(**params)


class TestGridValidation:
    def test_weight_pairs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            tiny_grid(weight_pairs=((0.5, 0.6),))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(weight_pairs=((float("nan"), 0.5),)),
            dict(weight_pairs=((0.5, float("inf")),)),
            dict(w3=float("nan")),
            dict(w3=float("inf")),
        ],
    )
    def test_weights_must_be_finite(self, kw):
        with pytest.raises(ValueError, match="finite"):
            tiny_grid(**kw)

    def test_schemes_checked(self):
        with pytest.raises(ValueError):
            tiny_grid(schemes=("tdma",))

    def test_solvers_checked(self):
        with pytest.raises(ValueError):
            tiny_grid(solvers=("genie",))

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            tiny_grid(pmax_values=())


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestRunGrid:
    def test_row_count_and_sorting(self):
        rows, failures = run_grid(tiny_grid())
        assert failures == []
        # 1 scheme x 1 pair x 2 pmax x 2 seeds x 2 solvers
        assert len(rows) == 8
        keys = [(r.scheme, r.solver, r.w1, r.p_max, r.seed) for r in rows]
        assert keys == sorted(keys)

    def test_workers_do_not_change_output(self):
        rows1, _ = run_grid(tiny_grid(), workers=1)
        rows4, _ = run_grid(tiny_grid(), workers=4)
        assert rows_to_csv(rows1) == rows_to_csv(rows4)

    def test_joint_beats_random_on_every_cell(self):
        grid = tiny_grid(n_devices=6, pmax_values=(0.2,), n_seeds=3)
        rows, _ = run_grid(grid)
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r.scheme, r.w1, r.p_max, r.seed), {})[r.solver] = r
        assert len(by_cell) == 3
        for cell in by_cell.values():
            assert cell["joint"].objective < cell["random"].objective

    def test_scenarios_are_paired_across_schemes_and_pmax(self):
        base = ScenarioSpec()
        a = scenario_for_cell(base, "fdma", 0.2, seed_index=4, master_seed=9,
                              n_devices=6)
        b = scenario_for_cell(base, "noma", 0.4, seed_index=4, master_seed=9,
                              n_devices=6)
        # same seed index: device draws match except the p_max override
        for da, db in zip(a.devices, b.devices):
            assert da.gain == db.gain
            assert da.dataset_frames == db.dataset_frames
            assert da.f_max == db.f_max
        assert all(d.p_max == 0.2 for d in a.devices)
        assert all(d.p_max == 0.4 for d in b.devices)

    def test_different_seed_index_changes_scenario(self):
        base = ScenarioSpec()
        a = scenario_for_cell(base, "fdma", 0.2, 0, 9, 4)
        b = scenario_for_cell(base, "fdma", 0.2, 1, 9, 4)
        assert [d.gain for d in a.devices] != [d.gain for d in b.devices]

    def test_wall_ms_zero_by_default(self):
        rows, _ = run_grid(tiny_grid())
        assert all(r.wall_ms == 0.0 for r in rows)

    def test_wall_ms_measured_on_request(self):
        rows, _ = run_grid(tiny_grid(), measure_wall_time=True)
        assert any(r.wall_ms > 0.0 for r in rows)


class TestCsvJson:
    def sample_row(self):
        return ResultRow(
            scheme="fdma", solver="joint", w1=1 / 3, w2=2 / 3, w3=0.5,
            p_max=0.2, seed=7, total_energy_j=12.125, total_time_s=345.5,
            mean_accuracy=0.875, objective=123.456789123, outer_iterations=4,
            wall_ms=0.0,
        )

    def test_header_and_formatting(self):
        text = rows_to_csv([self.sample_row()])
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        # floats carry nine significant digits, LF endings, no CR
        assert "0.333333333" in lines[1]
        assert "123.456789" in lines[1]
        assert "\r" not in text
        assert text.endswith("\n")

    def test_round_trip(self, tmp_path):
        rows, _ = run_grid(tiny_grid())
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        back = read_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert a.scheme == b.scheme and a.solver == b.solver
            assert a.seed == b.seed
            assert a.objective == pytest.approx(b.objective, rel=1e-8)

    def test_json_output(self, tmp_path):
        rows, _ = run_grid(tiny_grid())
        path = tmp_path / "out.json"
        write_json(rows, path)
        data = json.loads(path.read_text())
        assert len(data) == len(rows)
        assert set(data[0]) == set(CSV_COLUMNS)

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_grid(tiny_grid(), workers=1)[0], p1)
        write_csv(run_grid(tiny_grid(), workers=3)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()
