"""Experiment grid execution, CSV/JSON output, and seed discipline."""

import json
from dataclasses import replace

import pytest

import flmar.allocator
from flmar import (
    CellFailure,
    ExperimentGrid,
    ResultRow,
    ScenarioSpec,
    Weights,
    derive_seed,
    optimize,
    read_csv,
    rows_to_csv,
    run_grid,
    write_csv,
    write_json,
)
from flmar.experiments import CSV_COLUMNS, ROW_SORT_KEY, scenario_for_cell, solve_row


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


class TestGroupedSolves:
    """``run_grid`` solves each (scheme, p_max, seed) group's weight pairs on
    one draw and one solver context, whose weight-free round-time fits the
    later pairs take up.  Its rows and failures equal those of separate
    per-cell ``optimize`` and ``random_baseline`` calls."""

    # unsorted, with both ends of w1
    PAIRS = ((0.5, 0.5), (1.0, 0.0), (0.1, 0.9), (0.0, 1.0))

    @staticmethod
    def separate(grid, spec):
        """The grid's rows and failures from one draw and one call per cell."""
        rows, failures = [], []
        for scheme in grid.schemes:
            for w1, w2 in grid.weight_pairs:
                for p_max in grid.pmax_values:
                    for seed in range(grid.n_seeds):
                        scn = scenario_for_cell(spec, scheme, p_max, seed, grid.master_seed,
                                                grid.n_devices)
                        for solver in grid.solvers:
                            try:
                                rows.append(solve_row(
                                    scn, Weights(w1, w2, grid.w3), solver, p_max=p_max,
                                    seed=seed, random_seed=derive_seed(grid.master_seed, seed, 1),
                                    measure=False))
                            except Exception as exc:
                                failures.append(CellFailure(scheme, solver, w1, w2, p_max, seed,
                                                            f"{type(exc).__name__}: {exc}"))
        rows.sort(key=ROW_SORT_KEY)
        failures.sort(key=lambda f: (f.scheme, f.solver, f.w1, f.p_max, f.seed))
        return rows, failures

    def check(self, grid, spec):
        rows, failures = run_grid(grid, base_spec=spec, workers=2)
        rows_1, failures_1 = self.separate(grid, spec)
        # every float field by repr, and outer_iterations
        assert [repr(r) for r in rows] == [repr(r) for r in rows_1]
        assert failures == failures_1
        return rows, failures

    def test_rows_equal_separate_solves(self):
        # w3 = 500 moves resolutions over several passes, and p_min binds at
        # the lower power cap
        grid = ExperimentGrid(weight_pairs=self.PAIRS, w3=500.0, pmax_values=(0.2, 0.1),
                              n_seeds=2, n_devices=10, master_seed=3)
        rows, _ = self.check(grid, ScenarioSpec(p_min=0.05))
        assert len(rows) == 64
        assert any(r.outer_iterations > 2 for r in rows)

    def test_failures_equal_separate_solves(self):
        # a path loss of 2,900 dB leaves no round-time budget: every joint
        # cell fails, and the random baseline still solves
        grid = ExperimentGrid(weight_pairs=self.PAIRS, pmax_values=(0.2,), n_seeds=1,
                              n_devices=4)
        rows, failures = self.check(grid, ScenarioSpec(pathloss_intercept_db=2900.0))
        assert {r.solver for r in rows} == {"random"}
        assert len(failures) == 8
        assert all(f.error.startswith("InfeasibleScenarioError: ") for f in failures)

    def test_draw_failure_fails_its_group_alone(self):
        # p_max 0.03 lies below p_min = 0.05, so those groups' draws raise;
        # each of their cells fails with the solve failures' error text, and
        # the p_max 0.2 groups keep their rows
        grid = ExperimentGrid(n_devices=12, n_seeds=1, pmax_values=(0.2, 0.03))
        spec = ScenarioSpec(p_min=0.05)
        rows, failures = run_grid(grid, spec)
        valid_rows, valid_failures = run_grid(replace(grid, pmax_values=(0.2,)), spec)
        assert valid_failures == []
        assert [repr(r) for r in rows] == [repr(r) for r in valid_rows]
        assert len(rows) == 12
        cells = {(scheme, solver, w1, w2) for scheme in grid.schemes
                 for w1, w2 in grid.weight_pairs for solver in grid.solvers}
        assert len(failures) == len(cells) == 12
        assert {(f.scheme, f.solver, f.w1, f.w2) for f in failures} == cells
        for f in failures:
            assert (f.p_max, f.seed) == (0.03, 0)
            assert f.error == ("ScenarioValidationError: spec: p_max_range low end 0.03 "
                               "below p_min 0.05")

    @pytest.mark.parametrize("scheme, grouped", [("fdma", 19), ("noma", 25)])
    def test_a_group_makes_fewer_fits(self, monkeypatch, scheme, grouped):
        # a default 40-device group, three pairs: the pairs after the first
        # take its march's fits up
        made = []
        real_fit = flmar.allocator._budget_config
        monkeypatch.setattr(flmar.allocator, "_budget_config",
                            lambda *args: made.append(args) or real_fit(*args))
        grid = ExperimentGrid(schemes=(scheme,), pmax_values=(0.2,), n_seeds=1,
                              solvers=("joint",))
        run_grid(grid)
        assert len(made) == grouped
        made.clear()
        scn = scenario_for_cell(ScenarioSpec(), scheme, 0.2, 0, 0, 40)
        for w1, w2 in grid.weight_pairs:
            optimize(scn, Weights(w1, w2, grid.w3))
        assert len(made) == grouped + 8


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
