"""End-to-end checks of the command line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flmar
from flmar.cli import main
from flmar import ScenarioSpec, generate_scenario, save_scenario
from flmar.experiments import CSV_COLUMNS


def run_cli(*args):
    return main(list(args))


class TestRun:
    def test_generated_scenario_to_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--n-devices", "2", "--pmax", "0.2",
                       "--weights", "0.5,0.5", "--solver", "both",
                       "--master-seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3      # header + joint + random
        assert lines[1].startswith("fdma,joint,")
        assert lines[2].startswith("fdma,random,")

    def test_stdout_when_no_out(self, capsys):
        code = run_cli("run", "--n-devices", "2", "--weights", "0.9,0.1")
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith(",".join(CSV_COLUMNS))

    def test_config_file(self, tmp_path):
        spec = ScenarioSpec(n_devices=2, scheme="noma", master_seed=5)
        scn = generate_scenario(spec)
        cfg = tmp_path / "scn.json"
        save_scenario(scn, cfg)
        out = tmp_path / "run.csv"
        code = run_cli("run", "--config", str(cfg), "--weights", "0.5,0.5",
                       "--out", str(out))
        assert code == 0
        assert "noma,joint," in out.read_text()

    def test_json_output(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli("run", "--n-devices", "2", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert isinstance(data, list) and data

    def test_missing_config_is_config_error(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 1

    def test_bad_weights_is_config_error(self):
        assert run_cli("run", "--weights", "0.5") == 1
        assert run_cli("run", "--weights", "a,b") == 1

    @pytest.mark.parametrize("text", ["nan,0.5", "inf,0.5", "0.5,0.5,nan"])
    def test_non_finite_weights_are_config_errors(self, text, capsys):
        assert run_cli("run", "--weights", text, "--solver", "random") == 1
        assert "--weights:" in capsys.readouterr().err

    @pytest.mark.parametrize("pmax", ["inf", "nan"])
    def test_non_finite_pmax_is_config_error(self, pmax, capsys):
        assert run_cli("run", "--pmax", pmax, "--solver", "random") == 1
        err = capsys.readouterr().err
        assert err.startswith("flmar:") and "p_max_range" in err
        assert "Traceback" not in err

    def test_invalid_config_content(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli("run", "--config", str(cfg)) == 1


class TestSweep:
    def test_small_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--schemes", "fdma", "--weights", "0.5,0.5",
                "--pmax-list", "0.2,0.4", "--seeds", "2",
                "--n-devices", "2", "--master-seed", "7")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b), "--workers", "3") == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1 + 2 * 2 * 2

    def test_sweep_with_svg(self, tmp_path):
        out, svg = tmp_path / "rows.csv", tmp_path / "fig.svg"
        code = run_cli("sweep", "--schemes", "fdma", "--weights", "0.5,0.5",
                       "--pmax-list", "0.2", "--seeds", "1",
                       "--n-devices", "2", "--out", str(out), "--svg", str(svg))
        assert code == 0
        assert svg.read_text().rstrip().endswith("</svg>")

    def test_bad_scheme_is_config_error(self, tmp_path):
        assert run_cli("sweep", "--schemes", "cdma",
                       "--out", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("w3", ["inf", "nan"])
    def test_non_finite_w3_is_config_error(self, w3, tmp_path, capsys):
        assert run_cli("sweep", "--w3", w3, "--n-devices", "2", "--seeds", "1",
                       "--out", str(tmp_path / "x.csv")) == 1
        assert "finite" in capsys.readouterr().err


class TestOracle:
    def test_reports_gap(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = run_cli("oracle", "--n-devices", "2", "--grid-points", "8",
                       "--weights", "0.5,0.5", "--master-seed", "3",
                       "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert {"solver_objective", "oracle_objective", "relative_gap"} <= set(data)
        # solver must land close to the coarse-grid reference
        assert data["relative_gap"] < 0.05

    def test_zero_weights_report_no_gap(self, tmp_path):
        # both objectives are 0, so the gap is 0 rather than 0 / 0
        out = tmp_path / "oracle.json"
        assert run_cli("oracle", "--weights", "0,0,0", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["oracle_objective"] == data["solver_objective"] == 0.0
        assert data["relative_gap"] == 0.0

    def test_too_many_devices_is_config_error(self):
        assert run_cli("oracle", "--n-devices", "5") == 1

    def test_too_few_grid_points_is_config_error(self, capsys):
        assert run_cli("oracle", "--grid-points", "1") == 1
        assert capsys.readouterr().err.startswith("flmar: ")


class TestPlot:
    def test_plot_from_csv(self, tmp_path):
        rows = tmp_path / "rows.csv"
        run_cli("sweep", "--schemes", "fdma", "--weights", "0.5,0.5",
                "--pmax-list", "0.2,0.4", "--seeds", "2", "--n-devices", "2",
                "--out", str(rows))
        svg = tmp_path / "fig.svg"
        code = run_cli("plot", "--rows", str(rows), "--field", "objective",
                       "--out", str(svg))
        assert code == 0
        assert "</svg>" in svg.read_text()

    def test_missing_rows_is_config_error(self, tmp_path):
        assert run_cli("plot", "--rows", str(tmp_path / "none.csv"),
                       "--out", str(tmp_path / "fig.svg")) == 1


class TestParsing:
    def test_no_subcommand_fails(self):
        assert run_cli() == 1

    def test_unknown_flag_fails(self):
        assert run_cli("run", "--warp-speed") == 1

    def test_unknown_subcommand_fails(self):
        assert run_cli("teleport") == 1


# Runs the commands given as JSON in argv[1] through `main` in an interpreter
# where importing scipy fails, and counts the p_min kinks the FDMA fits solve.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import flmar.allocator as allocator
from flmar.cli import main

kinks = []
root = allocator._u_from_k


def spy(k):
    kinks.append(sys._getframe(1).f_code is allocator._FdmaFit.__init__.__code__)
    return root(k)


allocator._u_from_k = spy
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "kinks": sum(kinks)}))
"""


class TestWithoutScipy:
    """The runtime needs numpy alone: each command runs and exits 0 with
    scipy blocked, so a lazy scipy import on its path would fail here."""

    def test_commands_exit_zero(self, tmp_path):
        # p_min > 0 on every device, so the FDMA fits solve p_min kinks
        cfg = tmp_path / "pmin.json"
        save_scenario(generate_scenario(ScenarioSpec(n_devices=6, scheme="fdma", p_min=0.05)),
                      cfg)
        commands = [
            ["run", "--config", str(cfg), "--out", str(tmp_path / "fdma.csv")],
            ["run", "--scheme", "noma", "--n-devices", "6", "--out", str(tmp_path / "noma.csv")],
            ["oracle", "--n-devices", "2", "--grid-points", "6",
             "--out", str(tmp_path / "oracle.json")],
            ["sweep", "--n-devices", "6", "--seeds", "1", "--out", str(tmp_path / "sweep.csv")],
        ]
        src = str(Path(flmar.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(commands)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0, 0]
        assert result["kinks"] > 0
