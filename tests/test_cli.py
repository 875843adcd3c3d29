import json
import subprocess
import sys

import numpy as np
import pytest

from stiefel_agd.bench import rows_from_csv
from stiefel_agd.cli import _solver_config, build_parser, main
from stiefel_agd.solvers import SolverConfig

FAST = ["--tol", "1e-6"]


def run_cli(argv):
    return main(argv)


class TestSolveCommand:
    def test_sphere_solve_report(self, capsys):
        rc = run_cli(["solve", "--problem", "sphere", "--spectrum", "linear:50",
                      "--method", "agd-function", "--tol", "1e-10",
                      "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out
        assert "kappa=49" in out

    def test_invalid_spectrum_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--spectrum", "nonsense:10"] + FAST)
        assert exc.value.code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_sphere_rejects_k(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--spectrum", "linear:10", "--k", "3"] + FAST)
        assert exc.value.code == 2

    def test_method_all_prints_three_rows(self, capsys):
        rc = run_cli(["solve", "--spectrum", "linear:30", "--method", "all",
                      "--seed", "1"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        for method in ("gd", "agd-function", "agd-gradient"):
            assert method in out

    def test_out_writes_orthonormal_point(self, tmp_path, capsys):
        target = tmp_path / "x.txt"
        rc = run_cli(["solve", "--problem", "brockett", "--spectrum",
                      "linear:40", "--k", "4", "--seed", "3",
                      "--out", str(target)] + FAST)
        assert rc == 0
        x = np.loadtxt(target)
        assert x.shape == (40, 4)
        assert np.linalg.norm(x.T @ x - np.eye(4)) <= 1e-6


class TestScalingCommand:
    def test_csv_output_and_determinism(self, tmp_path, capsys):
        args = ["scaling", "--problem", "sphere", "--spectrum", "linear",
                "--n-values", "30,60", "--trials", "2", "--seed", "0",
                "--method", "gd", "--format", "csv"] + FAST
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        rows = rows_from_csv(out1.read_text())
        assert len(rows) == 4
        assert all(r.wall_ms == 0.0 for r in rows)

    def test_json_summary(self, capsys):
        rc = run_cli(["scaling", "--spectrum", "linear", "--n-values", "30,60",
                      "--trials", "1", "--method", "agd-function",
                      "--format", "json"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["config"]["problem"] == "sphere"
        assert "agd-function" in payload["fits"]
        assert payload["rows"] == 2

    def test_bad_n_values_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scaling", "--n-values", "10,abc"] + FAST)
        assert exc.value.code == 2


class TestFitCommand:
    def test_fit_reproduces_scaling_fits(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        run_cli(["scaling", "--spectrum", "linear", "--n-values", "30,60,120",
                 "--trials", "2", "--method", "gd", "--format", "csv",
                 "--out", str(csv_path)] + FAST)
        run_cli(["scaling", "--spectrum", "linear", "--n-values", "30,60,120",
                 "--trials", "2", "--method", "gd", "--format", "json"] + FAST)
        summary = json.loads(capsys.readouterr().out)

        rc = run_cli(["fit", str(csv_path)])
        fits = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert fits["gd"]["slope"] == summary["fits"]["gd"]["slope"]
        assert fits["gd"]["intercept"] == summary["fits"]["gd"]["intercept"]

    def test_missing_file_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", "/nonexistent/rows.csv"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stiefel_agd", "solve", "--spectrum",
             "linear:20", "--tol", "1e-6", "--seed", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "converged" in proc.stdout


class TestSolverFlags:
    @pytest.mark.parametrize(
        "command",
        [["solve", "--spectrum", "linear:10"], ["scaling", "--n-values", "10"]],
        ids=["solve", "scaling"],
    )
    def test_defaults_match_solver_config(self, command):
        args = build_parser().parse_args(command)
        assert _solver_config(args) == SolverConfig()
