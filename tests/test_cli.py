import json
import subprocess
import sys

import numpy as np
import pytest

from stiefel_agd import bench
from stiefel_agd.bench import rows_from_csv
from stiefel_agd.cli import _solver_config, build_parser, main
from stiefel_agd.errors import LineSearchFailedError
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

    @pytest.mark.parametrize("command", [
        ["solve"],
        ["scaling", "--n-values", "4", "--trials", "1"],
    ])
    def test_degenerate_spectrum_exits_2(self, command, tmp_path, capsys):
        spectrum = tmp_path / "dup.txt"
        spectrum.write_text("1\n1\n2\n3\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--problem", "brockett", "--spectrum",
                               f"file:{spectrum}", "--k", "2"] + FAST)
        assert exc.value.code == 2
        assert "zero gap" in capsys.readouterr().err

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
    def test_sphere_rejects_k(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scaling", "--problem", "sphere", "--k", "3",
                     "--n-values", "10,20", "--trials", "1"] + FAST)
        assert exc.value.code == 2
        assert "k = 1" in capsys.readouterr().err

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


#: The flags both subcommands need to run; the sizes differ by subcommand.
COMMANDS = {
    "solve": ["solve", "--spectrum", "linear:10"],
    "scaling": ["scaling", "--n-values", "10", "--trials", "1"],
}


class TestErrorBoundary:
    """Bad input, an unreadable file and a solve that raises each end in
    the subcommand's usage line, one error line and exit 2, not a
    traceback."""

    def exit_2(self, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            run_cli(argv[:1] + FAST + argv[1:])  # argv's own flags win
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"usage: stiefel-agd {argv[0]} [-h]")
        assert f"stiefel-agd {argv[0]}: error: " in err
        return err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unreadable_spectrum_file(self, command, case, tmp_path, capsys):
        path = tmp_path / "missing.txt" if case == "missing" else tmp_path
        argv = ["solve"] if command == "solve" else ["scaling", "--n-values", "4"]
        err = self.exit_2(argv + ["--spectrum", f"file:{path}"], capsys)
        assert str(path) in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_into_missing_directory(self, command, tmp_path, monkeypatch,
                                        capsys):
        def unreachable(objective, x0, config):
            pytest.fail("solved before checking --out")

        monkeypatch.setitem(bench.SOLVERS, "gd", unreachable)
        target = tmp_path / "missing" / "out.txt"
        err = self.exit_2(COMMANDS[command] + ["--method", "gd",
                                               "--out", str(target)], capsys)
        assert str(target) in err

    def test_fit_out_into_missing_directory(self, tmp_path, capsys):
        # rejected before the CSV is read, so its absence goes unreported
        target = tmp_path / "missing" / "fits.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", str(tmp_path / "rows.csv"), "--out", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"stiefel-agd fit: error: cannot write {target}" in err
        assert "rows.csv" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_is_a_directory(self, command, tmp_path, monkeypatch, capsys):
        def unreachable(objective, x0, config):
            pytest.fail("solved before checking --out")

        monkeypatch.setitem(bench.SOLVERS, "gd", unreachable)
        err = self.exit_2(COMMANDS[command] + ["--method", "gd",
                                               "--out", str(tmp_path)], capsys)
        assert f"cannot write {tmp_path}: it is a directory" in err

    def test_fit_out_is_a_directory(self, tmp_path, capsys):
        # rejected before the CSV is read, so its bad contents go unreported
        csv = tmp_path / "rows.csv"
        csv.write_text("not a scaling CSV\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", str(csv), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stiefel-agd fit [-h]")
        assert (f"stiefel-agd fit: error: cannot write {tmp_path}: "
                "it is a directory") in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_run_keeps_earlier_output(self, command, tmp_path, capsys):
        target = tmp_path / "out.txt"
        target.write_text("earlier output\n")
        self.exit_2(COMMANDS[command] + ["--tol", "nan", "--out", str(target)],
                    capsys)
        assert target.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_nan_tolerance(self, command, capsys):
        err = self.exit_2(COMMANDS[command] + ["--tol", "nan"], capsys)
        assert "epsilon" in err

    @pytest.mark.parametrize("error", [ValueError("bad solve"),
                                       LineSearchFailedError("no Armijo step")])
    def test_raising_solve_stops_method_all(self, error, monkeypatch, capsys):
        def raising(objective, x0, config):
            raise error

        monkeypatch.setitem(bench.SOLVERS, "gd", raising)
        with pytest.raises(SystemExit) as exc:
            run_cli(COMMANDS["solve"] + ["--method", "all"] + FAST)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert str(error) in captured.err
        assert "agd-" not in captured.out  # gd runs first; nothing after it

    def test_other_exceptions_propagate(self, monkeypatch):
        def raising(objective, x0, config):
            raise RuntimeError("not an input error")

        monkeypatch.setitem(bench.SOLVERS, "gd", raising)
        with pytest.raises(RuntimeError):
            run_cli(COMMANDS["solve"] + ["--method", "gd"] + FAST)


class TestFlagSet:
    SOLVER_DEFAULTS = {"epsilon": 1e-10, "gamma0": 0.1, "lambda_d": 1.7,
                       "c_l": 0.7, "c_r": 0.01, "max_iter": 1000000}

    @pytest.mark.parametrize("argv, expected", [
        (["solve", "--spectrum", "linear:10"],
         {"command": "solve", "problem": "sphere", "spectrum": "linear:10",
          "k": None, "weights": "optimal", "method": "agd-function",
          "seed": 0, "out": None}),
        (["scaling", "--n-values", "10"],
         {"command": "scaling", "problem": "sphere", "spectrum": "linear",
          "k": None, "weights": "optimal", "n_values": (10,), "trials": 10,
          "seed": 0, "method": "all", "out": None, "format": "csv"}),
    ], ids=["solve", "scaling"])
    def test_names_and_defaults(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        parsed.pop("func")
        parsed.pop("parser")
        assert parsed == {**expected, **self.SOLVER_DEFAULTS}

    def test_method_choices(self):
        # --method takes these or "all", which runs them in this order
        assert bench.METHODS == ("gd", "agd-function", "agd-gradient")
