"""tools/count_passes.py: the sums it prints and the arguments it takes,
on a stand-in workload (the real units run for tens of seconds)."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stiefel_agd import bench

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_passes.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("count_passes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fake_workloads(monkeypatch):
    """Stand in for perfbench's ``workloads`` module; ``main`` pins BLAS
    threads and extends the import path, which are restored afterwards."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    made = []

    def make(name):
        made.append(name)
        return FakeWorkload()

    module = SimpleNamespace(make=make, WORKLOADS=("brockett-agd", "brockett-gd"),
                             made=made)
    monkeypatch.setitem(sys.modules, "workloads", module)
    return module


def outcome(method, passes, restarts, applies, trials, error=None):
    return SimpleNamespace(method=method, passes=passes, restarts=restarts,
                           operator_applies=applies, f_evals=trials, error=error)


class FakeWorkload:
    """Per seed s: agd-function makes s passes with s - 1 restarts and 2 s
    trials, agd-gradient 10 s passes with 2 restarts and 15 s trials, the
    unit's fingerprint is "fp<s>"; the gradient solve of seed 2 fails its
    check."""

    def prepare(self, seed):
        self.seed = seed

    def run(self):
        s = self.seed
        return SimpleNamespace(fingerprint=f"fp{s}", outcomes=[
            outcome("agd-function", s, s - 1, 3 * s, 2 * s),
            outcome("agd-gradient", 10 * s, 2, 30 * s, 15 * s,
                    "termination max_iterations" if s == 2 else None),
        ])


def test_sums_per_method_and_in_total(tool, fake_workloads, capsys):
    assert tool.main(["brockett-agd", "1", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "workload": "brockett-agd",
        "seeds": [1, 3],
        "passes": {"agd-function": 6, "agd-gradient": 60, "total": 66},
        "restarts": {"agd-function": 3, "agd-gradient": 6, "total": 9},
        "operator_applies": {"agd-function": 18, "agd-gradient": 180,
                             "total": 198},
        "trials": {"agd-function": 12, "agd-gradient": 90, "total": 102},
        "trials_per_pass": {"agd-function": 2.0, "agd-gradient": 1.5,
                            "total": 1.545},
        "fingerprints": {"1": "fp1", "2": "fp2", "3": "fp3"},
        "solves": 6,
        "failed": 1,
    }
    assert fake_workloads.made == ["brockett-agd"] * 3  # a fresh unit per seed


@pytest.mark.parametrize("argv", [
    ["no-such-workload", "1", "2"],
    ["brockett-gd", "3", "2"],
    ["brockett-gd", "1"],
])
def test_bad_arguments_exit_2(tool, fake_workloads, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert fake_workloads.made == []


GRID_PHASE = Path(__file__).resolve().parents[1] / "tools" / "grid_phase.py"


def test_grid_phase_fits_the_criterion_7_sweep_at_each_phase():
    spec = importlib.util.spec_from_file_location("grid_phase", GRID_PHASE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sweep = tool.criterion_7_spec((12, 20), 2, 2)
    build = bench.build_problem
    # through JSON, as ``main`` prints it
    lines = [json.loads(json.dumps(tool.phase(sweep, j))) for j in (0, 2)]
    assert bench.build_problem is build
    assert [(p["j"], p["c"], p["failures"]) for p in lines] == [
        (0, 1.0, 0), (2, 1.7 ** 0.5, 0)]
    # phase 0 is the unscaled sweep
    plain = bench.run_experiment(sweep)
    for method, fit in plain.fits.items():
        assert lines[0]["methods"][method] == {
            "slope": round(fit.slope, 3),
            "mean_iterations": [
                sum(r.iterations for r in plain.rows
                    if r.method == method and r.n == n) / 2
                for n in (12, 20)
            ],
        }
    assert lines[1]["methods"] != lines[0]["methods"]


PERCALL = Path(__file__).resolve().parents[1] / "tools" / "percall.py"


@pytest.fixture
def percall(monkeypatch):
    """tools/percall.py as a module, with BLAS pinned as its ``main`` pins it."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("percall", PERCALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_percall_times_each_call_at_each_size(percall):
    # through JSON, as ``main`` prints it
    out = json.loads(json.dumps(percall.measure([(6, 2), (5, 1)], 2, 1)))
    assert list(out["us_per_call"]) == ["6x2", "5x1"]
    for times in out["us_per_call"].values():
        assert list(times) == ["value", "trial", "trial_and_gradient",
                               "trial_and_gradient_tiny", "value_and_gradient",
                               "gradient", "lerp_and_check", "pairing"]
        assert all(t > 0.0 for t in times.values())
    assert (out["number"], out["repeat"], out["blas_threads"]) == (2, 1, "1")
