"""tools/count_passes.py: the sums it prints and the arguments it takes,
on a stand-in workload (the real units run for tens of seconds)."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def outcome(method, passes, applies, error=None):
    return SimpleNamespace(method=method, passes=passes,
                           operator_applies=applies, error=error)


class FakeWorkload:
    """Per seed s: agd-function makes s passes, agd-gradient 10 s, the
    unit's fingerprint is "fp<s>"; the gradient solve of seed 2 fails its
    check."""

    def prepare(self, seed):
        self.seed = seed

    def run(self):
        s = self.seed
        return SimpleNamespace(fingerprint=f"fp{s}", outcomes=[
            outcome("agd-function", s, 3 * s),
            outcome("agd-gradient", 10 * s, 30 * s,
                    "termination max_iterations" if s == 2 else None),
        ])


def test_sums_per_method_and_in_total(tool, fake_workloads, capsys):
    assert tool.main(["brockett-agd", "1", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "workload": "brockett-agd",
        "seeds": [1, 3],
        "passes": {"agd-function": 6, "agd-gradient": 60, "total": 66},
        "operator_applies": {"agd-function": 18, "agd-gradient": 180,
                             "total": 198},
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
        assert list(times) == ["value", "trial_and_gradient",
                               "trial_and_gradient_tiny", "value_and_gradient",
                               "lerp_and_check"]
        assert all(t > 0.0 for t in times.values())
    assert (out["number"], out["repeat"], out["blas_threads"]) == (2, 1, "1")
