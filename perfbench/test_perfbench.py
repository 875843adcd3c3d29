"""Tests of the benchmark harness itself (not part of the package's suite):

    python -m pytest perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def small_brockett(methods=tuple(workloads.SOLVER_ATTR), starts=2):
    w = workloads.BrockettWorkload(spectrum="linear:40", k=3, methods=methods,
                                   starts=starts)
    w.prepare(seed=3)
    return w


def small_sweep():
    w = workloads.SweepWorkload(problem="sphere", n_values=(20, 40), trials_per_n=1)
    w.prepare(seed=3)
    return w


def test_raising_solve_is_recorded_and_the_sweep_continues():
    # Brockett on quadratic:10000 with optimal weights: the gradient norm is
    # about 5e7, so DualTangentVector's absolute 1e-8 invariant check raises
    # ValueError at the first value_and_gradient. Both solves of the sweep
    # must be attempted and recorded as failed.
    sweep = workloads.SweepWorkload(problem="brockett", spectrum="quadratic", k=10,
                                    n_values=(10000,), trials_per_n=1,
                                    methods=("gd", "agd-function"))
    sweep.prepare(seed=0)
    unit = sweep.run()
    assert [o.method for o in unit.outcomes] == ["gd", "agd-function"]
    for o in unit.outcomes:
        assert o.termination == workloads.RAISED
        assert o.error.startswith("ValueError")

    direct = workloads.BrockettWorkload(spectrum="quadratic:10000", k=10,
                                        methods=("gd",), starts=2)
    direct.prepare(seed=0)
    unit = direct.run()
    assert len(unit.outcomes) == 2
    assert all(o.error.startswith("ValueError") for o in unit.outcomes)


def test_check_solve_accepts_the_solution_and_rejects_wrong_ones():
    w = small_brockett(methods=("agd-function",), starts=1)
    trace, error = workloads.solve_guarded("agd-function", w.objective, w.points[0])
    assert error is None
    assert workloads.check_solve(w.objective, trace) is None
    wrong_value = replace(trace, final_value=trace.final_value + 1e-6)
    assert "value" in workloads.check_solve(w.objective, wrong_value)
    swapped = replace(trace, final_point=w.points[0])
    assert workloads.check_solve(w.objective, swapped) is not None
    drifted = replace(trace, max_orth_drift=1e-7)
    assert "drift" in workloads.check_solve(w.objective, drifted)
    capped, _ = workloads.solve_guarded("gd", w.objective, w.points[0],
                                        workloads.WARMUP_CONFIG)
    assert "termination" in workloads.check_solve(w.objective, capped)


@pytest.mark.parametrize("make", [small_brockett, small_sweep])
def test_traced_counts_match_solver_counters(make):
    w = make()
    plain = w.run()
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        spanned = w.run()
    assert tracing.snapshot() == before
    assert spanned.fingerprint == plain.fingerprint
    assert not [o.error for o in spanned.outcomes if o.error]

    m = tracing.layer_metrics(tracer, [spanned], [plain])
    outcomes = spanned.outcomes
    f_evals = sum(o.f_evals for o in outcomes)
    assert m["objectives.value.calls"] == f_evals
    assert m["objectives.value_and_gradient.calls"] == sum(o.g_evals for o in outcomes)
    assert m["solvers.line_search.calls"] == spanned.passes
    # one retraction and one value per line-search trial
    assert m["solvers.line_search.trials_per_call"] * spanned.passes == pytest.approx(f_evals)
    assert m["solvers.restart_ratio"] == pytest.approx(
        sum(o.restarts for o in outcomes) / spanned.passes)
    for layer in tracing.LAYERS:
        assert 0.0 <= m[f"{layer}.self_us"] <= m[f"{layer}.total_us"]
    assert sum(m[f"{layer}.share"] for layer in tracing.LAYERS) < 1.0
    assert m["solvers.loop.self_s"] > 0.0
    if isinstance(w, workloads.SweepWorkload):
        assert m["bench.run_experiment.self_s"] > 0.0
    else:
        assert m["bench.run_experiment.self_s"] == 0.0


def test_snapshot_restored_when_the_traced_block_raises():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert tracing.snapshot() != before
            raise RuntimeError("stop")
    assert tracing.snapshot() == before


def test_gradient_descent_never_inverts_a_retraction():
    w = small_brockett(methods=("gd",), starts=1)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        unit = w.run()
    m = tracing.layer_metrics(tracer, [unit], [])
    assert m["geometry.retract_inverse.calls"] == 0
    assert m["solvers.restart_ratio"] == 0.0
    assert "trace.overhead" not in m


def test_fingerprint_repeats_for_a_seed_and_changes_with_it():
    w = small_sweep()
    first, second = w.run(), w.run()
    assert first.fingerprint == second.fingerprint
    w.prepare(seed=4)
    assert w.run().fingerprint != first.fingerprint


def test_reference_seconds_scale_each_gap_by_the_kernels_around_it():
    meter = speed.Speedometer()
    # kernel runs of 1 s, 2 s and 1 s; the span covers parts of both gaps
    # and the whole middle kernel run, which must not count
    meter.ticks = [(0.0, 1.0), (10.0, 12.0), (20.0, 21.0)]
    wall, ref = meter.measure([(2.0, 15.0)])
    assert wall == pytest.approx(8.0 + 3.0)
    assert ref == pytest.approx((8.0 + 3.0) * speed.REFERENCE_S / 1.5)
    assert meter.measure([(21.5, 30.0)]) == (0.0, 0.0)


def test_speedometer_ticks_while_active_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(period_s=0.05) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            sum(range(1000))
        span = (t0, time.perf_counter())
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.ticks) >= 4
    wall, ref = meter.measure([span])
    kernels = sum(end - start for start, end in meter.ticks
                  if span[0] <= start and end <= span[1])
    assert wall == pytest.approx(span[1] - span[0] - kernels)
    assert ref > 0.0


def test_benchmark_json_lists_what_the_script_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    w = small_brockett(starts=1)
    tracer = tracing.Tracer()
    plain = w.run()
    with tracing.traced(tracer):
        spanned = w.run()
    names = tracing.layer_metrics(tracer, [spanned], [plain])
    printed = {n: run.PER_LAYER_UNITS[n.rsplit(".", 1)[1]] for n in names}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brockett-gd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
