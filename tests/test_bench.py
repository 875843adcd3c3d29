import dataclasses
import json
import math

import numpy as np
import pytest

from stiefel_agd import bench
from stiefel_agd.bench import (
    CSV_HEADER,
    ExperimentSpec,
    FitResult,
    TrialRow,
    build_problem,
    fits_from_rows,
    loglog_fit,
    result_to_json,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
    scaling_points,
    trial_seed,
)
from stiefel_agd.errors import DegenerateFitError, LineSearchFailedError
from stiefel_agd.solvers import SolverConfig


def fast_config(**kwargs):
    defaults = dict(epsilon=1e-6, max_iter=50_000)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def make_row(method="gd", n=100, kappa=100.0, trial=0, iterations=10,
             termination="converged"):
    return TrialRow(
        method=method, n=n, k=1, kappa=kappa, trial=trial,
        seed=trial_seed(0, n, trial), iterations=iterations, f_evals=3 * iterations,
        g_evals=iterations + 1, restarts=0, final_rel_gradnorm=1e-7,
        termination=termination, wall_ms=12.5,
    )


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        assert trial_seed(5, 100, 0) == trial_seed(5, 100, 0)
        seeds = {trial_seed(0, n, t) for n in (10, 100) for t in range(5)}
        assert len(seeds) == 10

    def test_pinned_value(self):
        # platform-stable: crc32 of b"100:0" plus the base seed
        import zlib

        assert trial_seed(7, 100, 0) == 7 + zlib.crc32(b"100:0")


class TestLogLogFit:
    def test_exact_line(self):
        fit = loglog_fit([(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)])
        assert fit.slope == pytest.approx(2.0, abs=1e-14)
        assert fit.intercept == pytest.approx(1.0, abs=1e-14)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-14)

    def test_two_points_interpolate(self):
        fit = loglog_fit([(0.0, 1.0), (4.0, 3.0)])
        assert fit.slope == pytest.approx(0.5, abs=1e-14)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateFitError):
            loglog_fit([(1.0, 2.0)])
        with pytest.raises(DegenerateFitError):
            loglog_fit([(1.0, 2.0), (1.0, 3.0)])

    def test_noisy_synthetic_recovers_generator_slope(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0.0, 5.0, 40)
        slopes = []
        for _ in range(50):
            ys = 2.0 * xs + 1.0 + rng.normal(0.0, 0.1, xs.size)
            slopes.append(loglog_fit(list(zip(xs, ys))).slope)
        # bootstrap-style spread around the generator slope
        assert abs(float(np.mean(slopes)) - 2.0) <= 3.0 * float(np.std(slopes))


class TestSyntheticInjection:
    def test_exact_power_law_slope(self):
        rows = []
        for kappa, iters in ((100.0, 10), (10_000.0, 100), (1_000_000.0, 1000)):
            for trial in range(3):
                rows.append(make_row(n=int(kappa), kappa=kappa, trial=trial,
                                     iterations=iters))
        rows.sort(key=lambda r: (r.method, r.n, r.trial))
        fit = fits_from_rows(rows)["gd"]
        assert fit.slope == pytest.approx(0.5, abs=1e-12)

    def test_failures_excluded_from_fit(self):
        rows = [
            make_row(n=10, kappa=10.0, iterations=5),
            make_row(n=100, kappa=100.0, iterations=50),
            make_row(n=100, kappa=100.0, trial=1, iterations=999_999,
                     termination="max_iterations"),
        ]
        rows.sort(key=lambda r: (r.method, r.n, r.trial))
        pts = scaling_points(rows)["gd"]
        assert len(pts) == 2
        assert pts[1][1] == pytest.approx(math.log(50.0))


class TestExperimentSpecValidation:
    def test_rejects_bad_specs(self):
        cfg = fast_config()
        good = dict(problem="sphere", spectrum="linear", n_values=(10, 20),
                    trials_per_n=1, base_seed=0, methods=("gd",), solver=cfg)
        ExperimentSpec(**good)
        for bad in (
            dict(good, problem="torus"),
            dict(good, n_values=(20, 10)),
            dict(good, n_values=()),
            dict(good, trials_per_n=0),
            dict(good, methods=("newton",)),
            dict(good, methods=()),
            dict(good, k=3),  # sphere forces k = 1
            dict(good, weights=(2.0,)),  # and weight 1
            dict(good, weights="foo"),
            dict(good, weights=(1.0, 2.0)),  # one weight per column
            dict(good, problem="brockett", k=2, weights=(1.0,)),
            # sizes and seeds are integers
            dict(good, problem="brockett", k=2.5),
            dict(good, trials_per_n=1.5),
            dict(good, base_seed=0.5),
            dict(good, n_values=(10, 20.5)),
            dict(good, n_values=(10.0, 20)),
        ):
            with pytest.raises(ValueError):
                ExperimentSpec(**bad)

    def test_build_problem_kappa(self):
        spec = ExperimentSpec(problem="brockett", spectrum="linear",
                              n_values=(100,), trials_per_n=1, base_seed=0,
                              methods=("gd",), solver=fast_config(), k=10,
                              weights="optimal")
        objective, kappa = build_problem(spec, 100)
        weights = objective.weights
        assert np.array_equal(weights, np.arange(1.0, 11.0))
        assert kappa == pytest.approx(990.0)

    def test_explicit_weights(self):
        spec = ExperimentSpec(problem="brockett", spectrum="linear",
                              n_values=(50,), trials_per_n=1, base_seed=0,
                              methods=("gd",), solver=fast_config(), k=2,
                              weights=(1.0, 3.0))
        objective, _ = build_problem(spec, 50)
        weights = objective.weights
        assert np.array_equal(weights, [1.0, 3.0])

    def test_fixed_spectrum_must_match_n(self):
        spec = ExperimentSpec(problem="sphere", spectrum="linear:50",
                              n_values=(50, 100), trials_per_n=1, base_seed=0,
                              methods=("gd",), solver=fast_config())
        with pytest.raises(ValueError):
            run_experiment(spec)


class TestRunExperiment:
    def test_single_cell_degenerate_fit(self):
        spec = ExperimentSpec(problem="sphere", spectrum="linear",
                              n_values=(100,), trials_per_n=1, base_seed=0,
                              methods=("gd",), solver=fast_config())
        result = run_experiment(spec)
        assert len(result.rows) == 1
        assert result.fits["gd"] is None  # single abscissa: slope undefined

    def test_row_count_and_shared_x0(self):
        spec = ExperimentSpec(problem="sphere", spectrum="linear",
                              n_values=(30, 60), trials_per_n=2, base_seed=1,
                              methods=("gd", "agd-function"),
                              solver=fast_config())
        result = run_experiment(spec)
        assert len(result.rows) == 2 * 2 * 2
        # methods share seeds within a cell
        for n in (30, 60):
            for trial in range(2):
                seeds = {r.seed for r in result.rows
                         if r.n == n and r.trial == trial}
                assert len(seeds) == 1

    def test_deterministic_csv(self):
        spec = ExperimentSpec(problem="sphere", spectrum="linear",
                              n_values=(40, 80), trials_per_n=2, base_seed=3,
                              methods=("gd", "agd-gradient"),
                              solver=fast_config())
        a = rows_to_csv(run_experiment(spec).rows)
        b = rows_to_csv(run_experiment(spec).rows)
        assert a == b

    def test_small_sweep_all_converge_and_agd_wins(self):
        spec = ExperimentSpec(problem="sphere", spectrum="linear",
                              n_values=(50, 100, 200), trials_per_n=3,
                              base_seed=0,
                              methods=("gd", "agd-function", "agd-gradient"),
                              solver=fast_config(epsilon=1e-8))
        result = run_experiment(spec)
        assert not result.failures
        pts = scaling_points(result.rows)
        for i in range(3):
            assert pts["agd-function"][i][1] < pts["gd"][i][1]
            assert pts["agd-gradient"][i][1] < pts["gd"][i][1]
        assert result.max_orth_drift <= 1e-8


class TestRaisingSolve:
    """A solve that raises a library error or ValueError becomes a row
    and the sweep goes on; other exceptions still propagate."""

    def sweep(self, monkeypatch, error):
        solve = bench.SOLVERS["gd"]

        def flaky(objective, x0, config):
            if objective.n == 40:
                raise error
            return solve(objective, x0, config)

        monkeypatch.setitem(bench.SOLVERS, "gd", flaky)
        spec = ExperimentSpec(problem="sphere", spectrum="linear",
                              n_values=(20, 40, 80), trials_per_n=2,
                              base_seed=0, methods=("gd", "agd-function"),
                              solver=fast_config())
        return run_experiment(spec)

    @pytest.mark.parametrize("error", [ValueError("bad"),
                                       LineSearchFailedError("bad")])
    def test_raised_cell_becomes_a_row(self, monkeypatch, error):
        result = self.sweep(monkeypatch, error)
        assert [(r.method, r.n, r.trial) for r in result.rows] == [
            (m, n, t) for m in ("agd-function", "gd")
            for n in (20, 40, 80) for t in range(2)
        ]
        raised = [r for r in result.rows if r.termination == bench.RAISED]
        assert [(r.method, r.n) for r in raised] == [("gd", 40), ("gd", 40)]
        for r in raised:
            assert (r.iterations, r.f_evals, r.g_evals, r.restarts) == (0, 0, 0, 0)
            assert math.isnan(r.final_rel_gradnorm)
        assert result.failures == raised
        failures = json.loads(result_to_json(result))["failures"]
        assert [(f["n"], f["termination"]) for f in failures] == [
            (40, "raised"), (40, "raised")
        ]
        assert len(result.fits["gd"].points) == 2
        assert len(result.fits["agd-function"].points) == 3
        # nan != nan, so the round trip is compared as text
        text = rows_to_csv(result.rows)
        assert rows_to_csv(rows_from_csv(text)) == text

    def test_other_exceptions_propagate(self, monkeypatch):
        with pytest.raises(RuntimeError):
            self.sweep(monkeypatch, RuntimeError("bug"))


class TestCsvRoundTrip:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "method,n,k,kappa,trial,seed,iterations,f_evals,g_evals,restarts,"
            "final_rel_gradnorm,termination,wall_ms"
        )

    def test_round_trip_preserves_everything_but_timing(self):
        rows = [make_row(trial=t, iterations=11 + t) for t in range(3)]
        back = rows_from_csv(rows_to_csv(rows))
        for orig, parsed in zip(rows, back):
            assert parsed == dataclasses.replace(orig, wall_ms=0.0)

    def test_float_fields_round_trip_exactly(self):
        row = dataclasses.replace(make_row(), kappa=math.pi * 1e3,
                                  final_rel_gradnorm=2.2250738585072014e-308)
        parsed = rows_from_csv(rows_to_csv([row]))[0]
        assert parsed.kappa == row.kappa
        assert parsed.final_rel_gradnorm == row.final_rel_gradnorm

    def test_fit_reproducibility_from_csv(self):
        spec = ExperimentSpec(problem="sphere", spectrum="linear",
                              n_values=(40, 80, 160), trials_per_n=2,
                              base_seed=5, methods=("gd",),
                              solver=fast_config())
        result = run_experiment(spec)
        refit = fits_from_rows(rows_from_csv(rows_to_csv(result.rows)))
        assert isinstance(result.fits["gd"], FitResult)
        assert refit["gd"] == result.fits["gd"]  # bit-for-bit identical

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            rows_from_csv("not,a,header\n")
