"""Acceptance suite.

Each test prints one PASS line with the measured quantities once its
criterion holds; run with -s (or read captured output) to see them. The
two scaling sweeps take a few minutes combined; their results are shared
across criteria through module-scoped fixtures. Criteria 5-9 use those
fixtures and are marked ``slow``; ``pytest -m "not slow"`` skips them.
"""

import math
import time

import numpy as np
import pytest

import stiefel_agd as sa
from stiefel_agd.bench import (
    ExperimentSpec,
    fits_from_rows,
    rows_from_csv,
    run_experiment,
    scaling_points,
)
from stiefel_agd.cli import main as cli_main
from stiefel_agd.geometry import (
    DualTangentVector,
    cayley_retract,
    dual_metric,
    dual_norm,
    lerp,
    project_dual,
    random_point,
    retract_inverse,
)

from reference import (
    QScheduleMode,
    StronglyConvexMode,
    euclidean_agd,
    geodesic_retract,
    lower_indices,
    lyapunov_value,
    metric,
    raise_indices,
)

PAPER_PARAMS = dict(gamma0=0.1, lambda_d=1.7, c_l=0.7, c_r=0.01)
SOLVERS = {
    "gd": sa.gradient_descent,
    "agd-function": sa.agd_function_restart,
    "agd-gradient": sa.agd_gradient_restart,
}


def report(criterion, detail, passed=True):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status}  [{detail}]")


def rand_dual(point, rng, norm=1.0):
    w = project_dual(point, rng.standard_normal((point.n, point.k)))
    return DualTangentVector(w.w * (norm / dual_norm(w)), point)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def criterion5_traces():
    """Brockett n=200, k=10, linear spectrum, weights 1..10, 10 seeds,
    every solver, tol 1e-10."""
    spectrum = sa.SpectrumInfo(np.arange(1.0, 201.0))
    weights = np.arange(1.0, 11.0)
    objective = sa.make_objective(spectrum, weights)
    config = sa.SolverConfig(epsilon=1e-10, max_iter=1_000_000, **PAPER_PARAMS)
    traces = {}
    for method, solver in SOLVERS.items():
        for seed in range(10):
            x0 = random_point(200, 10, seed)
            traces[(method, seed)] = solver(objective, x0, config)
    return spectrum, weights, traces


@pytest.fixture(scope="module")
def sphere_sweep_spec():
    return ExperimentSpec(
        problem="sphere",
        spectrum="linear",
        n_values=(100, 178, 316, 562, 1000),
        trials_per_n=10,
        base_seed=0,
        methods=("gd", "agd-function", "agd-gradient"),
        solver=sa.SolverConfig(epsilon=1e-10, max_iter=1_000_000, **PAPER_PARAMS),
    )


@pytest.fixture(scope="module")
def sphere_sweep(sphere_sweep_spec):
    return run_experiment(sphere_sweep_spec)


@pytest.fixture(scope="module")
def brockett_sweep():
    spec = ExperimentSpec(
        problem="brockett",
        spectrum="linear",
        k=10,
        weights="optimal",
        n_values=(100, 316, 1000),
        trials_per_n=5,
        base_seed=0,
        methods=("gd", "agd-function", "agd-gradient"),
        solver=sa.SolverConfig(epsilon=1e-10, max_iter=1_000_000, **PAPER_PARAMS),
    )
    return run_experiment(spec)


SPHERE_SWEEP_ARGS = [
    "scaling", "--problem", "sphere", "--spectrum", "linear",
    "--n-values", "100,178,316,562,1000", "--trials", "10", "--seed", "0",
    "--method", "all", "--tol", "1e-10", "--gamma0", "0.1",
    "--lambda-d", "1.7", "--c-l", "0.7", "--c-r", "0.01", "--format", "csv",
]


# ---------------------------------------------------------------- criteria

def test_criterion_1_geometry_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for n, k in ((20, 3), (200, 10)):
        for i in range(100):
            x = random_point(n, k, 10_000 * n + i)
            w = rand_dual(x, rng)

            # index maps are mutually inverse
            back = lower_indices(raise_indices(w))
            assert np.linalg.norm(back.w - w.w) <= 1e-13

            # raising is an isometry onto the tangent space
            a = dual_metric(w, w)
            v = raise_indices(w)
            assert abs(a - metric(v, v)) <= 1e-12 * a

            # projection is idempotent
            w2 = project_dual(x, w.w)
            assert np.linalg.norm(w2.w - w.w) <= 1e-13

            # retraction at zero
            assert cayley_retract(w, 0.0) is x
            assert np.allclose(geodesic_retract(w, 0.0).x, x.x, atol=1e-14)

            # first-order retraction property (central differences)
            h = 1e-5
            for retraction in (cayley_retract, geodesic_retract):
                fd = (retraction(w, h).x - retraction(w, -h).x) / (2 * h)
                assert np.linalg.norm(fd - v.v) <= 1e-6 * np.linalg.norm(v.v)

            # second-order agreement of the two retractions as t -> 0
            t = 1e-3
            d1 = np.linalg.norm(
                geodesic_retract(w, t).x - cayley_retract(w, t).x
            )
            d2 = np.linalg.norm(
                geodesic_retract(w, t / 2).x - cayley_retract(w, t / 2).x
            )
            assert d2 <= 1.1 * (d1 / t**2) * (t / 2) ** 2 + 1e-15

            # equivariance under right rotation
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            xq = sa.StiefelPoint(x.x @ q)
            lhs = cayley_retract(DualTangentVector(w.w @ q, xq), 0.37).x
            rhs = cayley_retract(w, 0.37).x @ q
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, f"100 instances at (20,3) and (200,10) in {elapsed:.1f} s")


def test_criterion_2_extrapolation_roundtrip():
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(1000):
        n, k = (20, 3) if i % 2 == 0 else (200, 10)
        x = random_point(n, k, 555_000 + i)
        w = rand_dual(x, rng)
        y = cayley_retract(w, float(rng.uniform(0.01, 0.5)))
        back = cayley_retract(retract_inverse(x, y), 1.0)
        worst = max(worst, float(np.linalg.norm(back.x - y.x)))
        assert worst <= 1e-12
        if i % 100 == 0:
            assert lerp(x, y, 0.0) is x
            assert np.linalg.norm(lerp(x, y, 1.0).x - y.x) <= 1e-12
    report(2, f"1000 roundtrips, worst error {worst:.2e}")


def test_criterion_3_conditioning_bound():
    rng = np.random.default_rng(88)
    checked = 0
    rejected = 0
    worst_margin = np.inf
    while checked < 1000:
        n, k = (20, 3) if checked % 2 == 0 else (100, 6)
        x = random_point(n, k, 777_000 + checked + rejected)
        w = rand_dual(x, rng)
        y = cayley_retract(w, float(rng.uniform(0.05, 2.2)))
        d2 = float(np.linalg.norm(x.x - y.x) ** 2)
        if d2 >= 3.0:
            rejected += 1
            continue
        sv = np.linalg.svd(np.eye(k) + x.x.T @ y.x, compute_uv=False)
        kappa = float(sv[0] / sv[-1])
        bound = 2.0 / math.sqrt(3.0 - d2)
        assert kappa <= bound * (1.0 + 1e-12)
        worst_margin = min(worst_margin, bound - kappa)
        checked += 1
    report(3, f"1000 pairs, smallest slack {worst_margin:.3e}")


def test_criterion_4_euclidean_theory_suite():
    rng = np.random.default_rng(99)
    for rep in range(50):
        dim = int(rng.integers(2, 65))
        mu = float(rng.uniform(0.05, 1.0))
        big_l = mu * float(rng.uniform(1.5, 400.0))
        d = np.sort(rng.uniform(mu, big_l, dim))
        d[0], d[-1] = mu, big_l
        x_star = rng.standard_normal(dim)
        f = lambda z, d=d, xs=x_star: 0.5 * float(np.sum(d * (np.asarray(z) - xs) ** 2))
        g = lambda z, d=d, xs=x_star: d * (np.asarray(z) - xs)
        x0 = rng.standard_normal(dim) * 2.0

        # strongly convex regime: geometric bound at every step
        traj = euclidean_agd(g, x0, StronglyConvexMode(mu, big_l), 200)
        f0 = f(x0)
        rate = 1.0 - math.sqrt(mu / big_l)
        for t in range(201):
            assert f(traj.xs[t]) <= 2.0 * rate**t * f0 * (1.0 + 1e-12)

        # q-schedule regime: t^-2 bound and Lyapunov monotonicity
        traj = euclidean_agd(g, x0, QScheduleMode(gamma=1.0 / big_l), 200)
        r0 = float(np.sum((x0 - x_star) ** 2))
        for t in range(1, 201):
            assert f(traj.xs[t]) <= 2.0 * big_l * r0 / t**2 * (1.0 + 1e-12)
        js = [
            lyapunov_value(f, traj.xs[t], traj.ys[t], 1.0 / big_l, float(t), x_star)
            for t in range(201)
        ]
        for t in range(200):
            assert js[t + 1] <= js[t] + 1e-10 * js[0]
    report(4, "50 quadratics x 200 steps: Lyapunov + both rate bounds")


@pytest.mark.slow
def test_criterion_5_solution_correctness(criterion5_traces):
    spectrum, weights, traces = criterion5_traces
    target = sa.known_minimum(spectrum, weights)
    k = weights.size
    for (method, seed), trace in traces.items():
        assert trace.termination == sa.CONVERGED, (method, seed)
        assert abs(trace.final_value - target) <= 1e-7, (method, seed)
        x = trace.final_point.x
        # column i must align with the eigenvector of lambda_{k+1-i}
        # (largest weight on the smallest eigenvalue); diagonal operator,
        # so eigenvectors are coordinate axes
        for i in range(k):
            assert abs(x[k - 1 - i, i]) >= 1.0 - 1e-6, (method, seed, i)
    report(5, f"{len(traces)} runs converged to {target} with aligned columns")


def _check_scaling_criterion(criterion, result):
    """Shared slope/dominance requirements of the two scaling criteria.

    Prints the measured slopes before asserting so the pass/fail line is
    visible either way.
    """
    fits = result.fits
    pts = scaling_points(result.rows)
    dominance = all(
        pts[m][i][1] < pts["gd"][i][1]
        for m in ("agd-function", "agd-gradient")
        for i in range(len(result.spec.n_values))
    )
    ok = (
        not result.failures
        and fits["agd-function"].slope <= 0.75
        and fits["agd-gradient"].slope <= 0.75
        and fits["gd"].slope >= 0.85
        and dominance
    )
    detail = "slopes gd={:.3f} agd-f={:.3f} agd-g={:.3f}, dominance={}".format(
        fits["gd"].slope, fits["agd-function"].slope,
        fits["agd-gradient"].slope, dominance,
    )
    report(criterion, detail, passed=ok)
    assert not result.failures
    assert fits["agd-function"].slope <= 0.75, detail
    assert fits["agd-gradient"].slope <= 0.75, detail
    assert dominance, detail
    assert fits["gd"].slope >= 0.85, (
        f"{detail}; gradient descent's fitted slope falls below 0.85 at "
        "these problem sizes. It is set mostly by where gamma0 = 0.1 falls "
        "on the line search's step grid gamma0 * 1.7^m: rescaling the "
        "operator by 1.7^(j/4), which moves gamma0 across one grid step, "
        "gave GD slopes of 0.815, 0.704, 1.284 and 0.910 for j = 0..3 "
        "while f was summed term by term (ROADMAP item 6)"
    )


@pytest.mark.slow
def test_criterion_6_sphere_scaling(sphere_sweep):
    _check_scaling_criterion(6, sphere_sweep)


@pytest.mark.slow
def test_criterion_7_brockett_scaling(brockett_sweep):
    _check_scaling_criterion(7, brockett_sweep)


@pytest.mark.slow
def test_criterion_8_orthonormality_drift(criterion5_traces, sphere_sweep,
                                          brockett_sweep):
    _, _, traces = criterion5_traces
    drift5 = max(t.max_orth_drift for t in traces.values())
    drift = max(drift5, sphere_sweep.max_orth_drift, brockett_sweep.max_orth_drift)
    assert drift <= 1e-8
    report(8, f"max drift across criteria 5-7 runs: {drift:.2e}")


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path, sphere_sweep, capsys):
    out1 = tmp_path / "sphere_a.csv"
    out2 = tmp_path / "sphere_b.csv"
    assert cli_main(SPHERE_SWEEP_ARGS + ["--out", str(out1)]) == 0
    assert cli_main(SPHERE_SWEEP_ARGS + ["--out", str(out2)]) == 0
    capsys.readouterr()
    bytes1 = out1.read_bytes()
    assert bytes1 == out2.read_bytes()
    # the command reproduces the library-level sweep byte for byte too,
    # and refitting its own CSV reproduces the emitted fits exactly
    assert bytes1.decode() == sa.rows_to_csv(sphere_sweep.rows)
    refit = fits_from_rows(rows_from_csv(bytes1.decode()))
    assert refit == sphere_sweep.fits
    report(9, f"byte-identical CSV over two runs ({len(bytes1)} bytes)")
