import numpy as np
import pytest

from reference import (
    QScheduleMode,
    StronglyConvexMode,
    euclidean_agd,
    lyapunov_value,
)


def quadratic(d, x_star):
    d = np.asarray(d, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    f = lambda x: 0.5 * float(np.sum(d * (np.asarray(x) - x_star) ** 2))
    g = lambda x: d * (np.asarray(x) - x_star)
    return f, g


class TestMomentumSchedule:
    """The schedule q_t = t that both iterations run satisfies the
    admissibility condition the q-schedule theory needs."""

    def test_default_inequality_holds_to_1e6(self):
        # (q_{t+1} + 1)^2 <= (q_t + 2)^2 + 1 with q_t = t, in exact ints
        q = np.arange(1_000_001, dtype=np.int64)
        lhs = (q[1:] + 1) ** 2
        rhs = (q[:-1] + 2) ** 2 + 1
        assert q[0] == 0
        assert np.all(lhs <= rhs)


class TestEuclideanAgd:
    def test_unit_quadratic_one_step(self):
        _, g = quadratic([1.0], [0.0])
        traj = euclidean_agd(g, [1.0], QScheduleMode(gamma=1.0), steps=3)
        assert traj.xs[1, 0] == 0.0  # exact minimizer after one step

    def test_strongly_convex_theorem_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dim = int(rng.integers(2, 65))
            mu = float(rng.uniform(0.1, 1.0))
            L = mu * float(rng.uniform(2.0, 300.0))
            d = np.sort(rng.uniform(mu, L, dim))
            d[0], d[-1] = mu, L
            f, g = quadratic(d, np.zeros(dim))
            x0 = rng.standard_normal(dim)
            traj = euclidean_agd(g, x0, StronglyConvexMode(mu, L), steps=150)
            rate = 1.0 - np.sqrt(mu / L)
            f0 = f(x0)
            for t in range(151):
                assert f(traj.xs[t]) <= 2.0 * rate**t * f0 * (1.0 + 1e-12)

    def test_qschedule_theorem_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dim = int(rng.integers(2, 65))
            d = np.sort(rng.uniform(0.01, 50.0, dim))
            L = float(d[-1])
            x_star = rng.standard_normal(dim)
            f, g = quadratic(d, x_star)
            x0 = rng.standard_normal(dim)
            traj = euclidean_agd(g, x0, QScheduleMode(gamma=1.0 / L), steps=150)
            r0 = float(np.sum((x0 - x_star) ** 2))
            for t in range(1, 151):
                assert f(traj.xs[t]) <= 2.0 * L * r0 / t**2 * (1.0 + 1e-12)

    def test_mode_validation(self):
        for mu, L in ((2.0, 1.0), (float("nan"), 1.0), (1.0, float("nan")),
                      (1.0, float("inf"))):
            with pytest.raises(ValueError):
                StronglyConvexMode(mu=mu, L=L)
        for gamma in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                QScheduleMode(gamma=gamma)
        _, g = quadratic([1.0], [0.0])
        with pytest.raises(ValueError):
            euclidean_agd(g, [1.0], QScheduleMode(gamma=1.0), steps=-1)
        with pytest.raises(ValueError):
            euclidean_agd(g, [1.0], "nonsense", steps=1)


class TestLyapunov:
    def test_initial_value(self):
        f, _ = quadratic([1.0, 2.0], [0.0, 0.0])
        x0 = np.array([3.0, -1.0])
        j0 = lyapunov_value(f, x0, x0, gamma_t=0.5, q_t=0.0, x_star=np.zeros(2))
        assert j0 == pytest.approx(2.0 * float(np.sum(x0**2)), rel=1e-14)

    def test_zero_at_minimizer(self):
        f, _ = quadratic([1.0, 2.0], [0.5, -0.5])
        x_star = np.array([0.5, -0.5])
        assert lyapunov_value(f, x_star, x_star, 0.1, 3.0, x_star) == 0.0

    def test_monotone_along_run(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dim = int(rng.integers(2, 65))
            d = np.sort(rng.uniform(0.05, 20.0, dim))
            L = float(d[-1])
            x_star = rng.standard_normal(dim)
            f, g = quadratic(d, x_star)
            x0 = rng.standard_normal(dim) * 2.0
            traj = euclidean_agd(g, x0, QScheduleMode(gamma=1.0 / L), steps=200)
            js = [
                lyapunov_value(f, traj.xs[t], traj.ys[t], 1.0 / L, float(t), x_star)
                for t in range(201)
            ]
            for t in range(200):
                assert js[t + 1] <= js[t] + 1e-10 * js[0]
