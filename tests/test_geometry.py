import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

from stiefel_agd.geometry import (
    DualTangentVector,
    StiefelPoint,
    TangentVector,
    cayley_retract,
    dual_metric,
    dual_norm,
    geodesic_retract,
    lerp,
    lower_indices,
    metric,
    project_dual,
    raise_indices,
    random_point,
    retract_inverse,
)


def rand_dual(point, rng, norm=None):
    w = project_dual(point, rng.standard_normal((point.n, point.k)))
    if norm is not None:
        w = DualTangentVector(w.w * (norm / dual_norm(w)), point)
    return w


def cayley_1d(w_scalar):
    """Closed-form Cayley transform on the circle for X=(1,0), W=(0,w)."""
    c = 1.0 + w_scalar**2 / 4.0
    return np.array([[(1.0 - w_scalar**2 / 4.0) / c], [w_scalar / c]])


def cayley_smw(base, w, scale):
    """The Cayley retraction as the module docstring writes it, with
    I - Z^T U formed by subtraction from a fresh X^T X, solved by LAPACK
    dgetrf/dgetrs."""
    x = base.x
    k = base.k
    ws = (0.5 * scale) * w.w
    u = np.concatenate((ws, x), axis=1)
    xtws = x.T @ ws
    xtx = x.T @ x
    ztu = np.empty((2 * k, 2 * k))
    ztu[:k, :k] = xtws
    ztu[:k, k:] = xtx
    ztu[k:, :k] = -(ws.T @ ws)
    ztu[k:, k:] = -xtws.T
    ztx = np.concatenate((xtx, -xtws.T))
    lu, piv, _ = dgetrf(np.eye(2 * k) - ztu)
    s, _ = dgetrs(lu, piv, ztx)
    return x + 2.0 * (u @ s)


class TestTypes:
    def test_point_invariant_enforced(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.array([[1.0], [0.5]]))

    def test_point_shape_checks(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.eye(3)[:2])  # wide: k > n

    def test_dual_vector_invariant_enforced(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            DualTangentVector(np.array([[1.0], [0.0]]), x)

    def test_arrays_frozen(self):
        p = random_point(5, 2, 0)
        with pytest.raises(ValueError):
            p.x[0, 0] = 7.0

    def test_gram_matrix_is_read_only_xtx(self):
        p = random_point(7, 3, 1)
        assert np.array_equal(p.xtx, p.x.T @ p.x)
        with pytest.raises(ValueError):
            p.xtx[0, 0] = 7.0

    def test_caller_arrays_are_copied(self):
        x = np.array([[1.0], [0.0]])
        w = np.array([[0.0], [2.0]])
        p = StiefelPoint(x)
        d = DualTangentVector(w, p)
        x[0, 0] = 5.0
        w[1, 0] = 5.0
        assert p.x[0, 0] == 1.0 and d.w[1, 0] == 2.0
        assert x.flags.writeable and w.flags.writeable


class TestRandomPoint:
    def test_1x1_is_sign(self):
        for seed in range(5):
            p = random_point(1, 1, seed)
            assert abs(abs(p.x[0, 0]) - 1.0) <= 1e-15

    def test_square_is_orthogonal(self):
        p = random_point(5, 5, 11)
        assert np.linalg.norm(p.x.T @ p.x - np.eye(5)) <= 1e-12

    def test_deterministic(self):
        a = random_point(40, 6, 123)
        b = random_point(40, 6, 123)
        assert np.array_equal(a.x, b.x)
        c = random_point(40, 6, 124)
        assert not np.array_equal(a.x, c.x)

    def test_k_greater_than_n(self):
        with pytest.raises(ValueError):
            random_point(3, 4, 0)


class TestProjectDual:
    def test_hand_case(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        w = project_dual(x, np.array([[2.5], [-3.0]]))
        assert np.allclose(w.w, [[0.0], [-3.0]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = random_point(30, 4, 2)
        w = rand_dual(x, rng)
        w2 = project_dual(x, w.w)
        assert np.linalg.norm(w2.w - w.w) <= 1e-14 * max(1.0, np.linalg.norm(w.w))

    def test_orthogonal_to_symmetric_directions(self):
        # the removed component lies in {X S : S symmetric}; the projection
        # must be Frobenius-orthogonal to every such matrix
        rng = np.random.default_rng(3)
        x = random_point(30, 4, 4)
        w = project_dual(x, rng.standard_normal((30, 4)))
        k = x.k
        for i in range(k):
            for j in range(i, k):
                s = np.zeros((k, k))
                s[i, j] = s[j, i] = 1.0
                assert abs(np.vdot(x.x @ s, w.w)) <= 1e-12

    def test_shape_mismatch(self):
        x = random_point(5, 2, 0)
        with pytest.raises(ValueError):
            project_dual(x, np.ones((5, 3)))


class TestMetrics:
    def test_hand_values(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        v = TangentVector(np.array([[0.0], [1.0]]), x)
        w = DualTangentVector(np.array([[0.0], [1.0]]), x)
        assert metric(v, v) == pytest.approx(1.0, abs=1e-15)
        assert dual_metric(w, w) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector(self):
        x = random_point(6, 2, 5)
        z = DualTangentVector(np.zeros((6, 2)), x)
        assert dual_metric(z, z) == 0.0
        zt = TangentVector(np.zeros((6, 2)), x)
        assert metric(zt, zt) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x = random_point(20, 3, 7)
        w1, w2 = rand_dual(x, rng), rand_dual(x, rng)
        assert abs(dual_metric(w1, w2) - dual_metric(w2, w1)) <= 1e-14
        v1, v2 = raise_indices(w1), raise_indices(w2)
        assert abs(metric(v1, v2) - metric(v2, v1)) <= 1e-14

    def test_positive_definite(self):
        rng = np.random.default_rng(8)
        x = random_point(15, 4, 9)
        for _ in range(10):
            w = rand_dual(x, rng)
            assert dual_metric(w, w) > 0.0
            assert metric(raise_indices(w), raise_indices(w)) > 0.0

    def test_isometry(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            x = random_point(25, 5, seed)
            w = rand_dual(x, rng)
            a = dual_metric(w, w)
            b = metric(raise_indices(w), raise_indices(w))
            assert abs(a - b) <= 1e-12 * a

    def test_base_mismatch(self):
        rng = np.random.default_rng(11)
        w1 = rand_dual(random_point(6, 2, 0), rng)
        w2 = rand_dual(random_point(6, 2, 1), rng)
        with pytest.raises(ValueError):
            dual_metric(w1, w2)


class TestIndexMaps:
    def test_zero_maps_to_zero(self):
        x = random_point(7, 3, 1)
        z = DualTangentVector(np.zeros((7, 3)), x)
        assert np.array_equal(raise_indices(z).v, np.zeros((7, 3)))

    def test_hand_case(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        w = DualTangentVector(np.array([[0.0], [1.0]]), x)
        assert np.allclose(raise_indices(w).v, [[0.0], [1.0]], atol=1e-15)
        v = TangentVector(np.array([[0.0], [1.0]]), x)
        assert np.allclose(lower_indices(v).w, [[0.0], [1.0]], atol=1e-15)

    def test_mutually_inverse(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            x = random_point(30, 4, seed)
            w = rand_dual(x, rng)
            w_back = lower_indices(raise_indices(w))
            assert np.linalg.norm(w_back.w - w.w) <= 1e-13 * max(1, np.linalg.norm(w.w))
            v = raise_indices(rand_dual(x, rng))
            v_back = raise_indices(lower_indices(v))
            assert np.linalg.norm(v_back.v - v.v) <= 1e-13 * max(1, np.linalg.norm(v.v))


class TestCayleyRetract:
    def test_zero_scale_returns_base_exactly(self):
        rng = np.random.default_rng(14)
        x = random_point(12, 3, 15)
        w = rand_dual(x, rng)
        assert cayley_retract(x, w, 0.0) is x

    @pytest.mark.parametrize("n, k", [(12, 3), (9, 1), (5, 5), (1, 1)])
    @pytest.mark.parametrize("scale", [-0.3, 1.0, -7.5])
    def test_same_bits_as_the_smw_formula(self, n, k, scale):
        rng = np.random.default_rng(n * 10 + k)
        x = random_point(n, k, n + k)
        w = rand_dual(x, rng)
        assert np.array_equal(cayley_retract(x, w, scale).x,
                              cayley_smw(x, w, scale))

    def test_closed_form_on_circle(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        for wval in (0.3, 1.0, 2.0, 5.0):
            w = DualTangentVector(np.array([[0.0], [wval]]), x)
            r = cayley_retract(x, w, 1.0)
            assert np.allclose(r.x, cayley_1d(wval), atol=1e-14)
        # w = 2 lands on (0, 1)
        w = DualTangentVector(np.array([[0.0], [2.0]]), x)
        assert np.allclose(cayley_retract(x, w, 1.0).x, [[0.0], [1.0]], atol=1e-15)

    def test_orthonormality_large(self):
        rng = np.random.default_rng(16)
        x = random_point(200, 10, 17)
        w = rand_dual(x, rng, norm=1.0)
        r = cayley_retract(x, w, 0.3)
        assert np.linalg.norm(r.x.T @ r.x - np.eye(10)) <= 1e-12

    def test_equivariance_under_right_rotation(self):
        rng = np.random.default_rng(18)
        x = random_point(40, 5, 19)
        w = rand_dual(x, rng)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        xq = StiefelPoint(x.x @ q)
        wq = DualTangentVector(w.w @ q, xq)
        lhs = cayley_retract(xq, wq, 0.7).x
        rhs = cayley_retract(x, w, 0.7).x @ q
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_drift_over_many_steps(self):
        # orthonormality must survive long runs without re-orthogonalization
        rng = np.random.default_rng(20)
        x = random_point(30, 4, 21)
        for _ in range(10_000):
            w = rand_dual(x, rng, norm=1.0)
            x = cayley_retract(x, w, float(rng.uniform(0.0, 1.0)))
        assert np.linalg.norm(x.x.T @ x.x - np.eye(4)) <= 1e-10


class TestGeodesicRetract:
    def test_zero_time_returns_base(self):
        rng = np.random.default_rng(24)
        x = random_point(18, 3, 25)
        w = rand_dual(x, rng)
        assert np.allclose(geodesic_retract(x, w, 0.0).x, x.x, atol=1e-15)

    def test_circle_rotation(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        w = DualTangentVector(np.array([[0.0], [1.0]]), x)
        for t in (0.1, 0.7, 2.0):
            g = geodesic_retract(x, w, t)
            assert np.allclose(g.x, [[np.cos(t)], [np.sin(t)]], atol=1e-14)

    def test_zero_direction(self):
        x = random_point(9, 2, 26)
        z = DualTangentVector(np.zeros((9, 2)), x)
        assert np.allclose(geodesic_retract(x, z, 1.0).x, x.x, atol=1e-15)

    def test_orthonormality(self):
        rng = np.random.default_rng(27)
        x = random_point(80, 6, 28)
        w = rand_dual(x, rng)
        g = geodesic_retract(x, w, 0.5)
        assert np.linalg.norm(g.x.T @ g.x - np.eye(6)) <= 1e-12

    def test_second_order_agreement_with_cayley(self):
        # halving the step must shrink the gap at least 4x (order >= 2);
        # the constant is estimated from the coarser step
        rng = np.random.default_rng(29)
        for seed in range(5):
            x = random_point(30, 4, seed)
            w = rand_dual(x, rng, norm=1.0)
            t = 1e-3
            d1 = np.linalg.norm(geodesic_retract(x, w, t).x - cayley_retract(x, w, t).x)
            d2 = np.linalg.norm(
                geodesic_retract(x, w, t / 2).x - cayley_retract(x, w, t / 2).x
            )
            c = d1 / t**2
            assert d2 <= 1.1 * c * (t / 2) ** 2


class TestFirstOrderProperty:
    @pytest.mark.parametrize("retraction", [cayley_retract, geodesic_retract])
    def test_derivative_at_zero_is_raised_vector(self, retraction):
        rng = np.random.default_rng(30)
        for seed in range(5):
            x = random_point(25, 4, seed + 50)
            w = rand_dual(x, rng, norm=1.0)
            h = 1e-5
            fd = (retraction(x, w, h).x - retraction(x, w, -h).x) / (2.0 * h)
            v = raise_indices(w).v
            assert np.linalg.norm(fd - v) <= 1e-6 * np.linalg.norm(v)


class TestRetractInverse:
    def test_same_point_roundtrips_to_base(self):
        x = random_point(14, 3, 31)
        v = retract_inverse(x, x)
        r = cayley_retract(x, v, 1.0)
        assert np.linalg.norm(r.x - x.x) <= 1e-13

    def test_hand_case_on_circle(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        y = StiefelPoint(np.array([[0.0], [1.0]]))
        v = retract_inverse(x, y)
        assert np.allclose(v.w, [[0.0], [2.0]], atol=1e-14)

    def test_roundtrip_random_nearby_pairs(self):
        rng = np.random.default_rng(32)
        for seed in range(20):
            x = random_point(40, 5, seed)
            w = rand_dual(x, rng, norm=1.0)
            y = cayley_retract(x, w, 0.1)
            v = retract_inverse(x, y)
            back = cayley_retract(x, v, 1.0)
            assert np.linalg.norm(back.x - y.x) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            retract_inverse(random_point(5, 2, 0), random_point(6, 2, 0))


class TestLerp:
    def test_endpoints(self):
        rng = np.random.default_rng(33)
        x = random_point(22, 4, 34)
        y = cayley_retract(x, rand_dual(x, rng, norm=1.0), 0.2)
        assert lerp(x, y, 0.0) is x
        assert np.linalg.norm(lerp(x, y, 1.0).x - y.x) <= 1e-12

    def test_extrapolation_closed_form(self):
        # doubling the step from (1,0) toward (0,1) applies the Cayley
        # transform with w = 4
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        y = StiefelPoint(np.array([[0.0], [1.0]]))
        p = lerp(x, y, 2.0)
        assert np.allclose(p.x, [[-3.0 / 5.0], [4.0 / 5.0]], atol=1e-14)


class TestConditioningBound:
    def test_lemma_proof_step(self):
        # kappa(I + X^T Y) <= 2 (3 - ||X - Y||_F^2)^{-1/2} whenever
        # ||X - Y||_F^2 < 3
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 200:
            n, k = (20, 3) if checked % 2 == 0 else (50, 5)
            x = random_point(n, k, int(rng.integers(0, 2**31)))
            w = rand_dual(x, rng, norm=1.0)
            y = cayley_retract(x, w, float(rng.uniform(0.05, 2.0)))
            d2 = float(np.linalg.norm(x.x - y.x) ** 2)
            if d2 >= 3.0:
                continue
            sv = np.linalg.svd(np.eye(k) + x.x.T @ y.x, compute_uv=False)
            kappa = sv[0] / sv[-1]
            assert kappa <= 2.0 / np.sqrt(3.0 - d2) * (1.0 + 1e-12)
            checked += 1
