import mpmath
import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

from stiefel_agd import geometry
from stiefel_agd.errors import (
    InverseRetractionFailedError,
    RetractionFailedError,
    SingularMatrixError,
)
from stiefel_agd.geometry import (
    DualTangentVector,
    StiefelPoint,
    cayley_retract,
    dual_metric,
    dual_metric_inverse,
    dual_norm,
    lerp,
    project_dual,
    random_point,
    retract_inverse,
)
from stiefel_agd.linalg import solve_square
from stiefel_agd.objectives import make_objective, parse_spectrum

from reference import (
    TangentVector,
    closed_form_inverse,
    geodesic_retract,
    lower_indices,
    metric,
    raise_indices,
)


EPS = np.finfo(np.float64).eps


def inverse_40_digits(xm, ym):
    """V = 2 Y (I + X^T Y)^{-1} projected onto the dual tangent space at X,
    for mpmath matrices X and Y, at the caller's working precision."""
    v = ym * (2 * mpmath.inverse(mpmath.eye(xm.cols) + xm.T * ym))
    p = xm.T * v
    return v - xm * ((p + p.T) / 2)


def rand_dual(point, rng, norm=None):
    w = project_dual(point, rng.standard_normal((point.n, point.k)))
    if norm is not None:
        w = DualTangentVector(w.w * (norm / dual_norm(w)), point)
    return w


def singular_solve(a, b):
    """Stands in for ``linalg.solve_square`` on a system it finds singular."""
    raise SingularMatrixError("injected: singular to working precision")


def unreachable_solve(a, b):
    raise AssertionError("a solve was reached")


def cayley_1d(w_scalar):
    """Closed-form Cayley transform on the circle for X=(1,0), W=(0,w)."""
    c = 1.0 + w_scalar**2 / 4.0
    return np.array([[(1.0 - w_scalar**2 / 4.0) / c], [w_scalar / c]])


def cayley_smw(base, w, scale):
    """The Cayley retraction as the module docstring writes it: the system
    I + h K with h = scale / 2 and K = [[-B, -Q], [G, B^T]] from the Gram
    products Q = X^T X and [G; B] = [W, X]^T W, assembled blockwise and
    solved against N = [Q; -B^T] by LAPACK dgetrf/dgetrs; the point is
    X + [W, X] (scale Y), formed as the transposed product
    ((scale Y)^T [W, X]^T)^T."""
    x, wm = base.x, w.w
    k = base.k
    h = 0.5 * scale
    wx = np.asfortranarray(np.concatenate((wm, x), axis=1))
    gram = wx.T @ wm
    wtw, xtw = gram[:k], gram[k:]
    xtx = x.T @ x
    kk = np.block([[-xtw, -xtx], [wtw, xtw.T]])
    lu, piv, _ = dgetrf(np.eye(2 * k) + kk * h)
    y, _ = dgetrs(lu, piv, np.concatenate((xtx, -xtw.T)))
    return x + ((scale * y).T @ wx.T).T


def cayley_step_first(base, w, scale):
    """The same formula with the step folded into W before any product
    (Ws = scale W / 2, then X^T Ws and Ws^T Ws), the arithmetic used
    before the Gram blocks were cached."""
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
        with pytest.raises(ValueError, match="not in the dual tangent space"):
            DualTangentVector(np.array([[1.0], [0.0]]), x)

    @pytest.mark.parametrize("cls", [DualTangentVector, TangentVector])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vector_non_finite_entries_rejected(self, cls, bad):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="non-finite entries"):
            cls(np.array([[0.0], [bad]]), x)

    @pytest.mark.parametrize("cls", [DualTangentVector, TangentVector])
    def test_vector_shape_must_match_base(self, cls):
        with pytest.raises(ValueError, match="does not match base"):
            cls(np.zeros((5, 3)), random_point(5, 2, 0))

    def test_arrays_frozen(self):
        p = random_point(5, 2, 0)
        with pytest.raises(ValueError):
            p.x[0, 0] = 7.0

    def test_gram_matrix_is_read_only_xtx(self):
        p = random_point(7, 3, 1)
        assert np.array_equal(p.xtx, p.x.T @ p.x)
        with pytest.raises(ValueError):
            p.xtx[0, 0] = 7.0

    @pytest.mark.parametrize("x", [2.0 * np.eye(3)[:, :2], np.full((3, 2), np.nan)],
                             ids=["scaled", "nan"])
    def test_unchecked_point_raises_on_first_read_of_orth_error(self, x):
        p = StiefelPoint._unchecked(x)
        assert not p.x.flags.writeable
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ValueError, match="columns are not orthonormal"):
                p.orth_error

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

    @pytest.mark.parametrize("n, k", [(30, 4), (9, 1), (1, 1)])
    def test_same_bits_as_the_checked_constructor(self, n, k):
        x = random_point(n, k, 5)
        raw = np.random.default_rng(6).standard_normal((n, k))
        w = project_dual(x, raw)
        checked = DualTangentVector(w.w, x)
        assert np.array_equal(w.w, checked.w) and np.array_equal(w.xtw, checked.xtw)
        assert w.base is x
        assert np.array_equal(w.wtw, checked.wtw)
        assert w.w.flags.f_contiguous and not w.w.flags.writeable
        assert not w.xtw.flags.writeable
        raw[0, 0] = 1e6  # the vector does not share the caller's array
        assert np.array_equal(w.w, checked.w)

    def test_fortran_ordered_raw_gives_the_same_bits(self):
        x = random_point(20, 3, 1)
        raw = np.random.default_rng(2).standard_normal((20, 3))
        w = project_dual(x, np.asfortranarray(raw))
        assert w.w.flags.f_contiguous
        assert np.array_equal(w.w, project_dual(x, raw).w)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        x = random_point(6, 2, 3)
        raw = np.ones((6, 2))
        raw[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            project_dual(x, raw)

    def test_skew_check_is_nan_safe(self):
        # the vectors the package makes are not scanned for NaN and inf
        x = random_point(6, 2, 3)
        wx = geometry._wx_buffer(x)
        wx[:, :2] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            DualTangentVector._from_buffer(wx, x)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_wx_is_w_then_x_in_fortran_order(self, k):
        x = random_point(8, k, 0)
        w = rand_dual(x, np.random.default_rng(1))
        assert np.array_equal(w.wx, np.concatenate((w.w, x.x), axis=1))
        assert w.wx.flags.f_contiguous
        assert np.shares_memory(w.w, w.wx)
        assert not w.wx.flags.writeable


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
        assert cayley_retract(w, 0.0) is x

    @staticmethod
    def case(n, k):
        x = random_point(n, k, n + k)
        return x, rand_dual(x, np.random.default_rng(n * 10 + k))

    @pytest.mark.parametrize("n, k", [(12, 3), (9, 1), (5, 5), (1, 1), (40, 10), (7, 2)])
    @pytest.mark.parametrize("scale", [-0.3, 1.0, -7.5])
    def test_same_bits_as_the_smw_formula(self, n, k, scale):
        x, w = self.case(n, k)
        assert np.array_equal(cayley_retract(w, scale).x,
                              cayley_smw(x, w, scale))

    @pytest.mark.parametrize("n, k", [(12, 3), (9, 1), (5, 5), (1, 1)])
    @pytest.mark.parametrize("scale", [-0.3, 1.0, -7.5])
    def test_agrees_with_the_step_first_formula(self, n, k, scale):
        # scaling X^T W after the product rounds differently from scaling W
        # before it; scale = 1 (h = 1/2) is exact in both
        x, w = self.case(n, k)
        ref = cayley_step_first(x, w, scale)
        r = cayley_retract(w, scale).x
        assert np.linalg.norm(r - ref) <= 1e-14 * np.linalg.norm(ref)

    @staticmethod
    def cayley_40_digits(x, w, scale):
        """(I - B/2)^{-1} (I + B/2) X with B = scale (W X^T - X W^T), the
        n x n definition, in 40-digit arithmetic from the float inputs."""
        with mpmath.workdps(40):
            xm = mpmath.matrix(x.x.tolist())
            wm = mpmath.matrix(w.w.tolist())
            half_b = (wm * xm.T - xm * wm.T) * (mpmath.mpf(scale) / 2)
            eye = mpmath.eye(x.n)
            r = mpmath.inverse(eye - half_b) * ((eye + half_b) * xm)
            return np.array(r.tolist(), dtype=np.float64)

    @pytest.mark.parametrize("n, k", [(12, 3), (40, 5)])
    @pytest.mark.parametrize("scale", [-0.3, 1.0, -7.5])
    def test_error_at_most_twice_the_step_first_formula(self, n, k, scale):
        x, w = self.case(n, k)
        ref = self.cayley_40_digits(x, w, scale)
        new = np.linalg.norm(cayley_retract(w, scale).x - ref)
        old = np.linalg.norm(cayley_step_first(x, w, scale) - ref)
        assert new <= 1e-15 * np.linalg.norm(ref)
        assert new <= 2.0 * old

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 10.0])
    def test_error_against_40_digits_scales_with_the_step(self, scale):
        # unit directions at (12, 3), 10 seeds; measured at most 10.5 eps
        # ||X+ - X||_F (at scale 1e-2, where the error is mostly the last
        # rounding of X + step), for this linear system and for the pencil
        # quadratic in h used before
        worst = 0.0
        for seed in range(10):
            x = random_point(12, 3, seed)
            w = rand_dual(x, np.random.default_rng(seed + 100), norm=1.0)
            ref = self.cayley_40_digits(x, w, scale)
            err = np.linalg.norm(cayley_retract(w, scale).x - ref)
            worst = max(worst, err / (EPS * np.linalg.norm(ref - x.x)))
        assert worst <= 32.0

    @pytest.mark.parametrize("n, k", [(12, 3), (9, 1), (5, 5), (1, 1)])
    @pytest.mark.parametrize("retract", [cayley_retract, geodesic_retract])
    def test_output_gram_and_check_match_a_checked_copy(self, n, k, retract):
        x, w = self.case(n, k)
        r = retract(w, -0.3)
        assert not r.x.flags.writeable
        assert np.array_equal(r.xtx, r.x.T @ r.x)
        assert not r.xtx.flags.writeable
        assert r.orth_error == StiefelPoint(r.x.copy()).orth_error

    def test_singular_solve_raises_retraction_failed(self, monkeypatch):
        x, w = self.case(12, 3)
        monkeypatch.setattr(geometry, "solve_square", singular_solve)
        with pytest.raises(RetractionFailedError) as info:
            cayley_retract(w, -0.3)
        assert isinstance(info.value.__cause__, SingularMatrixError)

    def test_non_finite_scale_raises_value_error_before_the_solve(self, monkeypatch):
        x, w = self.case(12, 3)
        monkeypatch.setattr(geometry, "solve_square", unreachable_solve)
        for scale in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="step scale must be finite"):
                cayley_retract(w, scale)

    @pytest.mark.parametrize("scale", [-1e8, 1e12, -1e20])
    def test_huge_steps_are_solved(self, scale):
        # the Brockett gradient (dual norm 28.1) at random_point(30, 3, 0)
        # on linear:30, weights 1..3: the pencil quadratic in h, used
        # before, was singular to working precision from a scale of about
        # 2.6e6 on, where h^2 G swamped its identity blocks
        obj = make_objective(parse_spectrum("linear:30"), [1.0, 2.0, 3.0])
        grad = obj.value_and_gradient(random_point(30, 3, 0)).grad
        assert cayley_retract(grad, scale).orth_error <= 1e-14

    def test_closed_form_on_circle(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        for wval in (0.3, 1.0, 2.0, 5.0):
            w = DualTangentVector(np.array([[0.0], [wval]]), x)
            r = cayley_retract(w, 1.0)
            assert np.allclose(r.x, cayley_1d(wval), atol=1e-14)
        # w = 2 lands on (0, 1)
        w = DualTangentVector(np.array([[0.0], [2.0]]), x)
        assert np.allclose(cayley_retract(w, 1.0).x, [[0.0], [1.0]], atol=1e-15)

    def test_orthonormality_large(self):
        rng = np.random.default_rng(16)
        x = random_point(200, 10, 17)
        w = rand_dual(x, rng, norm=1.0)
        r = cayley_retract(w, 0.3)
        assert np.linalg.norm(r.x.T @ r.x - np.eye(10)) <= 1e-12

    def test_equivariance_under_right_rotation(self):
        rng = np.random.default_rng(18)
        x = random_point(40, 5, 19)
        w = rand_dual(x, rng)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        xq = StiefelPoint(x.x @ q)
        wq = DualTangentVector(w.w @ q, xq)
        lhs = cayley_retract(wq, 0.7).x
        rhs = cayley_retract(w, 0.7).x @ q
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_drift_over_many_steps(self):
        # orthonormality must survive long runs without re-orthogonalization
        rng = np.random.default_rng(20)
        x = random_point(30, 4, 21)
        for _ in range(10_000):
            w = rand_dual(x, rng, norm=1.0)
            x = cayley_retract(w, float(rng.uniform(0.0, 1.0)))
        assert np.linalg.norm(x.x.T @ x.x - np.eye(4)) <= 1e-10


class TestGeodesicRetract:
    def test_zero_time_returns_base(self):
        rng = np.random.default_rng(24)
        x = random_point(18, 3, 25)
        w = rand_dual(x, rng)
        assert np.allclose(geodesic_retract(w, 0.0).x, x.x, atol=1e-15)

    def test_circle_rotation(self):
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        w = DualTangentVector(np.array([[0.0], [1.0]]), x)
        for t in (0.1, 0.7, 2.0):
            g = geodesic_retract(w, t)
            assert np.allclose(g.x, [[np.cos(t)], [np.sin(t)]], atol=1e-14)

    def test_zero_direction(self):
        x = random_point(9, 2, 26)
        z = DualTangentVector(np.zeros((9, 2)), x)
        assert np.allclose(geodesic_retract(z, 1.0).x, x.x, atol=1e-15)

    def test_orthonormality(self):
        rng = np.random.default_rng(27)
        x = random_point(80, 6, 28)
        w = rand_dual(x, rng)
        g = geodesic_retract(w, 0.5)
        assert np.linalg.norm(g.x.T @ g.x - np.eye(6)) <= 1e-12

    def test_second_order_agreement_with_cayley(self):
        # halving the step must shrink the gap at least 4x (order >= 2);
        # the constant is estimated from the coarser step
        rng = np.random.default_rng(29)
        for seed in range(5):
            x = random_point(30, 4, seed)
            w = rand_dual(x, rng, norm=1.0)
            t = 1e-3
            d1 = np.linalg.norm(geodesic_retract(w, t).x - cayley_retract(w, t).x)
            d2 = np.linalg.norm(
                geodesic_retract(w, t / 2).x - cayley_retract(w, t / 2).x
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
            fd = (retraction(w, h).x - retraction(w, -h).x) / (2.0 * h)
            v = raise_indices(w).v
            assert np.linalg.norm(fd - v) <= 1e-6 * np.linalg.norm(v)


class TestRetractInverse:
    def test_same_point_roundtrips_to_base(self):
        x = random_point(14, 3, 31)
        v = retract_inverse(x, x)
        r = cayley_retract(v, 1.0)
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
            y = cayley_retract(w, 0.1)
            v = retract_inverse(x, y)
            back = cayley_retract(v, 1.0)
            assert np.linalg.norm(back.x - y.x) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            retract_inverse(random_point(5, 2, 0), random_point(6, 2, 0))

    @staticmethod
    def pair(n, k, seed):
        """X and a point one unit dual step along the Cayley curve from it
        (X itself at n = 1, where the dual tangent space is {0})."""
        x = random_point(n, k, seed)
        if n == 1:
            return x, x
        w = rand_dual(x, np.random.default_rng([seed, 1]), norm=1.0)
        return x, cayley_retract(w, 1.0)

    def test_solves_against_a_k_by_k_right_hand_side(self, monkeypatch):
        x, y = self.pair(1000, 10, 35)
        shapes = []

        def recording(a, b):
            shapes.append(b.shape)
            return solve_square(a, b)

        monkeypatch.setattr(geometry, "solve_square", recording)
        retract_inverse(x, y)
        assert shapes == [(10, 10)]

    @pytest.mark.parametrize("n, k", [(12, 3), (40, 5)])
    @pytest.mark.parametrize("step", [1.0, 0.05])
    def test_tangent_error_scales_with_the_step(self, n, k, step):
        # V is unique up to X S for symmetric S, and the rounding of X^T X
        # moves it along X S by about eps whatever the step, so the error
        # against 40 digits is measured in the dual tangent space at X.
        # There it stays below 1.2 eps ||X - Y||_F; the closed form through
        # C = 2 (I + X^T Y)^{-1} cancels Y C against X (X^T Y C) and reaches
        # 8 to 27 such units at step 0.05
        for seed in range(8):
            x = random_point(n, k, 200 + seed)
            w = rand_dual(x, np.random.default_rng([n, k, seed]), norm=1.0)
            y = cayley_retract(w, step)
            with mpmath.workdps(40):
                ref = inverse_40_digits(mpmath.matrix(x.x.tolist()),
                                        mpmath.matrix(y.x.tolist()))
            ref = np.array(ref.tolist(), dtype=np.float64)
            err = project_dual(x, retract_inverse(x, y).w - ref).w
            assert np.linalg.norm(err) <= 4.0 * EPS * np.linalg.norm(x.x - y.x), seed

    def test_antipodal_points_on_the_circle(self):
        # I + X^T Y = 1 - 1 = 0
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        y = StiefelPoint(np.array([[-1.0], [0.0]]))
        with pytest.raises(InverseRetractionFailedError):
            retract_inverse(x, y)

    def test_one_column_negated(self):
        # exactly orthonormal columns, so I + X^T Y = diag(2, 0) exactly
        x = StiefelPoint(0.5 * np.array([[1.0, 1.0], [1.0, -1.0],
                                         [1.0, 1.0], [1.0, -1.0]]))
        y = StiefelPoint(x.x * [1.0, -1.0])
        assert np.array_equal(np.eye(2) + x.x.T @ y.x, np.diag([2.0, 0.0]))
        with pytest.raises(InverseRetractionFailedError):
            retract_inverse(x, y)


class TestDualMetricInverse:
    """dual_metric_inverse(G, X) is <G, retract_inverse(Y, X)>_{g*} for G
    at Y, without forming the inverse."""

    @pytest.mark.parametrize("n,k", [(1000, 10), (40, 5), (6, 6)])
    def test_matches_the_metric_of_the_inverse(self, n, k):
        x, y = TestRetractInverse.pair(n, k, 37)
        g = rand_dual(y, np.random.default_rng([n, k]))
        v = closed_form_inverse(y, x)
        expected = dual_metric(g, v)
        got = dual_metric_inverse(g, x)
        assert abs(got - expected) <= 1e-13 * np.linalg.norm(g.w) * np.linalg.norm(v.w)

    @pytest.mark.parametrize("n, k", [(12, 3), (40, 5)])
    @pytest.mark.parametrize("step", [1.0, 0.05])
    def test_error_scales_with_the_step(self, n, k, step):
        # against 40 digits from the float inputs: below 0.7 eps ||G||_F
        # ||X - Y||_F over 60 seeds; the pairing through C = 2 (I + Y^T X)^{-1}
        # does not shrink with the step and reaches 9 such units at step 0.05
        for seed in range(8):
            y = random_point(n, k, 200 + seed)
            rng = np.random.default_rng([n, k, seed])
            x = cayley_retract(rand_dual(y, rng, norm=1.0), step)
            g = rand_dual(y, rng)
            with mpmath.workdps(40):
                ym, gm = mpmath.matrix(y.x.tolist()), mpmath.matrix(g.w.tolist())
                v = inverse_40_digits(ym, mpmath.matrix(x.x.tolist()))
                p = gm.T * v + (ym.T * gm).T * (ym.T * v)
                ref = float(sum(p[i, i] for i in range(k)))
            bound = 2.0 * EPS * np.linalg.norm(g.w) * np.linalg.norm(x.x - y.x)
            assert abs(dual_metric_inverse(g, x) - ref) <= bound, seed

    def test_forms_no_dual_vector(self, monkeypatch):
        x, y = TestRetractInverse.pair(40, 5, 38)
        g = rand_dual(y, np.random.default_rng(39))

        def forbidden(*args):
            raise AssertionError("formed a dual vector")

        monkeypatch.setattr(geometry.DualTangentVector, "__init__", forbidden)
        monkeypatch.setattr(geometry, "project_dual", forbidden)
        dual_metric_inverse(g, x)

    def test_antipodal_points_on_the_circle(self):
        y = StiefelPoint(np.array([[1.0], [0.0]]))
        x = StiefelPoint(np.array([[-1.0], [0.0]]))
        g = DualTangentVector(np.array([[0.0], [1.0]]), y)
        with pytest.raises(InverseRetractionFailedError):
            dual_metric_inverse(g, x)

    def test_one_column_negated(self):
        y = StiefelPoint(0.5 * np.array([[1.0, 1.0], [1.0, -1.0],
                                         [1.0, 1.0], [1.0, -1.0]]))
        x = StiefelPoint(y.x * [1.0, -1.0])
        g = project_dual(y, np.random.default_rng(40).standard_normal((4, 2)))
        with pytest.raises(InverseRetractionFailedError):
            dual_metric_inverse(g, x)

    def test_shape_mismatch(self):
        y = random_point(5, 2, 0)
        g = rand_dual(y, np.random.default_rng(41))
        with pytest.raises(ValueError):
            dual_metric_inverse(g, random_point(6, 2, 0))


class TestLerp:
    def test_endpoints(self):
        rng = np.random.default_rng(33)
        x = random_point(22, 4, 34)
        y = cayley_retract(rand_dual(x, rng, norm=1.0), 0.2)
        assert lerp(x, y, 0.0) is x
        assert np.linalg.norm(lerp(x, y, 1.0).x - y.x) <= 1e-12

    def test_extrapolation_closed_form(self):
        # doubling the step from (1,0) toward (0,1) applies the Cayley
        # transform with w = 4
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        y = StiefelPoint(np.array([[0.0], [1.0]]))
        p = lerp(x, y, 2.0)
        assert np.allclose(p.x, [[-3.0 / 5.0], [4.0 / 5.0]], atol=1e-14)

    @staticmethod
    def explicit(x, y, alpha):
        """The step through the formed inverse: retract along V."""
        return cayley_retract(closed_form_inverse(x, y), alpha).x

    @pytest.mark.parametrize("n,k", [(1000, 10), (40, 5), (6, 6), (9, 1)])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_matches_the_step_along_the_formed_inverse(self, n, k, alpha):
        x, y = TestRetractInverse.pair(n, k, 44)
        ref = self.explicit(x, y, alpha)
        got = lerp(x, y, alpha).x
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @staticmethod
    def lerp_40_digits(x, y, alpha):
        """The Cayley step alpha V from X, with V = 2 Y (I + X^T Y)^{-1}
        projected onto the dual tangent space, in 40-digit arithmetic from
        the float inputs."""
        with mpmath.workdps(40):
            xm = mpmath.matrix(x.x.tolist())
            v = inverse_40_digits(xm, mpmath.matrix(y.x.tolist()))
            half_b = (v * xm.T - xm * v.T) * (mpmath.mpf(alpha) / 2)
            eye = mpmath.eye(x.n)
            r = mpmath.inverse(eye - half_b) * ((eye + half_b) * xm)
            return np.array(r.tolist(), dtype=np.float64)

    @pytest.mark.parametrize("n, k", [(12, 3), (40, 5)])
    @pytest.mark.parametrize("step", [1.0, 0.05])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_error_at_most_twice_the_formed_inverse(self, n, k, step, alpha):
        x = random_point(n, k, 45)
        w = rand_dual(x, np.random.default_rng([n, k]), norm=1.0)
        y = cayley_retract(w, step)
        ref = self.lerp_40_digits(x, y, alpha)
        new = np.linalg.norm(lerp(x, y, alpha).x - ref)
        old = np.linalg.norm(self.explicit(x, y, alpha) - ref)
        assert new <= 1e-15 * np.linalg.norm(ref)
        assert new <= 2.0 * old

    def test_forms_no_dual_vector(self, monkeypatch):
        x, y = TestRetractInverse.pair(40, 5, 46)

        def forbidden(*args):
            raise AssertionError("formed a dual vector")

        monkeypatch.setattr(geometry.DualTangentVector, "__init__", forbidden)
        monkeypatch.setattr(geometry.DualTangentVector, "_from_buffer", forbidden)
        monkeypatch.setattr(geometry, "project_dual", forbidden)
        monkeypatch.setattr(geometry, "retract_inverse", forbidden)
        lerp(x, y, 1.5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_antipodal_points_on_the_circle(self, alpha):
        # I + X^T Y = 1 - 1 = 0
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        y = StiefelPoint(np.array([[-1.0], [0.0]]))
        with pytest.raises(InverseRetractionFailedError) as info:
            lerp(x, y, alpha)
        assert isinstance(info.value.__cause__, SingularMatrixError)

    @staticmethod
    def short_gradient_step():
        """random_point(30, 3, 0) and a step of -0.01 along its Brockett
        gradient on linear:30, weights 1..3."""
        obj = make_objective(parse_spectrum("linear:30"), [1.0, 2.0, 3.0])
        x = random_point(30, 3, 0)
        return x, cayley_retract(obj.value_and_gradient(x).grad, -0.01)

    def test_singular_cayley_solve_raises_retraction_failed(self, monkeypatch):
        x, y = self.short_gradient_step()
        calls = []

        def second_solve_singular(a, b):
            # the first solve is the inverse's k x k one, the second the
            # Cayley system's 2k x 2k one
            calls.append(a.shape)
            if len(calls) == 2:
                return singular_solve(a, b)
            return solve_square(a, b)

        monkeypatch.setattr(geometry, "solve_square", second_solve_singular)
        with pytest.raises(RetractionFailedError) as info:
            lerp(x, y, 1.5)
        assert isinstance(info.value.__cause__, SingularMatrixError)
        assert calls == [(3, 3), (6, 6)]

    def test_non_finite_alpha_raises_value_error_before_any_solve(self, monkeypatch):
        x, y = self.short_gradient_step()
        monkeypatch.setattr(geometry, "solve_square", unreachable_solve)
        for alpha in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="step scale must be finite"):
                lerp(x, y, alpha)

    @pytest.mark.parametrize("alpha", [1e9, 1e12, -1e16])
    def test_huge_extrapolations_are_solved(self, alpha):
        # the pencil quadratic in h, used before, was singular to working
        # precision here from a factor of about 1e9 on
        x, y = self.short_gradient_step()
        assert lerp(x, y, alpha).orth_error <= 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lerp(random_point(5, 2, 0), random_point(6, 2, 0), 1.5)

    @pytest.mark.parametrize("n, k", [(12, 3), (9, 1)])
    def test_output_gram_and_check_match_a_checked_copy(self, n, k):
        x, y = TestRetractInverse.pair(n, k, 47)
        r = lerp(x, y, 1.5)
        assert not r.x.flags.writeable and r.x.flags.f_contiguous
        assert np.array_equal(r.xtx, r.x.T @ r.x)
        assert r.orth_error == StiefelPoint(r.x.copy()).orth_error


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
            y = cayley_retract(w, float(rng.uniform(0.05, 2.0)))
            d2 = float(np.linalg.norm(x.x - y.x) ** 2)
            if d2 >= 3.0:
                continue
            sv = np.linalg.svd(np.eye(k) + x.x.T @ y.x, compute_uv=False)
            kappa = sv[0] / sv[-1]
            assert kappa <= 2.0 / np.sqrt(3.0 - d2) * (1.0 + 1e-12)
            checked += 1
