import importlib.machinery
import importlib.util
import json
import os
import sys

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

from stiefel_agd import linalg
from stiefel_agd.errors import (
    NotSymmetricError,
    RankDeficientError,
    SingularMatrixError,
)
from stiefel_agd.linalg import as_matrix, as_vector, qr_thin, solve_square

from reference import jacobi_eigh


class TestSolveSquare:
    def test_identity(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 2))
        assert np.allclose(solve_square(np.eye(4), b), b, atol=1e-14)

    def test_diagonal(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([[2.0], [8.0]])
        assert np.allclose(solve_square(a, b), [[1.0], [2.0]], atol=1e-14)

    def test_recovers_solution(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        x_true = rng.standard_normal((20, 3))
        x = solve_square(a, a @ x_true)
        assert np.linalg.norm(x - x_true) <= 1e-9 * np.linalg.norm(x_true)

    def test_residual_postcondition(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        b = rng.standard_normal((12, 5))
        x = solve_square(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_square(a, np.eye(2))

    def test_nearly_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-17]])
        with pytest.raises(SingularMatrixError):
            solve_square(a, np.eye(2))

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        # pivot 2 eps is the threshold m eps max|pivot|; the test is strict
        np.diag([1.0, 2.0 * np.finfo(float).eps]),
        np.diag([1.0, np.nextafter(2.0 * np.finfo(float).eps, 0.0)]),
        # LU pivots 1, 2, NaN, 4, 5: Python's min, max and sorted() pass
        # over a NaN between finite values
        np.diag([1.0, 2.0, np.nan, 4.0, 5.0]),
        # pivots inf, 1
        np.array([[np.inf, 1.0], [1.0, 1.0]]),
    ], ids=["nan", "at-threshold", "under-threshold", "nan-mid-5x5", "inf"])
    def test_negligible_or_nan_pivot_raises(self, a):
        with pytest.raises(SingularMatrixError):
            solve_square(a, np.eye(len(a)))

    def test_pivot_over_threshold_solves(self):
        p = np.nextafter(2.0 * np.finfo(float).eps, 1.0)
        x = solve_square(np.diag([1.0, p]), np.eye(2))
        assert np.array_equal(x, np.diag([1.0, 1.0 / p]))

    @pytest.mark.parametrize("m", range(2, 21))
    def test_same_bits_as_dgetrf_dgetrs(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        b = rng.standard_normal((m, 3))
        lu, piv, _ = dgetrf(a)
        expected, _ = dgetrs(lu, piv, b)
        assert np.array_equal(solve_square(a, b), expected)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            solve_square(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            solve_square(np.eye(2), np.ones((3, 1)))


class TestLapackLoading:
    def test_package_and_solves_leave_scipy_linalg_unimported(self, fresh_python):
        out = fresh_python(
            "import json, sys\n"
            "import numpy as np\n"
            "import stiefel_agd, stiefel_agd.cli\n"
            "from stiefel_agd import (DiagonalOperator, ObjectiveSpec, SolverConfig,\n"
            "                         gradient_descent, random_point)\n"
            "objective = ObjectiveSpec(DiagonalOperator(np.arange(1.0, 31.0)),\n"
            "                          np.arange(1.0, 4.0))\n"
            "trace = gradient_descent(objective, random_point(30, 3, 0),\n"
            "                         SolverConfig(max_iter=5))\n"
            "loaded = sorted(m for m in ('scipy.linalg', 'scipy._lib') if m in sys.modules)\n"
            "import scipy.linalg.lapack\n"
            "print(json.dumps({'passes': trace.iterations + trace.restarts,\n"
            "                  'loaded': loaded,\n"
            "                  'same': stiefel_agd.linalg.dgesv is scipy.linalg.lapack.dgesv}))\n"
        )
        assert json.loads(out) == {"passes": 5, "loaded": [], "same": True}

    def test_missing_extension_raises_import_error(self, monkeypatch):
        import scipy

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, name, path=None, target=None: None))
        with pytest.raises(ImportError, match="_flapack") as exc:
            linalg._load_flapack()
        assert os.path.join(os.path.dirname(scipy.__file__), "linalg") in str(exc.value)
        assert f"scipy {scipy.__version__}" in str(exc.value)

    def test_missing_scipy_raises_module_not_found(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
        with pytest.raises(ModuleNotFoundError, match="needs scipy"):
            linalg._load_flapack()


class TestQrThin:
    def test_orthonormal_input_is_fixed_point(self):
        rng = np.random.default_rng(6)
        q0, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        q, r = qr_thin(q0)
        # up to column signs fixed by the non-negative diagonal of r
        signs = np.sign(np.diag(q0.T @ q))
        assert np.allclose(q * signs, q0, atol=1e-12)
        assert np.allclose(r * signs[:, None], np.eye(3), atol=1e-12)

    def test_scaled_identity_columns(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q, r = qr_thin(a)
        assert np.allclose(q, [[1, 0], [0, 1], [0, 0]], atol=1e-15)
        assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-15)

    def test_postconditions_random(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((100, 10))
        q, r = qr_thin(a)
        assert np.linalg.norm(q.T @ q - np.eye(10)) <= 1e-12
        assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
        assert np.all(np.diag(r) >= 0.0)
        assert np.allclose(r, np.triu(r))

    def test_many_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, k))
            q, r = qr_thin(a)
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12
            assert np.linalg.norm(q @ r - a) <= 1e-12 * max(1.0, np.linalg.norm(a))

    def test_rank_deficient(self):
        a = np.ones((5, 2))
        with pytest.raises(RankDeficientError):
            qr_thin(a)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            qr_thin(np.ones((2, 3)))


class TestJacobiEigh:
    def test_diagonal(self):
        lam, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(lam, [1.0, 2.0, 3.0], atol=1e-14)
        # eigenvectors are permuted identity columns up to sign
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_2x2_closed_form(self):
        lam, v = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(lam, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        for col, expect in ((v[:, 0], [s, -s]), (v[:, 1], [s, s])):
            assert min(np.linalg.norm(col - expect),
                       np.linalg.norm(col + expect)) <= 1e-12

    def test_random_symmetric_residuals(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((50, 50))
        a = 0.5 * (a + a.T)
        lam, v = jacobi_eigh(a)
        assert np.all(np.diff(lam) >= 0.0)
        assert np.linalg.norm(a @ v - v * lam[None, :]) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(v.T @ v - np.eye(50)) <= 1e-12

    def test_trace_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = rng.standard_normal((20, 20))
            a = a + a.T
            lam, _ = jacobi_eigh(a)
            assert abs(lam.sum() - np.trace(a)) <= 1e-10 * abs(np.trace(a))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.eye(201))


class TestAsMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf], [0.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones(3))
        with pytest.raises(ValueError, match="positive dimensions"):
            as_matrix(np.zeros((0, 3)))

    def test_returns_a_read_only_copy(self):
        a = np.eye(2)
        out = as_matrix(a)
        a[0, 0] = 5.0
        assert out[0, 0] == 1.0
        assert a.flags.writeable and not out.flags.writeable
        assert out.flags.c_contiguous and out.dtype == np.float64


class TestAsVector:
    def test_rejects_empty_and_non_finite(self):
        for bad in ([], [1.0, np.nan], [np.inf]):
            with pytest.raises(ValueError):
                as_vector(bad)

    def test_returns_a_read_only_copy(self):
        v = np.array([1.0, 2.0])
        out = as_vector(v)
        v[0] = 5.0
        assert out[0] == 1.0
        assert v.flags.writeable and not out.flags.writeable

    def test_flattens(self):
        assert as_vector(np.ones((2, 3), order="F")).shape == (6,)
        assert as_vector(3.0).shape == (1,)
