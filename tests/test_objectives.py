import itertools
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from stiefel_agd.errors import DegenerateSpectrumError, NotSymmetricError
from stiefel_agd.geometry import (
    StiefelPoint,
    cayley_retract,
    dual_metric,
    dual_norm,
    project_dual,
    random_point,
)
from stiefel_agd.objectives import (
    DenseOperator,
    DiagonalOperator,
    ObjectiveSpec,
    SpectrumInfo,
    brockett_condition_number,
    known_minimum,
    make_objective,
    optimal_condition_number,
    optimal_weights,
    parse_spectrum,
    sphere_condition_number,
)

from reference import jacobi_eigh


def fd_directional(spec, x, d, h=1e-5):
    """Central finite difference of f along the retraction curve of d."""
    fp = spec.value(cayley_retract(d, h))
    fm = spec.value(cayley_retract(d, -h))
    return (fp - fm) / (2.0 * h)


class TestEvaluate:
    def test_critical_point_on_circle(self):
        spec = ObjectiveSpec(DiagonalOperator([1.0, 2.0]), [1.0])
        x = StiefelPoint(np.array([[0.0], [1.0]]))
        res = spec.value_and_gradient(x)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(res.grad.w, 0.0, atol=1e-15)

    def test_small_brockett_value_and_fd_gradient(self):
        spec = ObjectiveSpec(DiagonalOperator([1.0, 2.0, 3.0]), [1.0, 2.0])
        x = StiefelPoint(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]))
        res = spec.value_and_gradient(x)
        assert res.value == pytest.approx(2.0, abs=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = project_dual(x, rng.standard_normal((3, 2)))
            pairing = dual_metric(res.grad, d)
            assert fd_directional(spec, x, d) == pytest.approx(
                pairing, rel=1e-6, abs=1e-10
            )

    @pytest.mark.parametrize("op_kind", ["diagonal", "dense"])
    def test_gradient_matches_finite_differences(self, op_kind):
        rng = np.random.default_rng(1)
        n, k = 12, 3
        if op_kind == "diagonal":
            operator = DiagonalOperator(np.sort(rng.uniform(0.5, 5.0, n)))
        else:
            a = rng.standard_normal((n, n))
            operator = DenseOperator(0.5 * (a + a.T))
        spec = ObjectiveSpec(operator, np.sort(rng.uniform(0.5, 4.0, k)))
        for seed in range(3):
            x = random_point(n, k, seed)
            res = spec.value_and_gradient(x)
            for _ in range(20):
                d = project_dual(x, rng.standard_normal((n, k)))
                pairing = dual_metric(res.grad, d)
                fd = fd_directional(spec, x, d)
                assert abs(fd - pairing) <= 1e-5 * max(abs(pairing), 1e-8)

    def test_eigenvector_columns_are_critical(self):
        # dense route cross-validated through the Jacobi eigensolver
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        lam, vecs = jacobi_eigh(a)
        spec = ObjectiveSpec(DenseOperator(a), [1.0, 2.0, 3.0])
        x = StiefelPoint(vecs[:, [2, 1, 0]])  # any eigenvector columns
        res = spec.value_and_gradient(x)
        assert dual_norm(res.grad) <= 1e-10 * np.linalg.norm(a)

    def test_weight_scaling_linearity(self):
        rng = np.random.default_rng(3)
        lam = np.sort(rng.uniform(0.1, 9.0, 15))
        alpha = np.sort(rng.uniform(0.5, 3.0, 4))
        x = random_point(15, 4, 9)
        base = ObjectiveSpec(DiagonalOperator(lam), alpha).value_and_gradient(x)
        for c in (2.0, 0.125, 7.5):
            scaled = ObjectiveSpec(DiagonalOperator(lam), c * alpha)
            res = scaled.value_and_gradient(x)
            assert abs(res.value - c * base.value) <= 1e-14 * abs(c * base.value)
            assert np.max(np.abs(res.grad.w - c * base.grad.w)) <= 1e-14 * np.max(
                np.abs(c * base.grad.w)
            )

    def test_dimension_mismatch(self):
        spec = make_objective(SpectrumInfo([1.0, 2.0, 3.0]), [1.0])
        with pytest.raises(ValueError):
            spec.value(random_point(4, 1, 0))
        with pytest.raises(ValueError):
            spec.value(random_point(3, 2, 0))

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(DiagonalOperator([1.0, 2.0]), [2.0, 1.0])
        with pytest.raises(ValueError):
            ObjectiveSpec(DiagonalOperator([1.0, 2.0]), [-1.0])
        with pytest.raises(ValueError, match="more weights"):
            ObjectiveSpec(DiagonalOperator([1.0, 2.0]), [1.0, 2.0, 3.0])

    def test_dense_operator_must_be_symmetric(self):
        with pytest.raises(NotSymmetricError):
            DenseOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            DenseOperator(np.ones((2, 3)))


class TestDiagonalOperator:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_same_bits_as_broadcasting(self, k):
        values = np.random.default_rng(k).standard_normal(12)
        x = np.random.default_rng(k + 1).standard_normal((12, k))
        before = x.copy()
        operator = DiagonalOperator(values)
        for _ in range(2):  # building the tile, then reading it
            assert np.array_equal(operator.apply(x), values[:, None] * x)
        assert np.array_equal(x, before)

    def test_column_counts_alternate_on_one_operator(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(9)
        operator = DiagonalOperator(values)
        for k in (1, 3, 1, 10, 3, 10):
            x = rng.standard_normal((9, k))
            assert np.array_equal(operator.apply(x), values[:, None] * x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on inf and overflow
class TestNonFiniteGradient:
    def test_nan_point(self):
        spec = make_objective(SpectrumInfo([1.0, 2.0, 3.0]), [1.0, 2.0])
        x = StiefelPoint._unchecked(np.full((3, 2), np.nan))
        with pytest.raises(ValueError, match="non-finite entries"):
            spec.value_and_gradient(x)

    def test_inf_point(self):
        spec = make_objective(SpectrumInfo([1.0, 2.0, 3.0]), [1.0])
        x = StiefelPoint._unchecked(np.array([[np.inf], [0.0], [0.0]]))
        with pytest.raises(ValueError, match="non-finite entries"):
            spec.value_and_gradient(x)

    def test_overflowing_operator_product(self):
        # A X = 1.5e308 * sqrt(2) exceeds the largest double
        spec = ObjectiveSpec(DenseOperator(np.full((2, 2), 1.5e308)), [1.0])
        x = StiefelPoint(np.full((2, 1), np.sqrt(0.5)))
        with pytest.raises(ValueError, match="non-finite entries"):
            spec.value_and_gradient(x)


class TestEvaluationReuse:
    """A gradient at the point ``value`` saw last reuses its A X."""

    def test_same_point_object_applies_once(self, counted_objective):
        spec, operator = counted_objective(20, 3)
        p = random_point(20, 3, 1)
        f = spec.value(p)
        res = spec.value_and_gradient(p)
        assert operator.calls == 1
        fresh = make_objective(SpectrumInfo(np.arange(1.0, 21.0)), [1.0, 2.0, 3.0])
        ref = fresh.value_and_gradient(p)
        assert res.value == f == ref.value
        assert np.array_equal(res.grad.w, ref.grad.w)

    def test_equal_array_in_another_point_applies_again(self, counted_objective):
        spec, operator = counted_objective(20, 3)
        p = random_point(20, 3, 1)
        f = spec.value(p)
        res = spec.value_and_gradient(StiefelPoint(p.x.copy()))
        assert operator.calls == 2
        assert res.value == f
        assert np.array_equal(res.grad.w, spec.value_and_gradient(p).grad.w)

    def test_only_the_last_valued_point_is_reused(self, counted_objective):
        spec, operator = counted_objective(20, 3)
        p, q = random_point(20, 3, 1), random_point(20, 3, 2)
        spec.value(p)
        spec.value(q)
        spec.value_and_gradient(p)
        spec.value_and_gradient(p)  # a gradient does not take the slot
        assert operator.calls == 4


#: the same-bits record names the numpy BLAS build the accuracy below was
#: measured with
RECORD = Path(__file__).resolve().parent / "golden" / "same_bits.json"


def numpy_blas() -> str:
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{dep['name']} {dep['version']}"


@pytest.mark.parametrize("n, k", [(316, 10), (1000, 10), (1000, 1)])
def test_value_is_within_two_eps_of_a_40_digit_sum(n, k):
    # the function restart reads the last digits of f. How a BLAS dot
    # orders its sum depends on the build and the kernel it picks for the
    # CPU, so the bound holds for the recorded build only
    recorded = json.loads(RECORD.read_text())["build"]["numpy_blas"]
    here = numpy_blas()
    if here != recorded:
        pytest.skip(f"numpy links {here}; the bound was measured with {recorded}")
    spec = make_objective(parse_spectrum(f"linear:{n}"), np.arange(1.0, k + 1.0))
    lam = [mpmath.mpf(v) for v in spec.operator.values]
    alpha = [mpmath.mpf(v) for v in spec.weights]
    eps = np.finfo(np.float64).eps
    for seed in range(8):
        x = random_point(n, k, seed)
        with mpmath.workdps(40):
            exact = mpmath.fsum(
                alpha[j] * lam[i] * mpmath.mpf(v) ** 2
                for (i, j), v in np.ndenumerate(x.x)
            ) / 2
            err = abs((spec.value(x) - exact) / exact)
        assert err <= 2 * eps, (here, seed, float(err) / eps)


class TestCallerArrays:
    """Each object keeps its own copy: writing to the caller's array
    afterwards changes neither the object nor what it checked."""

    def test_spectrum(self):
        lam = np.array([1.0, 2.0, 3.0])
        spectrum = SpectrumInfo(lam)
        lam[0] = 100.0
        assert np.array_equal(spectrum.eigenvalues, [1.0, 2.0, 3.0])

    def test_diagonal_operator(self):
        values = np.array([1.0, 2.0, 3.0])
        operator = DiagonalOperator(values)
        values[0] = 100.0
        assert np.array_equal(operator.values, [1.0, 2.0, 3.0])

    def test_make_objective_weights(self):
        w = np.array([1.0, 2.0])
        objective = make_objective(SpectrumInfo([1.0, 2.0, 3.0]), w)
        w[0] = -5.0
        assert np.array_equal(objective.weights, [1.0, 2.0])

    def test_dense_operator_leaves_the_input_writeable(self):
        a = np.diag([1.0, 2.0])
        operator = DenseOperator(a)
        assert a.flags.writeable
        a[0, 0] = 100.0
        assert operator.a[0, 0] == 1.0


@pytest.mark.parametrize("make", [
    lambda: SpectrumInfo(np.arange(1.0, 6.0)),
    lambda: DiagonalOperator(np.arange(1.0, 6.0)),
    lambda: DenseOperator(np.diag(np.arange(1.0, 6.0))),
    lambda: make_objective(SpectrumInfo(np.arange(1.0, 6.0)), [1.0, 2.0]),
], ids=["spectrum", "diagonal", "dense", "objective"])
def test_identity_equality_and_hash(make):
    # array fields cannot be compared by value, so objects compare and
    # hash by identity, as geometry's types do
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, a}) == 1


class TestConditionNumbers:
    def test_sphere_linear_spectrum(self):
        spec = SpectrumInfo(np.arange(1.0, 101.0))
        assert sphere_condition_number(spec) == pytest.approx(99.0)

    def test_sphere_small(self):
        assert sphere_condition_number(SpectrumInfo([0.0, 1.0, 2.0])) == 2.0

    def test_sphere_scaling_invariance(self):
        lam = np.array([0.0, 0.5, 1e4])
        k1 = sphere_condition_number(SpectrumInfo(lam))
        for c in (3.0, 0.01):
            k2 = sphere_condition_number(SpectrumInfo(c * lam))
            assert k2 == pytest.approx(k1, rel=1e-14)

    def test_sphere_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            sphere_condition_number(SpectrumInfo([1.0, 1.0, 2.0]))

    def test_brockett_linear_spectrum(self):
        spec = SpectrumInfo(np.arange(1.0, 101.0))
        alpha = np.arange(1.0, 11.0)
        assert brockett_condition_number(spec, alpha) == pytest.approx(990.0)

    def test_brockett_small_case(self):
        spec = SpectrumInfo([1.0, 2.0, 3.0])
        assert brockett_condition_number(spec, [1.0, 2.0]) == pytest.approx(4.0)

    def test_brockett_k1_reduces_to_sphere(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lam = np.sort(rng.uniform(0.0, 10.0, 8))
            lam += np.arange(8) * 1e-3  # keep gaps positive
            spec = SpectrumInfo(lam)
            a = brockett_condition_number(spec, [1.0])
            b = sphere_condition_number(spec)
            assert a == pytest.approx(b, rel=1e-14)

    def test_brockett_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            brockett_condition_number(SpectrumInfo([1.0, 2.0, 2.0]), [1.0, 2.0])


@pytest.mark.parametrize("function", [brockett_condition_number, known_minimum])
@pytest.mark.parametrize(
    "weights", [[], [1.0, np.nan], [2.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
    ids=["empty", "nan", "decreasing", "more-than-eigenvalues"],
)
def test_bad_weights_rejected(function, weights):
    with pytest.raises(ValueError):
        function(SpectrumInfo([1.0, 2.0, 3.0, 4.0, 5.0]), weights)


class TestOptimalWeights:
    def test_linear_spectrum_gives_integers(self):
        spec = SpectrumInfo(np.arange(1.0, 101.0))
        assert np.array_equal(optimal_weights(spec, 10), np.arange(1.0, 11.0))
        assert optimal_condition_number(spec, 10) == pytest.approx(990.0)

    def test_k1_consistency(self):
        spec = SpectrumInfo([1.0, 3.0, 10.0])
        assert optimal_condition_number(spec, 1) == pytest.approx(
            sphere_condition_number(spec)
        )

    def test_returned_weights_attain_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lam = np.sort(rng.uniform(0.0, 5.0, 6))
            lam += np.arange(6) * 0.05
            spec = SpectrumInfo(lam)
            alpha = optimal_weights(spec, 2)
            attained = brockett_condition_number(spec, alpha)
            target = optimal_condition_number(spec, 2)
            assert attained == pytest.approx(target, rel=1e-12)

    def test_grid_search_cannot_beat_optimum(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            lam = np.sort(rng.uniform(0.0, 5.0, 6))
            lam += np.arange(6) * 0.05
            spec = SpectrumInfo(lam)
            target = optimal_condition_number(spec, 2)
            best = np.inf
            grid = np.linspace(0.05, 5.0, 60)
            for a1 in grid:
                for a2 in grid:
                    if a2 <= a1:
                        continue
                    best = min(best, brockett_condition_number(spec, [a1, a2]))
            assert best >= target - 1e-6

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateSpectrumError):
            optimal_weights(SpectrumInfo([1.0, 1.0, 2.0]), 2)

    def test_k_must_be_below_n(self):
        with pytest.raises(ValueError, match="k <= n - 1"):
            optimal_weights(SpectrumInfo([1.0, 2.0, 3.0]), 3)


class TestKnownMinimum:
    def test_sphere(self):
        assert known_minimum(SpectrumInfo([1.0, 2.0, 3.0]), [1.0]) == 0.5

    def test_pairs_brute_force(self):
        lam = [1.0, 2.0, 3.0, 4.0]
        alpha = [1.0, 2.0]
        expect = 0.5 * min(
            alpha[0] * la + alpha[1] * lb
            for la, lb in itertools.permutations(lam, 2)
        )
        assert known_minimum(SpectrumInfo(lam), alpha) == pytest.approx(expect)
        assert expect == 2.0

    def test_triples_brute_force(self):
        lam = [1.0, 2.0, 3.0, 4.0, 5.0]
        alpha = [1.0, 2.0, 3.0]
        expect = 0.5 * min(
            sum(a * l for a, l in zip(alpha, chosen))
            for chosen in itertools.permutations(lam, 3)
        )
        got = known_minimum(SpectrumInfo(lam), alpha)
        assert got == pytest.approx(expect)
        assert got == 5.0

    def test_random_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lam = np.sort(rng.uniform(-3.0, 3.0, 6))
            alpha = np.sort(rng.uniform(0.1, 2.0, 3))
            alpha += np.arange(3) * 0.01
            expect = 0.5 * min(
                sum(a * l for a, l in zip(alpha, chosen))
                for chosen in itertools.permutations(lam.tolist(), 3)
            )
            assert known_minimum(SpectrumInfo(lam), alpha) == pytest.approx(expect)


class TestParseSpectrum:
    def test_linear(self):
        spec = parse_spectrum("linear:5")
        assert np.array_equal(spec.eigenvalues, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_quadratic(self):
        spec = parse_spectrum("quadratic:4")
        assert np.allclose(spec.eigenvalues, [0.25, 1.0, 2.25, 4.0], atol=1e-15)

    def test_file(self, tmp_path):
        path = tmp_path / "spectrum.txt"
        path.write_text("0.5\n1.5\n2.0\n")
        spec = parse_spectrum(f"file:{path}")
        assert np.array_equal(spec.eigenvalues, [0.5, 1.5, 2.0])

    def test_errors(self):
        for bad in ("linear", "linear:x", "linear:0", "cubic:5"):
            with pytest.raises(ValueError):
                parse_spectrum(bad)

    def test_descending_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2.0\n1.0\n")
        with pytest.raises(ValueError):
            parse_spectrum(f"file:{path}")
