import math

import numpy as np
import pytest

from stiefel_agd import geometry, solvers
from stiefel_agd.errors import (
    InverseRetractionFailedError,
    LineSearchFailedError,
    RetractionFailedError,
    SingularMatrixError,
)
from stiefel_agd.geometry import (
    StiefelPoint,
    cayley_retract,
    dual_metric,
    project_dual,
    random_point,
)
from stiefel_agd.objectives import (
    DiagonalOperator,
    ObjectiveSpec,
    SpectrumInfo,
    ValueRecord,
    known_minimum,
    make_objective,
    parse_spectrum,
)
from stiefel_agd.solvers import (
    CONVERGED,
    LINE_SEARCH_FAILED,
    LINESEARCH_TRIALS,
    MAX_ITERATIONS,
    SolverConfig,
    agd_function_restart,
    agd_gradient_restart,
    gradient_descent,
    line_search,
)

from reference import closed_form_inverse

SOLVERS = {
    "gd": gradient_descent,
    "agd-function": agd_function_restart,
    "agd-gradient": agd_gradient_restart,
}


def sphere3_objective():
    return make_objective(SpectrumInfo([1.0, 2.0, 3.0]), [1.0])


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.gamma0 == 0.1 and cfg.lambda_d == 1.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma0": 0.0},
            {"lambda_d": 1.0},
            {"c_l": 0.5},
            {"c_l": 1.0},
            {"c_r": 0.0},
            {"c_r": 0.5},
            {"epsilon": 0.0},
            {"max_iter": -1},
            {"gamma0": float("nan")},
            {"gamma0": float("inf")},
            {"lambda_d": float("nan")},
            {"lambda_d": float("inf")},
            {"c_l": float("nan")},
            {"c_r": float("nan")},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
            {"max_iter": float("nan")},
            {"max_iter": 10.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class Untouched:
    """An objective whose value must not be asked for."""

    def value(self, x):
        raise AssertionError("a trial was spent")


class UnboundedBelow:
    """An objective whose every value is -inf: each trial beats both
    thresholds, so the search grows gamma until something stops it."""

    def __init__(self):
        self.calls = 0

    def value(self, x):
        self.calls += 1
        return ValueRecord(-math.inf, None)


def brockett_30_3_gradient():
    """The gradient at random_point(30, 3, 0) of Brockett ``linear:30``
    with weights 1..3 (dual norm 28.1), f there and the squared norm."""
    obj = make_objective(parse_spectrum("linear:30"), [1.0, 2.0, 3.0])
    res = obj.value_and_gradient(random_point(30, 3, 0))
    return res.grad, res.value, dual_metric(res.grad, res.grad)


class TestLineSearch:
    def setup_method(self):
        # objective f = x^T diag(0,1) x / 2 on the circle; minimum at (1,0)
        self.obj = ObjectiveSpec(DiagonalOperator([0.0, 1.0]), [1.0])
        theta = 0.8
        self.y = StiefelPoint(np.array([[np.cos(theta)], [np.sin(theta)]]))
        res = self.obj.value_and_gradient(self.y)
        self.f_y = res.value
        self.grad = res.grad
        self.gn2 = dual_metric(self.grad, self.grad)
        self.cfg = SolverConfig()

    def test_tiny_gamma_grows(self):
        gamma, x_next, record, trials = line_search(
            self.obj, self.grad, 1e-6, self.cfg,
            f_y=self.f_y, grad_norm_sq=self.gn2,
        )
        assert gamma > 1e-6 * self.cfg.lambda_d * 0.999  # grew at least once
        assert trials >= 2
        assert record.value <= self.f_y - 0.5 * gamma * self.gn2

    def test_huge_gamma_shrinks(self):
        gamma, x_next, record, trials = line_search(
            self.obj, self.grad, 1e6, self.cfg,
            f_y=self.f_y, grad_norm_sq=self.gn2,
        )
        assert gamma < 1e6
        assert record.value <= self.f_y - 0.5 * gamma * self.gn2

    def test_bracketed_gamma_unchanged(self):
        # find a step size already sitting strictly between the 1/2 and
        # c_L thresholds; the search must return it after one trial
        found = None
        for gamma in np.geomspace(1e-3, 10.0, 400):
            x = cayley_retract(self.grad, -gamma)
            f = self.obj.value(x).value
            if (
                f > self.f_y - self.cfg.c_l * gamma * self.gn2
                and f < self.f_y - 0.5 * gamma * self.gn2
            ):
                found = gamma
                break
        assert found is not None
        gamma, _, _, trials = line_search(
            self.obj, self.grad, found, self.cfg,
            f_y=self.f_y, grad_norm_sq=self.gn2,
        )
        assert gamma == found
        assert trials == 1

    def test_zero_gradient_rejected(self):
        zero = project_dual(self.y, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            line_search(self.obj, zero, 0.1, self.cfg, f_y=1.0,
                        grad_norm_sq=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_gamma_in_rejected_before_any_trial(self, bad):
        with pytest.raises(ValueError, match="gamma_in"):
            line_search(Untouched(), self.grad, bad, self.cfg,
                        f_y=self.f_y, grad_norm_sq=self.gn2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_grad_norm_sq_rejected_before_any_trial(self, bad):
        with pytest.raises(ValueError, match="gradient"):
            line_search(Untouched(), self.grad, 0.1, self.cfg,
                        f_y=self.f_y, grad_norm_sq=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bad_f_y_rejected_before_any_trial(self, bad):
        with pytest.raises(ValueError, match="f_y"):
            line_search(Untouched(), self.grad, 0.1, self.cfg,
                        f_y=bad, grad_norm_sq=self.gn2)

    def test_exhaustion_raises(self):
        calls = []

        class NanObjective:
            def value(self, x):
                calls.append(x)
                return ValueRecord(math.nan, None)

            def value_and_gradient(self, x, known=None):
                raise AssertionError("not used")

        with pytest.raises(LineSearchFailedError):
            line_search(NanObjective(), self.grad, 0.1, self.cfg,
                        f_y=self.f_y, grad_norm_sq=self.gn2)
        assert len(calls) == LINESEARCH_TRIALS == 60

    @staticmethod
    def search_singular_above(monkeypatch, gamma_in):
        """The line search along ``brockett_30_3_gradient`` of an
        ``UnboundedBelow`` objective from ``gamma_in``, with the Cayley
        solve singular for |h| above 1.5e6: (gamma, record, trials, the
        objective's calls, the scales whose retraction failed)."""
        grad, f_y, gn2 = brockett_30_3_gradient()
        m = 2 * grad.base.k
        limit = 1.5e6 * np.abs(grad.system[:, :m]).max()  # max |I + h K|
        solve = geometry.solve_square

        def singular_above(a, b):
            if np.abs(a).max() > limit:
                raise SingularMatrixError("injected: |h| above 1.5e6")
            return solve(a, b)

        failed = []

        def retract(w, scale):
            try:
                return cayley_retract(w, scale)
            except RetractionFailedError as exc:
                assert isinstance(exc.__cause__, SingularMatrixError)
                failed.append(scale)
                raise

        monkeypatch.setattr(geometry, "solve_square", singular_above)
        monkeypatch.setattr(solvers, "cayley_retract", retract)
        obj = UnboundedBelow()
        gamma, _, record, trials = line_search(
            obj, grad, gamma_in, SolverConfig(), f_y=f_y, grad_norm_sq=gn2
        )
        return gamma, record, trials, obj.calls, failed

    def test_singular_trial_counts_and_shrinks(self, monkeypatch):
        # gamma grows by 1.7 from 0.1 until the 34th trial, at scale
        # -0.1 * 1.7^33 (about -4.0e6), where the solve fails; that trial
        # counts with f = +inf and values nothing, and the step one grid
        # point below it, the last grown one, is kept without a second
        # trial
        gamma, record, trials, calls, failed = self.search_singular_above(
            monkeypatch, 0.1)
        assert (trials, calls) == (34, 33)
        assert failed == [pytest.approx(-0.1 * 1.7**33)]
        assert gamma == pytest.approx(0.1 * 1.7**32)  # about 2.37e6
        assert record.value == -math.inf

    def test_singular_first_trial_counts_and_shrinks(self, monkeypatch):
        # the same failing step as the first trial: the first shrunk step
        # is accepted
        gamma, record, trials, calls, failed = self.search_singular_above(
            monkeypatch, 0.1 * 1.7**33)
        assert (trials, calls) == (2, 1)
        assert failed == [pytest.approx(-0.1 * 1.7**33)]
        assert gamma == pytest.approx(0.1 * 1.7**32)
        assert record.value == -math.inf

    def test_grow_then_shrink_values_each_step_once(self, monkeypatch):
        # a decrease of 0.9 gamma ||g||^2, beating c_L = 0.7, for gamma up
        # to 0.5 and none above: the grow from 0.1 stops at 0.1 * 1.7^4,
        # which misses the Armijo test too, and 0.1 * 1.7^3 is kept
        scales = []

        def retract(w, scale):
            scales.append(scale)
            return cayley_retract(w, scale)

        f_y, gn2 = self.f_y, self.gn2

        class Stepped:
            def value(self, x):
                gamma = -scales[-1]
                decrease = 0.9 * gamma * gn2 if gamma <= 0.5 else 0.0
                return ValueRecord(f_y - decrease, None)

        monkeypatch.setattr(solvers, "cayley_retract", retract)
        gamma, _, record, trials = line_search(
            Stepped(), self.grad, 0.1, self.cfg, f_y=f_y, grad_norm_sq=gn2
        )
        assert trials == len(scales) == len(set(scales)) == 5
        assert gamma == -scales[3] == pytest.approx(0.1 * 1.7**3)
        assert record.value == f_y - 0.9 * gamma * gn2

    @pytest.mark.parametrize("gamma_in", [1e-6, 1e6], ids=["grow", "shrink"])
    def test_a_rejected_trial_point_is_not_checked(self, monkeypatch, gamma_in):
        # the recorded behaviour change (CHANGES.md): a point is checked
        # when it is kept, so a first trial off the manifold (0.99 times
        # the true point), which the search grows past from 1e-6 or shrinks
        # past from 1e6, does not raise; it would when read as an iterate
        first = []

        def retract(w, scale):
            r = cayley_retract(w, scale)
            if not first:
                first.append(StiefelPoint._unchecked(0.99 * r.x))
                return first[0]
            return r

        monkeypatch.setattr(solvers, "cayley_retract", retract)
        gamma, x_next, record, trials = line_search(
            self.obj, self.grad, gamma_in, self.cfg,
            f_y=self.f_y, grad_norm_sq=self.gn2,
        )
        assert trials >= 2 and x_next is not first[0]
        assert record.value <= self.f_y - 0.5 * gamma * self.gn2
        assert x_next.orth_error <= 1e-15
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            first[0].orth_error

    def test_exhaustion_in_the_grow_loop_raises(self, monkeypatch):
        # a retraction that never fails keeps the search growing gamma
        # until the budget runs out
        grad, f_y, gn2 = brockett_30_3_gradient()
        monkeypatch.setattr(solvers, "cayley_retract", lambda w, scale: w.base)
        obj = UnboundedBelow()
        with pytest.raises(LineSearchFailedError, match="in 60 trials"):
            line_search(obj, grad, 0.1, self.cfg, f_y=f_y, grad_norm_sq=gn2)
        assert obj.calls == LINESEARCH_TRIALS == 60

    def test_every_grown_cayley_step_is_solved(self):
        # no injection: the Cayley solve does not fail on the 60 grown
        # steps up to 0.1 * 1.7^59 (about 4.1e12) along this gradient
        grad, f_y, gn2 = brockett_30_3_gradient()
        obj = UnboundedBelow()
        with pytest.raises(LineSearchFailedError, match="in 60 trials"):
            line_search(obj, grad, 0.1, self.cfg, f_y=f_y, grad_norm_sq=gn2)
        assert obj.calls == LINESEARCH_TRIALS == 60


class TestKeptPointsAreChecked:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_a_non_orthonormal_step_raises(self, monkeypatch, method):
        # every trial point, so the accepted one too, is 0.99 times the
        # true point; the first pass keeps it as the iterate
        def retract(w, scale):
            return StiefelPoint._unchecked(0.99 * cayley_retract(w, scale).x)

        monkeypatch.setattr(solvers, "cayley_retract", retract)
        obj = make_objective(parse_spectrum("linear:30"), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            SOLVERS[method](obj, random_point(30, 3, 0), SolverConfig())

    @pytest.mark.parametrize("method", ["agd-function", "agd-gradient"])
    def test_a_non_orthonormal_look_ahead_point_raises(self, monkeypatch, method):
        def lerp(base, target, alpha):
            return StiefelPoint._unchecked(0.99 * geometry.lerp(base, target, alpha).x)

        monkeypatch.setattr(solvers, "lerp", lerp)
        obj = make_objective(parse_spectrum("linear:30"), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            SOLVERS[method](obj, random_point(30, 3, 0), SolverConfig())


class TestGradientDescent:
    def test_critical_start_zero_iterations(self):
        obj = sphere3_objective()
        x0 = StiefelPoint(np.eye(3)[:, [0]])
        trace = gradient_descent(obj, x0, SolverConfig())
        assert trace.termination == CONVERGED
        assert trace.iterations == 0
        assert trace.g_evals == 1
        assert trace.final_rel_gradnorm == 0.0

    def test_converges_to_smallest_eigenvector(self):
        obj = sphere3_objective()
        for seed in range(5):
            trace = gradient_descent(obj, random_point(3, 1, seed),
                                     SolverConfig(epsilon=1e-12))
            assert trace.termination == CONVERGED
            assert abs(trace.final_point.x[0, 0]) >= 1.0 - 1e-8

    def test_armijo_monotonicity(self):
        obj = sphere3_objective()
        trace = gradient_descent(obj, random_point(3, 1, 42), SolverConfig())
        prev = trace.initial_value
        for rec in trace.records:
            assert rec.f <= prev - 0.5 * rec.gamma * rec.grad_norm**2 + 1e-15
            prev = rec.f

    def test_eval_accounting(self):
        obj = sphere3_objective()
        trace = gradient_descent(obj, random_point(3, 1, 7), SolverConfig())
        assert trace.g_evals == trace.iterations + 1
        assert trace.restarts == 0
        assert trace.f_evals >= trace.iterations  # at least one trial per pass

    def test_max_iter_termination(self):
        obj = sphere3_objective()
        trace = gradient_descent(obj, random_point(3, 1, 1),
                                 SolverConfig(max_iter=2))
        assert trace.termination == MAX_ITERATIONS
        assert trace.iterations == 2

    def test_never_inverts_a_retraction(self, monkeypatch):
        class Inverted(Exception):
            pass

        def forbidden(*args):
            raise Inverted

        # lerp inverts the retraction in its own coordinates
        monkeypatch.setattr(solvers, "lerp", forbidden)
        monkeypatch.setattr(geometry, "retract_inverse", forbidden)
        monkeypatch.setattr(solvers, "dual_metric_inverse", forbidden)
        spectrum = SpectrumInfo(np.arange(1.0, 41.0))
        alpha = [1.0, 2.0, 3.0]
        obj = make_objective(spectrum, alpha)
        x0 = random_point(40, 3, 5)
        trace = gradient_descent(obj, x0, SolverConfig())
        assert trace.termination == CONVERGED
        assert trace.restarts == 0
        assert abs(trace.final_value - known_minimum(spectrum, alpha)) <= 1e-8
        # the patch reaches the momentum path, so the check above is not vacuous
        with pytest.raises(Inverted):
            agd_function_restart(obj, x0, SolverConfig())


def holds_subnormals(a) -> bool:
    a = np.abs(a)
    return bool(np.any((a > 0.0) & (a < np.finfo(np.float64).smallest_normal)))


class TestSubnormals:
    """GD on sphere ``linear:100`` from ``random_point(100, 1, 0)`` drives
    the entries off the answer geometrically toward zero, past 2^-1022
    without the snap of ``cayley_retract``. The momentum methods snap
    their line-search trials only: ``lerp``'s output is not snapped."""

    @staticmethod
    def census(monkeypatch):
        """How many trial points, gradients w, [w, x] blocks of the line
        searches and ``lerp`` outputs of the solvers hold subnormal
        entries, counted from here on, and how many ``lerp`` outputs
        there were."""
        census = {"trial": 0, "w": 0, "wx": 0, "lerp": 0, "lerps": 0}

        def retract(w, scale):
            r = cayley_retract(w, scale)
            census["trial"] += holds_subnormals(r.x)
            census["w"] += holds_subnormals(w.w)  # once per trial, like wx
            census["wx"] += holds_subnormals(w.wx)
            return r

        def extrapolate(base, target, alpha):
            y = geometry.lerp(base, target, alpha)
            census["lerp"] += holds_subnormals(y.x)
            census["lerps"] += 1
            return y

        monkeypatch.setattr(solvers, "cayley_retract", retract)
        monkeypatch.setattr(solvers, "lerp", extrapolate)
        return census

    @classmethod
    def run(cls, monkeypatch):
        """The GD trace, and the census of its run."""
        census = cls.census(monkeypatch)
        obj = make_objective(parse_spectrum("linear:100"), [1.0])
        trace = gradient_descent(obj, random_point(100, 1, 0), SolverConfig())
        return trace, census

    def test_no_subnormal_reaches_a_trial_or_gradient(self, monkeypatch):
        trace, census = self.run(monkeypatch)
        assert trace.termination == CONVERGED
        assert len(trace.records) == 404
        assert census == {"trial": 0, "w": 0, "wx": 0, "lerp": 0, "lerps": 0}

    @pytest.mark.parametrize("method", ["agd-function", "agd-gradient"])
    def test_no_subnormal_reaches_a_momentum_run(self, monkeypatch, method):
        census = self.census(monkeypatch)
        for n in (100, 316, 1000):
            obj = make_objective(parse_spectrum(f"linear:{n}"), [1.0])
            for seed in range(3):
                trace = SOLVERS[method](obj, random_point(n, 1, seed), SolverConfig())
                assert trace.termination == CONVERGED
        assert census.pop("lerps") > 0
        assert census == {"trial": 0, "w": 0, "wx": 0, "lerp": 0}

    def test_the_snap_changes_no_record(self, monkeypatch):
        snapped, _ = self.run(monkeypatch)
        monkeypatch.setattr(geometry, "TINY", 0.0)
        plain, census = self.run(monkeypatch)
        assert census["trial"] > 0  # without the snap the run meets subnormals
        assert plain.records == snapped.records
        assert (plain.f_evals, plain.g_evals, plain.termination) == (
            snapped.f_evals, snapped.g_evals, snapped.termination)
        a, b = plain.final_point.x, snapped.final_point.x
        moved = a != b
        assert np.all(np.abs(a[moved]) < 1e-140)
        assert np.all(np.abs(b[moved]) < 1e-140)


class TestOperatorApplications:
    """A gradient at a point a line-search trial valued (the accepted trial
    in gradient descent, the iterate after an AGD restart) reuses that
    trial's A X; every other evaluation applies A once."""

    @staticmethod
    def run(solver, counted_objective):
        obj, operator = counted_objective(40, 3)
        trace = solver(obj, random_point(40, 3, 5), SolverConfig())
        assert trace.termination == CONVERGED
        return trace, operator.calls

    def test_gradient_descent_applies_once_per_trial_and_once_at_x0(
            self, counted_objective):
        trace, calls = self.run(gradient_descent, counted_objective)
        assert calls == trace.f_evals + 1 < trace.f_evals + trace.g_evals

    @pytest.mark.parametrize("method", ["agd-function", "agd-gradient"])
    def test_momentum_methods_apply_once_per_evaluation(
            self, method, counted_objective):
        # a look-ahead point comes from the extrapolation, never valued,
        # but a restart's Y = X reuses the A X of the trial that became X
        trace, calls = self.run(SOLVERS[method], counted_objective)
        assert trace.iterations > 0 and trace.restarts > 0
        assert calls == trace.f_evals + trace.g_evals - trace.restarts


class TestClassLevelCounts:
    """perfbench's tracer wraps ``value`` and ``value_and_gradient`` on
    ``ObjectiveSpec`` and reads its calls as the run's f_evals and g_evals;
    a gradient that went through ``value`` would count as a trial."""

    @pytest.mark.parametrize("method", SOLVERS)
    def test_wrapped_methods_count_f_evals_and_g_evals(self, monkeypatch, method):
        calls = {"value": 0, "value_and_gradient": 0}

        def counting(name):
            original = getattr(ObjectiveSpec, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ObjectiveSpec, name, counting(name))
        obj, _ = brockett_40_3()
        trace = SOLVERS[method](obj, random_point(40, 3, 5), SolverConfig())
        assert trace.termination == CONVERGED
        assert calls == {"value": trace.f_evals, "value_and_gradient": trace.g_evals}


class TestLineSearchFailureHandling:
    def test_solver_keeps_best_iterate(self):
        x0 = random_point(4, 2, 0)
        res0 = make_objective(SpectrumInfo([1.0, 2.0, 3.0, 4.0]),
                              [1.0, 2.0]).value_and_gradient(x0)

        class PoisonedObjective:
            """Valid gradient at x0, NaN values everywhere."""

            def value(self, x):
                return ValueRecord(math.nan, None)

            def value_and_gradient(self, x, known=None):
                return res0

        for solver in SOLVERS.values():
            trace = solver(PoisonedObjective(), x0, SolverConfig())
            assert trace.termination == LINE_SEARCH_FAILED
            assert trace.final_point is x0
            assert trace.iterations == 0
            assert trace.f_evals == LINESEARCH_TRIALS
            assert trace.g_evals == 1


def brockett_40_3():
    spectrum = SpectrumInfo(np.arange(1.0, 41.0))
    alpha = [1.0, 2.0, 3.0]
    return make_objective(spectrum, alpha), known_minimum(spectrum, alpha)


def fail_on_call(monkeypatch, module, attr, n, error):
    """Make ``module.<attr>`` raise ``error`` on its n-th call only (never
    for n = 0); returns the list of its argument pairs."""
    original = getattr(module, attr)
    calls = []

    def flaky(first, target):
        calls.append((first, target))
        if len(calls) == n:
            raise error("injected failure")
        return original(first, target)

    monkeypatch.setattr(module, attr, flaky)
    return calls


def fail_in_lerp(monkeypatch, n, error):
    """Make the n-th call of ``solvers.lerp`` fail where ``geometry.lerp``
    raises ``error``: its k x k solve for InverseRetractionFailedError,
    its Cayley solve for RetractionFailedError. Returns the list of its
    (base, target) pairs and the list of errors it raised."""
    if error is InverseRetractionFailedError:
        site, injected = "solve_square", SingularMatrixError
    else:
        site, injected = "_cayley_solve", RetractionFailedError
    original = getattr(geometry, site)
    calls, raised = [], []
    failing = [False]

    def broken(*args):
        if failing[0]:
            raise injected("injected failure")
        return original(*args)

    def counting(base, target, alpha):
        calls.append((base, target))
        failing[0] = len(calls) == n
        try:
            return geometry.lerp(base, target, alpha)
        except Exception as exc:
            raised.append(exc)
            raise
        finally:
            failing[0] = False

    monkeypatch.setattr(geometry, site, broken)
    monkeypatch.setattr(solvers, "lerp", counting)
    return calls, raised


class TestMomentumFailures:
    """A numerical failure in the momentum path resets the momentum and the
    run goes on. ``solvers.dual_metric_inverse`` is the gradient rule's
    call; ``geometry.lerp``'s k x k solve and Cayley solve are the ones
    inside the extrapolation."""

    @pytest.mark.parametrize(
        "error", [InverseRetractionFailedError, RetractionFailedError]
    )
    def test_gradient_rule_failure_becomes_a_restart(self, monkeypatch, error):
        obj, minimum = brockett_40_3()
        x0 = random_point(40, 3, 5)
        clean = agd_gradient_restart(obj, x0, SolverConfig())
        calls = fail_on_call(monkeypatch, solvers, "dual_metric_inverse", 4, error)
        trace = agd_gradient_restart(obj, x0, SolverConfig())
        assert len(calls) > 4
        assert trace.termination == CONVERGED
        assert abs(trace.final_value - minimum) <= 1e-8
        assert trace.g_evals == trace.iterations + trace.restarts + 1
        # the first passes match the clean run up to the failed one
        failed = trace.records[4]
        assert failed.restarted and not clean.records[4].restarted
        assert trace.records[:4] == clean.records[:4]

    @pytest.mark.parametrize(
        "error", [InverseRetractionFailedError, RetractionFailedError]
    )
    @pytest.mark.parametrize("solver_name", ["agd-function", "agd-gradient"])
    def test_extrapolation_failure_keeps_the_step(
        self, monkeypatch, solver_name, error
    ):
        obj, minimum = brockett_40_3()
        x0 = random_point(40, 3, 5)
        clean = SOLVERS[solver_name](obj, x0, SolverConfig())
        calls, raised = fail_in_lerp(monkeypatch, 6, error)
        trace = SOLVERS[solver_name](obj, x0, SolverConfig())
        assert len(calls) > 6
        assert [type(exc) for exc in raised] == [error]
        assert trace.termination == CONVERGED
        assert abs(trace.final_value - minimum) <= 1e-8
        assert trace.g_evals == trace.iterations + trace.restarts + 1
        # each accepted pass extrapolates once, so the sixth one failed: its
        # step is kept as in the clean run, without momentum
        j = [i for i, r in enumerate(trace.records) if not r.restarted][5]
        assert trace.records[:j] == clean.records[:j]
        assert clean.records[j].momentum_k > 0
        assert trace.records[j] == clean.records[j]._replace(momentum_k=0)
        after = [r for r in trace.records[j + 1:] if not r.restarted]
        assert after[0].momentum_k == 0

    def test_gradient_rule_skips_the_current_iterate(self, monkeypatch):
        # at y = x (first pass, and after every restart) the rule would
        # invert a point onto itself and get the zero vector
        calls = fail_on_call(monkeypatch, solvers, "dual_metric_inverse", 0,
                             AssertionError)
        obj, _ = brockett_40_3()
        trace = agd_gradient_restart(obj, random_point(40, 3, 5), SolverConfig())
        assert trace.termination == CONVERGED
        assert trace.restarts > 0 and calls
        assert not [grad for grad, target in calls if grad.base is target]

    def test_gradient_rule_decides_as_the_formed_inverse(self, monkeypatch):
        # the k x k pairing and <grad, V> with V = 2 X (I + Y^T X)^{-1}
        # projected round differently, but no restart decision flips on
        # this run
        obj, _ = brockett_40_3()
        x0 = random_point(40, 3, 5)
        blocks = agd_gradient_restart(obj, x0, SolverConfig())
        monkeypatch.setattr(
            solvers, "dual_metric_inverse",
            lambda grad, target: dual_metric(grad, closed_form_inverse(grad.base, target)),
        )
        formed = agd_gradient_restart(obj, x0, SolverConfig())
        assert blocks.restarts > 0
        assert blocks.records == formed.records
        assert np.array_equal(blocks.final_point.x, formed.final_point.x)


class TestLineSearchStart:
    """Each pass's line search starts from the step accepted two passes
    earlier, the first two from gamma0; a restarted pass's step counts like
    a kept one."""

    @pytest.mark.parametrize("method", list(SOLVERS))
    def test_each_search_starts_where_the_one_two_passes_back_ended(
            self, monkeypatch, method):
        searches = []

        def recording(objective, grad_y, gamma_in, config, **kwargs):
            result = line_search(objective, grad_y, gamma_in, config, **kwargs)
            searches.append((gamma_in, result[0]))
            return result

        monkeypatch.setattr(solvers, "line_search", recording)
        obj, _ = brockett_40_3()
        config = SolverConfig()
        trace = SOLVERS[method](obj, random_point(40, 3, 5), config)
        assert trace.termination == CONVERGED
        if method != "gd":
            assert any(rec.restarted for rec in trace.records[:-2])
        started = [g_in for g_in, _ in searches]
        accepted = [g for _, g in searches]
        assert accepted == [rec.gamma for rec in trace.records]
        assert started[:2] == [config.gamma0] * 2
        assert started[2:] == accepted[:-2]


class TestMomentumFactor:
    """Each kept pass of both accelerated solvers extrapolates by
    1 + q_k / (2 + q_{k+1}) with q_k = k, that is 1 + k/(k+3), where k is
    the momentum counter its record shows."""

    @pytest.mark.parametrize("solver_name", ["agd-function", "agd-gradient"])
    def test_factor_passed_to_lerp(self, monkeypatch, solver_name):
        factors = []

        def recording(base, target, alpha):
            factors.append(alpha)
            return geometry.lerp(base, target, alpha)

        monkeypatch.setattr(solvers, "lerp", recording)
        obj, _ = brockett_40_3()
        trace = SOLVERS[solver_name](obj, random_point(40, 3, 5), SolverConfig())
        assert trace.termination == CONVERGED
        assert trace.restarts > 0
        kept = [rec.momentum_k for rec in trace.records if not rec.restarted]
        assert max(kept) > 10
        assert factors == [1.0 + k / (k + 3.0) for k in kept]  # bit for bit


class TestAcceleratedSolvers:
    @pytest.mark.parametrize("solver_name", ["agd-function", "agd-gradient"])
    def test_first_pass_never_restarts(self, solver_name):
        obj = sphere3_objective()
        for seed in range(10):
            trace = SOLVERS[solver_name](obj, random_point(3, 1, seed),
                                         SolverConfig())
            assert trace.records, "expected at least one pass"
            assert not trace.records[0].restarted

    @pytest.mark.parametrize("solver_name", ["agd-function", "agd-gradient"])
    def test_converges_to_smallest_eigenvector(self, solver_name):
        obj = sphere3_objective()
        for seed in range(5):
            trace = SOLVERS[solver_name](obj, random_point(3, 1, seed),
                                         SolverConfig(epsilon=1e-12))
            assert trace.termination == CONVERGED
            assert abs(trace.final_point.x[0, 0]) >= 1.0 - 1e-8

    def test_function_restart_beats_gd_on_conditioned_problem(self):
        spectrum = SpectrumInfo(np.arange(1.0, 101.0))
        obj = make_objective(spectrum, [1.0])
        cfg = SolverConfig()
        for seed in range(10):
            x0 = random_point(100, 1, seed)
            agd = agd_function_restart(obj, x0, cfg)
            gd = gradient_descent(obj, x0, cfg)
            assert agd.termination == CONVERGED and gd.termination == CONVERGED
            assert agd.iterations < gd.iterations

    def test_accepted_passes_satisfy_decrease(self):
        spectrum = SpectrumInfo(np.arange(1.0, 51.0))
        obj = make_objective(spectrum, [1.0])
        cfg = SolverConfig()
        trace = agd_function_restart(obj, random_point(50, 1, 3), cfg)
        prev = trace.initial_value
        for rec in trace.records:
            if not rec.restarted:
                decrease = prev - rec.f
                assert decrease >= cfg.c_r * rec.gamma * rec.grad_norm**2 - 1e-12
            prev = rec.f

    def test_objective_never_increases(self):
        obj = make_objective(SpectrumInfo(np.arange(1.0, 41.0)), [1.0])
        for name, solver in SOLVERS.items():
            trace = solver(obj, random_point(40, 1, 5), SolverConfig())
            fs = [trace.initial_value] + [rec.f for rec in trace.records]
            assert all(b <= a + 1e-15 for a, b in zip(fs, fs[1:])), name

    def test_restart_sum_bound(self):
        # accumulated step-weighted gradient norms are controlled by the
        # total decrease divided by c_R
        obj = make_objective(SpectrumInfo(np.arange(1.0, 81.0)), [1.0])
        cfg = SolverConfig()
        trace = agd_function_restart(obj, random_point(80, 1, 9), cfg)
        fs = [rec.f for rec in trace.records]
        total = sum(
            rec.gamma * rec.grad_norm**2
            for rec in trace.records
            if not rec.restarted
        )
        budget = (trace.initial_value - min(fs)) / cfg.c_r
        assert total <= budget * (1.0 + 1e-10)

    @pytest.mark.parametrize("solver_name", list(SOLVERS))
    def test_eval_accounting_pattern(self, solver_name):
        obj = make_objective(SpectrumInfo(np.arange(1.0, 61.0)), [1.0])
        trace = SOLVERS[solver_name](obj, random_point(60, 1, 11), SolverConfig())
        assert trace.g_evals == trace.iterations + trace.restarts + 1

    @pytest.mark.parametrize("solver_name", list(SOLVERS))
    def test_counters_match_actual_calls_exactly(self, solver_name):
        inner = make_objective(SpectrumInfo(np.arange(1.0, 41.0)), [1.0])
        calls = {"value": 0, "grad": 0}

        class Instrumented:
            def value(self, x):
                calls["value"] += 1
                return inner.value(x)

            def value_and_gradient(self, x, known=None):
                calls["grad"] += 1
                return inner.value_and_gradient(x, known)

        trace = SOLVERS[solver_name](Instrumented(), random_point(40, 1, 19),
                                     SolverConfig())
        assert trace.f_evals == calls["value"]
        assert trace.g_evals == calls["grad"]

    @pytest.mark.parametrize("solver_name", list(SOLVERS))
    def test_iterates_stay_on_manifold(self, solver_name):
        obj = make_objective(SpectrumInfo(np.arange(1.0, 61.0)), [1.0])
        trace = SOLVERS[solver_name](obj, random_point(60, 1, 13), SolverConfig())
        assert trace.max_orth_drift <= 1e-8

    def test_gradient_restart_brockett(self):
        spectrum = SpectrumInfo(np.arange(1.0, 51.0))
        alpha = np.arange(1.0, 6.0)
        obj = make_objective(spectrum, alpha)
        trace = agd_gradient_restart(obj, random_point(50, 5, 17),
                                     SolverConfig(epsilon=1e-10))
        assert trace.termination == CONVERGED
        assert abs(trace.final_value - known_minimum(spectrum, alpha)) <= 1e-8

    def test_momentum_counter_resets_on_restart(self):
        self._check_momentum_counter("agd-function")

    @pytest.mark.parametrize("solver_name", ["gd", "agd-gradient"])
    def test_momentum_counter_other_methods(self, solver_name):
        self._check_momentum_counter(solver_name)

    @staticmethod
    def _check_momentum_counter(solver_name):
        obj = make_objective(SpectrumInfo(np.arange(1.0, 101.0)), [1.0])
        trace = SOLVERS[solver_name](obj, random_point(100, 1, 23),
                                     SolverConfig())
        assert trace.termination == CONVERGED
        if solver_name == "gd":
            assert all(not rec.restarted and rec.momentum_k == 0
                       for rec in trace.records)
            return
        assert trace.restarts > 0, "expected restarts on this problem"
        k = 0
        for rec in trace.records:
            if rec.restarted:
                k = 0
            else:
                assert rec.momentum_k == k
                k += 1
