"""First-order solvers on the Stiefel manifold.

The three solvers run one loop and differ only in its restart rule. Each
pass takes a two-sided Armijo line search from the look-ahead point Y:
the step X+ = R(Y, -gamma grad f(Y)) is recomputed while gamma is first
grown (as long as the decrease beats the stronger c_L threshold) and then
shrunk (until the Armijo 1/2 threshold holds):

    f(X+) <= f(Y) - (gamma/2) ||grad f(Y)||_{g*}^2.

Requiring c_L > 1/2 means no gamma can trigger both loops, so the search
terminates; the accepted gamma is carried into the next iteration.

The restart rule then decides whether the step is kept:

  * none (``gradient_descent``): every step is kept and the next
    look-ahead point is the new iterate itself, so there is no momentum;
  * function restart (``agd_function_restart``):
    f(X_{t+1}) > f(X_t) - c_R gamma_t ||grad f(Y_t)||^2
    (insufficient decrease);
  * gradient restart (``agd_gradient_restart``):
    <grad f(Y_t), W_t>_{g*} < -gamma_t ||grad f(Y_t)||^2
    with W_t the dual vector at Y_t pointing back to X_t (momentum
    opposing descent); the pairing is formed from k x k blocks, without
    W_t itself.

Under the two restart rules a kept step X_{t+1} is followed by the
momentum extrapolation along the Cayley curve through X_t and X_{t+1}:
with V_t the dual vector solving R(X_t, raise(V_t)) = X_{t+1},

    Y_{t+1} = R(X_t, (1 + k/(k+3)) raise(V_t)),

where k counts momentum steps since the last restart. A restart discards
the candidate step, Y snaps back to X_t and k resets to 0. A failed
inverse retraction or Cayley solve in the momentum path does not end the
run: in the gradient rule it counts as a restart, and in the
extrapolation the step is kept with Y = X_{t+1} and k = 0.

Every solver stops on the relative criterion ||grad f|| <= epsilon
||grad f(X_0)||, evaluated at the most recent gradient point Y (the
current iterate for gradient descent and right after restarts, the
look-ahead point otherwise); each pass through the loop costs exactly
one gradient evaluation.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    InverseRetractionFailedError,
    LineSearchFailedError,
    RetractionFailedError,
)
from .geometry import (
    DualTangentVector,
    StiefelPoint,
    cayley_retract,
    dual_metric_inverse,
    dual_norm,
    lerp,
)

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
LINE_SEARCH_FAILED = "line_search_failed"

#: Line-search trials allowed in one pass before the run stops with
#: LINE_SEARCH_FAILED.
LINESEARCH_TRIALS = 60

#: Numerical failures of the momentum path; each one resets the momentum
#: instead of ending the run.
_MOMENTUM_FAILURES = (InverseRetractionFailedError, RetractionFailedError)


@dataclass(frozen=True)
class SolverConfig:
    """Tunables shared by all solvers.

    c_l must lie in (1/2, 1) so the two line-search loops cannot fire on
    the same step size; c_r must lie in (0, 1/2) so the Armijo decrease
    guarantees the first step after any restart is accepted. The line
    search has a fixed budget of ``LINESEARCH_TRIALS`` (60) trials per
    pass.
    """

    gamma0: float = 0.1
    lambda_d: float = 1.7
    c_l: float = 0.7
    c_r: float = 0.01
    epsilon: float = 1e-10
    max_iter: int = 1_000_000

    def __post_init__(self):
        # each rule is a range that NaN and inf fall outside of
        if not 0.0 < self.gamma0 < math.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not 1.0 < self.lambda_d < math.inf:
            raise ValueError("lambda_d must exceed 1 and be finite")
        if not 0.5 < self.c_l < 1.0:
            raise ValueError("c_l must lie in (1/2, 1)")
        if not 0.0 < self.c_r < 0.5:
            raise ValueError("c_r must lie in (0, 1/2)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError("max_iter must be an integer >= 0")


class IterationRecord(NamedTuple):
    """One loop pass: the objective value of the iterate it produced, the
    norm of the gradient that drove it, the accepted step size, whether
    the pass restarted, and the momentum counter applied."""

    t: int
    f: float
    grad_norm: float
    gamma: float
    restarted: bool
    momentum_k: int


@dataclass
class RunTrace:
    """History and totals of one solver run.

    ``iterations`` counts accepted (non-restart) passes and ``restarts``
    the restarted ones. ``f_evals`` is the sum of the line-search trials
    of all passes, ``LINESEARCH_TRIALS`` for a search that failed; a trial
    whose Cayley solve failed counts although it evaluates nothing.
    ``g_evals`` counts ``value_and_gradient`` calls, one at the top of each
    pass: at x0 first, then at each look-ahead point. A gradient at the
    point the last trial valued (the new iterate, in gradient descent)
    reuses that trial's Euclidean gradient, so ``f_evals + g_evals``
    (perfbench's ``operator_applies``) counts evaluation calls, not
    operator applications.
    """

    records: list[IterationRecord] = field(default_factory=list)
    iterations: int = 0
    restarts: int = 0
    f_evals: int = 0
    g_evals: int = 0
    wall_time: float = 0.0
    termination: str = MAX_ITERATIONS
    final_point: StiefelPoint | None = None
    initial_value: float = float("nan")
    final_value: float = float("nan")
    initial_grad_norm: float = float("nan")
    final_grad_norm: float = float("nan")
    max_orth_drift: float = 0.0

    @property
    def final_rel_gradnorm(self) -> float:
        if self.initial_grad_norm == 0.0:
            return 0.0
        return self.final_grad_norm / self.initial_grad_norm


def line_search(
    objective,
    grad_y: DualTangentVector,
    gamma_in: float,
    config: SolverConfig,
    f_y: float,
    grad_norm_sq: float,
) -> tuple[float, StiefelPoint, float, int]:
    """Two-sided Armijo line search along -grad f(y) from y = grad_y.base.

    ``f_y`` and ``grad_norm_sq`` are f(y) and ||grad f(y)||_{g*}^2 from
    the caller's evaluation at y. Returns (gamma, x_next, f_next, trials)
    with f_next <= f_y - (gamma/2) grad_norm_sq; each trial point costs
    one objective value. A trial whose Cayley solve fails counts, with
    f = +inf. Raises LineSearchFailedError when a trial is asked for after
    ``LINESEARCH_TRIALS`` trials, and ValueError before any trial for a
    zero, NaN or infinite ``grad_norm_sq`` or ``gamma_in`` or a NaN or
    infinite ``f_y``.
    """
    # each rule is a range that NaN and inf fall outside of
    if not 0.0 < grad_norm_sq < math.inf:
        raise ValueError("line search needs a nonzero finite gradient")
    if not 0.0 < gamma_in < math.inf:
        raise ValueError("gamma_in must be positive and finite")
    if not -math.inf < f_y < math.inf:
        raise ValueError("f_y must be finite")

    gamma = gamma_in
    trials = 0

    def trial(g: float) -> tuple[StiefelPoint | None, float]:
        nonlocal trials
        if trials >= LINESEARCH_TRIALS:
            raise LineSearchFailedError(
                f"no acceptable step in {LINESEARCH_TRIALS} trials"
            )
        trials += 1
        try:
            x = cayley_retract(grad_y, -g)
        except RetractionFailedError:
            return None, float("inf")
        return x, objective.value(x)

    x_next, f_next = trial(gamma)
    # grow while the decrease beats the stronger threshold
    while f_next < f_y - config.c_l * gamma * grad_norm_sq:
        gamma *= config.lambda_d
        x_next, f_next = trial(gamma)
    # shrink until the Armijo 1/2 threshold holds (NaN-safe comparison)
    while not (f_next <= f_y - 0.5 * gamma * grad_norm_sq):
        gamma /= config.lambda_d
        x_next, f_next = trial(gamma)
    assert x_next is not None
    return gamma, x_next, f_next, trials


def gradient_descent(objective, x0: StiefelPoint, config: SolverConfig) -> RunTrace:
    """Line-searched Riemannian gradient descent (no momentum)."""
    return _run(objective, x0, config, restart=None)


def agd_function_restart(objective, x0: StiefelPoint, config: SolverConfig) -> RunTrace:
    """Accelerated gradient descent with the sufficient-decrease
    (function) restart condition."""
    return _run(objective, x0, config, restart="function")


def agd_gradient_restart(objective, x0: StiefelPoint, config: SolverConfig) -> RunTrace:
    """Accelerated gradient descent with the momentum-opposes-descent
    (gradient) restart condition."""
    return _run(objective, x0, config, restart="gradient")


def _run(objective, x0: StiefelPoint, config: SolverConfig, restart: str | None) -> RunTrace:
    """The pass loop of all three solvers. ``restart`` is None (gradient
    descent: no momentum, never a restart), "function" or "gradient"."""
    start = time.perf_counter()
    trace = RunTrace(max_orth_drift=x0.orth_error)
    x = y = x0
    gamma = config.gamma0
    k = 0

    while True:
        res = objective.value_and_gradient(y)
        trace.g_evals += 1
        f_y, grad_y = res.value, res.grad
        gn_y = dual_norm(grad_y)
        if trace.g_evals == 1:
            f_x = trace.initial_value = f_y
            trace.initial_grad_norm = gn_y
        if gn_y <= config.epsilon * trace.initial_grad_norm:
            trace.termination = CONVERGED
            break
        t = trace.iterations + trace.restarts
        if t >= config.max_iter:
            trace.termination = MAX_ITERATIONS
            break
        gn2 = gn_y * gn_y
        try:
            gamma, x_next, f_next, trials = line_search(
                objective, grad_y, gamma, config, f_y=f_y, grad_norm_sq=gn2
            )
        except LineSearchFailedError:
            trace.f_evals += LINESEARCH_TRIALS
            trace.termination = LINE_SEARCH_FAILED
            break
        trace.f_evals += trials

        restarted = False
        if restart == "function":
            restarted = f_next > f_x - config.c_r * gamma * gn2
        elif restart == "gradient" and y is not x:
            # at y = x the momentum is the zero vector and cannot oppose descent
            try:
                restarted = dual_metric_inverse(grad_y, x) < -gamma * gn2
            except _MOMENTUM_FAILURES:
                restarted = True

        applied_k = 0
        if restarted:
            # discard the candidate step; momentum resets
            y, k = x, 0
            trace.restarts += 1
        else:
            y = x_next
            if restart is not None:
                try:
                    y = lerp(x, x_next, 1.0 + k / (k + 3.0))
                    applied_k, k = k, k + 1
                except _MOMENTUM_FAILURES:
                    # keep the accepted step; momentum resets
                    k = 0
            x, f_x = x_next, f_next
            trace.iterations += 1
            trace.max_orth_drift = max(
                trace.max_orth_drift, x.orth_error, y.orth_error
            )
        trace.records.append(
            IterationRecord(t, f_x, gn_y, gamma, restarted, applied_k)
        )

    trace.final_point = x
    trace.final_value = f_x
    trace.final_grad_norm = gn_y
    trace.wall_time = time.perf_counter() - start
    return trace
