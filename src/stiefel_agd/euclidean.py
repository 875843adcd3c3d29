"""Euclidean accelerated gradient descent, kept as a reference for
validating the convergence theory the manifold solvers inherit.

The iteration is

    x_0 = y_0,
    x_{t+1} = y_t - gamma_t grad f(y_t),
    y_{t+1} = x_{t+1} + alpha_t (x_{t+1} - x_t),

with two parameter regimes:

  * strongly convex: alpha_t = (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu)),
    gamma_t = 1/L, giving a geometric objective-error rate
    2 (1 - sqrt(mu/L))^t.

  * q-schedule: alpha_t = q_t / (2 + q_{t+1}) for any non-negative q with
    q_0 = 0 and (q_{t+1} + 1)^2 <= (q_t + 2)^2 + 1, together with
    non-increasing steps satisfying the Armijo 1/2 decrease. The
    iteration here runs q_t = t, which gives the classical 2 L t^{-2}
    rate; the certificate is the Lyapunov function computed by
    ``lyapunov_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class QScheduleMode:
    """Line-search-free q-schedule regime, q_t = t, with a fixed step size,
    which must satisfy the Armijo 1/2 decrease for the objective at hand
    (gamma <= 1/L suffices for an L-smooth objective)."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("step size must be positive and finite")


@dataclass(frozen=True)
class StronglyConvexMode:
    """Constant-momentum regime for a mu-strongly convex, L-smooth
    objective; uses gamma = 1/L."""

    mu: float
    L: float

    def __post_init__(self):
        if not 0.0 < self.mu <= self.L < math.inf:
            raise ValueError("need 0 < mu <= L < inf")

    @property
    def alpha(self) -> float:
        rl, rm = np.sqrt(self.L), np.sqrt(self.mu)
        return (rl - rm) / (rl + rm)


@dataclass(frozen=True)
class EuclideanTrajectory:
    """Full (x_t, y_t) history of a run; xs and ys have shape
    (steps + 1, dim)."""

    xs: np.ndarray
    ys: np.ndarray


def euclidean_agd(
    grad_f: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float] | np.ndarray,
    mode: QScheduleMode | StronglyConvexMode,
    steps: int,
) -> EuclideanTrajectory:
    """Run the accelerated iteration for a fixed number of steps and
    return the full trajectory."""
    x = np.ascontiguousarray(x0, dtype=np.float64).reshape(-1)
    if steps < 0:
        raise ValueError("steps must be non-negative")

    if isinstance(mode, StronglyConvexMode):
        gamma = 1.0 / mode.L
        alpha_of = lambda t: mode.alpha
    elif isinstance(mode, QScheduleMode):
        gamma = mode.gamma
        alpha_of = lambda t: t / (t + 3.0)  # q_t / (2 + q_{t+1}) with q_t = t
    else:
        raise ValueError(f"unknown mode {mode!r}")

    xs = np.empty((steps + 1, x.size))
    ys = np.empty((steps + 1, x.size))
    xs[0] = x
    ys[0] = x
    for t in range(steps):
        x_next = ys[t] - gamma * grad_f(ys[t])
        xs[t + 1] = x_next
        ys[t + 1] = x_next + alpha_of(t) * (x_next - xs[t])
    return EuclideanTrajectory(xs, ys)


def lyapunov_value(
    f: Callable[[np.ndarray], float],
    x_t: np.ndarray,
    y_t: np.ndarray,
    gamma_t: float,
    q_t: float,
    x_star: np.ndarray,
) -> float:
    """Lyapunov certificate of the q-schedule regime:

        J_t = gamma_t q_t (q_t + 2) (f(x_t) - f(x*))
              + (1/2) || 2 (y_t - x*) + q_t (y_t - x_t) ||^2.

    Non-increasing along admissible runs on convex objectives;
    J_0 = 2 ||x_0 - x*||^2.
    """
    gap = f(np.asarray(x_t)) - f(np.asarray(x_star))
    drift = 2.0 * (np.asarray(y_t) - np.asarray(x_star)) + q_t * (
        np.asarray(y_t) - np.asarray(x_t)
    )
    return float(gamma_t * q_t * (q_t + 2.0) * gap + 0.5 * np.dot(drift, drift))
