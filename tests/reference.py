"""Test oracles: reference code the tests and two demos check the package
against, and that no solver runs.

Stiefel geometry. Tangent vectors at X are n x k matrices V with
V^T X + X^T V = 0, like the package's dual tangent vectors; the two
spaces are paired by the Frobenius inner product and identified via the
index maps

    raise:  W -> (I + X X^T) W
    lower:  V -> (I - X X^T / 2) V

which are mutual inverses. The geodesic retraction X(t) = expm(t B) X is
reduced to the invariant subspace span([X, W]) (dimension <= 2k) before
exponentiating. The Cayley map is the (1,1) rational approximant of that
exponential, so the two agree to second order in the step. The inverse
of the Cayley retraction is here in its closed form,

    V = 2 Y (I + X^T Y)^{-1}  projected onto the dual tangent space at X,

with one k x k solve against the identity. The package forms the same
vector, and its pairing with a dual vector, in the coordinates of
[X, Y - X], where a short step's V is not the difference of two O(1)
terms.

Euclidean accelerated gradient descent, for validating the convergence
theory the manifold solvers inherit. The iteration is

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

A self-contained cyclic Jacobi eigensolver. It uses no LAPACK
eigensolver, so tests can check eigenvector-based results against it
independently of numpy/scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from stiefel_agd.errors import (
    InverseRetractionFailedError,
    NotSymmetricError,
    SingularMatrixError,
)
from stiefel_agd.geometry import (
    DualTangentVector,
    StiefelPoint,
    _as_raw,
    _check_base,
    _check_skew,
    project_dual,
)
from stiefel_agd.linalg import as_matrix, solve_square


# ------------------------------------------------------- Stiefel geometry

@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector v at ``base``: v^T x + x^T v = 0."""

    v: np.ndarray
    base: StiefelPoint

    def __post_init__(self):
        v = _as_raw(as_matrix(self.v, "tangent vector"), self.base)
        _check_skew(self.base.x.T @ v, "tangent")
        object.__setattr__(self, "v", v)


def metric(y1: TangentVector, y2: TangentVector) -> float:
    """Canonical metric on tangent vectors: Tr(y1^T (I - X X^T / 2) y2)."""
    _check_base(y1.base, y2.base)
    x = y1.base.x
    return float(
        np.vdot(y1.v, y2.v) - 0.5 * np.vdot(x.T @ y1.v, x.T @ y2.v)
    )


def raise_indices(w: DualTangentVector) -> TangentVector:
    """Index-raising isomorphism: W -> (I + X X^T) W."""
    return TangentVector(w.w + w.base.x @ w.xtw, w.base)


def lower_indices(v: TangentVector) -> DualTangentVector:
    """Index-lowering isomorphism: V -> (I - X X^T / 2) V."""
    x = v.base.x
    return DualTangentVector(v.v - 0.5 * (x @ (x.T @ v.v)), v.base)


def geodesic_retract(w: DualTangentVector, t: float) -> StiefelPoint:
    """Exact geodesic of the canonical metric from X = ``w.base``:
    X(t) = expm(t B) X with B = W X^T - X W^T.

    B is skew with rank <= 2k and vanishes off span([X, W]), so the
    exponential is computed on an orthonormal frame of that subspace:
    expm(t B) X = X + Q (expm(t B~) - I) Q^T X with B~ = Q^T B Q of size
    at most 2k x 2k.
    """
    x = w.base.x
    wm = w.w
    # frame: X plus an orthonormal completion of W's component off X,
    # re-projected once for safety before factoring
    w_perp = wm - x @ w.xtw
    w_perp -= x @ (x.T @ w_perp)
    q2, r2 = np.linalg.qr(w_perp)
    diag = np.abs(np.diag(r2))
    keep = diag > 1e-13 * max(1.0, float(np.linalg.norm(wm)))
    q = np.hstack((x, q2[:, keep]))
    a = q.T @ wm
    b = q.T @ x
    bt = a @ b.T
    bt = bt - bt.T
    e = scipy.linalg.expm(t * bt)
    np.fill_diagonal(e, np.diag(e) - 1.0)
    return StiefelPoint._unchecked(x + q @ (e @ b))


def closed_form_inverse(base: StiefelPoint, target: StiefelPoint) -> DualTangentVector:
    """The dual vector V at X = ``base`` with R(X, raise(V)) = Y =
    ``target``: V = Y C projected onto the dual tangent space, with
    C = 2 (I + X^T Y)^{-1} from one k x k solve against the identity.
    Raises InverseRetractionFailedError when I + X^T Y is singular to
    working precision."""
    eye = np.eye(base.k)
    try:
        c = 2.0 * solve_square(eye + base.x.T @ target.x, eye)
    except SingularMatrixError as exc:
        raise InverseRetractionFailedError(
            "I + X^T Y is singular; points are too far apart"
        ) from exc
    return project_dual(base, target.x @ c)


# ------------------------------------------ Euclidean accelerated descent

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


# ------------------------------------------------- Jacobi eigensolver

def jacobi_eigh(a: np.ndarray, max_sweeps: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition by the cyclic Jacobi rotation method.

    Returns (eigenvalues ascending, eigenvectors as columns). Only meant
    for test-scale matrices (m <= 200); quadratic per-sweep cost is
    acceptable there and keeps the oracle independent of LAPACK
    eigensolvers.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"jacobi_eigh needs a square matrix, got {a.shape}")
    m = a.shape[0]
    if m > 200:
        raise ValueError("jacobi_eigh is restricted to matrices of size <= 200")
    norm = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-12 * max(norm, 1e-300):
        raise NotSymmetricError("input matrix is not symmetric")

    w = 0.5 * (a + a.T)
    v = np.eye(m)
    if m == 1:
        return np.array([w[0, 0]]), v

    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(w, -1) ** 2) * 2.0)
        if off <= 1e-14 * max(norm, 1e-300):
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                wpq = w[p, q]
                if abs(wpq) <= 1e-18 * max(norm, 1e-300):
                    continue
                theta = (w[q, q] - w[p, p]) / (2.0 * wpq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # w <- J^T w J with the rotation acting on rows/cols p, q
                col_p = w[:, p].copy()
                col_q = w[:, q].copy()
                w[:, p] = c * col_p - s * col_q
                w[:, q] = s * col_p + c * col_q
                row_p = w[p, :].copy()
                row_q = w[q, :].copy()
                w[p, :] = c * row_p - s * row_q
                w[q, :] = s * row_p + c * row_q
                w[p, q] = 0.0
                w[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q

    eigenvalues = np.diag(w).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]
