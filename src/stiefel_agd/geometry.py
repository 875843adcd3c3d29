"""Geometry of the Stiefel manifold under the canonical (quotient) metric.

Points are n x k matrices with orthonormal columns. Tangent and dual
tangent vectors at X are n x k matrices V, W with V^T X + X^T V = 0; the
two spaces are paired by the Frobenius inner product and identified via
the index maps

    raise:  W -> (I + X X^T) W
    lower:  V -> (I - X X^T / 2) V

which are mutual inverses. Gradients and momentum directions are carried
as dual vectors throughout; they are raised only where a formula needs a
tangent vector.

Two retractions are provided. The Cayley retraction

    R(X, raise(W)) = (I - B/2)^{-1} (I + B/2) X,   B = W X^T - X W^T

is evaluated through the Sherman-Morrison-Woodbury identity so that only
a 2k x 2k system is ever solved:

    U = [W/2, X],  Z = [X, -W/2],  R = X + 2 U (I - Z^T U)^{-1} Z^T X.

The geodesic retraction X(t) = expm(t B) X is reduced to the invariant
subspace span([X, W]) (dimension <= 2k) before exponentiating. The Cayley
map is the (1,1) rational approximant of that exponential, so the two
agree to second order in the step.

The Cayley retraction is invertible in closed form: R(X, raise(V)) = Y is
solved by V = 2 Y (I + X^T Y)^{-1} followed by projection onto the dual
tangent space, which enables interpolation and extrapolation along the
retraction curve through two points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    InverseRetractionFailedError,
    RetractionFailedError,
    SingularMatrixError,
)
from .linalg import as_matrix, qr_thin, solve_square

#: Construction-time tolerance for the orthonormality / skewness invariants.
#: Freshly computed quantities land around 1e-12; the gap leaves headroom
#: for drift over long runs.
INVARIANT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A point on the Stiefel manifold: n x k matrix, orthonormal columns.

    ``orth_error`` records ||x^T x - I||_F as measured at construction; it
    is what solvers report as orthonormality drift. ``xtx`` is the
    read-only Gram matrix x^T x that the check forms, kept for the Cayley
    retraction from this point.
    """

    x: np.ndarray
    orth_error: float = field(init=False)
    xtx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = as_matrix(self.x, "stiefel point")
        n, k = x.shape
        if k > n:
            raise ValueError(f"need k <= n, got shape {x.shape}")
        xtx = x.T @ x
        err = float(np.linalg.norm(xtx - np.eye(k)))
        if err > INVARIANT_TOL:
            raise ValueError(
                f"columns are not orthonormal: ||x^T x - I||_F = {err:.3e}"
            )
        xtx.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "orth_error", err)
        object.__setattr__(self, "xtx", xtx)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


def _check_base(a, b) -> None:
    if a.base is not b.base and not np.array_equal(a.base.x, b.base.x):
        raise ValueError("vectors live at different base points")


def _tangent_array(a, base: StiefelPoint, space: str) -> np.ndarray:
    """``a`` as a read-only copy in the (dual) tangent space at ``base``."""
    a = as_matrix(a, f"{space} vector")
    x = base.x
    if a.shape != x.shape:
        raise ValueError(f"shape {a.shape} does not match base {x.shape}")
    skew = np.linalg.norm(a.T @ x + x.T @ a)
    if skew > INVARIANT_TOL:
        raise ValueError(
            f"not in the {space} space: ||a^T x + x^T a||_F = {skew:.3e}"
        )
    return a


@dataclass(frozen=True, eq=False)
class DualTangentVector:
    """Dual tangent vector w at ``base``: w^T x + x^T w = 0."""

    w: np.ndarray
    base: StiefelPoint

    def __post_init__(self):
        object.__setattr__(
            self, "w", _tangent_array(self.w, self.base, "dual tangent")
        )


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector v at ``base``: v^T x + x^T v = 0."""

    v: np.ndarray
    base: StiefelPoint

    def __post_init__(self):
        object.__setattr__(self, "v", _tangent_array(self.v, self.base, "tangent"))


def random_point(n: int, k: int, seed: int) -> StiefelPoint:
    """Uniform-ish random point: thin QR of an n x k Gaussian matrix.

    Deterministic for a given seed. The QR sign convention (diag(r) >= 0)
    makes the factor unique.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    q, _ = qr_thin(rng.standard_normal((n, k)))
    return StiefelPoint(q)


def project_dual(base: StiefelPoint, raw) -> DualTangentVector:
    """Orthogonal projection of an arbitrary n x k matrix onto the dual
    tangent space at ``base``: W - X (W^T X + X^T W) / 2.

    Idempotent; dual tangent vectors are exactly its fixed points.
    """
    w = np.asarray(raw, dtype=np.float64)
    x = base.x
    if w.shape != x.shape:
        raise ValueError(f"shape {w.shape} does not match base {x.shape}")
    sym = w.T @ x + x.T @ w
    return DualTangentVector(w - 0.5 * (x @ sym), base)


def metric(y1: TangentVector, y2: TangentVector) -> float:
    """Canonical metric on tangent vectors: Tr(y1^T (I - X X^T / 2) y2)."""
    _check_base(y1, y2)
    x = y1.base.x
    return float(
        np.vdot(y1.v, y2.v) - 0.5 * np.vdot(x.T @ y1.v, x.T @ y2.v)
    )


def dual_metric(w1: DualTangentVector, w2: DualTangentVector) -> float:
    """Induced inner product on dual vectors: Tr(w1^T (I + X X^T) w2)."""
    _check_base(w1, w2)
    x = w1.base.x
    xtw1 = x.T @ w1.w
    xtw2 = xtw1 if w2 is w1 else x.T @ w2.w
    return float(np.vdot(w1.w, w2.w) + np.vdot(xtw1, xtw2))


def dual_norm(w: DualTangentVector) -> float:
    """Norm induced by ``dual_metric``."""
    return math.sqrt(dual_metric(w, w))


def raise_indices(w: DualTangentVector) -> TangentVector:
    """Index-raising isomorphism: W -> (I + X X^T) W."""
    x = w.base.x
    return TangentVector(w.w + x @ (x.T @ w.w), w.base)


def lower_indices(v: TangentVector) -> DualTangentVector:
    """Index-lowering isomorphism: V -> (I - X X^T / 2) V."""
    x = v.base.x
    return DualTangentVector(v.v - 0.5 * (x @ (x.T @ v.v)), v.base)


def cayley_retract(base: StiefelPoint, w: DualTangentVector, scale: float) -> StiefelPoint:
    """Cayley retraction of scale * w, via a single 2k x 2k solve.

    scale = 0 returns the base point exactly. The underlying n x n Cayley
    matrix is nonsingular for every skew generator, so failures of the
    reduced solve only occur for pathologically large steps; they surface
    as RetractionFailedError.
    """
    if scale == 0.0:
        return base
    x = base.x
    ws = (0.5 * scale) * w.w
    u = np.concatenate((ws, x), axis=1)
    k = base.k
    xtws = x.T @ ws
    xtx = base.xtx
    # I - Z^T U assembled blockwise in place, Z = [X, -scale*W/2]:
    # [[I - X^T Ws, -X^T X], [Ws^T Ws, I + Ws^T X]]. Negating and then
    # adding the identity is exact: 0 - v = -v and 1 - v = -v + 1.
    lhs = np.empty((2 * k, 2 * k))
    np.negative(xtws, out=lhs[:k, :k])
    np.negative(xtx, out=lhs[:k, k:])
    lhs[k:, :k] = ws.T @ ws
    lhs[k:, k:] = xtws.T
    lhs.flat[:: 2 * k + 1] += 1.0
    ztx = np.concatenate((xtx, -xtws.T))
    try:
        s = solve_square(lhs, ztx)
    except SingularMatrixError as exc:
        raise RetractionFailedError(
            f"Cayley solve failed at step scale {scale!r}: {exc}"
        ) from exc
    return StiefelPoint(x + 2.0 * (u @ s))


def geodesic_retract(base: StiefelPoint, w: DualTangentVector, t: float) -> StiefelPoint:
    """Exact geodesic of the canonical metric: X(t) = expm(t B) X with
    B = W X^T - X W^T.

    B is skew with rank <= 2k and vanishes off span([X, W]), so the
    exponential is computed on an orthonormal frame of that subspace:
    expm(t B) X = X + Q (expm(t B~) - I) Q^T X with B~ = Q^T B Q of size
    at most 2k x 2k.
    """
    x = base.x
    wm = w.w
    # frame: X plus an orthonormal completion of W's component off X,
    # re-projected once for safety before factoring
    w_perp = wm - x @ (x.T @ wm)
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
    return StiefelPoint(x + q @ (e @ b))


def retract_inverse(base: StiefelPoint, target: StiefelPoint) -> DualTangentVector:
    """Solve R(X, raise(V)) = Y for the dual vector V at X.

    The closed form is V = 2 Y (I + X^T Y)^{-1}, unique up to X S for
    symmetric S; the returned vector is its projection onto the dual
    tangent space. Raises InverseRetractionFailedError when I + X^T Y is
    singular to working precision (points too far apart).

    V is formed as Y (2 M^{-1}), M = I + X^T Y: one k x k solve against the
    identity, then one n x k product. Solving M^T Z = Y^T against all n
    rows of Y costs LAPACK about 4x this whole path at n = 1000, k = 10.
    """
    x, y = base.x, target.x
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    eye = np.eye(base.k)
    m = eye + x.T @ y
    try:
        v = y @ (2.0 * solve_square(m, eye))
    except SingularMatrixError as exc:
        raise InverseRetractionFailedError(
            "I + X^T Y is singular; points are too far apart"
        ) from exc
    return project_dual(base, v)


def lerp(base: StiefelPoint, target: StiefelPoint, alpha: float) -> StiefelPoint:
    """Point alpha of the way from base to target along the Cayley curve.

    alpha = 0 gives base, alpha = 1 recovers target; alpha outside [0, 1]
    extrapolates, which is how the momentum step is realized.
    """
    if alpha == 0.0:
        return base
    return cayley_retract(base, retract_inverse(base, target), alpha)
