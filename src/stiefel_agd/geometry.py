"""Geometry of the Stiefel manifold under the canonical (quotient) metric.

Points are n x k matrices with orthonormal columns. Dual tangent vectors
at X are n x k matrices W with W^T X + X^T W = 0. Gradients and momentum
directions are carried as dual vectors throughout; a retraction steps
along the tangent vector raise(W) = (I + X X^T) W. Tangent vectors, the
index maps and the exact geodesic are test oracles in ``tests/reference.py``.

The Cayley retraction

    R(X, raise(W)) = (I - B/2)^{-1} (I + B/2) X,   B = W X^T - X W^T

is evaluated through the Sherman-Morrison-Woodbury identity so that only
a 2k x 2k system is ever solved:

    U = [W/2, X],  Z = [X, -W/2],  R = X + 2 U (I - Z^T U)^{-1} Z^T X.

For a step scale * W and h = scale / 2, the system [I - Z^T U | Z^T X]
is the quadratic pencil P0 + h P1 + h^2 P2 built from the k x k blocks
X^T X, X^T W and W^T W. Each n-row Gram block is formed once and reused:
X^T X by the point's check (``StiefelPoint.xtx``), X^T W by the vector's
check (``DualTangentVector.xtw``, also read by ``dual_metric``), and W^T W,
[W, X] and the pencil by the first retraction along the vector. Every
further line-search trial costs two scaled adds, one 2k x 2k solve and
one n x 2k product. The point it returns wraps that product without a
copy; its X^T X and orthonormality check are formed only if the point is
read as an iterate, so a rejected trial pays for neither. A dual vector
``project_dual`` builds is not copied or scanned either; its skew check
also rejects NaN and inf. For k >= 2, [W, X] is Fortran-ordered like the
2k x k solution LAPACK returns, which keeps numpy's product off BLAS's
slow transposed-packing path; packed GEMM does the same arithmetic in any
layout, so the bits do not change. At k = 1 the product is a
matrix-vector product that the layout does not speed up, and [W, X] stays
C-ordered.

A point's ``xtx``, ``orth_error`` and ``has_tiny`` and a vector's ``wx``
and ``pencil`` are made on first read and kept in the instance's
``__dict__`` by ``_cached``, a lock-free ``functools.cached_property``;
later reads are plain attribute lookups. Identity matrices come from
``linalg.identity``, one read-only array per size, and the pencil's fixed
part (its identity blocks, where the other blocks go and their signs) from
``_pencil_layout``, once per rank k. The two Frobenius norms of the checks
are ``linalg.frobenius``, numpy's own 2-D ``norm`` path with the same
bits.

Subnormal floats are kept out of the trial arithmetic. On a diagonal
operator the rows of X off the answer's support decay geometrically, and
a long gradient-descent run would otherwise compute with numbers below
2^-1022, each of which costs the SIMD units a microcode assist. So when a
Cayley retraction's base point has an entry of magnitude below ``TINY`` =
sqrt(smallest normal) = 2^-511 (``StiefelPoint.has_tiny``, one
elementwise pass on first read), every entry of its output below ``TINY``
is set to 0.0; this covers line-search trials and ``lerp``'s output. The
product of two entries at or above 2^-511 is still a normal number, and
an entry below it is far below anything the solver resolves. A base
without such an entry gets its output bit for bit, and points the caller
builds are never changed. The price: on a diagonal operator a zeroed row
stays zero, so a start whose component along the answer lies below
2^-511 stays trapped there (without the snap, below 2^-1074).

The Cayley retraction is invertible in closed form: R(X, raise(V)) = Y is
solved by V = 2 Y (I + X^T Y)^{-1} followed by projection onto the dual
tangent space, which enables interpolation and extrapolation along the
retraction curve through two points. Where only the pairing of a dual
vector with that inverse is needed, ``dual_metric_inverse`` computes it
from k x k blocks without forming V.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InverseRetractionFailedError,
    RetractionFailedError,
    SingularMatrixError,
)
from .linalg import as_matrix, frobenius, identity, qr_thin, read_only, solve_square

#: sqrt(smallest normal float64) = 2^-511 ~ 1.49e-154. A Cayley retraction
#: from a base with an entry below it sets its output's entries below it
#: to 0.0 (see the module docstring).
TINY = math.sqrt(np.finfo(np.float64).smallest_normal)

#: Construction-time tolerance for the orthonormality / skewness invariants.
#: The bound is absolute, whatever the size of what it checks, so rounding
#: alone can exceed it on a large gradient: Brockett ``quadratic:3162`` with
#: k = 10 and optimal weights raises at the first ``value_and_gradient``
#: from most random starts (skew up to 3.8e-8). Scaling it by that size is
#: ROADMAP item 1.
INVARIANT_TOL = 1e-8


class _cached:
    """A method read as an attribute, computed on first read and stored in
    the instance's ``__dict__``, where later reads find it without calling
    this descriptor: ``functools.cached_property`` without the lock it takes
    on every first read before Python 3.12. A concurrent first read may
    compute the value twice; both results are equal."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A point on the Stiefel manifold: n x k matrix, orthonormal columns.

    ``orth_error`` (||x^T x - I||_F, the drift solvers report) and ``xtx``
    (the read-only x^T x, read by the Cayley pencil of every dual vector at
    this point and by ``dual_metric_inverse``) are formed on first read and
    cached. Reading ``orth_error`` is the orthonormality check: it raises
    ValueError above ``INVARIANT_TOL`` or for NaN. The constructor copies
    and checks its input at once; a point a retraction returns wraps its
    fresh array and is checked when the solvers keep it as an iterate or
    look-ahead point, so a rejected line-search trial is never checked.
    ``has_tiny`` (some entry has |x| < ``TINY``, zeros included) is formed
    on first read by one elementwise pass and cached.
    """

    x: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, "stiefel point")
        n, k = x.shape
        if k > n:
            raise ValueError(f"need k <= n, got shape {x.shape}")
        object.__setattr__(self, "x", x)
        self.orth_error  # the check: raises ValueError

    @classmethod
    def _unchecked(cls, x: np.ndarray) -> StiefelPoint:
        """Wrap ``x``, a fresh C-ordered n x k array no one else holds, as
        a read-only point without copying or checking it."""
        p = object.__new__(cls)
        p.__dict__["x"] = read_only(x)
        return p

    @_cached
    def xtx(self) -> np.ndarray:
        return read_only(self.x.T @ self.x)

    @_cached
    def has_tiny(self) -> bool:
        return bool(np.abs(self.x).min() < TINY)

    @_cached
    def orth_error(self) -> float:
        err = frobenius(self.xtx - identity(self.x.shape[1]))
        if not err <= INVARIANT_TOL:
            raise ValueError(
                f"columns are not orthonormal: ||x^T x - I||_F = {err:.3e}"
            )
        return err

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


def _check_base(p: StiefelPoint, q: StiefelPoint) -> None:
    """Raise unless ``p`` and ``q`` are one base point: the same object,
    or equal arrays."""
    if p is not q and not np.array_equal(p.x, q.x):
        raise ValueError("vectors live at different base points")


def _tangent_array(a, base: StiefelPoint, space: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as a read-only copy in the (dual) tangent space at ``base``,
    and the read-only x^T a that the check forms."""
    a = as_matrix(a, f"{space} vector")
    if a.shape != base.x.shape:
        raise ValueError(f"shape {a.shape} does not match base {base.x.shape}")
    return a, _check_tangent(a, base, space)


def _check_tangent(a: np.ndarray, base: StiefelPoint, space: str) -> np.ndarray:
    """The read-only x^T a; raises ValueError unless a is in the (dual)
    tangent space at ``base``, as any NaN or inf entry makes it not."""
    xta = base.x.T @ a
    skew = frobenius(xta + xta.T)
    if not skew <= INVARIANT_TOL:
        if not math.isfinite(skew):
            raise ValueError(f"{space} vector contains non-finite entries")
        raise ValueError(
            f"not in the {space} space: ||a^T x + x^T a||_F = {skew:.3e}"
        )
    return read_only(xta)


@dataclass(frozen=True, eq=False)
class DualTangentVector:
    """Dual tangent vector w at ``base``: w^T x + x^T w = 0.

    ``xtw`` is the read-only x^T w that the check forms, read by
    ``dual_metric`` and ``dual_metric_inverse``. ``wx`` ([w, x])
    and ``pencil`` are formed, read-only, on first use by
    ``cayley_retract``.
    """

    w: np.ndarray
    base: StiefelPoint
    xtw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w, xtw = _tangent_array(self.w, self.base, "dual tangent")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "xtw", xtw)

    @classmethod
    def _fresh(cls, w: np.ndarray, base: StiefelPoint) -> DualTangentVector:
        """Wrap ``w``, a fresh C-ordered n x k array no one else holds, as
        a read-only vector at ``base``: no copy and no finiteness scan, but
        the skew check and its x^T w, as in the constructor."""
        v = object.__new__(cls)
        v.__dict__.update(w=read_only(w), base=base,
                          xtw=_check_tangent(w, base, "dual tangent"))
        return v

    @_cached
    def wx(self) -> np.ndarray:
        x = self.base.x
        k = x.shape[1]
        wx = np.empty((x.shape[0], 2 * k), order="F" if k > 1 else "C")
        wx[:, :k] = self.w
        wx[:, k:] = x
        return read_only(wx)

    @_cached
    def pencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """P0, P1, P2 (each 2k x 3k, read-only views of one array): the
        Cayley system [I - Z^T U | Z^T X] of the step scale * w is
        P0 + h P1 + h^2 P2 with h = scale / 2, that is

            [[I - h B, -Q,      Q     ],
             [h^2 G,   I + h B^T, -h B^T]]

        with Q = x^T x, B = x^T w and G = w^T w: a copy of
        ``_pencil_layout``'s identity blocks, with the other six blocks
        put in one call."""
        eyes, where, signs = _pencil_layout(self.w.shape[1])
        b = self.xtw
        blocks = np.array([self.base.xtx, self.base.xtx, b, b.T, b.T,
                           self.w.T @ self.w])
        blocks *= signs
        p = eyes.copy()
        p.put(where, blocks)
        return tuple(read_only(p))


@functools.cache
def _pencil_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed part of the 3 x 2k x 3k Cayley pencil at rank k: the
    array holding only its identity blocks, the flat indices of its
    blocks -Q, Q, -B, B^T, -B^T and G (each k x k, row-major, in that
    order) and the signs (6 x 1 x 1) that make Q, Q, B, B^T, B^T, G those
    blocks; -1.0 * v is -v exactly. All read-only and shared."""
    eyes = np.zeros((3, 2 * k, 3 * k))
    eyes[0, :, : 2 * k] = identity(2 * k)
    flat = np.arange(eyes.size).reshape(eyes.shape)
    where = np.array([flat[0, :k, k : 2 * k], flat[0, :k, 2 * k :],
                      flat[1, :k, :k], flat[1, k:, k : 2 * k],
                      flat[1, k:, 2 * k :], flat[2, k:, :k]])
    signs = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])[:, None, None]
    return read_only(eyes), read_only(where), read_only(signs)


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

    Idempotent; dual tangent vectors are exactly its fixed points. Raises
    ValueError if ``raw`` or the projection is not finite.
    """
    w = np.asarray(raw, dtype=np.float64)
    x = base.x
    if w.shape != x.shape:
        raise ValueError(f"shape {w.shape} does not match base {x.shape}")
    xtw = x.T @ w
    return DualTangentVector._fresh(w - 0.5 * (x @ (xtw + xtw.T)), base)


def dual_metric(w1: DualTangentVector, w2: DualTangentVector) -> float:
    """Induced inner product on dual vectors: Tr(w1^T (I + X X^T) w2)."""
    _check_base(w1.base, w2.base)
    return float(np.vdot(w1.w, w2.w) + np.vdot(w1.xtw, w2.xtw))


def dual_norm(w: DualTangentVector) -> float:
    """Norm induced by ``dual_metric``."""
    return math.sqrt(dual_metric(w, w))


def cayley_retract(w: DualTangentVector, scale: float) -> StiefelPoint:
    """Cayley retraction of scale * w from ``w.base``, via a single
    2k x 2k solve.

    scale = 0 returns the base point exactly. The underlying n x n Cayley
    matrix is nonsingular for every skew generator, so failures of the
    reduced solve only occur for pathologically large steps; they surface
    as RetractionFailedError. The system is w's pencil at h = scale / 2,
    and 2 U S = [W, X] [scale S_top; 2 S_bottom].

    If the base has an entry below ``TINY`` = 2^-511 (``base.has_tiny``),
    the output's entries below ``TINY`` are set to 0.0: products of
    entries at or above it are normal floats, so no subnormal reaches the
    trials and gradients that follow. A base without such an entry gets
    the output bit for bit. On a diagonal operator a zeroed row stays
    zero, so a start whose component along the answer lies below 2^-511
    cannot recover it.
    """
    base = w.base
    if scale == 0.0:
        return base
    k = w.w.shape[1]
    h = 0.5 * scale
    p0, p1, p2 = w.pencil
    system = p2 * h
    system += p1
    system *= h
    system += p0
    try:
        s = solve_square(system[:, : 2 * k], system[:, 2 * k :])
    except SingularMatrixError as exc:
        raise RetractionFailedError(
            f"Cayley solve failed at step scale {scale!r}: {exc}"
        ) from exc
    s *= np.array([scale] * k + [2.0] * k)[:, None]
    r = w.wx @ s
    r += base.x
    if base.has_tiny:
        _snap_tiny(r)
    return StiefelPoint._unchecked(r)


def _snap_tiny(r: np.ndarray) -> None:
    """Set every entry of ``r`` with |r| < ``TINY`` to +0.0, in place."""
    np.putmask(r, np.abs(r) < TINY, 0.0)


def _inverse_factor(base: StiefelPoint, target: StiefelPoint) -> tuple[np.ndarray, np.ndarray]:
    """X^T Y and C = 2 (I + X^T Y)^{-1} for X = base, Y = target: one k x k
    solve against the identity. Raises InverseRetractionFailedError when
    I + X^T Y is singular to working precision."""
    x, y = base.x, target.x
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    eye = identity(x.shape[1])
    xty = x.T @ y
    try:
        return xty, 2.0 * solve_square(eye + xty, eye)
    except SingularMatrixError as exc:
        raise InverseRetractionFailedError(
            "I + X^T Y is singular; points are too far apart"
        ) from exc


def retract_inverse(base: StiefelPoint, target: StiefelPoint) -> DualTangentVector:
    """Solve R(X, raise(V)) = Y for the dual vector V at X.

    The closed form is V = 2 Y (I + X^T Y)^{-1}, unique up to X S for
    symmetric S; the returned vector is its projection onto the dual
    tangent space. Raises InverseRetractionFailedError when I + X^T Y is
    singular to working precision (points too far apart).

    V is formed as Y (2 M^{-1}), M = I + X^T Y: one k x k solve against the
    identity, then one n x k product. Solving M^T Z = Y^T against all n
    rows of Y costs LAPACK about 4x this whole path at n = 1000, k = 10.
    A C-ordered copy of the Fortran-ordered factor makes that product
    faster with the same bits.
    """
    _, c = _inverse_factor(base, target)
    return project_dual(base, target.x @ np.ascontiguousarray(c))


def dual_metric_inverse(w: DualTangentVector, target: StiefelPoint) -> float:
    """<w, retract_inverse(X, target)>_{g*} at X = w.base, from k x k blocks.

    With Y = target, C = 2 (I + X^T Y)^{-1}, P = X^T Y C and
    A = -(P + P^T) / 2, the projected inverse is V = Y C + X A, so

        <W, V>_{g*} = <Y^T W, C> + <X^T W, A> + <X^T W, P + X^T X A>.

    Two n-row products (X^T Y and Y^T W) instead of forming, projecting and
    checking V; X^T W and X^T X are the cached ``w.xtw`` and
    ``w.base.xtx``. Raises InverseRetractionFailedError as
    ``retract_inverse`` does.
    """
    xty, c = _inverse_factor(w.base, target)
    p = xty @ c
    a = -0.5 * (p + p.T)
    xtw = w.xtw
    return float(
        np.vdot(target.x.T @ w.w, c)
        + np.vdot(xtw, a)
        + np.vdot(xtw, p + w.base.xtx @ a)
    )


def lerp(base: StiefelPoint, target: StiefelPoint, alpha: float) -> StiefelPoint:
    """Point alpha of the way from base to target along the Cayley curve.

    alpha = 0 gives base, alpha = 1 recovers target; alpha outside [0, 1]
    extrapolates, which is how the momentum step is realized.
    """
    if alpha == 0.0:
        return base
    return cayley_retract(retract_inverse(base, target), alpha)
