"""Geometry of the Stiefel manifold under the canonical (quotient) metric.

Points are n x k matrices with orthonormal columns. Dual tangent vectors
at X are n x k matrices W with W^T X + X^T W = 0. Gradients and momentum
directions are carried as dual vectors throughout; a retraction steps
along the tangent vector raise(W) = (I + X X^T) W. Tangent vectors, the
index maps and the exact geodesic are test oracles in ``tests/reference.py``.

The Cayley retraction

    R(X, raise(W)) = (I - B/2)^{-1} (I + B/2) X,   B = W X^T - X W^T

is evaluated through the Sherman-Morrison-Woodbury identity so that only
a 2k x 2k system is ever solved. For a step scale * W and h = scale / 2,

    R = X + [W, X] (scale Y),   (I + h K) Y = N,
    K = [[-B, -Q], [G, B^T]],   N = [Q; -B^T],

with the k x k blocks Q = X^T X, B = X^T W and G = W^T W. This is

    R = X + 2 U (I - Z^T U)^{-1} Z^T X,   U = [hW, X],  Z = [X, -hW],

whose system is quadratic in h, after its lower block row and its lower
half of unknowns are divided by h. Each n-row Gram block is formed once and
reused: X^T X by the point's check (``StiefelPoint.xtx``), X^T W by the
vector's check (``DualTangentVector.xtw``, also read by ``dual_metric``),
and W^T W, [W, X] and [K | N] by the first retraction along the vector.
Every further line-search trial costs one scaled add (I + h K), one
2k x 2k solve, one scale of its 2k x k solution and one n x 2k product. The
point it returns wraps that product without a copy; its X^T X and
orthonormality check are formed only if the point is read as an iterate,
so a rejected trial pays for neither. A dual vector ``project_dual``
builds is not copied or scanned either; its skew check also rejects NaN
and inf. For k >= 2, [W, X] is Fortran-ordered like the 2k x k solution
LAPACK returns, which keeps numpy's product off BLAS's slow
transposed-packing path; packed GEMM does the same arithmetic in any
layout, so the bits do not change. At k = 1 the product is a
matrix-vector product that the layout does not speed up, and [W, X] stays
C-ordered.

A point's ``xtx``, ``orth_error`` and ``has_tiny`` and a vector's ``wx``
and ``system`` are made on first read and kept in the instance's
``__dict__`` by ``_cached``, a lock-free ``functools.cached_property``;
later reads are plain attribute lookups. Identity matrices come from
``linalg.identity``, one read-only array per size. The two Frobenius
norms of the checks are ``linalg.frobenius``, numpy's own 2-D ``norm``
path with the same bits.

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
solved by V = 2 Y (I + X^T Y)^{-1} projected onto the dual tangent space,
which enables interpolation and extrapolation along the retraction curve
through two points. The package holds V in one form only, as k x k
coordinates in the basis [X, D], D = Y - X (``_inverse_coords``): on a
short step they are O(||D||), so V is never the difference of two O(1)
terms. The solvers never form V. ``lerp``, the momentum step, retracts
along it from k x k blocks and one n x 2k product; ``dual_metric_inverse``,
the gradient restart's pairing of a dual vector with V, reads it from
k x k blocks. ``retract_inverse`` forms V as an n x k dual vector.
"""

from __future__ import annotations

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
    (the read-only x^T x, read by the Cayley system of every dual vector at
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
    and ``system`` ([K | N]) are formed, read-only, on first use by
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
    def system(self) -> np.ndarray:
        """[K | N] of the Cayley system of the step scale * w (see
        ``_cayley_system``), read-only, with B = x^T w and G = w^T w."""
        return read_only(_cayley_system(self.base.xtx, self.xtw, self.w.T @ self.w))


def _cayley_system(q: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[K | N] (2k x 3k): the Cayley step scale * v from x is
    x + [v, x] (scale Y) for the solution Y of (I + h K) Y = N at
    h = scale / 2, with

        K = [[-B, -Q], [G, B^T]],   N = [Q; -B^T],

    Q = x^T x, B = x^T v and G = v^T v."""
    k = q.shape[0]
    kn = np.empty((2 * k, 3 * k))
    np.negative(b, out=kn[:k, :k])
    np.negative(q, out=kn[:k, k : 2 * k])
    kn[:k, 2 * k :] = q
    kn[k:, :k] = g
    kn[k:, k : 2 * k] = b.T
    np.negative(b.T, out=kn[k:, 2 * k :])
    return kn


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
    d = x @ (0.5 * (xtw + xtw.T))  # halving is exact: the bits of 0.5 (x @ ...)
    np.subtract(w, d, out=d)
    return DualTangentVector._fresh(d, base)


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
    matrix is nonsingular for every skew generator, and so is the reduced
    system I + h K of w's [K | N] at h = scale / 2. Its solve fails for a
    non-finite scale, and in floating point at most for extreme finite
    ones (a gradient of dual norm 28 was retracted at scales from 1e6 to
    1e20); a failure surfaces as RetractionFailedError.

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
    r = w.wx @ _cayley_solve(w.system, scale)
    r += base.x
    if base.has_tiny:
        _snap_tiny(r)
    return StiefelPoint._unchecked(r)


def _cayley_solve(kn: np.ndarray, scale: float) -> np.ndarray:
    """scale * Y (2k x k) for the solution Y of the Cayley system
    ``kn`` = [K | N] (see ``_cayley_system``) at h = scale / 2. Raises
    RetractionFailedError when the 2k x 2k solve fails."""
    m = kn.shape[0]
    system = kn[:, :m] * (0.5 * scale)
    system += identity(m)
    try:
        y = solve_square(system, kn[:, m:])
    except SingularMatrixError as exc:
        raise RetractionFailedError(
            f"Cayley solve failed at step scale {scale!r}: {exc}"
        ) from exc
    y *= scale
    return y


def _snap_tiny(r: np.ndarray) -> None:
    """Set every entry of ``r`` with |r| < ``TINY`` to +0.0, in place."""
    np.putmask(r, np.abs(r) < TINY, 0.0)


def _inverse_coords(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """[a; b] (2k x k): the projected inverse V of the Cayley retraction
    from X to Y = X + D is X a + D b, with Q = X^T X, E = X^T D and K
    from (I + Q + E) K = (I - Q) - E, a = (3K + K^T) / 2 and b = I + K.
    K is C - I for C = 2 (I + X^T Y)^{-1} and holds no cancellation: it
    is O(||D||), and a symmetric rounding of Q moves only a's symmetric
    part. Raises InverseRetractionFailedError when I + X^T Y = I + Q + E
    is singular to working precision (points too far apart)."""
    k = q.shape[0]
    eye = identity(k)
    try:
        kk = solve_square(eye + q + e, (eye - q) - e)
    except SingularMatrixError as exc:
        raise InverseRetractionFailedError(
            "I + X^T Y is singular; points are too far apart"
        ) from exc
    ab = np.empty((2 * k, k))
    a = ab[:k]
    np.multiply(kk, 1.5, out=a)
    a += 0.5 * kk.T
    np.add(eye, kk, out=ab[k:])
    return ab


def retract_inverse(base: StiefelPoint, target: StiefelPoint) -> DualTangentVector:
    """Solve R(X, raise(V)) = Y for the dual vector V at X.

    The closed form is V = 2 Y (I + X^T Y)^{-1}, unique up to X S for
    symmetric S; the returned vector is its projection onto the dual
    tangent space, which [X, D] [a; b] is in exact arithmetic, with
    D = Y - X and [a; b] from ``_inverse_coords``. Raises
    InverseRetractionFailedError when I + X^T Y is singular to working
    precision (points too far apart). No solver calls it.
    """
    x, y = base.x, target.x
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    k = x.shape[1]
    d = y - x
    ab = _inverse_coords(base.xtx, x.T @ d)
    return DualTangentVector._fresh(x @ ab[:k] + d @ ab[k:], base)


def dual_metric_inverse(w: DualTangentVector, target: StiefelPoint) -> float:
    """<w, retract_inverse(Y, target)>_{g*} at Y = w.base, from k x k blocks.

    With X = target, D = X - Y and [a; b] from ``_inverse_coords`` at
    Q = Y^T Y and E = Y^T D, the projected inverse is V = Y a + D b, so

        <W, V>_{g*} = <Y^T W, a + Q a + E b> + <D^T W, b>.

    Y^T W and Q are the cached ``w.xtw`` and ``w.base.xtx``; W^T D and E
    come from the one n-row product [W, Y]^T D with the cached ``w.wx``.
    No dual vector is formed. Raises InverseRetractionFailedError as
    ``retract_inverse`` does.
    """
    y, x = w.base.x, target.x
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    k = x.shape[1]
    wd = w.wx.T @ (x - y)  # [W^T D; E]
    q, e = w.base.xtx, wd[k:]
    ab = _inverse_coords(q, e)
    a, b = ab[:k], ab[k:]
    return float(np.vdot(w.xtw, a + q @ a + e @ b) + np.vdot(wd[:k].T, b))


def lerp(base: StiefelPoint, target: StiefelPoint, alpha: float) -> StiefelPoint:
    """Point alpha of the way from base to target along the Cayley curve:
    ``cayley_retract(retract_inverse(base, target), alpha)`` in exact
    arithmetic, formed in the coordinates of [X, D], D = Y - X.

    alpha = 0 gives base, alpha = 1 recovers target; alpha outside [0, 1]
    extrapolates, which is how the momentum step is realized.

    With Q = X^T X and E = X^T D, the projected inverse is V = X a + D b
    with [a; b] from ``_inverse_coords``. So B = X^T V = Q a + E b and
    G = V^T V = a^T X^T V + b^T (E^T a + D^T D b) come from k x k blocks,
    and the step is X + [X, D] [a (alpha Y_top) + alpha Y_bottom;
    b (alpha Y_top)] with Y the Cayley system's solution at h = alpha / 2
    (see ``_cayley_system``). The n-row products are [X, D]^T D (E and
    D^T D) and that one n x 2k product; Q is the base's cached ``xtx``.
    No dual vector is formed.

    Raises InverseRetractionFailedError when I + X^T Y is singular to
    working precision (points too far apart), and RetractionFailedError
    when the Cayley solve fails. The output is snapped as in
    ``cayley_retract``.
    """
    if alpha == 0.0:
        return base
    x, y = base.x, target.x
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n, k = x.shape
    xd = np.empty((n, 2 * k), order="F")
    xd[:, :k] = x
    d = xd[:, k:]
    np.subtract(y, x, out=d)
    q = base.xtx
    gram = np.empty((2 * k, 2 * k))  # [X, D]^T [X, D]
    gram[:k, :k] = q
    gram[:, k:] = xd.T @ d
    e = gram[:k, k:]
    gram[k:, :k] = e.T
    ab = _inverse_coords(q, e)
    gab = gram @ ab  # [X^T V; D^T V]
    s = _cayley_solve(_cayley_system(q, gab[:k], ab.T @ gab), alpha)
    coef = ab @ s[:k]
    coef[:k] += s[k:]
    r = xd @ coef
    r += x
    if base.has_tiny:
        _snap_tiny(r)
    return StiefelPoint._unchecked(r)
