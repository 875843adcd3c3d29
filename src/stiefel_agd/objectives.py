"""Weighted quadratic objectives on the Stiefel manifold.

The Brockett cost

    f(X) = (1/2) sum_i alpha_i <x_i, A x_i>,    0 < alpha_1 < ... < alpha_k,

with A symmetric, is minimized by the k eigenvectors of A belonging to the
smallest eigenvalues, ordered so that the largest weight sits on the
smallest eigenvalue. k = 1 with alpha = (1,) is the Rayleigh quotient on
the sphere. The strictly increasing weights pin the minimizer to actual
eigenvectors instead of an orthogonal mixture of them.

The value is read from the Euclidean gradient G = A X diag(alpha) that
the gradient needs anyway, as f = <X, G> / 2 in one BLAS dot. The
function restart compares f with decreases as small as
c_R gamma ||grad f||^2, so its rounding matters: with the OpenBLAS that
numpy bundles, the dot's relative error at random points of size
316 x 10 and 1000 x 10 stayed below eps.

This module also provides the condition number of the cost's Hessian at
the minimizer as a function of the spectrum and weights, the weights that
minimize that condition number, and the exact minimum value used as an
oracle in tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, NotSymmetricError
from .geometry import DualTangentVector, StiefelPoint, project_dual
from .linalg import as_matrix, as_vector, read_only


@dataclass(frozen=True, eq=False)
class SpectrumInfo:
    """Ascending eigenvalues of the symmetric operator."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = as_vector(self.eigenvalues, "eigenvalues")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Diagonal symmetric operator; the fast path used in the experiments.
    ``apply`` multiplies by an n x k tile of the values, cached per k: the
    products of broadcasting ``values[:, None]``, in fewer numpy loops."""

    values: np.ndarray
    _tiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", as_vector(self.values, "diagonal values"))

    @property
    def n(self) -> int:
        return self.values.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        k = x.shape[1]
        tile = self._tiles.get(k)
        if tile is None:
            tile = self._tiles[k] = read_only(np.repeat(self.values[:, None], k, axis=1))
        return tile * x


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense symmetric operator (symmetry checked on construction)."""

    a: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "operator")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"operator must be square, got {a.shape}")
        norm = np.linalg.norm(a)
        if np.linalg.norm(a - a.T) > 1e-12 * max(norm, 1e-300):
            raise NotSymmetricError("operator matrix is not symmetric")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x


class ValueRecord(NamedTuple):
    """f and the Euclidean gradient G = A X diag(alpha) at one point."""

    value: float
    egrad: np.ndarray


class EvalResult(NamedTuple):
    """Value and dual-tangent gradient at a point."""

    value: float
    grad: DualTangentVector


def _as_weights(weights) -> np.ndarray:
    """``weights`` as a read-only vector, positive and strictly increasing."""
    w = as_vector(weights, "weights")
    if w[0] <= 0.0 or np.any(np.diff(w) <= 0):
        raise ValueError("weights must be positive and strictly increasing")
    return w


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """A weighted quadratic objective: symmetric operator plus weights.

    ``value`` forms the Euclidean gradient G = A X diag(alpha), multiplying
    A X by an n x k tile of the weights built once, like the diagonal
    operator, and returns f = <X, G> / 2 and G as a ``ValueRecord``;
    ``value_and_gradient`` handed that record for the same point applies
    nothing and only projects G. No field changes after construction.
    """

    operator: DiagonalOperator | DenseOperator
    weights: np.ndarray
    _weight_tile: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = _as_weights(self.weights)
        if w.size > self.operator.n:
            raise ValueError("more weights than operator dimensions")
        object.__setattr__(self, "weights", w)
        tile = np.repeat(w[None, :], self.operator.n, axis=0)
        object.__setattr__(self, "_weight_tile", read_only(tile))

    @property
    def n(self) -> int:
        return self.operator.n

    @property
    def k(self) -> int:
        return self.weights.size

    def value(self, x: StiefelPoint) -> ValueRecord:
        """f and the Euclidean gradient G = A X diag(alpha) at ``x``; one
        operator application."""
        a = x.x
        if a.shape != self._weight_tile.shape:  # (n, k)
            raise ValueError(
                f"point shape {a.shape} does not match objective "
                f"({self.n}, {self.k})"
            )
        g = self.operator.apply(a)  # a fresh array
        g *= self._weight_tile
        return ValueRecord(0.5 * float(np.vdot(a, g)), g)

    _evaluate = value  # value_and_gradient's entry, untouched when ``value`` is wrapped

    def value_and_gradient(self, x: StiefelPoint, known: ValueRecord | None = None) -> EvalResult:
        """Value and dual-tangent gradient; one operator application, none
        if ``known`` is given: the record ``value(x)`` returned.

        The Euclidean gradient of the half-weighted quadratic is
        A X diag(alpha); the dual gradient is its projection onto the
        dual tangent space at X. Raises ValueError if it is not finite.
        """
        value, g = self._evaluate(x) if known is None else known
        return EvalResult(value, project_dual(x, g))


def sphere_condition_number(spectrum: SpectrumInfo) -> float:
    """Condition number of the Rayleigh quotient's Hessian at its
    minimizer: (lambda_n - lambda_1) / (lambda_2 - lambda_1), the Brockett
    one at k = 1."""
    return brockett_condition_number(spectrum, (1.0,))


def brockett_condition_number(spectrum: SpectrumInfo, weights) -> float:
    """Condition number of the Brockett cost's Hessian at the minimizer.

        kappa = alpha_k (lambda_n - lambda_1) /
                min{ alpha_1 (lambda_{k+1} - lambda_k),
                     min_{i<k} (lambda_{k-i+1} - lambda_{k-i})(alpha_{i+1} - alpha_i) }

    At k = 1 with alpha = (1,) this is sphere_condition_number.
    """
    lam = spectrum.eigenvalues
    alpha = _as_weights(weights)
    k = alpha.size
    if lam.size < k + 1:
        raise ValueError("need at least k + 1 eigenvalues")
    terms = [alpha[0] * (lam[k] - lam[k - 1])]
    for i in range(1, k):
        terms.append((lam[k - i] - lam[k - i - 1]) * (alpha[i] - alpha[i - 1]))
    denom = min(terms)
    if denom <= 0.0:
        raise DegenerateSpectrumError("zero gap in the spectrum")
    return float(alpha[-1] * (lam[-1] - lam[0]) / denom)


def optimal_condition_number(spectrum: SpectrumInfo, k: int) -> float:
    """Smallest Hessian condition number achievable by any weight choice:
    (lambda_n - lambda_1) * sum_{i<=k} 1/(lambda_{i+1} - lambda_i)."""
    lam = spectrum.eigenvalues
    return float((lam[-1] - lam[0]) * np.sum(1.0 / _leading_gaps(spectrum, k)))


def optimal_weights(spectrum: SpectrumInfo, k: int) -> np.ndarray:
    """Weights attaining the optimal condition number.

    alpha_i accumulates the reciprocal gaps from the top of the occupied
    block downward:

        alpha_i = sum_{j=1..i} 1/(lambda_{k-j+2} - lambda_{k-j+1}),

    so alpha_1 = 1/(lambda_{k+1} - lambda_k) and every term of the
    condition number's denominator equals 1. Any positive multiple works;
    this normalization is the one returned. For lambda_i = i this is
    alpha_i = i.
    """
    return np.cumsum(1.0 / _leading_gaps(spectrum, k)[::-1])


def _leading_gaps(spectrum: SpectrumInfo, k: int) -> np.ndarray:
    """lambda_{i+1} - lambda_i for i = 1..k, all positive."""
    lam = spectrum.eigenvalues
    if not 1 <= k <= lam.size - 1:
        raise ValueError(f"need 1 <= k <= n - 1, got k={k}, n={lam.size}")
    gaps = np.diff(lam[: k + 1])
    if np.any(gaps <= 0.0):
        raise DegenerateSpectrumError("zero gap among the leading eigenvalues")
    return gaps


def known_minimum(spectrum: SpectrumInfo, weights) -> float:
    """Exact minimum of the Brockett cost for a given spectrum and weights.

    The minimizer occupies the k smallest eigenvalues with the weights in
    opposite order (largest weight on the smallest eigenvalue), so the
    value is (1/2) sum_i alpha_i lambda_{k+1-i}.
    """
    lam = spectrum.eigenvalues
    alpha = _as_weights(weights)
    k = alpha.size
    if lam.size < k:
        raise ValueError("need at least k eigenvalues")
    return 0.5 * float(np.dot(alpha, lam[:k][::-1]))


def parse_spectrum(text: str) -> SpectrumInfo:
    """Parse a spectrum specifier.

    Forms:
        linear:N     eigenvalues 1, 2, ..., N
        quadratic:N  eigenvalues i^2/N for i = 1..N
        file:PATH    ascending reals, one per line
    """
    kind, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"invalid spectrum specifier {text!r}: missing ':'")
    if kind == "linear":
        n = _parse_size(arg, text)
        return SpectrumInfo(np.arange(1, n + 1, dtype=np.float64))
    if kind == "quadratic":
        n = _parse_size(arg, text)
        i = np.arange(1, n + 1, dtype=np.float64)
        return SpectrumInfo(i * i / n)
    if kind == "file":
        values = np.loadtxt(Path(arg), dtype=np.float64, ndmin=2)
        if values.shape[1] != 1:
            raise ValueError(
                f"spectrum file {arg!r} must hold one value per line, "
                f"got shape {values.shape}"
            )
        return SpectrumInfo(values[:, 0])
    raise ValueError(f"invalid spectrum specifier {text!r}: unknown kind {kind!r}")


def _parse_size(arg: str, full: str) -> int:
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"invalid spectrum specifier {full!r}: bad size {arg!r}")
    if n < 1:
        raise ValueError(f"invalid spectrum specifier {full!r}: size must be >= 1")
    return n


def make_objective(spectrum: SpectrumInfo, weights) -> ObjectiveSpec:
    """Diagonal-operator objective with the given spectrum and weights."""
    return ObjectiveSpec(DiagonalOperator(spectrum.eigenvalues), weights)
