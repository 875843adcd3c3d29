"""Minimal dense linear algebra surface used by the geometry and solvers.

Matrices are 2-D float64 numpy arrays in row-major (C) order throughout the
package. ``as_matrix`` and ``as_vector`` turn caller input into checked,
read-only copies; ``read_only`` is the one place an array is frozen.
``solve_square`` and ``qr_thin`` delegate to numpy/scipy (LAPACK) behind
this surface.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import RankDeficientError, SingularMatrixError

_EPS = np.finfo(np.float64).eps


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate user input and return a read-only 2-D float64 copy of it.

    Raises ValueError if the input is not 2-D or contains NaN/Inf.
    """
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return read_only(a)


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Validate user input and return a read-only 1-D float64 copy of it.

    Raises ValueError if the input is empty or contains NaN/Inf.
    """
    v = np.array(data, dtype=np.float64, order="C").reshape(-1)
    if v.size < 1 or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a non-empty finite vector")
    return read_only(v)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it."""
    a.flags.writeable = False
    return a


def solve_square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for square a via LU with partial pivoting.

    Intended for the small (k x k and 2k x 2k) systems that appear in the
    Cayley retraction and its inverse. Raises SingularMatrixError when a
    pivot is negligible relative to the largest one, i.e. the matrix is
    singular to working precision.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve_square needs a square matrix, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    m = a.shape[0]
    # LAPACK dgesv (dgetrf + dgetrs in one call) directly: the scipy
    # wrappers cost several times the solve at this size
    lu, _, x, info = dgesv(a, b)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgesv")
    # fails for a NaN pivot, and for a zero one (info > 0: x not solved)
    pivots = np.abs(lu.diagonal())
    if not pivots.min() > m * _EPS * max(pivots.max(), 1e-300):
        raise SingularMatrixError(
            f"{m}x{m} system is singular to working precision"
        )
    return x


def qr_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with the sign convention diag(r) >= 0.

    For an n x k input with n >= k returns q (n x k, orthonormal columns)
    and r (k x k, upper triangular, non-negative diagonal) with q @ r = a.
    Raises RankDeficientError when a column is numerically dependent.
    """
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError(f"qr_thin expects n x k with n >= k, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.diag(r)
    scale = max(np.abs(diag).max(), 1e-300)
    if np.any(np.abs(diag) <= a.shape[0] * _EPS * scale):
        raise RankDeficientError("input does not have full column rank")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs, signs[:, None] * r
