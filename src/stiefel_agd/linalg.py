"""Minimal dense linear algebra surface used by the geometry and solvers.

Matrices are 2-D float64 numpy arrays in row-major (C) order throughout the
package. ``solve_square`` and ``qr_thin`` delegate to numpy/scipy
(LAPACK) behind this surface; ``jacobi_eigh`` is a
self-contained cyclic Jacobi eigensolver kept around as an independent
oracle for test-scale symmetric problems.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NotSymmetricError, RankDeficientError, SingularMatrixError

_EPS = np.finfo(np.float64).eps


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and convert user input to a 2-D float64 array.

    Raises ValueError if the input is not 2-D or contains NaN/Inf.
    """
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
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
    # the LAPACK routines behind scipy.linalg.lu_factor/lu_solve, called
    # directly: the wrappers cost several times the solve at this size
    lu, piv, info = dgetrf(a)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgetrf")
    pivots = np.abs(np.diag(lu))
    if not np.all(pivots > m * _EPS * max(pivots.max(), 1e-300)):
        raise SingularMatrixError(
            f"{m}x{m} system is singular to working precision"
        )
    x, info = dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgetrs")
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
