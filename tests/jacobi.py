"""Test oracle: a self-contained cyclic Jacobi eigensolver.

It uses no LAPACK eigensolver, so tests can check eigenvector-based
results against it independently of numpy/scipy.
"""

import numpy as np

from stiefel_agd.errors import NotSymmetricError


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
