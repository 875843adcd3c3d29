"""Minimal dense linear algebra surface used by the geometry and solvers.

Matrices are 2-D float64 numpy arrays. Every n x k (and n x 2k) array the
package makes is in column-major (Fortran) order; the small k x k and
2k x k blocks stay in the order numpy and LAPACK return them.
``as_matrix`` and ``as_vector`` turn caller input into checked, read-only
copies; ``read_only`` is the one place an array is frozen. ``identity``
and ``frobenius`` are ``np.eye`` and ``np.linalg.norm`` without their
per-call cost, for the small matrices of every pass, and ``inner`` is the
dot product of two n x k arrays of one layout, summed in memory order.
``qr_thin`` calls numpy's QR. ``solve_square`` calls LAPACK ``dgesv`` from
scipy's compiled LAPACK module, which ``_load_flapack`` loads without
running the ``scipy.linalg`` package import: that import costs more than
half of the package's start-up (it clones the numpy namespace), and this
one routine is all the solvers use of it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import RankDeficientError, SingularMatrixError

_EPS = np.finfo(np.float64).eps


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension, found and loaded without
    importing ``scipy`` or ``scipy.linalg``.

    The module is registered under its own name in ``sys.modules``, so a
    later import of ``scipy.linalg`` reuses it: ``scipy.linalg.lapack.dgesv``
    is then the very function object this module calls. Raises ImportError
    naming the directory searched when the extension is not there.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("stiefel_agd needs scipy", name="scipy")
    where = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        import scipy

        raise ImportError(f"no {name} extension in {os.pathsep.join(where)} "
                          f"(scipy {scipy.__version__})", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


dgesv = _load_flapack().dgesv


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate user input and return a read-only 2-D float64 copy of it,
    in column-major order.

    Raises ValueError if the input is not 2-D or contains NaN/Inf.
    """
    a = np.array(data, dtype=np.float64, order="F")
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
    a.setflags(write=False)
    return a


@functools.cache
def identity(k: int) -> np.ndarray:
    """The read-only k x k identity, one array per size shared by every
    caller (``np.eye`` costs more than the k x k arithmetic it feeds)."""
    return read_only(np.eye(k))


def frobenius(a: np.ndarray) -> float:
    """||a||_F, bit for bit ``np.linalg.norm(a)``: its own 2-D path (ravel
    in memory order, one dot product, sqrt) without its dispatch. NaN or
    inf for non-finite input."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> = sum of a * b for two arrays of one shape and one memory
    layout, summed in memory order: ``np.vdot`` without its copy of a
    column-major array into row-major order."""
    return float(a.ravel(order="K").dot(b.ravel(order="K")))


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
    # fails for a NaN pivot, and for a zero one (info > 0: x not solved);
    # in Python floats (numpy calls cost more than dgesv at m = 2), where
    # sorted() misplaces a NaN but the sum of |pivot|s is NaN if one is
    pivots = sorted(map(abs, lu.diagonal().tolist()))
    if math.isnan(sum(pivots)) or not pivots[0] > m * _EPS * max(pivots[-1], 1e-300):
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
