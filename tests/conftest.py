"""Test-session setup: run BLAS on one thread unless the caller chose otherwise,
and fixtures shared by several test modules.

The solvers multiply n x k and n x 2k matrices with k <= 10, where BLAS
threads cost more than they save. On a 2-core machine with two other
busy processes, gradient descent on Brockett (316, 10) took 91 s with
OpenBLAS's default threads against 26 s on one thread; idle, one thread
is also the faster setting. Results are bit-identical either way. The
variables must be set before numpy is first imported, which is why they
live here rather than in a fixture.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline (their time varies with the
# machine's load). Hypothesis also caches the constants it finds in the
# source under its storage directory; a path below os.devnull cannot be
# created, so that cache is skipped and the run writes no files.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(os.devnull, "hypothesis")
)

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from stiefel_agd.objectives import DiagonalOperator, ObjectiveSpec  # noqa: E402

settings.register_profile(
    "stiefel-agd", derandomize=True, database=None, deadline=None
)
settings.load_profile("stiefel-agd")


class CountingOperator(DiagonalOperator):
    """A diagonal operator that counts its applications."""

    calls = 0

    def apply(self, x):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().apply(x)


@pytest.fixture
def counted_objective():
    """``make(n, k)`` -> (objective, operator): the Brockett cost with
    eigenvalues 1..n and weights 1..k, on an operator that counts its
    applications in ``operator.calls``."""

    def make(n, k):
        operator = CountingOperator(np.arange(1.0, n + 1.0))
        return ObjectiveSpec(operator, np.arange(1.0, k + 1.0)), operator

    return make
