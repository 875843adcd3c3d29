"""Test-session setup: run BLAS on one thread unless the caller chose otherwise.

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
