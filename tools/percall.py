"""Time the per-call cost of the calls a solver pass is made of.

    python tools/percall.py

For each size n x k in ``SIZES``, on the Brockett cost with eigenvalues
1..n and weights 1..k at ``random_point(n, k, 0)``, times

  * ``value``: the value at a line-search trial point on its own (the
    operator product, the weight tile and the dot);
  * ``trial``: a further line-search trial on its own: the Cayley step
    along the gradient, after one call has built the gradient's Cayley
    system [K | N], and the value at the new point;
  * ``trial_and_gradient``: that trial followed by ``value_and_gradient``
    at the same point, handed the trial's record, as in a
    gradient-descent pass;
  * ``trial_and_gradient_tiny``: the same, from a point whose last n/2
    rows are about 2^-600 (the thin QR of a Gaussian matrix with those
    rows scaled), as the rows off the answer become in a long
    gradient-descent run;
  * ``value_and_gradient``: the value and gradient at a point with no
    record, which applies the operator;
  * ``gradient``: ``value_and_gradient`` at a look-ahead point (``lerp``
    through the point and a trial point with the momentum factor 1.5) with
    no record, and the first read of the gradient's Cayley system
    [K | N]: what a momentum pass's gradient costs before its first trial;
  * ``lerp_and_check``: ``lerp`` through the point and a trial point with
    the momentum factor 1.5, and the orthonormality check of the result;
  * ``pairing``: the gradient restart's ``dual_metric_inverse`` of the
    gradient at that look-ahead point with the point, after one call has
    formed the gradient's [W, Y], as the line search's first trial does.

and prints one JSON line: the best of ``REPEAT`` runs of ``NUMBER``
calls each, in microseconds per call, with BLAS pinned to one thread and
the numpy and scipy versions. The package is imported from ``src/`` of the
checkout the script sits in, so a copy of the script placed in another
checkout times that checkout's code.
"""

from __future__ import annotations

import json
import os
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = [(316, 10), (1000, 10), (1000, 1), (316, 1), (100, 1)]
NUMBER = 1000  # calls per timed run
REPEAT = 5  # timed runs per call; the best is kept


def calls(n: int, k: int) -> dict:
    """The timed callables at size n x k, each after one warm-up call."""
    import numpy as np

    from stiefel_agd.geometry import (
        StiefelPoint,
        cayley_retract,
        dual_metric_inverse,
        lerp,
        random_point,
    )
    from stiefel_agd.linalg import qr_thin
    from stiefel_agd.objectives import DiagonalOperator, ObjectiveSpec

    objective = ObjectiveSpec(
        DiagonalOperator(np.arange(1.0, n + 1.0)), np.arange(1.0, k + 1.0)
    )
    x = random_point(n, k, 0)
    grad = objective.value_and_gradient(x).grad
    target = cayley_retract(grad, -0.01)
    a = np.random.default_rng(0).standard_normal((n, k))
    a[n - n // 2 :] *= 2.0**-600
    tiny_grad = objective.value_and_gradient(StiefelPoint(qr_thin(a)[0])).grad
    ahead = lerp(x, target, 1.5)
    ahead_grad = objective.value_and_gradient(ahead).grad

    def trial():
        objective.value(cayley_retract(grad, -0.01))

    def trial_and_gradient(grad=grad):
        trial = cayley_retract(grad, -0.01)
        objective.value_and_gradient(trial, objective.value(trial))

    def value():
        objective.value(target)

    def value_and_gradient():
        objective.value_and_gradient(x)

    def gradient():
        objective.value_and_gradient(ahead).grad.system

    def lerp_and_check():
        lerp(x, target, 1.5).orth_error

    def pairing():
        dual_metric_inverse(ahead_grad, x)

    found = {
        "value": value,
        "trial": trial,
        "trial_and_gradient": trial_and_gradient,
        "trial_and_gradient_tiny": lambda: trial_and_gradient(tiny_grad),
        "value_and_gradient": value_and_gradient,
        "gradient": gradient,
        "lerp_and_check": lerp_and_check,
        "pairing": pairing,
    }
    for call in found.values():
        call()
    return found


def measure(sizes: list[tuple[int, int]], number: int, repeat: int) -> dict:
    """Best-of-``repeat`` microseconds per call, by size and call."""
    import numpy as np
    import scipy

    table = {}
    for n, k in sizes:
        table[f"{n}x{k}"] = {
            name: min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6
            for name, call in calls(n, k).items()
        }
    return {
        "us_per_call": table,
        "number": number,
        "repeat": repeat,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(measure(SIZES, NUMBER, REPEAT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
