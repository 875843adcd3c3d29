"""Criterion 7's scaling fits at the four phases of gamma0 on the step grid.

    python tools/grid_phase.py [--j 0,1,2,3]

The line search multiplies and divides gamma by lambda = 1.7, so every
accepted step lies on the grid gamma0 * 1.7^m, and where gamma0 falls on
it moves gradient descent's pass counts. This runs the Brockett ladder of
``tests/test_acceptance.py::test_criterion_7_brockett_scaling``, which
builds its ``ExperimentSpec`` from ``criterion_7_spec`` below, through
``bench.run_experiment`` with the operator scaled by c = 1.7^(j/4).
Scaling f by c acts as gamma0 -> c * gamma0 up to rounding, so j = 0..3
walk gamma0 across one grid step; j = 0 is the test's own sweep. All four
phases take several minutes on one core, and ``--j`` splits them across
processes.

Prints one JSON line per phase: j, c, the sweep's wall time, the number of
solves that did not converge and, per method, the fitted slope and the
mean iterations at each n. The package is imported from ``src/`` of the
checkout the script sits in, with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def criterion_7_spec(n_values=(100, 316, 1000), trials=5, k=10):
    """The criterion-7 sweep at the defaults; smaller ladders for tests."""
    import stiefel_agd as sa
    from stiefel_agd.bench import ExperimentSpec

    return ExperimentSpec(
        problem="brockett",
        spectrum="linear",
        k=k,
        weights="optimal",
        n_values=tuple(n_values),
        trials_per_n=trials,
        base_seed=0,
        methods=("gd", "agd-function", "agd-gradient"),
        solver=sa.SolverConfig(epsilon=1e-10, max_iter=1_000_000, gamma0=0.1,
                               lambda_d=1.7, c_l=0.7, c_r=0.01),
    )


def phase(spec, j: int) -> dict:
    """Run ``spec`` with every operator scaled by c = 1.7^(j/4)."""
    from stiefel_agd import bench
    from stiefel_agd.objectives import SpectrumInfo, make_objective

    c = 1.7 ** (j / 4)
    build = bench.build_problem

    def scaled(spec, n):
        objective, kappa = build(spec, n)
        values = c * objective.operator.values
        return make_objective(SpectrumInfo(values), objective.weights), kappa

    bench.build_problem = scaled
    try:
        result = bench.run_experiment(spec)
    finally:
        bench.build_problem = build
    methods = {}
    for method in spec.methods:
        rows = [r for r in result.rows if r.method == method]
        fit = result.fits.get(method)
        methods[method] = {
            "slope": None if fit is None else round(fit.slope, 3),
            "mean_iterations": [
                round(sum(r.iterations for r in rows if r.n == n) / spec.trials_per_n, 1)
                for n in spec.n_values
            ],
        }
    return {"j": j, "c": c, "wall_s": round(result.wall_s, 1),
            "failures": len(result.failures), "methods": methods}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--j", type=_ints, default=(0, 1, 2, 3))
    args = p.parse_args(argv)
    spec = criterion_7_spec()
    for j in args.j:
        print(json.dumps(phase(spec, j)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
