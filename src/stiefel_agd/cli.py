"""Command-line interface.

Subcommands:
    solve    run one solver on one problem and print a report
    scaling  run a condition-number sweep and emit CSV rows or a JSON summary
    fit      recompute per-method log-log fits from a scaling CSV
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bench import (
    METHODS,
    SOLVERS,
    ExperimentSpec,
    build_problem,
    fits_from_rows,
    fits_to_dict,
    result_to_json,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
)
from .errors import StiefelAgdError
from .geometry import random_point
from .objectives import parse_spectrum
from .solvers import SolverConfig


def _positive_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("sizes must be positive")
    return values


def _weights_arg(text: str):
    if text == "optimal":
        return "optimal"
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must be 'optimal' or a comma-separated list: {text!r}"
        )


def _shared_flags() -> argparse.ArgumentParser:
    """Flags of both ``solve`` and ``scaling``: the problem, the seed, the
    output file and the solver tunables."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--problem", choices=("sphere", "brockett"), default="sphere")
    p.add_argument("--k", type=int, default=None,
                   help="number of columns (brockett only; default 10)")
    p.add_argument("--weights", type=_weights_arg, default="optimal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="write the final point X (solve) or the rows (scaling) "
                        "to this file")
    defaults = SolverConfig()
    p.add_argument("--tol", dest="epsilon", type=float, default=defaults.epsilon,
                   help="relative gradient-norm stopping tolerance")
    p.add_argument("--gamma0", type=float, default=defaults.gamma0,
                   help="initial step size")
    p.add_argument("--lambda-d", type=float, default=defaults.lambda_d,
                   help="line-search growth/shrink factor")
    p.add_argument("--c-l", type=float, default=defaults.c_l,
                   help="line-search growth threshold, in (1/2, 1)")
    p.add_argument("--c-r", type=float, default=defaults.c_r,
                   help="function-restart sufficient-decrease parameter")
    p.add_argument("--max-iter", type=int, default=defaults.max_iter,
                   help="iteration budget per run")
    return p


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-agd",
        description="Accelerated gradient descent on the Stiefel manifold",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_shared_flags()]

    solve = sub.add_parser("solve", parents=shared,
                           help="solve a single problem instance")
    solve.add_argument("--spectrum", required=True,
                       help="linear:N | quadratic:N | file:PATH")
    solve.add_argument("--method", choices=METHODS + ("all",),
                       default="agd-function")
    solve.set_defaults(func=_cmd_solve, parser=solve)

    scaling = sub.add_parser("scaling", parents=shared,
                             help="condition-number scaling sweep")
    scaling.add_argument("--spectrum", default="linear",
                         help="family (linear | quadratic) applied at each n")
    scaling.add_argument("--method", choices=METHODS + ("all",), default="all")
    scaling.add_argument("--n-values", type=_positive_int_list, required=True,
                         help="comma-separated problem sizes, ascending")
    scaling.add_argument("--trials", type=int, default=10)
    scaling.add_argument("--format", choices=("csv", "json"), default="csv")
    scaling.set_defaults(func=_cmd_scaling, parser=scaling)

    fit = sub.add_parser("fit", help="recompute fits from a scaling CSV")
    fit.add_argument("csv", type=Path, help="CSV written by the scaling command")
    fit.add_argument("--out", type=Path, default=None)
    fit.set_defaults(func=_cmd_fit, parser=fit)

    return parser


def _resolve_k(args) -> int:
    if args.k is not None:
        return args.k
    return 1 if args.problem == "sphere" else 10


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text)


def _experiment_spec(args, n_values, trials_per_n: int) -> ExperimentSpec:
    return ExperimentSpec(
        problem=args.problem,
        spectrum=args.spectrum,
        n_values=n_values,
        trials_per_n=trials_per_n,
        base_seed=args.seed,
        methods=METHODS if args.method == "all" else (args.method,),
        solver=_solver_config(args),
        k=_resolve_k(args),
        weights=args.weights,
    )


def _cmd_solve(args) -> int:
    spectrum = parse_spectrum(args.spectrum)
    spec = _experiment_spec(args, (spectrum.n,), 1)
    objective, kappa = build_problem(spec, spectrum.n)
    x0 = random_point(spectrum.n, spec.k, args.seed)

    print(f"problem: {args.problem}  n={spectrum.n}  k={spec.k}  kappa={kappa:.6g}")
    header = (f"{'method':<14} {'term':<18} {'iters':>8} {'restarts':>8} "
              f"{'f_evals':>8} {'g_evals':>8} {'rel_grad':>10} {'wall_s':>8}")
    print(header)
    best = None
    for method in spec.methods:
        trace = SOLVERS[method](objective, x0, spec.solver)
        print(
            f"{method:<14} {trace.termination:<18} {trace.iterations:>8} "
            f"{trace.restarts:>8} {trace.f_evals:>8} {trace.g_evals:>8} "
            f"{trace.final_rel_gradnorm:>10.3e} {trace.wall_time:>8.3f}"
        )
        print(f"  final f = {trace.final_value!r}")
        if best is None or trace.final_value < best.final_value:
            best = trace
    if args.out is not None:
        np.savetxt(args.out, best.final_point.x)
        print(f"wrote X to {args.out}")
    return 0


def _cmd_scaling(args) -> int:
    result = run_experiment(_experiment_spec(args, args.n_values, args.trials))
    if args.format == "csv":
        _emit(rows_to_csv(result.rows), args.out)
    else:
        _emit(result_to_json(result), args.out)
    return 0


def _cmd_fit(args) -> int:
    fits = fits_from_rows(rows_from_csv(args.csv.read_text()))
    _emit(json.dumps(fits_to_dict(fits), indent=2, sort_keys=True), args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # checked before any work and without touching the file, so a failed
    # run never clobbers an earlier output
    if args.out is not None:
        if not args.out.parent.is_dir():
            args.parser.error(
                f"cannot write {args.out}: no directory {args.out.parent}")
        if args.out.is_dir():
            args.parser.error(f"cannot write {args.out}: it is a directory")
    started = time.perf_counter()
    try:
        rc = args.func(args)
    except (StiefelAgdError, ValueError, OSError) as exc:
        # bad input, an unreadable file or a solve that raised: the
        # subcommand's usage line, one error line, exit 2
        args.parser.error(str(exc))
    if args.command == "scaling" and args.out is not None:
        print(f"done in {time.perf_counter() - started:.2f} s -> {args.out}",
              file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
