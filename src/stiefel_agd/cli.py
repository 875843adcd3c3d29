"""Command-line interface.

Subcommands:
    solve    run one solver on one problem and print a report
    scaling  run a condition-number sweep and emit CSV rows or a JSON summary
    fit      recompute per-method log-log fits from a scaling CSV
"""

from __future__ import annotations

import argparse
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
    fit_to_dict,
    fits_from_rows,
    result_to_json,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
)
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


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    p.add_argument("--tol", type=float, default=defaults.epsilon,
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


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        gamma0=args.gamma0,
        lambda_d=args.lambda_d,
        c_l=args.c_l,
        c_r=args.c_r,
        epsilon=args.tol,
        max_iter=args.max_iter,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-agd",
        description="Accelerated gradient descent on the Stiefel manifold",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a single problem instance")
    solve.add_argument("--problem", choices=("sphere", "brockett"), default="sphere")
    solve.add_argument("--spectrum", required=True,
                       help="linear:N | quadratic:N | file:PATH")
    solve.add_argument("--k", type=int, default=None,
                       help="number of columns (brockett only; default 10)")
    solve.add_argument("--weights", type=_weights_arg, default="optimal")
    solve.add_argument("--method", choices=METHODS + ("all",),
                       default="agd-function")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", type=Path, default=None,
                       help="write the final point X to this file (text)")
    _add_solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    scaling = sub.add_parser("scaling", help="condition-number scaling sweep")
    scaling.add_argument("--problem", choices=("sphere", "brockett"),
                         default="sphere")
    scaling.add_argument("--spectrum", default="linear",
                         help="family (linear | quadratic) applied at each n")
    scaling.add_argument("--k", type=int, default=None)
    scaling.add_argument("--weights", type=_weights_arg, default="optimal")
    scaling.add_argument("--n-values", type=_positive_int_list, required=True,
                         help="comma-separated problem sizes, ascending")
    scaling.add_argument("--trials", type=int, default=10)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument("--method", choices=METHODS + ("all",), default="all")
    scaling.add_argument("--out", type=Path, default=None)
    scaling.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_solver_flags(scaling)
    scaling.set_defaults(func=_cmd_scaling)

    fit = sub.add_parser("fit", help="recompute fits from a scaling CSV")
    fit.add_argument("csv", type=Path, help="CSV written by the scaling command")
    fit.add_argument("--out", type=Path, default=None)
    fit.set_defaults(func=_cmd_fit)

    return parser


def _resolve_k(args, parser) -> int:
    if args.problem == "sphere":
        if args.k not in (None, 1):
            parser.error("--k must be 1 for sphere problems")
        return 1
    return args.k if args.k is not None else 10


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text)


def _cmd_solve(args, parser) -> int:
    k = _resolve_k(args, parser)
    try:
        spectrum = parse_spectrum(args.spectrum)
        spec = ExperimentSpec(
            problem=args.problem,
            spectrum=args.spectrum,
            n_values=(spectrum.n,),
            trials_per_n=1,
            base_seed=args.seed,
            methods=METHODS,
            solver=_solver_config(args),
            k=k,
            weights=args.weights,
        )
        objective, _, _, kappa = build_problem(spec, spectrum.n)
    except ValueError as exc:
        parser.error(str(exc))
    x0 = random_point(spectrum.n, k, args.seed)
    methods = METHODS if args.method == "all" else (args.method,)

    print(f"problem: {args.problem}  n={spectrum.n}  k={k}  kappa={kappa:.6g}")
    header = (f"{'method':<14} {'term':<18} {'iters':>8} {'restarts':>8} "
              f"{'f_evals':>8} {'g_evals':>8} {'rel_grad':>10} {'wall_s':>8}")
    print(header)
    best = None
    for method in methods:
        trace = SOLVERS[method](objective, x0, spec.solver)
        print(
            f"{method:<14} {trace.termination:<18} {trace.iterations:>8} "
            f"{trace.restarts:>8} {trace.f_evals:>8} {trace.g_evals:>8} "
            f"{trace.final_rel_gradnorm:>10.3e} {trace.wall_time:>8.3f}"
        )
        print(f"  final f = {trace.final_value!r}")
        if best is None or trace.final_value < best.final_value:
            best = trace
    if args.out is not None and best is not None and best.final_point is not None:
        np.savetxt(args.out, best.final_point.x)
        print(f"wrote X to {args.out}")
    return 0


def _cmd_scaling(args, parser) -> int:
    k = _resolve_k(args, parser)
    methods = METHODS if args.method == "all" else (args.method,)
    try:
        spec = ExperimentSpec(
            problem=args.problem,
            spectrum=args.spectrum,
            n_values=args.n_values,
            trials_per_n=args.trials,
            base_seed=args.seed,
            methods=methods,
            solver=_solver_config(args),
            k=k,
            weights=args.weights,
        )
        result = run_experiment(spec)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "csv":
        _emit(rows_to_csv(result.rows), args.out)
    else:
        _emit(result_to_json(result), args.out)
    return 0


def _cmd_fit(args, parser) -> int:
    try:
        rows = rows_from_csv(args.csv.read_text())
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    fits = fits_from_rows(rows)
    payload = {m: fit_to_dict(f) for m, f in sorted(fits.items())}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    rc = args.func(args, parser)
    if args.command == "scaling" and args.out is not None:
        print(f"done in {time.perf_counter() - started:.2f} s -> {args.out}",
              file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
