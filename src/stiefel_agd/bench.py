"""Benchmark harness: condition-number scaling sweeps over seeded trials.

An experiment runs every requested solver on a family of eigenvector
problems of growing size, aggregates the per-size mean of log(iterations)
over trials, and fits a line in log-log space against the Hessian
condition number of each problem. Seeds derive deterministically from
(base_seed, n, trial), and all methods within a cell share the same
random initial point, so repeating an experiment reproduces its output
byte for byte. A solve that raises a library error or ValueError becomes
a row with termination ``raised`` and the sweep goes on.

The CSV columns are the fields of ``TrialRow``, in order. The wall_ms
column is written as 0 to keep the CSV reproducible; measured timings
live in the JSON summary instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, StiefelAgdError
from .geometry import random_point
from .objectives import (
    ObjectiveSpec,
    SpectrumInfo,
    brockett_condition_number,
    make_objective,
    optimal_weights,
    parse_spectrum,
)
from .solvers import (
    CONVERGED,
    RunTrace,
    SolverConfig,
    agd_function_restart,
    agd_gradient_restart,
    gradient_descent,
)

SOLVERS = {
    "gd": gradient_descent,
    "agd-function": agd_function_restart,
    "agd-gradient": agd_gradient_restart,
}
METHODS = tuple(SOLVERS)

#: Termination of a row whose solve raised; its counters are zero and its
#: final_rel_gradnorm is nan.
RAISED = "raised"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one scaling sweep."""

    problem: str                      # "sphere" | "brockett"
    spectrum: str                     # family ("linear", "quadratic") or full specifier
    n_values: tuple[int, ...]
    trials_per_n: int
    base_seed: int
    methods: tuple[str, ...]
    solver: SolverConfig
    k: int = 1
    weights: str | tuple[float, ...] = "optimal"

    def __post_init__(self):
        sizes = (self.k, self.trials_per_n, self.base_seed, *self.n_values)
        if not all(isinstance(v, numbers.Integral) for v in sizes):
            raise ValueError("k, trials_per_n, base_seed and n_values must be integers")
        if self.problem not in ("sphere", "brockett"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.problem == "sphere" and self.k != 1:
            raise ValueError("sphere problems have k = 1")
        if self.problem == "sphere" and not isinstance(self.weights, str):
            raise ValueError("sphere problems take no explicit weights")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if isinstance(self.weights, str):
            if self.weights != "optimal":
                raise ValueError(f"unknown weights specifier {self.weights!r}")
        elif np.shape(self.weights) != (self.k,):
            raise ValueError(f"expected {self.k} weights, got {self.weights!r}")
        if len(self.n_values) < 1 or list(self.n_values) != sorted(self.n_values):
            raise ValueError("n_values must be non-empty and ascending")
        if self.trials_per_n < 1:
            raise ValueError("trials_per_n must be >= 1")
        if not self.methods or any(m not in SOLVERS for m in self.methods):
            raise ValueError(f"methods must be a non-empty subset of {METHODS}")


@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares line through (log kappa, mean log iterations)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class TrialRow:
    """One (method, n, trial) outcome; mirrors the CSV schema."""

    method: str
    n: int
    k: int
    kappa: float
    trial: int
    seed: int
    iterations: int
    f_evals: int
    g_evals: int
    restarts: int
    final_rel_gradnorm: float
    termination: str
    wall_ms: float


_CSV_FIELDS = dataclasses.fields(TrialRow)
CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS)
_CSV_PARSERS = {"str": str, "int": int, "float": float}


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[TrialRow]
    fits: dict[str, FitResult | None]
    max_orth_drift: float
    wall_s: float

    @property
    def failures(self) -> list[TrialRow]:
        return [r for r in self.rows if r.termination != CONVERGED]


def trial_seed(base_seed: int, n: int, trial: int) -> int:
    """Deterministic, platform-stable per-cell seed."""
    return base_seed + zlib.crc32(f"{n}:{trial}".encode("ascii"))


def _spectrum_for(specifier: str, n: int) -> SpectrumInfo:
    if ":" not in specifier:
        specifier = f"{specifier}:{n}"
    spectrum = parse_spectrum(specifier)
    if spectrum.n != n:
        raise ValueError(
            f"spectrum {specifier!r} has {spectrum.n} eigenvalues, expected {n}"
        )
    return spectrum


def _weights_for(spec: ExperimentSpec, spectrum: SpectrumInfo):
    if spec.problem == "sphere":
        return (1.0,)
    if isinstance(spec.weights, str):  # "optimal", the only specifier
        return optimal_weights(spectrum, spec.k)
    return spec.weights


def build_problem(spec: ExperimentSpec, n: int) -> tuple[ObjectiveSpec, float]:
    """Objective and Hessian condition number for one n; the weights are
    ``objective.weights``."""
    spectrum = _spectrum_for(spec.spectrum, n)
    objective = make_objective(spectrum, _weights_for(spec, spectrum))
    return objective, brockett_condition_number(spectrum, objective.weights)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the full sweep; deterministic for a given ExperimentSpec."""
    start = time.perf_counter()
    rows: list[TrialRow] = []
    max_drift = 0.0
    for n in spec.n_values:
        objective, kappa = build_problem(spec, n)
        for trial in range(spec.trials_per_n):
            seed = trial_seed(spec.base_seed, n, trial)
            x0 = random_point(n, spec.k, seed)
            for method in spec.methods:
                try:
                    trace = SOLVERS[method](x0=x0, objective=objective,
                                            config=spec.solver)
                except (StiefelAgdError, ValueError):
                    # one bad cell must not end the sweep
                    trace = RunTrace(termination=RAISED)
                rows.append(
                    TrialRow(
                        method=method,
                        n=n,
                        k=spec.k,
                        kappa=kappa,
                        trial=trial,
                        seed=seed,
                        iterations=trace.iterations,
                        f_evals=trace.f_evals,
                        g_evals=trace.g_evals,
                        restarts=trace.restarts,
                        final_rel_gradnorm=trace.final_rel_gradnorm,
                        termination=trace.termination,
                        wall_ms=trace.wall_time * 1e3,
                    )
                )
                max_drift = max(max_drift, trace.max_orth_drift)
    rows.sort(key=lambda r: (r.method, r.n, r.trial))
    fits = fits_from_rows(rows)
    return ExperimentResult(
        spec=spec,
        rows=rows,
        fits=fits,
        max_orth_drift=max_drift,
        wall_s=time.perf_counter() - start,
    )


def loglog_fit(points) -> FitResult:
    """OLS slope/intercept/r^2 through the given (x, y) points.

    Points are already in log space; raises DegenerateFitError with fewer
    than two distinct abscissae.
    """
    pts = tuple((float(x), float(y)) for x, y in points)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if len(set(xs.tolist())) < 2:
        raise DegenerateFitError("need at least two distinct abscissae")
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xm) ** 2))
    sxy = float(np.sum((xs - xm) * (ys - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    residual = ys - (intercept + slope * xs)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((ys - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r_squared, pts)


def scaling_points(rows) -> dict[str, list[tuple[float, float]]]:
    """Per-method (log kappa, mean log iterations) points.

    Only converged trials with at least one iteration enter the
    aggregation; rows must already be canonically sorted.
    """
    by_method: dict[str, dict[int, tuple[float, list[float]]]] = {}
    for r in rows:
        if r.termination != CONVERGED or r.iterations < 1:
            continue
        cells = by_method.setdefault(r.method, {})
        _, logs = cells.setdefault(r.n, (math.log(r.kappa), []))
        logs.append(math.log(r.iterations))
    out: dict[str, list[tuple[float, float]]] = {}
    for method, cells in by_method.items():
        out[method] = [
            (logk, float(np.mean(logs)))
            for n, (logk, logs) in sorted(cells.items())
        ]
    return out


def fits_from_rows(rows) -> dict[str, FitResult | None]:
    """Per-method fit, or None where the data cannot support one."""
    fits: dict[str, FitResult | None] = {}
    for method, points in scaling_points(rows).items():
        try:
            fits[method] = loglog_fit(points)
        except DegenerateFitError:
            fits[method] = None
    return fits


def _csv_cell(row: TrialRow, name: str) -> str:
    # str of a float is its shortest repr, which reads back exactly
    return "0" if name == "wall_ms" else str(getattr(row, name))


def rows_to_csv(rows) -> str:
    """Render rows in the fixed schema; deterministic for identical rows."""
    lines = [CSV_HEADER]
    lines.extend(",".join(_csv_cell(r, f.name) for f in _CSV_FIELDS) for r in rows)
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[TrialRow]:
    """Parse rows written by rows_to_csv (exact float round-trip)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_CSV_FIELDS):
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append(TrialRow(*(
            _CSV_PARSERS[f.type](part) for f, part in zip(_CSV_FIELDS, parts)
        )))
    return rows


def fits_to_dict(fits: dict[str, FitResult | None]) -> dict:
    """JSON-ready fits, keyed by method in sorted order."""
    return {
        m: None if f is None else dataclasses.asdict(f)
        for m, f in sorted(fits.items())
    }


def result_to_json(result: ExperimentResult) -> str:
    """JSON summary: fits plus a config echo and run diagnostics."""
    spec = dataclasses.asdict(result.spec)
    payload = {
        "config": spec,
        "fits": fits_to_dict(result.fits),
        "rows": len(result.rows),
        "failures": [
            {"method": r.method, "n": r.n, "trial": r.trial,
             "termination": r.termination}
            for r in result.failures
        ],
        "max_orth_drift": result.max_orth_drift,
        "wall_s": result.wall_s,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
