"""The benchmark's workloads: seeded inputs, checked solves, fingerprints.

A workload's *unit* is the fixed set of solves one seed defines. Running a
unit returns the timed spans of its solves, one ``Outcome`` per solve and a
fingerprint of the iterates, so repeated units in one process must agree
exactly. Solvers are looked up on their modules at call time, never bound
here, so that ``tracing.traced`` sees every call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

from stiefel_agd import bench, geometry, objectives, solvers

CONFIG = solvers.SolverConfig(
    gamma0=0.1, lambda_d=1.7, c_l=0.7, c_r=0.01, epsilon=1e-10, max_iter=1_000_000
)

#: Untimed warm-up: every method once on the first problem, this many passes.
WARMUP_CONFIG = replace(CONFIG, max_iter=50)

SOLVER_ATTR = {
    "gd": "gradient_descent",
    "agd-function": "agd_function_restart",
    "agd-gradient": "agd_gradient_restart",
}

#: Correctness bounds, as in acceptance criteria 5 and 8.
VALUE_TOL = 1e-7
ALIGN_TOL = 1e-6
DRIFT_TOL = 1e-8

#: Termination recorded for a solve that raised.
RAISED = "raised"


@dataclass(frozen=True)
class Outcome:
    """One solve: its counters and the reason it failed, if it did. The
    trace itself is not kept, so memory does not grow with repetitions."""

    method: str
    seed: int
    iterations: int
    restarts: int
    f_evals: int
    g_evals: int
    termination: str
    error: str | None

    @classmethod
    def of(cls, method: str, seed: int, trace: solvers.RunTrace, error: str | None):
        return cls(method, seed, trace.iterations, trace.restarts, trace.f_evals,
                   trace.g_evals, trace.termination, error)

    @property
    def passes(self) -> int:
        return self.iterations + self.restarts

    @property
    def operator_applies(self) -> int:
        return self.f_evals + self.g_evals

    def key(self) -> tuple:
        return (self.method, self.seed, self.iterations, self.restarts,
                self.f_evals, self.g_evals, self.termination)


def guarded_call(solver, objective, x0, config):
    """Run one solve; a raised exception becomes a failed RunTrace so the
    caller's sweep goes on. Returns (trace, error or None)."""
    try:
        return solver(objective, x0, config), None
    except Exception as exc:  # one bad solve must not end the run
        return solvers.RunTrace(termination=RAISED), f"{type(exc).__name__}: {exc}"


def solve_guarded(method: str, objective, x0, config=CONFIG):
    return guarded_call(getattr(solvers, SOLVER_ATTR[method]), objective, x0, config)


def check_solve(objective, trace: solvers.RunTrace) -> str | None:
    """Why a finished solve is wrong, or None. The operator is diagonal,
    so its eigenvectors are the coordinate axes and column i must sit on
    axis k-1-i (largest weight on the smallest eigenvalue)."""
    if trace.termination != solvers.CONVERGED:
        return f"termination {trace.termination}"
    spectrum = objectives.SpectrumInfo(objective.operator.values)
    target = objectives.known_minimum(spectrum, objective.weights)
    if not abs(trace.final_value - target) <= VALUE_TOL:
        return f"value {trace.final_value!r} vs minimum {target!r}"
    x = trace.final_point.x
    k = x.shape[1]
    if not all(abs(x[k - 1 - i, i]) >= 1.0 - ALIGN_TOL for i in range(k)):
        return "columns not aligned with the eigenvectors"
    if not trace.max_orth_drift <= DRIFT_TOL:
        return f"orthonormality drift {trace.max_orth_drift:.3e}"
    return None


@dataclass
class UnitResult:
    """One unit's outcomes and fingerprint, and the (start, end)
    perf_counter pairs of its timed regions; ``wall_s`` is their total."""

    spans: list[tuple[float, float]]
    outcomes: list[Outcome]
    fingerprint: str

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.spans)

    @property
    def passes(self) -> int:
        return sum(o.passes for o in self.outcomes)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class BrockettWorkload:
    """Independent solves of one Brockett problem from seeded starts; every
    method runs from the same start. Only the solver calls are timed."""

    spectrum: str
    k: int
    methods: tuple[str, ...]
    starts: int
    objective: objectives.ObjectiveSpec | None = field(default=None, repr=False)
    points: list = field(default_factory=list, repr=False)
    seeds: list[int] = field(default_factory=list)

    def prepare(self, seed: int) -> None:
        spectrum = objectives.parse_spectrum(self.spectrum)
        weights = objectives.optimal_weights(spectrum, self.k)
        self.objective = objectives.make_objective(spectrum, weights)
        self.seeds = [seed * self.starts + j for j in range(self.starts)]
        self.points = [geometry.random_point(spectrum.n, self.k, s) for s in self.seeds]

    def warm_up(self) -> None:
        for method in self.methods:
            solve_guarded(method, self.objective, self.points[0], WARMUP_CONFIG)

    def run(self) -> UnitResult:
        spans = []
        outcomes = []
        for seed, x0 in zip(self.seeds, self.points):
            for method in self.methods:
                t0 = time.perf_counter()
                trace, error = solve_guarded(method, self.objective, x0)
                spans.append((t0, time.perf_counter()))
                error = error or check_solve(self.objective, trace)
                outcomes.append(Outcome.of(method, seed, trace, error))
        fingerprint = _digest(repr([o.key() for o in outcomes]))
        return UnitResult(spans, outcomes, fingerprint)


@dataclass
class SweepWorkload:
    """One ``bench.run_experiment`` scaling sweep, timed as a whole.

    The sweep's solver table is wrapped for the duration of the call so
    that each solve is guarded and its trace kept for the checks, which run
    after the timed region.
    """

    problem: str
    n_values: tuple[int, ...]
    trials_per_n: int
    spectrum: str = "linear"
    k: int = 1
    methods: tuple[str, ...] = tuple(SOLVER_ATTR)
    spec: bench.ExperimentSpec | None = None

    def prepare(self, seed: int) -> None:
        self.spec = bench.ExperimentSpec(
            problem=self.problem, spectrum=self.spectrum, k=self.k,
            n_values=self.n_values,
            trials_per_n=self.trials_per_n, base_seed=seed,
            methods=self.methods, solver=CONFIG,
        )

    def warm_up(self) -> None:
        objective, *_ = bench.build_problem(self.spec, self.n_values[0])
        x0 = geometry.random_point(self.n_values[0], self.k, self.spec.base_seed)
        for method in self.methods:
            solve_guarded(method, objective, x0, WARMUP_CONFIG)

    def run(self) -> UnitResult:
        captured = []
        table = dict(bench.SOLVERS)

        def guarded(method, solver):
            def call(objective, x0, config):
                trace, error = guarded_call(solver, objective, x0, config)
                captured.append((method, objective, trace, error))
                return trace
            return call

        bench.SOLVERS.update((m, guarded(m, fn)) for m, fn in table.items())
        try:
            t0 = time.perf_counter()
            result = bench.run_experiment(self.spec)
            span = (t0, time.perf_counter())
        finally:
            bench.SOLVERS.update(table)
        outcomes = [
            Outcome.of(method, self.spec.base_seed, trace,
                       error or check_solve(objective, trace))
            for method, objective, trace, error in captured
        ]
        fingerprint = _digest(bench.rows_to_csv(result.rows))
        return UnitResult([span], outcomes, fingerprint)


def make(name: str):
    """A fresh workload object by name; why each exists is in BENCHMARK.json."""
    if name == "sphere-sweep":
        return SweepWorkload(
            problem="sphere", n_values=(100, 178, 316, 562, 1000), trials_per_n=2
        )
    if name == "brockett-agd":
        return BrockettWorkload(
            spectrum="linear:1000", k=10, methods=("agd-function", "agd-gradient"),
            starts=4,
        )
    if name == "brockett-gd":
        return BrockettWorkload(spectrum="linear:316", k=10, methods=("gd",), starts=2)
    raise KeyError(name)


WORKLOADS = ("sphere-sweep", "brockett-agd", "brockett-gd")
