"""Benchmark of stiefel_agd: time to a 1e-10 solution, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sphere-sweep, brockett-agd or brockett-gd; ``all`` runs each of
them in turn and prints one combined report. Run from the repository root.
The package is imported from ``src/`` of the checkout the script sits in;
without it the script exits with code 2.

``--trace 0`` measures the end-to-end metrics with BLAS pinned to one
thread and tracing off: set-up time (median over fresh processes), then the
seed's unit of solves repeated for about ``--seconds`` seconds, reporting
the median unit time. Both times are in reference seconds (see
``speed.py``): wall time scaled by how fast a fixed kernel, run beside the
workload, went at the time; the wall times are in the details line.
``--trace 1`` alternates untraced and traced runs of
the same unit for about ``--seconds`` seconds, reports the per-layer
metrics, and adds one traced unit in a child process at OpenBLAS's default
thread count, printed for information only.

Every solve is checked (convergence, value, eigenvector alignment,
orthonormality drift). Stdout ends with two JSON lines: run details
(fingerprint, failed_frac, environment) and the result object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stiefel_agd"

#: Fresh processes timed per run for setup_s.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
#: The default-thread child of a traced run is stopped once the whole run
#: reaches this many seconds, to stay inside a 180 s limit.
RUN_DEADLINE_S = 165

END_TO_END_UNITS = {
    "solve_s": "s",
    "pass_us": "us",
    "passes": "count",
    "operator_applies": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "calls": "count",
    "self_us": "us",
    "total_us": "us",
    "share": "ratio",
    "failures": "count",
    "trials_per_call": "count",
    "restart_ratio": "ratio",
    "self_s": "s",
    "overhead": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: how a child process started by this script behaves
    p.add_argument("--role", choices=("main", "setup-probe", "default-threads"),
                   default="main", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        p.error("--seconds and --seed must be >= 0")
    return args


def self_command(workload: str, seed: int, seconds: float, trace: int,
                 role: str = "main") -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--role", role]


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start to the first timed solve, in fresh processes: imports,
    problem and starts, warm-up solve. Returns the wall times and the same
    in reference seconds, from the kernel timed before and after each."""
    import speed

    walls, refs = [], []
    before = speed.kernel_median()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(self_command(args.workload, args.seed, 0, 0, "setup-probe"),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = speed.kernel_median()
        refs.append(speed.reference_seconds(walls[-1], before, after))
        before = after
    return walls, refs


def repeat(step, seconds: float) -> None:
    """Call ``step`` while another call still fits in ``seconds``; always
    at least once."""
    calls = 0
    began = time.perf_counter()
    while True:
        step()
        calls += 1
        if (time.perf_counter() - began) * (calls + 1) / calls > seconds:
            return


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(),
    }


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            out[f"L{level} {kind}"] = size
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit is None:
        for line in (_read(git / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def with_units(values: dict[str, float], units_of) -> dict:
    return {name: {"value": value, "unit": units_of(name)} for name, value in values.items()}


def end_to_end(args, workload) -> tuple[dict, list, dict]:
    import speed

    setup_wall, setup_ref = measure_setup(args)
    workload.prepare(args.seed)
    workload.warm_up()
    units = []
    with speed.Speedometer() as meter:
        repeat(lambda: units.append(workload.run()), args.seconds)
    walls, refs = zip(*(meter.measure(u.spans) for u in units))
    solve_s = statistics.median(refs)
    passes = units[0].passes
    metrics = {
        "solve_s": solve_s,
        "pass_us": solve_s / max(passes, 1) * 1e6,
        "passes": passes,
        "operator_applies": sum(o.operator_applies for o in units[0].outcomes),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_times = {
        "unit_wall_s": list(walls),
        "unit_reference_s": list(refs),
        "setup_wall_s": setup_wall,
        "setup_reference_s": setup_ref,
        "kernel_s": [end - start for start, end in meter.ticks],
    }
    return with_units(metrics, END_TO_END_UNITS.__getitem__), units, wall_times


def per_layer(args, workload) -> tuple[dict, list, bool]:
    import tracing

    workload.prepare(args.seed)
    workload.warm_up()
    tracer = tracing.Tracer()
    before = tracing.snapshot()
    plain, spanned = [], []

    def untraced_then_traced():
        # alternating keeps drift in machine speed out of trace.overhead
        if args.role == "main":
            plain.append(workload.run())
        with tracing.traced(tracer):
            spanned.append(workload.run())

    repeat(untraced_then_traced, args.seconds)
    restored = tracing.snapshot() == before
    metrics = tracing.layer_metrics(tracer, spanned, plain)
    units_of = lambda name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]]  # noqa: E731
    return with_units(metrics, units_of), plain + spanned, restored


def default_threads_run(args, timeout: float) -> dict:
    """One traced unit in a child process with OpenBLAS's default threads;
    information only, so a failure or timeout is reported, not raised."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    try:
        done = subprocess.run(
            self_command(args.workload, args.seed, 0, 1, "default-threads"),
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if done.returncode != 0:
        return {"error": f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"OPENBLAS_NUM_THREADS": "unset",
            **{name: m["value"] for name, m in result["metrics"].items()}}


def run_all(args, names) -> int:
    """Every workload in its own process, end to end and, with --trace 1,
    traced as well; prints one JSON report (not the per-run result line)."""
    report = {}
    for name in names:
        for trace in range(args.trace + 1):
            done = subprocess.run(self_command(name, args.seed, args.seconds, trace),
                                  capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            details, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
            entry = report.setdefault(name, {"correct": True})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
            entry["failed_frac"] = details["failed_frac"]
            entry["fingerprint"] = details["fingerprint"]
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
    print(json.dumps(report, indent=1))
    return 0


def main(argv=None) -> int:
    began = time.perf_counter()
    args = parse_args(argv)
    if args.role != "default-threads":
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stiefel_agd

    if Path(stiefel_agd.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported stiefel_agd from {stiefel_agd.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload)

    if args.role == "setup-probe":
        workload.prepare(args.seed)
        workload.warm_up()
        print("ready", flush=True)
        return 0

    details = {"workload": args.workload, "seed": args.seed}
    restored = True
    if args.trace:
        metrics, units, restored = per_layer(args, workload)
        details["unit_wall_s"] = [u.wall_s for u in units]
        if args.role == "main":
            budget = RUN_DEADLINE_S - (time.perf_counter() - began)
            details["default_threads"] = default_threads_run(args, max(budget, 1.0))
    else:
        metrics, units, wall_times = end_to_end(args, workload)
        details.update(wall_times)

    outcomes = [o for u in units for o in u.outcomes]
    failures = [o for o in outcomes if o.error is not None]
    fingerprints = sorted({u.fingerprint for u in units})
    details.update(
        fingerprint=fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        failed_frac={"value": len(failures) / len(outcomes), "unit": "ratio"},
        failures=[f"{o.method} seed {o.seed}: {o.error}" for o in failures[:10]],
        environment=environment(),
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures and len(fingerprints) == 1 and restored,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
