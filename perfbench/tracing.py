"""Span tracing of the stiefel_agd layers, applied from outside the package.

Tracing never edits the package: ``traced()`` rebinds the public callables
in every module that holds a reference to them (``from .geometry import
cayley_retract`` copies the name into ``solvers``, so each copy is rebound),
wraps the objective's methods and the point/vector constructors on their
classes, and puts every original back when the block exits.

Each call through a wrapper records one span: name, start, end, parent and
whether it raised. Spans stay in flat arrays until ``summarize`` turns them
into per-layer calls, self time and total time. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array

import numpy as np

from stiefel_agd import bench, geometry, linalg, objectives, solvers

#: Layers reported with calls / self_us / total_us / share, in output order.
LAYERS = (
    "objectives.value",
    "objectives.value_and_gradient",
    "geometry.cayley_retract",
    "geometry.retract_inverse",
    "geometry.project_dual",
    "geometry.StiefelPoint",
    "geometry.DualTangentVector",
    "geometry.dual_norm",
    "geometry.dual_metric",
    "linalg.solve_square",
    "solvers.line_search",
)

#: Module-level functions: (span name, defining module, attribute). The
#: three solver entry points share the layer "solvers.loop".
FUNCTIONS = (
    ("geometry.cayley_retract", geometry, "cayley_retract"),
    ("geometry.retract_inverse", geometry, "retract_inverse"),
    ("geometry.project_dual", geometry, "project_dual"),
    ("geometry.dual_norm", geometry, "dual_norm"),
    ("geometry.dual_metric", geometry, "dual_metric"),
    ("linalg.solve_square", linalg, "solve_square"),
    ("solvers.line_search", solvers, "line_search"),
    ("solvers.loop", solvers, "gradient_descent"),
    ("solvers.loop", solvers, "agd_function_restart"),
    ("solvers.loop", solvers, "agd_gradient_restart"),
    ("bench.run_experiment", bench, "run_experiment"),
)

#: Methods wrapped on their class: (span name, class, attribute).
METHODS = (
    ("objectives.value", objectives.ObjectiveSpec, "value"),
    ("objectives.value_and_gradient", objectives.ObjectiveSpec, "value_and_gradient"),
    ("geometry.StiefelPoint", geometry.StiefelPoint, "__init__"),
    ("geometry.DualTangentVector", geometry.DualTangentVector, "__init__"),
)

#: Modules searched for copies of the functions above.
MODULES = (linalg, geometry, objectives, solvers, bench)


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names = sorted({name for name, *_ in FUNCTIONS + METHODS})
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self.names.index(name)
        stack = self._stack
        name_of, parent, start, end, raised = (
            self.name_of, self.parent, self.start, self.end, self.raised
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span


def _bindings():
    """Every (namespace, attribute, original) the tracer rebinds."""
    found = []
    for name, module, attr in FUNCTIONS:
        original = getattr(module, attr)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                found.append((name, mod, attr, original))
    for name, cls, attr in METHODS:
        found.append((name, cls, attr, cls.__dict__[attr]))
    return found


def snapshot():
    """What every name that tracing may rebind is bound to right now; equal
    snapshots before and after a traced block show everything was restored."""
    out = {}
    for _, _, attr in FUNCTIONS:
        for mod in MODULES:
            if hasattr(mod, attr):
                out[(mod.__name__, attr)] = getattr(mod, attr)
    for _, cls, attr in METHODS:
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    out.update((("bench.SOLVERS", m), fn) for m, fn in bench.SOLVERS.items())
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every traced callable through ``tracer`` inside the block."""
    bindings = _bindings()
    solver_table = dict(bench.SOLVERS)
    wrapped = {}
    try:
        for name, ns, attr, original in bindings:
            fn = wrapped.setdefault(id(original), tracer.wrap(name, original))
            setattr(ns, attr, fn)
        for method, fn in solver_table.items():
            bench.SOLVERS[method] = wrapped[id(fn)]
        yield tracer
    finally:
        for _, ns, attr, original in bindings:
            setattr(ns, attr, original)
        bench.SOLVERS.update(solver_table)


def summarize(tracer: Tracer, wall_s: float, units: int) -> dict[str, float]:
    """Per-layer figures for one unit of work, averaged over ``units``.

    ``wall_s`` is the traced wall time of all units together; ``share`` is
    a layer's self time as a fraction of it.
    """
    start = np.array(tracer.start, dtype=np.float64)
    end = np.array(tracer.end, dtype=np.float64)
    parent = np.array(tracer.parent, dtype=np.int32)
    name_of = np.array(tracer.name_of, dtype=np.int32)
    raised = np.array(tracer.raised, dtype=np.int8)
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - children
    m = len(tracer.names)
    calls = np.bincount(name_of, minlength=m)
    self_by = np.bincount(name_of, weights=self_time, minlength=m)
    total_by = np.bincount(name_of, weights=dur, minlength=m)
    fails_by = np.bincount(name_of, weights=raised, minlength=m)

    index = tracer.names.index
    out = {}
    for layer in LAYERS:
        i = index(layer)
        out[f"{layer}.calls"] = calls[i] / units
        out[f"{layer}.self_us"] = self_by[i] * 1e6 / units
        out[f"{layer}.total_us"] = total_by[i] * 1e6 / units
        out[f"{layer}.share"] = self_by[i] / wall_s if wall_s > 0 else 0.0
    for layer in ("linalg.solve_square", "geometry.cayley_retract"):
        out[f"{layer}.failures"] = fails_by[index(layer)] / units

    # a line-search trial is a retraction called directly by line_search
    ls = index("solvers.line_search")
    is_retraction = (name_of == index("geometry.cayley_retract")) & has_parent
    trials = np.count_nonzero(name_of[parent[is_retraction]] == ls)
    out["solvers.line_search.trials_per_call"] = trials / calls[ls] if calls[ls] else 0.0
    for layer in ("solvers.loop", "bench.run_experiment"):
        out[f"{layer}.self_s"] = self_by[index(layer)] / units
    return {name: float(value) for name, value in out.items()}


def layer_metrics(tracer: Tracer, spanned: list, plain: list) -> dict[str, float]:
    """All per-layer metrics of the traced units ``spanned``. ``plain`` holds
    untraced units of the same work; without them trace.overhead is left out."""
    metrics = summarize(tracer, sum(u.wall_s for u in spanned), len(spanned))
    unit = spanned[0]
    restarts = sum(o.restarts for o in unit.outcomes)
    metrics["solvers.restart_ratio"] = restarts / unit.passes if unit.passes else 0.0
    if plain:
        metrics["trace.overhead"] = (
            statistics.median(u.wall_s for u in spanned)
            / statistics.median(u.wall_s for u in plain) - 1.0
        )
    return metrics
