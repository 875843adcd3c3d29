"""Sum the pass counts of a perfbench workload over a range of seeds.

    python tools/count_passes.py WORKLOAD FIRST LAST

Runs the unit of WORKLOAD (a name in ``perfbench/workloads.py``) once for
each seed FIRST..LAST, with BLAS pinned to one thread, and prints one JSON
line: the sums of ``passes``, ``restarts``, ``operator_applies`` and
``trials`` (line-search trials, ``f_evals``) per method and in total, the
trials per pass, each seed's unit fingerprint (the one
``perfbench/run.py`` reports), the number of solves and the number that
failed a check. Pass counts and fingerprints are deterministic, so one run
per seed suffices; this is the aggregate count gate of ROADMAP.md, and
with equal fingerprints the same-bits gate, without a timing run. The
package is imported from ``src/`` of the checkout the script sits in, and
nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(make, name: str, first: int, last: int) -> dict:
    """The sums over the units of seeds first..last of workload ``name``,
    each unit built by ``make(name)``."""
    passes: dict[str, int] = {}
    restarts: dict[str, int] = {}
    applies: dict[str, int] = {}
    trials: dict[str, int] = {}
    fingerprints: dict[str, str] = {}
    solves = failed = 0
    for seed in range(first, last + 1):
        workload = make(name)
        workload.prepare(seed)
        unit = workload.run()
        fingerprints[str(seed)] = unit.fingerprint
        for outcome in unit.outcomes:
            passes[outcome.method] = passes.get(outcome.method, 0) + outcome.passes
            restarts[outcome.method] = (
                restarts.get(outcome.method, 0) + outcome.restarts
            )
            applies[outcome.method] = (
                applies.get(outcome.method, 0) + outcome.operator_applies
            )
            trials[outcome.method] = trials.get(outcome.method, 0) + outcome.f_evals
            solves += 1
            failed += outcome.error is not None
    passes, restarts, applies, trials = (
        dict(sorted(d.items()), total=sum(d.values()))
        for d in (passes, restarts, applies, trials)
    )
    return {
        "workload": name,
        "seeds": [first, last],
        "passes": passes,
        "restarts": restarts,
        "operator_applies": applies,
        "trials": trials,
        "trials_per_pass": {
            m: round(trials[m] / p, 3) if p else None for m, p in passes.items()
        },
        "fingerprints": fingerprints,
        "solves": solves,
        "failed": failed,
    }


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("first", type=int)
    p.add_argument("last", type=int)
    args = p.parse_args(argv)
    if args.first > args.last:
        p.error("FIRST must not exceed LAST")
    print(json.dumps(count(workloads.make, args.workload, args.first, args.last)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
